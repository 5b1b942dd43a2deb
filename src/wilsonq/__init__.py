"""Wilson quotients and Fermat-quotient power sums modulo high prime powers,
computed two independent ways and verified bit-exactly over prime ranges."""

from .bernoulli import (
    DividedBernoulliSet,
    bernoulli_times_p,
    bnp,
    bnpd,
    divided_set,
    exact_bernoulli,
    kummer_admissible,
    power_sum_mod,
)
from .differences import binom_diff_mod_p, forward_difference, q_power_sum_via_differences
from .formulas import (
    COEFF_TABLES,
    CoefficientTables,
    OmegaVector,
    omega_mod_p_rhs,
    omega_vector,
    qtilde_rhs,
    qtilde_via_coefficients,
    wilson_from_power_sums,
    zero_expression_suite,
)
from .harness import RunConfig, check_prime, enumerate_primes, run_and_report
from .oracles import (
    WilsonRecord,
    factorial_mod,
    fermat_quotient,
    q_power_sum,
    qtilde,
    sh_mod,
    wilson_quotient,
)
from .polys import PSI, PTILDE, MultiPoly, psi_eval, psi_ptilde_consistency, ptilde_eval
from .residues import Modulus, Residue, from_rational, is_prime, make_modulus
from .results import CheckResult

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "COEFF_TABLES",
    "CoefficientTables",
    "DividedBernoulliSet",
    "Modulus",
    "MultiPoly",
    "OmegaVector",
    "PSI",
    "PTILDE",
    "Residue",
    "RunConfig",
    "WilsonRecord",
    "bernoulli_times_p",
    "binom_diff_mod_p",
    "bnp",
    "bnpd",
    "check_prime",
    "divided_set",
    "enumerate_primes",
    "exact_bernoulli",
    "factorial_mod",
    "fermat_quotient",
    "forward_difference",
    "from_rational",
    "is_prime",
    "kummer_admissible",
    "make_modulus",
    "omega_mod_p_rhs",
    "omega_vector",
    "power_sum_mod",
    "psi_eval",
    "psi_ptilde_consistency",
    "ptilde_eval",
    "q_power_sum",
    "q_power_sum_via_differences",
    "qtilde",
    "qtilde_rhs",
    "qtilde_via_coefficients",
    "run_and_report",
    "sh_mod",
    "wilson_from_power_sums",
    "wilson_quotient",
    "zero_expression_suite",
]
