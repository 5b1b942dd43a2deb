"""Wilson quotients and Fermat-quotient power sums modulo high prime powers,
computed two independent ways and verified bit-exactly over prime ranges."""

from .bernoulli import (
    BernoulliEngine,
    DividedSet,
    bernoulli_times_p,
    bnpd,
    divided_set,
    exact_bernoulli,
    kummer_admissible,
)
from .differences import binom_diff_mod_p, forward_difference, q_power_sum_via_differences
from .formulas import (
    COEFF_TABLES,
    OmegaVector,
    omega_mod_p_rhs,
    omega_vector,
    qtilde_rhs,
    qtilde_via_coefficients,
    wilson_from_power_sums,
    zero_expressions,
)
from .harness import CheckResult, RunConfig, check_prime, enumerate_primes, run_and_report
from .oracles import (
    WilsonRecord,
    factorial_mod,
    power_sum_mod,
    q_power_sum,
    q_power_sums,
    qtilde,
    sh_mod,
    wilson_quotient,
)
from . import polys
from .polys import MultiPoly, psi_eval, psi_ptilde_consistency, ptilde_eval
from .residues import Modulus, Residue, from_rational, is_prime, make_modulus

__version__ = "0.1.0"


def __getattr__(name: str):
    # PSI and PTILDE are built on first use (see polys), not at import.
    if name in ("PSI", "PTILDE"):
        return getattr(polys, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BernoulliEngine",
    "CheckResult",
    "COEFF_TABLES",
    "DividedSet",
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
    "bnpd",
    "check_prime",
    "divided_set",
    "enumerate_primes",
    "exact_bernoulli",
    "factorial_mod",
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
    "q_power_sums",
    "qtilde",
    "qtilde_rhs",
    "qtilde_via_coefficients",
    "run_and_report",
    "sh_mod",
    "wilson_from_power_sums",
    "wilson_quotient",
    "zero_expressions",
]
