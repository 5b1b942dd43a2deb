"""Wilson quotients and Fermat-quotient power sums modulo high prime powers,
computed two independent ways and verified bit-exactly over prime ranges."""

from .bernoulli import (
    BernoulliEngine,
    DividedSet,
    bnpd,
    divided_set,
    forward_difference,
    kummer_admissible,
)
from .formulas import (
    COEFF_TABLES,
    PTILDE,
    factorial_form,
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
    qtilde,
    qtilde_sums,
    wilson_quotient,
)
from .residues import Modulus, Residue, is_prime, make_modulus

__version__ = "0.1.0"

__all__ = [
    "BernoulliEngine",
    "CheckResult",
    "COEFF_TABLES",
    "DividedSet",
    "Modulus",
    "PTILDE",
    "Residue",
    "RunConfig",
    "WilsonRecord",
    "bnpd",
    "check_prime",
    "divided_set",
    "enumerate_primes",
    "factorial_form",
    "factorial_mod",
    "forward_difference",
    "is_prime",
    "kummer_admissible",
    "make_modulus",
    "omega_mod_p_rhs",
    "omega_vector",
    "qtilde",
    "qtilde_rhs",
    "qtilde_sums",
    "qtilde_via_coefficients",
    "run_and_report",
    "wilson_from_power_sums",
    "wilson_quotient",
    "zero_expressions",
]
