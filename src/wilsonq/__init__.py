"""Wilson quotients and Fermat-quotient power sums modulo high prime powers,
computed two independent ways and verified bit-exactly over prime ranges.

The package exports the names of the README's Library block; everything
else is imported from its own module."""

from .bernoulli import divided_set
from .formulas import factorial_form, omega_vector, qtilde_rhs, wilson_from_power_sums
from .oracles import factorial_mod, qtilde, qtilde_sums, wilson_quotient

__version__ = "0.1.0"

__all__ = [
    "divided_set",
    "factorial_form",
    "factorial_mod",
    "omega_vector",
    "qtilde",
    "qtilde_rhs",
    "qtilde_sums",
    "wilson_from_power_sums",
    "wilson_quotient",
]
