"""Exact-arithmetic composition algebras, D4 triality and group gradings.

Everything is computed over cyclotomic fields Q(zeta_N) with exact rational
coefficients; no check in this library carries a numerical tolerance.
"""

__version__ = "0.1.0"

from .scalars import CycloField, CycloScalar, make_field
from .fgab import AbGroup, GroupElem, GroupHom, make_group, smith_normal_form

__all__ = [
    "CycloField",
    "CycloScalar",
    "make_field",
    "AbGroup",
    "GroupElem",
    "GroupHom",
    "make_group",
    "smith_normal_form",
    "__version__",
]
