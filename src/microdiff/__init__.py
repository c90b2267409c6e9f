"""Exact kernel for congruence-level p-adic differential operators.

The tower of algebras it computes in: positive operators with level norms,
their one-norm and two-level microlocalizations (inverse derivation powers
adjoined), the projective limits over the level, and their union.  All
arithmetic is exact; truncated data carries certificates so that every norm,
order, polygon and unit verdict is proved, not sampled.
"""

from .catalog import (cofactor_norm_check, gauss_op, product_op,
                      required_truncation, truncated_cofactor)
from .diffop import (MicroOp, TailCertificate, compose, finite_order,
                     is_finite, norm_k, norm_mu, order_Nk, order_nk,
                     order_Nmu, order_nmu, quasi_abelian_defect)
from .errors import (DegreeCapOverflow, DivisionByZero, ExprSyntaxError,
                     InsufficientTruncation, MicrodiffError, NotCertifiable, NotInvertible,
                     PrecisionExhausted, UndecidableFiniteness, UnknownSymbol,
                     WindowOverflow, ZeroOperator)
from .microop import mul, norm_Ek, norm_Fkr, order_Ek, sector_norms, sector_split, weight
from .newton import NewtonPolygon, is_slope, polygon, slope_in_interval
from .padic import PadicScalar
from .tate import TateSeries
from .tower import (Classification, RingLevel, UnitVerdict, check_unit,
                    classify_surconvergent, invert, slope_criterion_check)

__all__ = [
    "MicroOp", "TailCertificate", "PadicScalar", "TateSeries",
    "NewtonPolygon", "RingLevel", "UnitVerdict", "Classification",
    "compose", "mul", "weight",
    "norm_k", "norm_mu", "norm_Ek", "norm_Fkr", "sector_norms", "sector_split",
    "order_Nk", "order_nk", "order_Nmu", "order_nmu", "order_Ek",
    "quasi_abelian_defect", "is_finite", "finite_order",
    "polygon", "is_slope", "slope_in_interval",
    "check_unit", "invert", "slope_criterion_check", "classify_surconvergent",
    "product_op", "gauss_op", "truncated_cofactor", "cofactor_norm_check",
    "required_truncation",
    "MicrodiffError", "PrecisionExhausted", "DivisionByZero", "NotCertifiable",
    "InsufficientTruncation", "WindowOverflow", "DegreeCapOverflow", "NotInvertible",
    "UndecidableFiniteness", "ZeroOperator", "ExprSyntaxError", "UnknownSymbol",
]
