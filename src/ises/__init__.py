"""Exact-arithmetic workbench for invertible simple elliptic singularities.

Computes B-model data (Picard-Fuchs weights, residue pairings, genus-0
correlators, mirror-map q-expansions) and A-model data (FJRW sectors and
correlators, WDVV reconstruction) and cross-verifies their identification at
the special limits of the marginal deformation parameter.
"""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    Rat,
    UniPoly,
    RatFun,
    MultiPoly,
    QSeries,
    LogSeries,
    AlgebraicField,
    AlgebraicNum,
    cyclotomic_field,
    root_of_unity,
    rat,
    parse_rat,
    fmt_rat,
)
from .isespoly import (  # noqa: F401
    CatalogEntry,
    InvertiblePolynomial,
    get_entry,
    load_catalog,
)
from .pfsolve import (  # noqa: F401
    HGWeights,
    weight_report,
)
from .jacobi import JacobianAlgebra  # noqa: F401
