"""Exact-arithmetic workbench for invertible simple elliptic singularities.

Computes B-model data (Picard-Fuchs weights, Milnor algebras over Q(sigma),
residue pairings, flat sections and genus-0 four-point functions) and A-model
data (FJRW sectors and correlators, WDVV reconstruction) over the bundled
catalog, with exact rational arithmetic throughout.
"""

__version__ = "0.1.0"

from .numcore import (  # noqa: F401
    Rat,
    UniPoly,
    RatFun,
    MultiPoly,
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
