"""Exact-arithmetic workbench for invertible simple elliptic singularities.

Computes B-model data (Picard-Fuchs weights, Milnor algebras over Q(sigma),
residue pairings, flat sections and genus-0 four-point functions) and A-model
data (FJRW sectors and correlators, WDVV reconstruction) over the bundled
catalog, with exact rational arithmetic throughout.

``import ises`` loads only :mod:`ises.numcore` and :mod:`ises.isespoly`,
which is all that :func:`load_catalog` needs, so a fresh interpreter that
loads the catalog compiles nothing else.  ``HGWeights`` and
``weight_report`` (from :mod:`ises.pfsolve`) and ``JacobianAlgebra`` (from
:mod:`ises.jacobi`) load their module on first use (PEP 562).
"""

__version__ = "0.1.0"

from importlib import import_module

from .numcore import (  # noqa: F401
    UniPoly,
    RatFun,
    MultiPoly,
    rat,
    parse_rat,
)
from .isespoly import (  # noqa: F401
    CatalogEntry,
    InvertiblePolynomial,
    get_entry,
    load_catalog,
)

_LAZY = {"HGWeights": ".pfsolve", "weight_report": ".pfsolve", "JacobianAlgebra": ".jacobi"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __name__), name)
    return value
