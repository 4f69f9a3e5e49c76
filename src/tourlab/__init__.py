"""tourlab: an exact-arithmetic laboratory for tournament densities.

Enumerates tournaments up to isomorphism, computes bias polynomials and
minimum feedback arc sets, classifies dominant-family membership, and
builds and measures explicit large-tournament constructions.
"""

from importlib import import_module

from .bias import (
    BiasPolynomial,
    ClassificationRecord,
    DensityPolynomialP,
    ForwardHistogram,
    bias_margin,
    bias_polynomial,
    classify_catalog,
    density_poly_p,
    forward_histogram,
    in_F,
    in_bias_subset,
    typical_density,
)
from .core import (
    CanonicalForm,
    Tournament,
    aut_size,
    canonical_form,
    contains_subtournament,
    cyclic3,
    induced,
    parse,
    reverse,
    transitive,
)
from .enumeration import (
    TournamentCatalog,
    enumerate_tournaments,
    load_or_enumerate,
)
from .fas import (
    FasResult,
    fas_dominance_condition,
    in_A,
    min_fas,
    sqrt_log_over,
)

# Public names of the numpy layers, resolved on first access (PEP 562), so
# that importing tourlab for a catalog or table command never loads numpy.
_LAZY = {
    "BigTournament": "construct",
    "build_blowup": "construct",
    "build_tnp": "construct",
    "build_transversal": "construct",
    "blowup_group_count": "construct",
    "DensityReport": "density",
    "density_census": "density",
    "density_exact": "density",
    "density_montecarlo": "density",
    "dominance_report": "density",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "BiasPolynomial",
    "BigTournament",
    "CanonicalForm",
    "ClassificationRecord",
    "DensityPolynomialP",
    "DensityReport",
    "FasResult",
    "ForwardHistogram",
    "Tournament",
    "TournamentCatalog",
    "aut_size",
    "bias_margin",
    "bias_polynomial",
    "blowup_group_count",
    "build_blowup",
    "build_tnp",
    "build_transversal",
    "canonical_form",
    "classify_catalog",
    "contains_subtournament",
    "cyclic3",
    "density_census",
    "density_exact",
    "density_montecarlo",
    "density_poly_p",
    "dominance_report",
    "enumerate_tournaments",
    "fas_dominance_condition",
    "forward_histogram",
    "in_A",
    "in_F",
    "in_bias_subset",
    "induced",
    "load_or_enumerate",
    "min_fas",
    "parse",
    "reverse",
    "sqrt_log_over",
    "transitive",
    "typical_density",
]
