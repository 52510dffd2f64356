"""Exact arithmetic for numerical semigroups, rational monomial curves,
their canonical models, and the rational normal scrolls those models live on.

Importing the package loads none of its modules: each export below is
imported from its home module on first access (PEP 562), so a command that
needs only a few layers compiles and imports only those.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_EXPORTS = {
    "catalog": (
        "AuditReport", "FlagRecord", "audit_fixture", "build_catalog", "render", "row_for_curve",
    ),
    "checks": ("Finding", "surface_scroll_report", "threefold_bundle_report"),
    "chow": (
        "Ambient", "DivisorClass", "RankTwoBundleClass", "chow_class", "chow_degree",
        "chow_mul", "euler_characteristic", "genus_on_cone", "genus_on_surface", "h0_class",
        "pa_from_bundle",
    ),
    "curves": (
        "CurveAnalysis", "MonomialCurve", "analyze", "canonical_exponents",
        "canonical_section_exponents", "equal_up_to_reversal", "format_exponents", "gonality",
        "gonality_pencil", "make_curve", "representative_curve", "sheaf_degree_h0",
        "verify_dualizing_candidate",
    ),
    "errors": (
        "BoundExceeded", "EmptyGenerators", "GcdNotOne", "GenusZero", "NonIntegralGenus",
        "NotAValidKappaStar", "NotIncreasing", "NotTopDimensional", "PathsDisagree",
        "ScrollCurvesError", "UnknownFixture", "UnsupportedDimension",
    ),
    "fixtures": ("FixtureRow", "fixture", "fixture_names"),
    "scrolls": (
        "ScrollStructure", "min_scroll_dimension", "run_decomposition", "scroll_structures",
    ),
    "semigroups": (
        "DEFAULT_GENUS_BOUND", "NumericalSemigroup", "enumerate_genus", "eta_local",
        "is_symmetric", "kappa_sets", "make_semigroup", "mu_local", "recover_from_kappa_star",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """Import an export on first access and keep it on the package.  A
    module that holds exports resolves too, so `scrollcurves.chow` works
    after a bare `import scrollcurves`."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
