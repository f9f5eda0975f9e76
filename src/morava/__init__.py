"""Exact arithmetic for Morava stabilizer groups and the K(1)-local sphere.

The public names and the submodules load on first use (PEP 562), so that
`import morava` and `import morava.cli` load no layer a command does not run.
A submodule is loaded by `__import__` and read from `sys.modules`, not through
`importlib` (which loads `warnings`), so `import morava` loads no module beyond
the built-in `sys`.
"""

import sys

# home module -> the public names it exports, in the order of __all__
_EXPORTS = {
    "padic": ("INF", "CyclicDecomp", "PadicInt", "PadicParams", "PrecisionError", "nu_p"),
    "witt": (
        "DEFAULT_POLYS", "Fq", "FqElem", "WittElem", "WittRing", "fq_field", "make_ring",
        "teichmuller",
    ),
    "order": (
        "OrderElem", "SValuation", "from_digits", "from_int", "from_json", "from_witt",
        "order_one", "s_gen",
    ),
    "stabilizer": (
        "GrElem", "StabElem", "commutator", "element_order", "filtration_level", "gr_project",
        "in_K", "order3_element", "reduced_norm", "s1_split", "torus_embed",
    ),
    "grlie": (
        "abelianization_report", "check_bracket_vs_group", "check_power_vs_group",
        "commutator_span", "gr_bracket", "gr_power", "predicted_span", "trace_kernel",
    ),
    "homalg": (
        "CohomologyGroup", "ZpModuleWithOperator", "cyclic_cohomology", "g1_cohomology_E1",
        "iwasawa_cohomology",
    ),
    "specseq": (
        "Chart", "DifferentialRule", "Monomial", "Summand", "apply_differentials",
        "assemble_stems", "collapse_check",
    ),
    "k1": (
        "HomotopyTable", "fiber_groups", "homotopy_table", "ko_table", "psi_valuation_report",
        "sphere_e2_page",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module 'morava' has no attribute {name!r}")
    __import__(f"morava.{module}")  # returns the package; the submodule is in sys.modules
    value = sys.modules[f"morava.{module}"]
    if name in _HOME:
        value = getattr(value, name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
