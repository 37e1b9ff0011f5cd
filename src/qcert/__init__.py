"""Multipartite entanglement measure and marginal-compatibility certificates.

The library evaluates an information-theoretic entanglement measure of pure
states through four routes (two read one subset-purity table; the projector
route and the slow oracle are independent of it and of each other),
certifies when a set of claimed reduced density matrices cannot arise from
any common global state, and checks the monogamy and disorder inequalities
that follow from the same conditions. The ``qcert`` command exposes
everything over JSON files.
"""

__version__ = "0.1.0"

import importlib

# Each public name under the module that defines it. A name is imported from
# its module on first access and not kept here, so a rebinding of the module
# attribute reaches every caller, and a command loads only what it runs.
_EXPORTS = {
    "compatibility": (
        "CompatReport",
        "MarginalMismatch",
        "MarginalSet",
        "consistency_precheck",
        "required_subsets",
        "self_check",
        "theorem1_check",
        "theorem2_check",
    ),
    "hilbert": (
        "DensityDiagnostics",
        "Operator",
        "PureState",
        "SpaceShape",
        "SubsetMask",
        "partial_trace",
        "purity",
        "validate_density",
    ),
    "measures": (
        "MeasureReport",
        "entanglement_E_subset_sum",
        "i_concurrence_sq",
        "marginal_purity",
        "measure_all",
        "purity_table",
    ),
    "monogamy": (
        "DisorderReport",
        "MonogamyReport",
        "corollary1_check",
        "corollary1_scan",
        "disorder_check",
    ),
    "observables": ("expectation_pure",),
    "oracle": ("exhaustive_E",),
    "states": (
        "ghz_state",
        "normal_stream",
        "product_state",
        "random_mixed",
        "random_pure",
        "w_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
