"""Discrete-step walk sums: counting, kernel series, probabilities, ensembles.

The package splits along the quantities it computes. combinatorics counts
walks by class, kernel evaluates the Gaussian-weighted sums over classes
with certified truncation, stats turns inverse-multiplicity weights into
probability tables, and ensemble maps classes onto two-level systems.
core holds the shared value objects; checks holds the identities that
``pathsum validate`` recomputes at run time; cli is the command-line front end.

``import pathsum`` loads core alone. Every other public name, and each of
the four submodules, is imported on first access (``pathsum.kernel_sum_1d``
loads kernel), so a caller pays only for the modules it uses.
"""

import importlib

from .core import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_MAX_TERMS,
    BigCount,
    DeBroglieCheck,
    DivergenceError,
    EnumerationCapError,
    MomentTriple,
    PathClass1D,
    PathClassND,
    PhysicalParams,
    ResourceCapError,
    SeriesCapError,
    SumResult,
    ValidationError,
    debroglie_limit,
    dimensionless_b,
    max_series_terms,
)

# submodule -> the public names it defines, imported on first access
_LAZY = {
    "combinatorics": (
        "EXACT_STEP_LIMIT",
        "StepSequence",
        "count_paths_by_flips",
        "entropy_1d",
        "entropy_2d",
        "entropy_rate",
        "enumerate_paths",
        "minimum_distance_count",
        "multiplicity",
        "multiplicity_1d",
        "multiplicity_2d_full",
        "multiplicity_2d_rotated",
        "multiplicity_3d",
    ),
    "kernel": (
        "KernelScanRow",
        "action_1d",
        "heat_residual",
        "kernel_sum_1d",
        "kernel_sum_2d",
        "propagator_closed",
        "propagator_normalization",
        "threshold_scan",
    ),
    "stats": (
        "AltProbeResult",
        "ProbabilityEntry",
        "ProbabilityTable",
        "alt_divergence_probe",
        "moments_1d",
        "probability_1d",
        "probability_1d_alt",
        "probability_2d",
    ),
    "ensemble": (
        "SpinEnsemble1D",
        "SpinEnsemble2D",
        "beta_for_path",
        "combined_partition_2d",
        "energy_moments",
        "ensemble_entropy_2d",
        "ensemble_entropy_large_n",
        "entropy_cosh_form",
        "magnetization",
        "mixing_log_count",
        "partition_1d",
        "partition_2d",
        "restriction_check",
        "two_level_entropy",
    ),
}
# public name -> its submodule; each submodule maps to itself
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in (module, *names)}


def __getattr__(name):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"

__all__ = [
    "BigCount",
    "DeBroglieCheck",
    "DivergenceError",
    "EnumerationCapError",
    "MomentTriple",
    "PathClass1D",
    "PathClassND",
    "PhysicalParams",
    "ResourceCapError",
    "SeriesCapError",
    "SumResult",
    "ValidationError",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_ENUMERATION_CAP",
    "debroglie_limit",
    "dimensionless_b",
    "max_series_terms",
    *(name for names in _LAZY.values() for name in names),
]
