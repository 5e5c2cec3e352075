"""Link-level analysis of a NOMA-RIS-aided MEO satellite INAC network.

Closed-form effective-channel statistics, outage probabilities, capacities,
diversity slopes, least-squares positioning, and constellation sizing, each
cross-validated by an independent Monte Carlo oracle.

The closed forms, the config and its scenario import no numpy.  The names of
`montecarlo`, `navigation` and `sweeps`, which do, are re-exported lazily:
their module is imported on first access, and each access reads the module's
current attribute, so a name patched on its module (by a tracer, say) is
patched here too.  Those modules are not attributes of the package until
something imports them (`from inaclink import sweeps`).
"""

import importlib
import types

from .channel import (
    ChannelMoments,
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
    rician_amplitude_moments,
)
from .config import McConfig, ScenarioConfig, default_scene, load_config, load_scene
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateGeometryError,
    InacError,
    InfeasibleError,
    NumericError,
    RegionError,
)
from .geometry import (
    LinkBudget,
    OrbitGeometry,
    RfParams,
    coverage_area,
    geocentric_angle,
    link_budget,
    min_satellites,
    noise_power_watts,
    slant_range,
)
from .noma import (
    OutageResult,
    PowerSplit,
    RateTargets,
    Scenario,
    capacity_hardened,
    diversity_order_estimate,
    outage_asymptotic,
    outage_closed_form,
    outage_threshold,
)
from .specialfn import folded_normal_cdf, kummer_1f1_half

#: lazily re-exported name -> the module that defines it
_LAZY = {
    **dict.fromkeys(
        ("SAMPLER_VERSION", "McEstimate", "ks_distance", "mc_capacity", "mc_outage",
         "sample_cascaded_gains"), "montecarlo"),
    **dict.fromkeys(
        ("LsmControl", "NavScene", "PositionFix", "PseudorangeSet", "dilution_of_precision",
         "lsm_solve", "range_noise_from_snr", "synthesize_pseudoranges"), "navigation"),
    **dict.fromkeys(("FIGURE_IDS", "SweepReport", "emit_csv", "run_sweep"), "sweeps"),
}

#: the eager names above, then the lazy ones
__all__ = [n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
__all__ += _LAZY

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
