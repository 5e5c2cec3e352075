"""Link-level analysis of a NOMA-RIS-aided MEO satellite INAC network.

Closed-form effective-channel statistics, outage probabilities, capacities,
least-squares positioning, and constellation sizing, each cross-validated by
an independent Monte Carlo oracle.

Every package name is lazy: `import inaclink` loads no submodule, and a name's
module is imported on its first use.  Each access reads the module's current
attribute, so a name patched on its module (by a tracer, say) is patched here
too.  The closed forms, the config and its scenario import no numpy, and
neither do the names of `montecarlo` and `sweeps` until a sampler, an
estimator, a fix or a figure that needs numpy is called; the names of
`navigation` load it.  So the commands `analyze`, `constellation` and
`reproduce constellation` run without numpy, and `position`, `simulate`
and the other figures load it.  A module is not an attribute of the
package until something imports it (`from inaclink import sweeps`).
"""

import importlib

#: every package name -> the module that defines it
_LAZY = {
    **dict.fromkeys(
        ("ChannelMoments", "RicianParams", "RisArray", "cascaded_moments", "effective_gain_cdf",
         "rician_amplitude_moments"), "channel"),
    **dict.fromkeys(("McConfig", "ScenarioConfig", "default_scene", "load_config"), "config"),
    **dict.fromkeys(
        ("ConfigError", "ConvergenceError", "DegenerateGeometryError", "InacError", "InfeasibleError",
         "NumericError", "RegionError"), "errors"),
    **dict.fromkeys(
        ("LinkBudget", "OrbitGeometry", "RfParams", "coverage_area", "geocentric_angle", "link_budget",
         "min_satellites", "noise_power_watts", "slant_range"), "geometry"),
    **dict.fromkeys(
        ("OutageResult", "PowerSplit", "RateTargets", "Scenario", "capacity_hardened",
         "outage_asymptotic", "outage_closed_form", "outage_threshold"), "noma"),
    **dict.fromkeys(("folded_normal_cdf", "kummer_1f1_half"), "specialfn"),
    **dict.fromkeys(
        ("SAMPLER_VERSION", "McEstimate", "ks_distance", "mc_capacity", "mc_outage",
         "sample_cascaded_gains"), "montecarlo"),
    **dict.fromkeys(
        ("NavScene", "PositionFix", "PseudorangeSet", "dilution_of_precision", "lsm_solve",
         "range_noise_from_snr", "synthesize_pseudoranges"), "navigation"),
    **dict.fromkeys(("FIGURE_IDS", "SweepReport", "emit_csv", "run_sweep"), "sweeps"),
}

__all__ = list(_LAZY)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
