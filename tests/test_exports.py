"""Export lists: every name a module exports exists, and the package re-exports only exports."""

import importlib
from pathlib import Path

import pytest

import inaclink

PACKAGE_DIR = Path(inaclink.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


#: the package's names; one dropped from the table would vanish from __all__ unnoticed
PACKAGE_NAMES = {
    "ChannelMoments", "RicianParams", "RisArray", "cascaded_moments", "effective_gain_cdf",
    "rician_amplitude_moments", "McConfig", "ScenarioConfig", "default_scene", "load_config",
    "ConfigError", "ConvergenceError", "DegenerateGeometryError", "InacError",
    "InfeasibleError", "NumericError", "RegionError", "LinkBudget", "OrbitGeometry", "RfParams",
    "coverage_area", "geocentric_angle", "link_budget", "min_satellites", "noise_power_watts",
    "slant_range", "OutageResult", "PowerSplit", "RateTargets", "Scenario", "capacity_hardened",
    "outage_asymptotic", "outage_closed_form", "outage_threshold",
    "folded_normal_cdf", "kummer_1f1_half", "SAMPLER_VERSION", "McEstimate", "ks_distance",
    "mc_capacity", "mc_outage", "sample_cascaded_gains", "NavScene", "PositionFix",
    "PseudorangeSet", "dilution_of_precision", "lsm_solve", "range_noise_from_snr",
    "synthesize_pseudoranges", "FIGURE_IDS", "SweepReport", "emit_csv", "run_sweep",
}


def _exports(module):
    """A module's __all__, or its public names if it has none (errors)."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(f"inaclink.{name}")
    if not hasattr(module, "__all__"):
        pytest.skip(f"inaclink.{name} has no __all__")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_all_lists_every_reexport():
    # one name -> module table serves every package name
    assert len(set(inaclink.__all__)) == len(inaclink.__all__)
    assert inaclink.__all__ == list(inaclink._LAZY)
    assert len(PACKAGE_NAMES) == 53
    assert set(inaclink._LAZY) == PACKAGE_NAMES
    # a name listed twice keeps its last module, which must still export it
    assert [name for name, module in inaclink._LAZY.items()
            if name not in _exports(importlib.import_module(f"inaclink.{module}"))] == []


def test_package_reexports_only_exports():
    # getattr reaches a lazy name through the package's __getattr__, so a
    # stale one fails here as well as an eager one
    modules = [importlib.import_module(f"inaclink.{name}") for name in MODULES]
    stale = [name for name in inaclink.__all__
             if not hasattr(inaclink, name)
             or not any(name in _exports(m) and getattr(m, name) is getattr(inaclink, name)
                        for m in modules)]
    assert stale == []
