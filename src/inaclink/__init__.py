"""Link-level analysis of a NOMA-RIS-aided MEO satellite INAC network.

Closed-form effective-channel statistics, outage probabilities, capacities,
diversity slopes, least-squares positioning, and constellation sizing, each
cross-validated by an independent Monte Carlo oracle.
"""

from .channel import (
    ChannelMoments,
    RicianParams,
    RisArray,
    cascaded_moments,
    effective_gain_cdf,
    rician_amplitude_moments,
)
from .config import ScenarioConfig, default_scene, load_config, load_scene
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
from .montecarlo import (
    SAMPLER_VERSION,
    McConfig,
    McEstimate,
    ks_distance,
    mc_capacity,
    mc_outage,
    sample_cascaded_gains,
)
from .navigation import (
    LsmControl,
    NavScene,
    PositionFix,
    PseudorangeSet,
    design_row,
    dilution_of_precision,
    lsm_solve,
    range_noise_from_snr,
    synthesize_pseudoranges,
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
from .sweeps import FIGURE_IDS, SweepReport, emit_csv, run_sweep

__version__ = "0.1.0"
