"""Stability region of the two-user broadcast channel with bursty arrivals.

Closed-form success probabilities and stability regions for the generic,
interference-as-noise, and superposition/successive-decoding schemes under
fixed or queue-adaptive power, verified against a slotted Monte Carlo queue
simulator.
"""

from .channel import (
    Decoding,
    InvalidParameterError,
    InvalidProfileError,
    MonteCarloProfile,
    PowerScheme,
    SuccessProfile,
    SystemParams,
    build_profile,
    layered_decode_success,
    mc_estimate_profile,
    sinr_success,
    snr_success,
    success_events,
)
from .region import (
    InfeasibleRateError,
    Membership,
    RatePoint,
    SchemeMismatchError,
    StabilityRegion,
    SubRegion,
    boundary_scale,
    dominant_service_rates,
    membership,
    membership_grid,
    region_fixed_sc_decoupled,
    region_for_params,
    region_general,
    trace_boundary,
)
from .sim import (
    DominantMode,
    EstimationFailureError,
    SimConfig,
    SimResult,
    SlotEvents,
    Verdict,
    classify_stability,
    estimate_boundary,
    run,
    run_batch,
    step,
    system_verdict,
)

__version__ = "0.1.0"
