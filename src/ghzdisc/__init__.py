"""Exact-arithmetic simulator for adaptive measurement cascades on GHZ chains."""

from .amplitude import AMP_ONE, AMP_ZERO, SQRT_HALF, AmplitudeError, ExactAmplitude
from .engine import (
    PLUS_MINUS,
    Basis,
    ChainState,
    MeasurementError,
    bob_distribution,
    ghz_state,
    measure_next,
)
from .plans import (
    LeafClass,
    PlanError,
    PlanParams,
    classify,
    constants,
    cpm_plan,
    enumerate_branches,
    eta_state,
    spm_basis,
    spm_plan,
)
from .protocol import (
    CounterStream,
    LeafSampler,
    ProtocolConfig,
    Strategy,
    discriminate,
    run_protocol,
    w_statistic,
)
from .oracle import bob_marginal, checkpoint_report, no_signaling_suite, random_plan
