"""Exact-arithmetic simulator for adaptive measurement cascades on GHZ chains."""

from .engine import Basis, ChainState, MeasurementError, bob_distribution, measure_next
from .plans import (
    LeafClass,
    PlanError,
    PlanParams,
    classify,
    constants,
    cpm_plan,
    spm_plan,
)
from .protocol import (
    CounterStream,
    LeafSampler,
    ProtocolConfig,
    Strategy,
    discriminate,
    law,
    run_protocol,
    w_statistic,
)
from .oracle import bob_marginal, checkpoint_report, no_signaling_suite, random_plan
