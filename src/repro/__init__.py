"""repro — MinTotal Dynamic Bin Packing.

A production-quality reproduction of Li, Tang & Cai, *On Dynamic Bin
Packing for Resource Allocation in the Cloud* (SPAA 2014): the MinTotal DBP
model, the Any Fit / First Fit / Best Fit / Modified First Fit algorithms,
the paper's adversarial lower-bound constructions, OPT bracketing, the
Theorem 4/5 proof machinery as executable analysis, synthetic cloud-gaming
workloads, and a cloud dispatch substrate.

Quickstart
----------
>>> from repro import FirstFit, make_items, simulate
>>> items = make_items([(0, 4, 0.5), (1, 5, 0.4), (2, 3, 0.5)])
>>> result = simulate(items, FirstFit(), capacity=1.0)
>>> float(result.total_cost())
6.0
"""

from .core import (
    Bin,
    BinConfiguration,
    BinRecord,
    CheckpointError,
    ContinuousCost,
    CostModel,
    DuplicateItemIdError,
    Interval,
    InvalidIntervalError,
    InvalidItemSizeError,
    Item,
    OpenBinIndex,
    OpenBinView,
    CheckpointFormatError,
    CheckpointSchemaError,
    InvalidItemTypeError,
    OversizedItemError,
    PackingResult,
    QuantizedCost,
    ResourceDimensionError,
    Resources,
    SimulationError,
    SimulationObserver,
    Simulator,
    StreamCheckpoint,
    StreamSummary,
    TraceStats,
    TraceValidationError,
    interval_ratio,
    make_items,
    parse_configuration,
    simulate,
    simulate_stream,
    size_fits,
    total_demand,
    trace_span,
    trace_stats,
    utilization,
    validate_items,
)
from .algorithms import (
    AnyFit,
    AnyFitAlgorithm,
    Arrival,
    BestFit,
    FirstFit,
    HarmonicFit,
    LastFit,
    BalancedInterleaveFit,
    MinWeightedRemainingFit,
    ModifiedFirstFit,
    NewBinPerItem,
    NextFit,
    PackingAlgorithm,
    RandomFit,
    WorstFit,
    available_algorithms,
    get_algorithm,
)
from .renting import BoundedRepacker, EqualDurationFit, Hybrid, MoveToFront

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "Item",
    "make_items",
    "validate_items",
    "Resources",
    "size_fits",
    "Interval",
    "Bin",
    "BinRecord",
    "BinConfiguration",
    "parse_configuration",
    "PackingResult",
    "Simulator",
    "simulate",
    "simulate_stream",
    "StreamSummary",
    "StreamCheckpoint",
    "CheckpointError",
    "OpenBinIndex",
    "OpenBinView",
    "SimulationError",
    "TraceValidationError",
    "CheckpointFormatError",
    "CheckpointSchemaError",
    "InvalidItemTypeError",
    "InvalidItemSizeError",
    "ResourceDimensionError",
    "InvalidIntervalError",
    "OversizedItemError",
    "DuplicateItemIdError",
    "SimulationObserver",
    "CostModel",
    "ContinuousCost",
    "QuantizedCost",
    "TraceStats",
    "trace_stats",
    "trace_span",
    "total_demand",
    "interval_ratio",
    "utilization",
    # algorithms
    "PackingAlgorithm",
    "AnyFitAlgorithm",
    "Arrival",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "LastFit",
    "RandomFit",
    "AnyFit",
    "NextFit",
    "NewBinPerItem",
    "HarmonicFit",
    "ModifiedFirstFit",
    "MinWeightedRemainingFit",
    "BalancedInterleaveFit",
    "get_algorithm",
    "available_algorithms",
    # renting / migration-bounded families
    "Hybrid",
    "MoveToFront",
    "EqualDurationFit",
    "BoundedRepacker",
]
