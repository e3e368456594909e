"""leaklab: side-channel leakage estimation against a simulated
memory-encrypted guest.

The pipeline: run a workload on a :class:`SimMachine`, collect a
multi-channel trace under a :class:`CollectorPolicy`, generate labeled
datasets with the privacy games, extract features, train attack
classifiers and compare the measured advantage against the analytic
privacy bound.
"""

__version__ = "0.1.0"

from .analysis import (
    AdvantageReport,
    FingerprintReport,
    KsResult,
    LogRegModel,
    SetResult,
    advantage_from_matrices,
    dp_bound,
    dp_bound_useful,
    evaluate_advantage,
    evaluate_seq_advantage,
    fingerprint_advantage,
    ks_test,
    stratified_split,
    train_logreg,
)
from .features import (
    FEATURE_SET_NAMES,
    FeatureParams,
    FeatureVector,
    TokenSequence,
    extract_features,
    ngram_hash_matrix,
    tokenize,
    trace_stats,
)
from .games import (
    GameConfig,
    LabeledDataset,
    PriorDistribution,
    bundled_url_list,
    derive_seed,
    run_distinguishing_game,
    run_fingerprinting_game,
)
from .machine import (
    CollectorError,
    CollectorPolicy,
    MachineFault,
    Observation,
    Observer,
    SimMachine,
    collect,
    observe,
    place,
    run_collect,
)
from .mitigation import (
    dummy_shift,
    noise_and_threshold,
    sample_dummy_count,
    threshold_value,
    verify_dummy_dp,
)
from .trace import (
    CHANNEL_ORDER,
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    TraceSyntaxError,
    parse_trace,
    write_trace,
)

__all__ = [
    "__version__",
    # trace
    "Trace", "TraceSyntaxError", "parse_trace", "write_trace",
    "CodeFetch", "DataAccess", "CiphertextDiff", "CounterSnapshot", "Marker",
    "CHANNEL_ORDER",
    # machine
    "SimMachine", "MachineFault", "CollectorError", "CollectorPolicy",
    "Observation", "Observer", "observe", "place", "collect", "run_collect",
    # features
    "FEATURE_SET_NAMES", "FeatureParams", "FeatureVector", "extract_features",
    "trace_stats", "TokenSequence", "tokenize", "ngram_hash_matrix",
    # analysis
    "train_logreg", "LogRegModel", "stratified_split", "SetResult",
    "AdvantageReport", "advantage_from_matrices", "evaluate_advantage",
    "evaluate_seq_advantage", "FingerprintReport", "fingerprint_advantage",
    "dp_bound", "dp_bound_useful", "KsResult", "ks_test",
    # mitigation
    "dummy_shift", "sample_dummy_count", "verify_dummy_dp",
    "threshold_value", "noise_and_threshold",
    # games
    "GameConfig", "LabeledDataset", "PriorDistribution", "bundled_url_list",
    "derive_seed", "run_distinguishing_game", "run_fingerprinting_game",
]
