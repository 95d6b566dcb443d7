"""Temporal rule mining over event threads.

The pipeline: ingest events into a thread of worlds (with spike-derived
action atoms), extract the prima facie rules whose statistics clear the
support/prior/probability gates, then score each rule against the rules
sharing its consequence and rank per group.  A brute-force oracle and
synthetic corpus generators back the test suite.
"""

__version__ = "0.1.0"

from .model import (
    AptmineError,
    ArityError,
    AtomId,
    AtomRegistry,
    Conjunction,
    FrozenRegistryError,
    GroundAtom,
    Predicate,
    Thread,
    TimeIndexError,
)
from .stats import (
    AptRule,
    RuleStats,
    evaluate_rule,
    negative_probability,
    prior,
    rule_probability,
    rule_sort_key,
    support,
)
from .spikes import SpikeConfig, spike_atoms
from .extraction import (
    EmptyConsequenceError,
    ExtractParams,
    ExtractionReport,
    candidate_preconditions,
    frequent_env_atoms,
    pf_rule_extract,
    subset_count,
)
from .causality import (
    PairProbs,
    ScoredRule,
    UnrelatedRulesError,
    causal_scores,
    pair_probs,
    pf_rule_compare,
    related,
)
from .ingestion import (
    BuiltCorpus,
    CorpusConfig,
    EmptyCorpusError,
    EventRecord,
    FormatError,
    Reject,
    build_corpus,
    load_location_map,
    parse_events,
)
from .formats import (
    load_rules,
    load_scored,
    load_thread,
    save_counts,
    save_rejects,
    save_rules,
    save_scored,
    save_thread,
)
from .oracle import (
    OracleGuardError,
    PlantedRule,
    SynthSpec,
    brute_force_extract,
    brute_force_scores,
    generate_synthetic,
    sparse_benchmark_corpus,
    t1_corpus,
)

__all__ = [
    "__version__",
    # model
    "AptmineError", "ArityError", "AtomId", "AtomRegistry", "Conjunction",
    "FrozenRegistryError", "GroundAtom", "Predicate", "Thread", "TimeIndexError",
    # stats
    "AptRule", "RuleStats", "evaluate_rule", "negative_probability", "prior",
    "rule_probability", "rule_sort_key", "support",
    # spikes
    "SpikeConfig", "spike_atoms",
    # extraction
    "EmptyConsequenceError", "ExtractParams", "ExtractionReport",
    "candidate_preconditions", "frequent_env_atoms", "pf_rule_extract", "subset_count",
    # causality
    "PairProbs", "ScoredRule", "UnrelatedRulesError", "causal_scores", "pair_probs",
    "pf_rule_compare", "related",
    # ingestion
    "BuiltCorpus", "CorpusConfig", "EmptyCorpusError", "EventRecord", "FormatError",
    "Reject", "build_corpus", "load_location_map", "parse_events",
    # formats
    "load_rules", "load_scored", "load_thread", "save_counts", "save_rejects",
    "save_rules", "save_scored", "save_thread",
    # oracle
    "OracleGuardError", "PlantedRule", "SynthSpec", "brute_force_extract",
    "brute_force_scores", "generate_synthetic", "sparse_benchmark_corpus",
    "t1_corpus",
]
