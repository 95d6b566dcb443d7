"""Temporal rule mining over event threads.

The pipeline: ingest events into a thread of worlds (with spike-derived
action atoms), extract the prima facie rules whose statistics clear the
support/prior/probability gates, then score each rule against the rules
sharing its consequence and rank per group.  A brute-force oracle and
synthetic corpus generators back the test suite.

Each exported name is imported from its module on first use (PEP 562), so
``import aptmine`` loads none of the modules, and a command process loads
only those it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each module and the names the package exports from it.
_EXPORTS = {
    "model": "AptmineError ArityError AtomId AtomRegistry Conjunction FormatError"
    " FrozenRegistryError GroundAtom Predicate Thread TimeIndexError",
    "stats": "AptRule RuleStats evaluate_rule negative_probability prior rule_probability"
    " rule_sort_key support",
    "extraction": "EmptyConsequenceError ExtractParams ExtractionReport candidate_preconditions"
    " frequent_env_atoms pf_rule_extract subset_count",
    "causality": "PairProbs ScoredRule UnrelatedRulesError causal_scores pair_probs"
    " pf_rule_compare related",
    "ingestion": "BuiltCorpus CorpusConfig EmptyCorpusError EventRecord SpikeConfig build_corpus"
    " load_location_map parse_events spike_atoms",
    "formats": "Reject load_rules load_scored load_thread save_counts save_rejects save_rules"
    " save_scored save_thread",
    "oracle": "OracleGuardError PlantedRule SynthSpec brute_force_extract brute_force_scores"
    " generate_synthetic sparse_benchmark_corpus t1_corpus",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
