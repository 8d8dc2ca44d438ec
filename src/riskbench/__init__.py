"""riskbench: risk-register analytics toolkit.

Similarity analysis between registers, predictive risk-template generation
with recall/precision/F1 scoring, finite-state risk-lifecycle tracking with
performance ratios and style classification, and risk-breakdown-structure
coverage and co-occurrence analysis.

`import riskbench` runs no engine: each engine module below is registered
lazily and runs on the first use of one of its attributes, so a command
loads only the engines it calls.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

__version__ = "0.1.0"

# engine module -> the public names it serves from the package
_PUBLIC = {
    "corpus": ("Assessment", "Corpus", "ProjectRecord", "Qualitative", "RegisterSnapshot",
               "RiskItem", "ScaleConfig", "SizeBand", "default_scale_config", "load_corpus",
               "normalize_assessment", "parse_register"),
    "lifecycle": ("HotellingResult", "Origin", "Outcome", "RatioSet", "RiskLifecycle",
                  "RiskObservation", "RiskState", "RiskTransition", "StyleLabel",
                  "StyleThresholds", "accepts", "aggregate_ratios", "build_lifecycle",
                  "classify_style", "compute_ratios", "corpus_ratios", "hotelling_t2",
                  "infer_state", "project_lifecycles", "step"),
    "rbs": ("CoverageReport", "Rbs", "cooccurrence", "coverage", "default_rbs", "load_rbs"),
    "similarity": ("TTestResult", "document_similarity", "evaluation_level_report",
                   "evaluation_similarity", "match_registers", "pooling_similarity",
                   "qualitative_match", "two_sample_t_test"),
    "template": ("CategorySet", "EvalCounts", "FilterCriteria", "RiskGroup", "RiskTemplate",
                 "build_template", "classify_risk", "evaluate_template", "filter_projects",
                 "group_risks", "summarize_group"),
    "vectorize": ("EmbeddingBackend", "TfidfModel", "cosine", "embed_text",
                  "load_sentence_vectors", "load_word_vectors", "tfidf_fit", "tfidf_vector",
                  "tokenize"),
    "report": (),
    "parallel": (),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_OWNER)

for _name in _PUBLIC:
    _spec = PathFinder.find_spec(f"{__name__}.{_name}", __path__)
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])  # only arms the load
del _name, _spec


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
