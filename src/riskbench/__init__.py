"""riskbench: risk-register analytics toolkit.

Similarity analysis between registers, predictive risk-template generation
with recall/precision/F1 scoring, finite-state risk-lifecycle tracking with
performance ratios and style classification, and risk-breakdown-structure
coverage and co-occurrence analysis.
"""

__version__ = "0.1.0"

from .corpus import (
    Assessment,
    Corpus,
    ProjectRecord,
    Qualitative,
    RegisterSnapshot,
    RiskItem,
    ScaleConfig,
    SizeBand,
    default_scale_config,
    load_corpus,
    normalize_assessment,
    parse_register,
)
from .lifecycle import (
    HotellingResult,
    Origin,
    Outcome,
    RatioSet,
    RiskLifecycle,
    RiskObservation,
    RiskState,
    RiskTransition,
    StyleLabel,
    StyleThresholds,
    accepts,
    aggregate_ratios,
    build_lifecycle,
    classify_style,
    compute_ratios,
    corpus_ratios,
    hotelling_t2,
    infer_state,
    project_lifecycles,
    step,
)
from .rbs import CoverageReport, Rbs, cooccurrence, coverage, default_rbs, load_rbs
from .similarity import (
    TTestResult,
    document_similarity,
    evaluation_level_report,
    evaluation_similarity,
    match_registers,
    pooling_similarity,
    qualitative_match,
    two_sample_t_test,
)
from .template import (
    CategorySet,
    EvalCounts,
    FilterCriteria,
    RiskGroup,
    RiskTemplate,
    build_template,
    classify_risk,
    evaluate_template,
    filter_projects,
    group_risks,
    summarize_group,
)
from .vectorize import (
    EmbeddingBackend,
    TfidfModel,
    cosine,
    embed_text,
    load_sentence_vectors,
    load_word_vectors,
    tfidf_fit,
    tfidf_vector,
    tokenize,
)
