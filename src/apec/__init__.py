"""Spanish text adaptation pipeline with metric-gated revision cycles.

Pipeline stages: corpus ingestion and statistics, few-shot
demonstration retrieval, prompt rendering against LLM providers,
readability/similarity scoring, iterative refinement with a strict
improvement gate, and cross-stream ensembling.
"""

from .corpus import (
    CorpusStatsReport,
    Document,
    EvaluationReport,
    SplitSpec,
    corpus_stats,
    evaluate_run,
    filter_by_token_budget,
    load_corpus,
    split_corpus,
)
from .errors import ApecError
from .generation import (
    GREEDY,
    INITIAL_SAMPLED,
    REFINE,
    ChatProvider,
    DecodingParams,
    EchoChatProvider,
    GenerationRequest,
    HttpChatProvider,
    ParsedApecResponse,
    ScriptedChatProvider,
    generate_text,
    parse_apec_response,
    render_apec_prompt,
    render_initial_prompt,
)
from .refine import (
    ApecConfig,
    ApecTrace,
    CycleRecord,
    EnsembleChoice,
    ensemble_select,
    run_apec,
    score_candidate,
)
from .retrieval import (
    Bm25Index,
    Bm25Params,
    Demonstration,
    EmbeddingIndex,
    bm25_top_k,
    build_embedding_index,
    build_index,
    embedding_top_k,
    load_index,
    random_k,
    save_index,
)
from .similarity import (
    CachedEmbeddingProvider,
    EmbeddingProvider,
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
    bow_vector,
    combined_score,
    cosine,
    table_average,
)
from .textstats import (
    FhBreakdown,
    TextStats,
    count_syllables,
    fh_from_counts,
    fh_index,
    segment_sentences,
    text_stats,
    tokenize_words,
)

__version__ = "0.1.0"
