"""Spanish text adaptation pipeline with metric-gated revision cycles.

Pipeline stages: corpus ingestion and statistics, few-shot
demonstration retrieval, prompt rendering against LLM providers,
readability/similarity scoring, iterative refinement with a strict
improvement gate, and cross-stream ensembling.
"""

__version__ = "0.1.0"  # set before the imports: apec.errors reads it for the User-Agent

from .corpus import (
    corpus_stats,
    evaluate_run,
    load_corpus,
)
from .generation import (
    generate_text,
    parse_apec_response,
    render_apec_prompt,
    render_initial_prompt,
)
from .refine import (
    ensemble_select,
    run_apec,
)
from .retrieval import (
    bm25_top_k,
    build_index,
    embedding_top_k,
    random_k,
)
from .similarity import (
    bow_vector,
    combined_score,
    cosine,
)
from .textstats import (
    fh_index,
    text_stats,
)
