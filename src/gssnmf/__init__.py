"""Seed-guided, label-supervised non-negative matrix factorization.

A text corpus becomes a tf-idf term-document matrix, which is factorized
with multiplicative updates under optional seed-word guidance and
document-label supervision; the results are scored with Macro F1 and a
co-occurrence coherence measure. The ``gssnmf`` command line wires the
pieces together, including (lambda, mu) grid sweeps.
"""

from .cli import SweepSpec
from .evaluation import (
    EvalReport,
    avg_coherence,
    coherence,
    incidence_coherence,
    load_report,
    macro_f1,
    save_report,
    threshold_predictions,
    topics_table,
)
from .factorization import (
    FactorizationError,
    FactorizationResult,
    ModelConfig,
    Problem,
    fit,
    fit_cells,
    initial_factors,
    load_result,
    objective,
    save_result,
    top_keywords,
    update_step,
)
from .linalg import (
    Matrix,
    as_matrix,
    frobenius_sq,
    singular_values,
)
from .stemmer import porter_stem
from .supervision import (
    LabelMatrix,
    MaskMatrix,
    SeedMatrix,
    build_label_matrix,
    build_seed_matrix,
    load_label_assignments,
    load_mask,
    load_seed_words,
    save_mask,
    split_mask,
)
from .textpipe import (
    CorpusFormatError,
    CorpusMatrix,
    PipelineParams,
    Vocabulary,
    build_corpus,
    default_stopwords,
    doc_token_sets,
    load_corpus,
    load_stopwords,
    read_corpus_dir,
    save_corpus,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusFormatError",
    "CorpusMatrix",
    "EvalReport",
    "FactorizationError",
    "FactorizationResult",
    "LabelMatrix",
    "MaskMatrix",
    "Matrix",
    "ModelConfig",
    "Problem",
    "PipelineParams",
    "SeedMatrix",
    "SweepSpec",
    "Vocabulary",
    "as_matrix",
    "avg_coherence",
    "build_corpus",
    "build_label_matrix",
    "build_seed_matrix",
    "coherence",
    "incidence_coherence",
    "default_stopwords",
    "doc_token_sets",
    "fit",
    "fit_cells",
    "frobenius_sq",
    "initial_factors",
    "load_corpus",
    "load_label_assignments",
    "load_mask",
    "load_report",
    "load_result",
    "load_seed_words",
    "load_stopwords",
    "macro_f1",
    "objective",
    "porter_stem",
    "read_corpus_dir",
    "save_corpus",
    "save_mask",
    "save_report",
    "save_result",
    "singular_values",
    "split_mask",
    "threshold_predictions",
    "tokenize",
    "top_keywords",
    "topics_table",
    "update_step",
]
