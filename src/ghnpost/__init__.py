"""ghnpost: correlation analysis and orthogonal post-processing for
neural-network parameter checkpoints."""

from .checkpoint_io import (
    Checkpoint,
    CheckpointReader,
    TensorMeta,
    read_checkpoint,
    write_checkpoint,
)
from .linalg import PcaResult, pca_project, qr_decompose, sign_adjust
from .postprocess import (
    DEFAULT_BETA,
    PostprocessConfig,
    add_conditional_noise,
    ghn_orth,
    ghn_orth_tensor,
    he_init,
    orthogonal_reinit,
    saxe_orthogonal_init,
)
from .report import (
    AnalysisReport,
    EmbeddingSet,
    analyze_checkpoint,
    compare_checkpoints,
    emit_histogram_svg,
    emit_report_csv,
    project_embeddings,
)
from .rng import RngStream
from .stats import (
    CorrelationMatrix,
    CorrelationStats,
    Histogram,
    channel_correlation,
    correlation_histogram,
    correlation_stats,
    correlation_std,
    sigma_r,
)
from .tensor_ops import Matricized, dematricize, matricize

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Checkpoint",
    "CheckpointReader",
    "CorrelationMatrix",
    "CorrelationStats",
    "DEFAULT_BETA",
    "EmbeddingSet",
    "Histogram",
    "Matricized",
    "PcaResult",
    "PostprocessConfig",
    "RngStream",
    "TensorMeta",
    "add_conditional_noise",
    "analyze_checkpoint",
    "channel_correlation",
    "compare_checkpoints",
    "correlation_histogram",
    "correlation_stats",
    "correlation_std",
    "dematricize",
    "emit_histogram_svg",
    "emit_report_csv",
    "ghn_orth",
    "ghn_orth_tensor",
    "he_init",
    "matricize",
    "orthogonal_reinit",
    "pca_project",
    "project_embeddings",
    "qr_decompose",
    "read_checkpoint",
    "saxe_orthogonal_init",
    "sigma_r",
    "sign_adjust",
    "write_checkpoint",
    "__version__",
]
