"""ghnpost: correlation analysis and orthogonal post-processing for
neural-network parameter checkpoints, as the ``ghnpost`` commands run
them."""

from .checkpoint_io import CheckpointReader, TensorMeta, positional_writer
from .linalg import pca_project, qr_decompose
from .postprocess import DEFAULT_BETA, ghn_orth_tensors, init_tensors
from .report import analyze_checkpoint, compare_checkpoints, emit_histogram_svg, emit_report_csv
from .rng import RngStream
from .stats import correlation_stats, sigma_r

__version__ = "0.1.0"

__all__ = [
    "CheckpointReader",
    "DEFAULT_BETA",
    "RngStream",
    "TensorMeta",
    "analyze_checkpoint",
    "compare_checkpoints",
    "correlation_stats",
    "emit_histogram_svg",
    "emit_report_csv",
    "ghn_orth_tensors",
    "init_tensors",
    "pca_project",
    "positional_writer",
    "qr_decompose",
    "sigma_r",
    "__version__",
]
