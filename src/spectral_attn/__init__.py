"""Desk-scale multivariate time-series forecasting with spectrum-scaled and
orthogonally-embedded attention mechanisms, plus attention forensics."""

from .analysis import (
    AttentionReport,
    average_attention,
    condition_number,
    grad_check,
    numerical_rank,
)
from .attention import (
    AttentionTensor,
    LayerAttention,
    dirac_kernel,
    hcc,
    orthogonal_init,
    scaled_dot_attention,
)
from .data import (
    SeriesDataset,
    WindowPair,
    default_ratios,
    load_csv,
    save_csv,
    split,
    synth_multisine,
    window_arrays,
    windows,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyTapeError,
    FiniteInputError,
    FormatError,
    ParseError,
    ShapeError,
    SpectralAttnError,
)
from .models import (
    ForecastModel,
    MetricsReport,
    ModelConfig,
    TrainReport,
    config_hash,
    evaluate_on_split,
    evaluate_windows,
    forecast,
    instance_denormalize,
    instance_normalize,
    load_checkpoint,
    mae,
    mse,
    naive_repeat_forecast,
    patchify,
    save_checkpoint,
    train,
)
from .numerics import (
    Adam,
    GradientTape,
    Parameter,
    Tensor,
    backward,
    substream,
    svd_singular_values,
)
from .spectral import amplitude_matrix

__version__ = "0.1.0"
