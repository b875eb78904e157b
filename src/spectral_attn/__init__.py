"""Desk-scale multivariate time-series forecasting with spectrum-scaled and
orthogonally-embedded attention mechanisms, plus attention forensics.

The root exports the library API of the README's "Library use" section and
the error classes; everything else is imported from its submodule."""

from . import analysis, attention, data, models, numerics, spectral
from .data import split, synth_multisine, window_arrays
from .errors import (ConfigError, DataError, EmptyTapeError, FiniteInputError, FormatError, ParseError,
                     ShapeError, SpectralAttnError)
from .models import ForecastModel, ModelConfig, forecast, train

__version__ = "0.1.0"
