"""The CLI gives the same artifacts for a series scaled by any power of two.

Scaling a CSV by 2^k changes no float but its exponent, as long as every
value stays a normal number, so the standardized values, the trained model
and every artifact of `train` must be byte-identical to k = 0, or the run
must end in one `error:` line with exit code 1. Hypothesis draws k over the
whole float64 exponent range. Beyond it the values overflow to inf (which
`load_csv` rejects), become subnormal and lose bits (which `split` rejects),
or all round to 0; a series of zeros is a valid constant series, which must
train without error.
"""

import contextlib
import io
import tempfile
import warnings
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from spectral_attn.cli import main  # noqa: E402
from spectral_attn.data import SeriesDataset, save_csv, synth_multisine  # noqa: E402

CONFIG_TEXT = (
    "architecture=variate\nmechanism=soatten\nL=32\nT=8\nH=2\nD=8\nF=4\nlayers=1\n"
    "dropout=0.1\nlr=0.01\nbatch_size=32\nepochs=1\nseed=3\n"
)
ARTIFACTS = ("checkpoint.json", "train_report.json", "metrics.json")


def series():
    dataset = synth_multisine(3, 480, [[(3, 1.0, 0.0)], [(5, 0.7, 0.4)], [(7, 2.5, 1.1)]],
                              noise_sigma=0.05, seed=2, period=24)
    # Squared, each variate has a mean far from 0 while its smallest values
    # keep every significant bit, so they turn subnormal and lose bits at
    # scales where the mean and std are still exact.
    return replace(dataset, values=np.square(dataset.values))


def train(values):
    """Exit code, stderr and artifact bytes of one in-process CLI `train`."""
    base = series()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_csv(tmp / "series.csv", SeriesDataset(base.name, values, base.timestamps,
                                                   base.variate_names))
        (tmp / "model.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy overflow note would be a silent fault
            code = main(["train", "--config", str(tmp / "model.cfg"), "--data",
                         str(tmp / "series.csv"), "--out", str(tmp / "run")])
        artifacts = {name: (tmp / "run" / name).read_bytes()
                     for name in ARTIFACTS if (tmp / "run" / name).exists()}
    return code, err.getvalue(), artifacts


@lru_cache(maxsize=None)
def unscaled_artifacts():
    code, err, artifacts = train(series().values)
    assert code == 0, err
    return artifacts


@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(-1100, 1100))
@example(k=-1090)  # every value rounds to 0
@example(k=-1074)  # every variate holds subnormal values
@example(k=-1060)
@example(k=-1021)
@example(k=-1017)  # the smallest values lose bits; the mean and std are still exact
@example(k=-900)  # the squares of the unscaled values would underflow
@example(k=512)  # ... and overflow
@example(k=1021)  # the largest values are just below the float64 limit
@example(k=1023)  # ... and beyond it
def test_train_artifacts_are_scale_free_or_one_error_line(k):
    with np.errstate(over="ignore", under="ignore"):
        values = np.ldexp(series().values, k)
    code, err, artifacts = train(values)
    if not values.any():
        assert code == 0, err
    elif code == 0:
        assert artifacts == unscaled_artifacts(), k
    else:
        lines = err.splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, err)
        assert not artifacts
