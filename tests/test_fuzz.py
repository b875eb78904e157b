"""Mutation fuzzing of the CLI's input files.

Each example overwrites a few bytes of a valid CSV, config or checkpoint and
runs the command that reads it in-process. Whatever the bytes, the command
must exit 0, or exit 1 or 2 with exactly one `error:` line on stderr and no
traceback. Mutations replace bytes and never insert them, so no number in a
file can grow by more than one digit; every config value is written without
a space after `=` and the last line is the seed, which keeps models built
from mutated config files small. A mutated checkpoint needs no such care:
a load checks each parameter's array against the config before it
allocates anything, so a grown size is an error, not a large model.

A byte replacement inside a checkpoint's base64 data rarely lands on a
float64 exponent, so non-finite parameter values get their own case.
"""

import base64
import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from spectral_attn.cli import main  # noqa: E402
from spectral_attn.data import save_csv, synth_multisine  # noqa: E402

CONFIG_TEXT = (
    "architecture=variate\nmechanism=soatten\nL=8\nT=2\nP=4\nS=2\nH=1\nD=4\nF=4\nlayers=1\n"
    "dropout=0.1\nlr=0.01\nbatch_size=64\nepochs=1\nseed=3\n"
)

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@lru_cache(maxsize=None)
def valid_inputs():
    """Bytes of a valid CSV, config and trained checkpoint."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv = tmp / "series.csv"
        save_csv(csv, synth_multisine(2, 120, [[(3, 1.0, 0.0)], [(5, 0.7, 0.4)]],
                                      noise_sigma=0.05, seed=2, period=24))
        config = tmp / "model.cfg"
        config.write_text(CONFIG_TEXT, encoding="utf-8")
        assert run(["train", "--config", str(config), "--data", str(csv),
                    "--out", str(tmp / "run")])[0] == 0
        checkpoint = tmp / "run" / "checkpoint.json"
        return {"csv": csv.read_bytes(), "config": config.read_bytes(),
                "checkpoint": checkpoint.read_bytes()}


def run(argv):
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def mutate(raw, edits):
    data = bytearray(raw)
    for position, value in edits:
        data[position % len(data)] = value
    return bytes(data)


# Bytes that keep a file close to well-formed come up as often as arbitrary ones.
BYTES = st.one_of(st.sampled_from(b'0123456789.-+eE,=#:"[]{} \n'), st.integers(0, 255))
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), BYTES), min_size=1, max_size=3)


@pytest.mark.parametrize("kind", ["csv", "config", "checkpoint"])
@FUZZ
@given(edits=EDITS)
def test_mutated_input_exits_cleanly(kind, edits):
    files = dict(valid_inputs())
    files[kind] = mutate(files[kind], edits)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, raw in files.items():
            (tmp / name).write_bytes(raw)
        if kind == "checkpoint":
            argv = ["evaluate", "--checkpoint", str(tmp / "checkpoint"), "--data", str(tmp / "csv")]
        else:
            argv = ["train", "--config", str(tmp / "config"), "--data", str(tmp / "csv"),
                    "--out", str(tmp / "run")]
        code, err = run(argv)
    assert "Traceback" not in err
    if code != 0:
        assert code in (1, 2), (code, err)
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err


@FUZZ
@given(param=st.integers(0, 1 << 16), position=st.integers(0, 1 << 16),
       sign=st.integers(0, 1), mantissa=st.integers(0, (1 << 52) - 1))
def test_non_finite_parameter_value_is_one_error_line(param, position, sign, mantissa):
    # exponent bits all ones: an infinity (mantissa 0) or a NaN with any payload
    files = dict(valid_inputs())
    payload = json.loads(files["checkpoint"])
    target = sorted(payload["params"])[param % len(payload["params"])]
    values = bytearray(base64.b64decode(payload["params"][target]["data"]))
    index = position % (len(values) // 8)
    bits = (sign << 63) | (0x7FF << 52) | mantissa
    values[8 * index:8 * index + 8] = bits.to_bytes(8, "little")
    payload["params"][target]["data"] = base64.b64encode(bytes(values)).decode("ascii")
    files["checkpoint"] = json.dumps(payload).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, raw in files.items():
            (tmp / name).write_bytes(raw)
        code, err = run(["evaluate", "--checkpoint", str(tmp / "checkpoint"),
                         "--data", str(tmp / "csv")])
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error:"), (code, err)
    assert f"parameter {target!r}" in lines[0] and f"flat index {index} " in lines[0]
