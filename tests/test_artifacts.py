"""Artifact writers replace their target atomically: a writer that fails
midway leaves the previous file as it was and no temporary file behind."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from spectral_attn import analysis, artifacts, data, models
from spectral_attn.artifacts import atomic_open, write_json
from spectral_attn.errors import FiniteInputError


def _raise_inside(path):
    with atomic_open(path) as fh:
        fh.write("partial")
        raise RuntimeError("writer failed")


def _checkpoint_failing_midway(path, monkeypatch):
    # the text is encoded before the temporary file opens, so the last step fails
    def failing_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(artifacts.os, "replace", failing_rename)
    models.save_checkpoint(path, models.ForecastModel(models.ModelConfig(L=16, T=4, C=2, H=2, D=8)))


# writer -> call that fails after the target's temporary file was opened
FAILING_WRITES = {
    "atomic_open": lambda path, mp: _raise_inside(path),
    "write_json": lambda path, mp: write_json(path, {"a": 1.0, "b": object()}),
    "write_matrix_csv": lambda path, mp: analysis.write_matrix_csv(path, np.zeros(3)),
    "write_pgm": lambda path, mp: analysis.write_pgm(path, np.zeros(3)),
    "save_csv": lambda path, mp: data.save_csv(path, SimpleNamespace(
        variate_names=("a",), variates=1, timestamps=("0", "1"), length=5, values=np.ones((1, 5)))),
    "save_checkpoint": _checkpoint_failing_midway,
}


@pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, writer):
    target = tmp_path / "artifact.out"
    target.write_text("previous\n", encoding="utf-8")
    with pytest.raises(Exception):
        FAILING_WRITES[writer](target, monkeypatch)
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.out"]


def test_atomic_write_replaces_target(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old", encoding="utf-8")
    write_json(target, {"b": 2, "a": 1})
    assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1, "b": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_refused_before_the_file_opens(tmp_path, value):
    """JSON has no NaN or infinity: `write_json` names the file, writes nothing,
    and never emits the invalid `NaN`/`Infinity` tokens."""
    target = tmp_path / "metrics.json"
    with pytest.raises(FiniteInputError, match=f"^{re.escape(str(target))}: Out of range float values are not JSON"):
        write_json(target, {"mse": value})
    assert list(tmp_path.iterdir()) == []
