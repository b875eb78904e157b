"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from spectral_attn.cli import main
from spectral_attn.data import load_csv, save_csv, split, synth_multisine, window_arrays, windows


CONFIG_TEXT = """\
# tiny variate model for CLI tests
architecture = variate
mechanism = fsatten
L = 32
T = 8
H = 2
D = 8
layers = 1
dropout = 0.1
seed = 3
lr = 0.002
batch_size = 8
epochs = 2
"""


@pytest.fixture()
def workdir(tmp_path):
    config = tmp_path / "model.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    tones = [[(4, 1.0, 0.0)], [(9, 0.8, 0.7)]]
    dataset = synth_multisine(2, 560, tones, noise_sigma=0.05, seed=5, period=32)
    csv = tmp_path / "series.csv"
    save_csv(csv, dataset)
    return tmp_path, config, csv


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_train_writes_artifacts(workdir, capsys):
    tmp, config, csv = workdir
    out = tmp / "run"
    assert main(["train", "--config", str(config), "--data", str(csv), "--out", str(out)]) == 0
    for name in ("checkpoint.json", "train_report.json", "metrics.json"):
        assert (out / name).exists(), name
    report = read_json(out / "train_report.json")
    assert report["seed"] == 3
    assert len(report["epochs"]) == 2
    metrics = read_json(out / "metrics.json")
    assert metrics["mse"] >= 0 and metrics["mae"] >= 0
    assert len(metrics["per_horizon"]) == 8


def test_train_without_a_test_window_notes_it_and_writes_no_metrics(workdir, capsys):
    tmp, config, csv = workdir
    out = tmp / "run"
    assert main(["train", "--config", str(config), "--data", str(csv), "--splits", "0.7,0.3",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("note: no test metrics (the test split holds no window"), err
    assert captured.out.startswith("trained fsatten/variate: best epoch")
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.json", "train_report.json"]
    report = read_json(out / "train_report.json")
    assert report["test_mse"] is None and report["test_mae"] is None


def test_train_forecasts_the_test_windows_once(workdir, monkeypatch):
    from spectral_attn import models
    from spectral_attn.cli import load_config

    tmp, config, csv = workdir
    batches = []
    predict_batch = models.ForecastModel.predict_batch

    def counted(model, x, capture=None):
        batches.append(np.array(x))
        return predict_batch(model, x, capture=capture)

    monkeypatch.setattr(models.ForecastModel, "predict_batch", counted)
    assert main(["train", "--config", str(config), "--data", str(csv), "--out", str(tmp / "run")]) == 0
    cfg = load_config(config)
    test_inputs, _ = window_arrays(split(load_csv(csv), (0.7, 0.1)), "test", cfg.L, cfg.T)
    assert len(batches) == 1 and np.array_equal(batches[0], test_inputs)
    metrics = read_json(tmp / "run" / "metrics.json")
    report = read_json(tmp / "run" / "train_report.json")
    assert (metrics["mse"], metrics["mae"]) == (report["test_mse"], report["test_mae"])


def test_train_then_evaluate_replays_metrics(workdir):
    tmp, config, csv = workdir
    out = tmp / "run"
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out)])
    eval_path = tmp / "eval.json"
    code = main([
        "evaluate", "--checkpoint", str(out / "checkpoint.json"),
        "--data", str(csv), "--out", str(eval_path),
    ])
    assert code == 0
    assert eval_path.read_bytes() == (out / "metrics.json").read_bytes()


def test_cli_artifacts_are_byte_deterministic(workdir):
    tmp, config, csv = workdir
    out1, out2 = tmp / "a", tmp / "b"
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out1)])
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out2)])
    for name in ("checkpoint.json", "train_report.json", "metrics.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_analyze_attention_outputs(workdir):
    tmp, config, csv = workdir
    out = tmp / "run"
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out)])
    analysis_dir = tmp / "maps"
    code = main([
        "analyze-attention", "--checkpoint", str(out / "checkpoint.json"),
        "--data", str(csv), "--out", str(analysis_dir), "--num-windows", "2",
    ])
    assert code == 0
    report = read_json(analysis_dir / "attention_report.json")
    assert report["mechanism"] == "fsatten"
    assert report["n"] == 2
    assert 1 <= report["rank"] <= 2
    pgm = (analysis_dir / "attention_mean.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[2] == "255"
    rows = (analysis_dir / "attention_mean.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and len(rows[0].split(",")) == 2


def test_env_seed_overrides_config(workdir, monkeypatch):
    tmp, config, csv = workdir
    monkeypatch.setenv("SPECTRAL_ATTN_SEED", "11")
    out = tmp / "env"
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out)])
    assert read_json(out / "train_report.json")["seed"] == 11


def test_gradcheck_single_mechanism(capsys):
    assert main(["gradcheck", "--mechanism", "conventional"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("PASS") for line in lines)


def test_synth_roundtrip(tmp_path):
    spec = tmp_path / "synth.cfg"
    spec.write_text(
        "C = 2\nlength = 200\nperiod = 32\nnoise_sigma = 0.05\nseed = 4\n"
        "tones_0 = 4:1.0:0.0\ntones_1 = 4:1.0:1.3, 9:0.5:0.2\n",
        encoding="utf-8",
    )
    out = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    ds = load_csv(out)
    assert ds.variates == 2 and ds.length == 200
    expected = synth_multisine(
        2, 200, [[(4, 1.0, 0.0)], [(4, 1.0, 1.3), (9, 0.5, 0.2)]],
        noise_sigma=0.05, seed=4, period=32,
    )
    np.testing.assert_array_equal(ds.values, expected.values)


# The README walkthrough's desk spec, and the SHA-256 of the CSV that `synth`
# wrote for it when every value went through csv.writer as its own field.
README_DESK_SPEC = """\
C = 4
length = 1280
period = 96
noise_sigma = 0.05
seed = 7
tones_0 = 5:0.33:0.0
tones_1 = 5:0.30:1.57
tones_2 = 11:0.33:0.8
tones_3 = 11:0.36:2.37
"""
README_DESK_SHA256 = "18465eded15ad75b0783bd3fa81bf7fc8a690b3ba60400dc174b7eb7f9a2b9a3"


def test_synth_writes_the_readme_desk_series_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.delenv("SPECTRAL_ATTN_SEED", raising=False)
    spec = tmp_path / "synth.cfg"
    spec.write_text(README_DESK_SPEC, encoding="utf-8")
    out = tmp_path / "series.csv"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == README_DESK_SHA256


def test_sweep_writes_results_table(workdir):
    tmp, _, csv = workdir
    config = tmp / "soatten.cfg"
    config.write_text(
        CONFIG_TEXT.replace("mechanism = fsatten", "mechanism = soatten\nF = 6")
        .replace("epochs = 2", "epochs = 1"),
        encoding="utf-8",
    )
    out = tmp / "sweep"
    code = main([
        "sweep", "--param", "K", "--values", "1,3", "--config", str(config),
        "--data", str(csv), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep_results.csv").read_text().strip().splitlines()
    assert lines[0] == "param,value,test_mse,test_mae"
    assert len(lines) == 3
    assert lines[1].startswith("K,1,") and lines[2].startswith("K,3,")


# case -> (swept param, values, words the error line must hold)
BAD_SWEEP_VALUES = {
    "F-default-and-32": ("F", "0,32", ("F=0 and F=32", "both train F=32")),
    "K-twice": ("K", "3,3", ("K=3 and K=3", "both train K=3")),
    "F-valid-then-negative": ("F", "8,-1", ("--values: F=-1", "F must be >= 0, got -1")),
    "K-valid-then-even": ("K", "3,4", ("--values: K=4", "kernel_K must be odd")),
    "F-valid-then-too-large": ("F", f"8,{10**29}", ("'qk_embed.weight'", "too large for memory")),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_VALUES))
def test_sweep_checks_every_value_before_training(workdir, capsys, case):
    """A repeated (after resolution) or invalid value fails before any model trains."""
    tmp, config, csv = workdir
    param, values, words = BAD_SWEEP_VALUES[case]
    config.write_text(CONFIG_TEXT.replace("mechanism = fsatten", "mechanism = soatten\nF = 6"),
                      encoding="utf-8")
    out = tmp / "sweep"
    assert main(["sweep", "--param", param, "--values", values, "--config", str(config),
                 "--data", str(csv), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "test mse" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for word in words:
        assert word in err[0]
    assert not out.exists()


# case -> (mechanism lines of the config, swept param, values the config accepts)
UNREAD_SWEEPS = {
    "fsatten-K": ("mechanism = fsatten", "K", "1,3"),
    "fsatten-F": ("mechanism = fsatten", "F", "0,17"),
    "conventional-F": ("mechanism = conventional", "F", "4,8"),
    "conventional-K": ("mechanism = conventional", "K", "1,3"),
    "soatten-hcc-off-K": ("mechanism = soatten\nF = 6\nhcc_enabled = false", "K", "1,3"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_SWEEPS))
def test_sweep_of_an_unread_field_is_one_error_line(workdir, capsys, case):
    """A swept field the mechanism never reads would train identical models."""
    tmp, config, csv = workdir
    lines, param, values = UNREAD_SWEEPS[case]
    config.write_text(CONFIG_TEXT.replace("mechanism = fsatten", lines), encoding="utf-8")
    out = tmp / "sweep"
    assert main(["sweep", "--param", param, "--values", values, "--config", str(config),
                 "--data", str(csv), "--out", str(out)]) == 1
    message = single_error_line(capsys)
    mechanism = lines.split("\n")[0].split()[-1]
    for word in (str(config), f"mechanism {mechanism}", f"never reads {param}"):
        assert word in message
    assert not out.exists()


def test_sweep_without_a_test_window_fails_before_training(workdir, capsys):
    """The swept rows are test metrics, so a split with no test window is one error up front."""
    tmp, config, csv = workdir
    config.write_text(CONFIG_TEXT.replace("mechanism = fsatten", "mechanism = soatten\nF = 6"),
                      encoding="utf-8")
    out = tmp / "sweep"
    assert main(["sweep", "--param", "K", "--values", "1,3", "--config", str(config),
                 "--data", str(csv), "--splits", "0.7,0.3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "K=" not in captured.out
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'test'" in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "analyze-attention", "sweep"])
def test_dataset_flags_are_shared_by_every_data_command(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--data DATA" in text and "--splits SPLITS train,val ratios (default by dataset name)" in text
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "--data" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus", "x"])
    assert exc.value.code == 2


def test_runtime_failure_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("architecture = variate\nunknown_key = 1\n", encoding="utf-8")
    data = tmp_path / "d.csv"
    data.write_text("date,a\n0,1.0\n1,2.0\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_csv_cell_is_one_error_line(workdir, capsys):
    tmp, config, csv = workdir
    lines = csv.read_text(encoding="utf-8").splitlines()
    date, first, rest = lines[5].split(",", 2)
    lines[5] = ",".join([date, "nan", rest])
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--data", str(csv), "--out", str(tmp / "run")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "row 6" in err[0] and "'nan'" in err[0]


def test_oversize_csv_cell_is_one_error_line_and_writes_nothing(workdir, capsys):
    tmp, config, _ = workdir
    huge = tmp / "huge.csv"
    huge.write_text("date,a\n0," + "1" * 200_000 + "\n", encoding="utf-8")
    out = tmp / "run"
    assert main(["train", "--config", str(config), "--data", str(huge), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {huge}: line 2: field larger than field limit"), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "evaluate", "analyze-attention"])
def test_variate_count_mismatch_is_one_error_line(workdir, capsys, command):
    """Every command checks the dataset against the config's or checkpoint's C
    before it writes anything, and names that file and both counts."""
    from spectral_attn.models import save_checkpoint

    tmp, config, _ = workdir
    wide = tmp / "wide.csv"
    save_csv(wide, synth_multisine(3, 560, [[(4, 1.0, 0.0)]] * 3, noise_sigma=0.0, seed=1,
                                   period=32))
    out = tmp / "out"
    if command in ("train", "sweep"):
        source = config
        config.write_text(CONFIG_TEXT + "C = 2\n", encoding="utf-8")
        argv = [command, "--config", str(config)]
        argv += ["--param", "K", "--values", "3"] if command == "sweep" else []
    else:
        source = tmp / "checkpoint.json"
        save_checkpoint(source, _micro_fsatten())
        argv = [command, "--checkpoint", str(source)]
    assert main(argv + ["--data", str(wide), "--out", str(out)]) == 1
    message = single_error_line(capsys)
    for word in (str(source), "C=2", "3 variates"):
        assert word in message
    assert not out.exists()


def single_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error:")
    return err[0]


@pytest.mark.parametrize("line, named", [
    ("L = abc", ("L", "'abc'")),
    ("lr = fast", ("lr", "'fast'")),
    ("dropout = nan", ("dropout", "'nan'")),
    ("layers = 1.5", ("layers", "'1.5'")),
])
def test_malformed_config_value_is_one_error_line(workdir, capsys, line, named):
    tmp, config, csv = workdir
    text = re.sub(rf"^{named[0]} = .*$", line, CONFIG_TEXT, flags=re.M)
    assert text != CONFIG_TEXT
    config.write_text(text, encoding="utf-8")
    code = main(["train", "--config", str(config), "--data", str(csv), "--out", str(tmp / "run")])
    assert code == 1
    message = single_error_line(capsys)
    assert str(config) in message
    for word in named:
        assert word in message


@pytest.mark.parametrize("kind, line", [
    ("config", "L = abc"),
    ("config", "lr = fast"),
    ("config", "dropout = nan"),
    ("config", "layers = 1.5"),
    ("config", "mechanism = soatten"),
    ("synth-spec", "seed = 5"),
])
def test_repeated_key_is_one_error_line(workdir, capsys, kind, line):
    """A key set twice is rejected, not resolved to its last value."""
    tmp, config, csv = workdir
    if kind == "config":
        argv, source, out = _train_args(tmp, config, csv), config, tmp / "run"
    else:
        argv, source = _synth_args(tmp)
        source, out = Path(source), Path(argv[-1])
    text = source.read_text(encoding="utf-8")
    source.write_text(text + line + "\n", encoding="utf-8")
    assert main(argv) == 1
    message = single_error_line(capsys)
    key, lineno = line.split("=")[0].strip(), text.count("\n") + 1
    for word in (str(source), f"line {lineno}", repr(key)):
        assert word in message
    assert not out.exists()


def _edit_config(payload, **changes):
    payload["config"].update(changes)


def _edit_first_param(payload, **changes):
    entry = payload["params"][sorted(payload["params"])[0]]
    for key, value in changes.items():
        if value is None:
            del entry[key]
        else:
            entry[key] = value


CHECKPOINT_DEFECTS = {
    "no-config": lambda p: p.pop("config"),
    "config-not-object": lambda p: p.update(config=[1, 2]),
    "string-int": lambda p: _edit_config(p, L="32"),
    "bool-int": lambda p: _edit_config(p, layers=True),
    "string-bool": lambda p: _edit_config(p, mss_enabled="yes"),
    "no-params": lambda p: p.pop("params"),
    "no-shape": lambda p: _edit_first_param(p, shape=None),
    "string-shape": lambda p: _edit_first_param(p, shape="8"),
    "no-data": lambda p: _edit_first_param(p, data=None),
    "numeric-data": lambda p: _edit_first_param(p, data=7),
    "bad-base64": lambda p: _edit_first_param(p, data="***"),
    "short-data": lambda p: _edit_first_param(p, data="AAAA"),
    # a config that disagrees with the arrays fails before its parameters are allocated
    "config-D-huge": lambda p: _edit_config(p, D=2**40),
    "config-layers-grown": lambda p: _edit_config(p, layers=p["config"]["layers"] + 1),
    "soatten-config-kernel-grown": lambda p: _edit_config(p, kernel_K=99999),
    "param-deleted": lambda p: p["params"].pop("head.bias"),
    "param-added": lambda p: p["params"].update({"head.extra": p["params"]["head.bias"]}),
    "param-reshaped": lambda p: _edit_first_param(p, shape=[2, 4]),
    "config-lr-zero": lambda p: _edit_config(p, lr=0.0),
}


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
def test_malformed_checkpoint_is_one_error_line(workdir, capsys, defect):
    from spectral_attn.models import ForecastModel, ModelConfig, save_checkpoint

    tmp, _, csv = workdir
    path = tmp / "checkpoint.json"
    mechanism = "soatten" if defect.startswith("soatten") else "fsatten"
    save_checkpoint(path, ForecastModel(ModelConfig(mechanism=mechanism, L=32, T=8, C=2,
                                                    H=2, D=8, layers=1)))
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 0
    capsys.readouterr()
    payload = read_json(path)
    CHECKPOINT_DEFECTS[defect](payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 1
    assert str(path) in single_error_line(capsys)


@pytest.mark.parametrize("text", [
    lambda text: re.sub(r'"seed": \d+', '"seed": ' + "7" * 5000, text),   # past the 4300-digit int limit
    lambda text: "[" * 200000,                                            # past the decoder's recursion limit
], ids=["seed-of-5000-digits", "200000-nested-lists"])
def test_checkpoint_json_that_python_cannot_decode_is_one_error_line(workdir, capsys, text):
    from spectral_attn.models import ForecastModel, ModelConfig, save_checkpoint

    tmp, _, csv = workdir
    path = tmp / "checkpoint.json"
    save_checkpoint(path, ForecastModel(ModelConfig(L=32, T=8, C=2, H=2, D=8, layers=1)))
    path.write_text(text(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 1
    assert single_error_line(capsys).startswith(f"error: checkpoint {path}: invalid JSON (")


# case -> (config text replaced, its oversize replacement, word the error line must hold)
OVERSIZE_CONFIGS = {
    # 2**40 columns exceed the 47-bit address space: the request fails at once
    "D-2**40": ("D = 8", "D = 1099511627776", "allocate"),
    # the rest have more bytes than NumPy can index: refused before anything is allocated
    "D-2**62": ("D = 8", f"D = {2**62}", "'embed.weight'"),
    "D": ("D = 8", f"D = {10**29}", "'embed.weight'"),
    "L": ("L = 32", f"L = {10**29}", "'embed.weight'"),
    "T": ("T = 8", f"T = {10**29}", "'head.weight'"),
    "soatten-F": ("mechanism = fsatten", f"mechanism = soatten\nF = {10**29}", "'qk_embed.weight'"),
    "soatten-kernel_K": ("mechanism = fsatten", f"mechanism = soatten\nF = 6\nkernel_K = {10**29 + 1}",
                         "'layers.0.attn.hcc_kernel'"),
}


def test_failed_allocation_is_one_error_line(workdir, capsys):
    tmp, config, csv = workdir
    for case, (old, oversize, word) in OVERSIZE_CONFIGS.items():
        config.write_text(CONFIG_TEXT.replace(old, oversize), encoding="utf-8")
        assert main(_train_args(tmp, config, csv)) == 1, case
        assert word in single_error_line(capsys), case
        assert not (tmp / "run").exists(), case


@pytest.mark.parametrize("key", ["C", "length"])
def test_synth_spec_too_large_for_numpy_is_one_error_line(tmp_path, capsys, key):
    """Refused before anything is allocated."""
    argv, spec = _synth_args(tmp_path, **{key: str(10**29)})
    assert main(argv) == 1
    message = single_error_line(capsys)
    assert spec in message and "too large for memory" in message
    assert not (tmp_path / "synth.csv").exists()


def _run_cli_under_address_limit(argv, limit=2 << 30, timeout=60):
    """Run the CLI in a child process whose address space is capped at `limit`
    bytes (RLIMIT_AS limits that process only), so a request that tries to
    take the machine's memory fails there. Returns (exit code, stderr lines,
    seconds)."""
    import os
    import resource
    import subprocess
    import sys
    import time

    import spectral_attn

    env = dict(os.environ, PYTHONPATH=str(Path(spectral_attn.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "spectral_attn", *argv], capture_output=True, text=True,
                          env=env, timeout=timeout,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return done.returncode, done.stderr.strip().splitlines(), time.perf_counter() - start


def test_synth_spec_with_2_to_the_40_variates_fails_at_its_allocation(tmp_path):
    """C = 2**40 with length 2 is 16 TiB, under the index limit: the series is
    allocated before any per-variate work, so it fails at once instead of
    parsing 2**40 tone lists first."""
    argv, _ = _synth_args(tmp_path, C=str(2**40), length="2")
    code, err, seconds = _run_cli_under_address_limit(argv)
    assert code == 1 and len(err) == 1, err
    assert err[0].startswith("error: Unable to allocate") and "(1099511627776, 2)" in err[0]
    assert seconds < 30
    assert not (tmp_path / "synth.csv").exists()


def test_synth_reads_only_the_tone_keys_the_spec_holds(tmp_path, capsys):
    argv, _ = _synth_args(tmp_path, C="3", tones_1="", tones_2="5:0.5:0.1")
    assert main(argv) == 0
    got = load_csv(tmp_path / "synth.csv")
    want = synth_multisine(3, 200, [[(4.0, 1.0, 0.0)], [], [(5.0, 0.5, 0.1)]], 0.05, 4, period=32)
    assert got.values.tobytes() == want.values.tobytes()
    capsys.readouterr()
    for key in ("tones_3", "tones_01", "tones_x"):
        argv, _ = _synth_args(tmp_path, C="3", **{key: "4:1.0:0.0"})
        assert main(argv) == 1
        assert single_error_line(capsys).endswith(f"unknown keys [{key!r}]")


def test_a_model_too_deep_for_memory_is_one_error_line(workdir):
    """Each layer is small, so no parameter trips the size gate; the whole
    model's bytes do, before layer 1 is built."""
    tmp, config, csv = workdir
    config.write_text(CONFIG_TEXT.replace("layers = 1", f"layers = {10**29}"), encoding="utf-8")
    code, err, _ = _run_cli_under_address_limit(_train_args(tmp, config, csv))
    assert code == 1 and len(err) == 1, err
    assert err[0] == f"error: {10**29} layers of 864 parameters each are too large for memory"
    assert not (tmp / "run").exists()


@pytest.mark.parametrize("layers", [10**12, 10**5])
def test_a_model_too_large_for_this_process_is_refused_before_layer_1(workdir, layers):
    """Within NumPy's index limit, but its values, gradients and Adam moments
    exceed the memory the process may use: 10**12 layers exceed any machine,
    10**5 layers (2.8 GB) the 1 GiB address-space limit."""
    tmp, config, csv = workdir
    config.write_text(CONFIG_TEXT.replace("layers = 1", f"layers = {layers}"), encoding="utf-8")
    code, err, seconds = _run_cli_under_address_limit(_train_args(tmp, config, csv), limit=1 << 30)
    assert code == 1 and len(err) == 1, err
    assert err[0] == f"error: {layers} layers of 864 parameters each are too large for memory"
    assert seconds < 30
    assert not (tmp / "run").exists()


def test_checkpoint_config_the_config_refuses_names_the_checkpoint(workdir, capsys):
    from spectral_attn.models import save_checkpoint

    tmp, _, csv = workdir
    path = tmp / "checkpoint.json"
    save_checkpoint(path, _micro_fsatten())
    payload = read_json(path)
    _edit_config(payload, D=15)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 1
    assert single_error_line(capsys) == (f"error: checkpoint {path}: "
                                         "hidden width D=15 must be divisible by heads H=2")


@pytest.mark.parametrize("value", ["0", "0.0", "-0.0"])
def test_train_with_a_zero_lr_is_one_error_line(workdir, capsys, value):
    """Adam takes no step of size zero, so training refuses it before any output."""
    tmp, config, csv = workdir
    text = CONFIG_TEXT.replace("lr = 0.002", f"lr = {value}")
    assert text != CONFIG_TEXT
    config.write_text(text, encoding="utf-8")
    assert main(_train_args(tmp, config, csv)) == 1
    assert "learning rate must be finite and > 0" in single_error_line(capsys)
    assert not (tmp / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_value_that_validate_rejects_names_the_config(workdir, capsys, command):
    """A value that parses but fails the config's own checks is one error line
    naming the config file, as a mistyped value is, and nothing is written."""
    tmp, config, csv = workdir
    text = (CONFIG_TEXT.replace("mechanism = fsatten", "mechanism = soatten\nF = 6")
            .replace("H = 2", "H = 4").replace("D = 8", "D = 15"))
    config.write_text(text, encoding="utf-8")
    out = tmp / "out"
    argv = [command, "--config", str(config), "--data", str(csv), "--out", str(out)]
    argv += ["--param", "K", "--values", "1,3"] if command == "sweep" else []
    assert main(argv) == 1
    assert single_error_line(capsys) == f"error: {config}: hidden width D=15 must be divisible by heads H=4"
    assert not out.exists()


def _micro_fsatten():
    from spectral_attn.models import ForecastModel, ModelConfig

    return ForecastModel(ModelConfig(mechanism="fsatten", L=32, T=8, C=2, H=2, D=8, layers=1))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_parameter_is_one_error_line(workdir, capsys, value):
    from spectral_attn.models import save_checkpoint

    tmp, _, csv = workdir
    path, out = tmp / "checkpoint.json", tmp / "e.json"
    model = _micro_fsatten()
    model.params["head.bias"].data[3] = value
    save_checkpoint(path, model)
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv), "--out", str(out)]) == 1
    message = single_error_line(capsys)
    for word in (str(path), "'head.bias'", "flat index 3", "not finite"):
        assert word in message
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_rank_tol_is_one_error_line(workdir, capsys, tol):
    from spectral_attn.models import save_checkpoint

    tmp, _, csv = workdir
    path, out = tmp / "checkpoint.json", tmp / "maps"
    save_checkpoint(path, _micro_fsatten())
    argv = _analyze_args(path, csv, out, "test", 0, 2) + ["--rank-tol", tol]
    assert main(argv) == 1
    assert f"tol must be positive and finite, got {tol}" in single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_non_finite_metric_is_one_error_line_not_invalid_json(workdir, capsys, to_file):
    # finite parameters whose forecasts overflow the squared error to inf: the
    # metrics refuse it, so no NaN or inf reaches the JSON writer
    from spectral_attn.models import save_checkpoint

    tmp, _, csv = workdir
    path, out = tmp / "checkpoint.json", tmp / "e.json"
    model = _micro_fsatten()
    model.params["head.bias"].data[...] = 1e200
    save_checkpoint(path, model)
    argv = ["evaluate", "--checkpoint", str(path), "--data", str(csv)]
    with np.errstate(over="ignore"):
        code = main(argv + ["--out", str(out)] if to_file else argv)
    assert code == 1
    message = single_error_line(capsys)
    assert re.fullmatch(r"error: evaluate_windows: the mean squared error of \d+ values is not finite", message)
    assert not out.exists()


def _synth_args(tmp, **changes):
    fields = dict(C="2", length="200", period="32", noise_sigma="0.05", seed="4",
                  tones_0="4:1.0:0.0", tones_1="4:1.0:1.3, 9:0.5:0.2")
    fields.update(changes)
    spec = tmp / "synth.cfg"
    spec.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()), encoding="utf-8")
    return ["synth", "--spec", str(spec), "--out", str(tmp / "synth.csv")], str(spec)


def _train_args(tmp, config, csv, *extra):
    return ["train", "--config", str(config), "--data", str(csv), "--out", str(tmp / "run"), *extra]


# case -> (environment seed, argv and source from (tmp, config, csv), named key and value)
BAD_CLI_VALUES = {
    "synth-C": (None, lambda t, c, d: _synth_args(t, C="x"), ("C", "'x'")),
    "synth-length": (None, lambda t, c, d: _synth_args(t, length="2.5"), ("length", "'2.5'")),
    "synth-period": (None, lambda t, c, d: _synth_args(t, period="p"), ("period", "'p'")),
    "synth-noise": (None, lambda t, c, d: _synth_args(t, noise_sigma="nan"), ("noise_sigma", "'nan'")),
    "synth-seed": (None, lambda t, c, d: _synth_args(t, seed="s"), ("seed", "'s'")),
    "synth-tone": (None, lambda t, c, d: _synth_args(t, tones_1="4:1.0:1.3, 9:loud:0.2"),
                   ("tones_1", "'loud'")),
    "env-seed-synth": ("abc", lambda t, c, d: (_synth_args(t)[0], "environment"),
                       ("SPECTRAL_ATTN_SEED", "'abc'")),
    "env-seed-gradcheck": ("1.5", lambda t, c, d: (["gradcheck", "--mechanism", "fsatten"], "environment"),
                           ("SPECTRAL_ATTN_SEED", "'1.5'")),
    "env-seed-refused-by-config": ("-3", lambda t, c, d: (_train_args(t, c, d), f"{c}: seed"),
                                   ("must be >= 0, got -3",)),
    "splits": (None, lambda t, c, d: (_train_args(t, c, d, "--splits", "0.6,abc"), "--splits"),
               ("ratio", "'abc'")),
    "sweep-values": (None, lambda t, c, d: (["sweep", "--param", "K", "--values", "1,x3",
                                             "--config", str(c), "--data", str(d),
                                             "--out", str(t / "sweep")], "--values"),
                     ("value", "'x3'")),
    "splits-one-ratio": (None, lambda t, c, d: (_train_args(t, c, d, "--splits", "0.7"), "--splits"),
                         ("'train,val' ratios", "'0.7'")),
    "config-bool": (None, lambda t, c, d: (_train_args(t, _appended(c, "mss_enabled = maybe"), d), str(c)),
                    ("mss_enabled must be a boolean", "'maybe'")),
    "synth-no-C": (None, lambda t, c, d: _without_key(_synth_args(t), "C"), ("missing required key 'C'",)),
    "synth-tone-two-parts": (None, lambda t, c, d: _synth_args(t, tones_1="5:1"),
                             ("tone '5:1'", "freq:amplitude:phase")),
    "sweep-no-values": (None, lambda t, c, d: (["sweep", "--param", "K", "--values", ",",
                                                "--config", str(c), "--data", str(d),
                                                "--out", str(t / "sweep")], "--values"),
                        ("must list at least one integer",)),
}


def _appended(path, line):
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    return path


def _without_key(args, key):
    """`_synth_args`'s (argv, spec) with the spec's `key` line taken out."""
    spec = Path(args[1])
    lines = spec.read_text(encoding="utf-8").splitlines(keepends=True)
    spec.write_text("".join(line for line in lines if not line.startswith(f"{key} =")), encoding="utf-8")
    return args


@pytest.mark.parametrize("case", sorted(BAD_CLI_VALUES))
def test_malformed_cli_value_is_one_error_line(workdir, capsys, monkeypatch, case):
    env_seed, build, named = BAD_CLI_VALUES[case]
    if env_seed is not None:
        monkeypatch.setenv("SPECTRAL_ATTN_SEED", env_seed)
    argv, source = build(*workdir)
    assert main(argv) == 1
    message = single_error_line(capsys)
    for word in (source, *named):
        assert word in message


def _with_byte_ff(path):
    raw = path.read_bytes()
    path.write_bytes(raw[:20] + b"\xff" + raw[20:])


def _non_utf8_case(tmp, config, csv, kind):
    """argv of a command whose `kind` input file holds a 0xff byte, and that file."""
    if kind == "csv":
        _with_byte_ff(csv)
        return _train_args(tmp, config, csv), csv
    if kind == "config":
        _with_byte_ff(config)
        return _train_args(tmp, config, csv), config
    if kind == "checkpoint":
        assert main(_train_args(tmp, config, csv)) == 0
        path = tmp / "run" / "checkpoint.json"
        _with_byte_ff(path)
        return ["evaluate", "--checkpoint", str(path), "--data", str(csv)], path
    argv, spec = _synth_args(tmp)
    _with_byte_ff(Path(spec))
    return argv, spec


@pytest.mark.parametrize("kind", ["csv", "config", "checkpoint", "synth-spec"])
def test_non_utf8_input_file_is_one_error_line(workdir, capsys, kind):
    argv, path = _non_utf8_case(*workdir, kind)
    capsys.readouterr()
    assert main(argv) == 1
    message = single_error_line(capsys)
    assert str(path) in message and "UTF-8" in message


def _analyze_args(checkpoint, csv, out, split, start, count):
    return ["analyze-attention", "--checkpoint", str(checkpoint), "--data", str(csv),
            "--out", str(out), "--split", split, "--window-index", str(start),
            "--num-windows", str(count)]


def test_analyze_attention_forecasts_only_the_requested_windows(tmp_path, monkeypatch):
    """2 windows of a 40-window split: `predict_batch` receives those 2, as a
    view of the split's windows, which are never copied."""
    from spectral_attn import cli, models
    from spectral_attn.models import save_checkpoint

    dataset = synth_multisine(2, 395, [[(4, 1.0, 0.0)], [(9, 0.8, 0.7)]], noise_sigma=0.05,
                              seed=5, period=32)   # 7:1:2 leaves 79 test points: 40 windows
    csv = tmp_path / "series.csv"
    save_csv(csv, dataset)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(checkpoint, _micro_fsatten())
    splits, batches = [], []
    window_arrays_ = cli.data.window_arrays
    predict_batch = models.ForecastModel.predict_batch

    def recorded(*args):
        splits.append(window_arrays_(*args))
        return splits[-1]

    def counted(model, x, capture=None):
        batches.append(x)
        return predict_batch(model, x, capture=capture)

    monkeypatch.setattr(cli.data, "window_arrays", recorded)
    monkeypatch.setattr(models.ForecastModel, "predict_batch", counted)
    assert main(_analyze_args(checkpoint, csv, tmp_path / "maps", "test", 5, 2)) == 0
    (inputs, _), = splits
    x, = batches
    assert len(inputs) == 40 and not inputs.flags.owndata
    assert x.shape == (2, 2, 32) and np.shares_memory(x, inputs) and np.array_equal(x, inputs[5:7])


@pytest.mark.parametrize("architecture, mechanism", [("variate", "fsatten"), ("temporal", "soatten")])
def test_analyze_attention_bytes_match_a_per_window_loop(tmp_path, architecture, mechanism):
    """The batched forecast averages the same maps in the same order as one
    `predict` per window, so all three artifacts keep every byte."""
    from spectral_attn import analysis
    from spectral_attn.models import ForecastModel, ModelConfig, save_checkpoint

    dataset = synth_multisine(3, 400, [[(4, 1.0, 0.0)], [(4, 0.8, 1.1)], [(9, 0.6, 0.4)]],
                              noise_sigma=0.1, seed=8, period=32)
    csv = tmp_path / "series.csv"
    save_csv(csv, dataset)
    cfg = ModelConfig(architecture=architecture, mechanism=mechanism, L=32, T=8, C=3,
                      P=8, S=4, H=2, D=8, F=6 if mechanism == "soatten" else 0, layers=2,
                      seed=4)
    model = ForecastModel(cfg)
    rng = np.random.default_rng(12)
    for param in model.parameters():
        param.data[...] = param.data + 0.3 * rng.standard_normal(param.data.shape)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(checkpoint, model)
    out = tmp_path / "maps"
    assert main(_analyze_args(checkpoint, csv, out, "test", 2, 5)) == 0

    pairs = windows(split(load_csv(csv), (0.7, 0.1)), "test", cfg.L, cfg.T)
    maps = []
    for pair in pairs[2:7]:
        capture = []
        model.predict(pair.input, capture=capture)
        maps.extend(entry.final for entry in capture)
    report = analysis.attention_report(maps, mechanism)
    expected = tmp_path / "expected"
    expected.mkdir()
    analysis.write_matrix_csv(expected / "attention_mean.csv", report.averaged_map)
    analysis.write_pgm(expected / "attention_mean.pgm", report.averaged_map)
    for name in ("attention_mean.csv", "attention_mean.pgm"):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    written = read_json(out / "attention_report.json")
    assert {k: written[k] for k in report.to_dict()} == json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("case", ["splits-one-ratio", "config-bool", "synth-no-C", "synth-tone-two-parts",
                                  "sweep-no-values"])
def test_a_refused_cli_value_writes_nothing(workdir, capsys, case):
    tmp = workdir[0]
    argv, _ = BAD_CLI_VALUES[case][1](*workdir)
    before = sorted(tmp.rglob("*"))
    assert main(argv) == 1
    single_error_line(capsys)
    assert sorted(tmp.rglob("*")) == before


def test_analyze_attention_of_windows_past_the_split_is_one_error_line(workdir, capsys):
    from spectral_attn.models import save_checkpoint

    tmp, _, csv = workdir
    checkpoint, out = tmp / "checkpoint.json", tmp / "maps"
    save_checkpoint(checkpoint, _micro_fsatten())
    assert main(_analyze_args(checkpoint, csv, out, "test", 999, 1)) == 1
    assert re.fullmatch(r"error: windows \[999, 1000\) out of range; split has \d+", single_error_line(capsys))
    assert not out.exists()


def test_gradcheck_lists_each_parameter_past_the_threshold(monkeypatch, capsys):
    from spectral_attn import analysis

    entries = (analysis.GradCheckEntry("embed.weight", 0.5), analysis.GradCheckEntry("head.bias", 1e-6),
               analysis.GradCheckEntry("head.weight", 2e-3))
    monkeypatch.setattr(analysis, "grad_check", lambda cfg: analysis.GradCheckReport(entries, threshold=1e-4))
    assert main(["gradcheck", "--mechanism", "conventional"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["FAIL conventional/variate: max relative error 0.5 (threshold 0.0001)",
                     "  embed.weight: 0.5", "  head.weight: 0.002",
                     "FAIL conventional/temporal: max relative error 0.5 (threshold 0.0001)",
                     "  embed.weight: 0.5", "  head.weight: 0.002"]
