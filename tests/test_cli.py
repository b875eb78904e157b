"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from spectral_attn.cli import main
from spectral_attn.data import load_csv, save_csv, split, synth_multisine, windows


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


def test_evaluate_rejects_mismatched_variates(workdir, tmp_path):
    tmp, config, csv = workdir
    out = tmp / "run"
    main(["train", "--config", str(config), "--data", str(csv), "--out", str(out)])
    other = synth_multisine(3, 560, [[(4, 1.0, 0.0)]] * 3, noise_sigma=0.0, seed=1, period=32)
    other_csv = tmp_path / "other.csv"
    save_csv(other_csv, other)
    code = main([
        "evaluate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(other_csv),
    ])
    assert code == 1


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
    config.write_text(CONFIG_TEXT + line + "\n", encoding="utf-8")
    code = main(["train", "--config", str(config), "--data", str(csv), "--out", str(tmp / "run")])
    assert code == 1
    message = single_error_line(capsys)
    assert str(config) in message
    for word in named:
        assert word in message


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
}


@pytest.mark.parametrize("defect", sorted(CHECKPOINT_DEFECTS))
def test_malformed_checkpoint_is_one_error_line(workdir, capsys, defect):
    from spectral_attn.models import ForecastModel, ModelConfig, save_checkpoint

    tmp, _, csv = workdir
    path = tmp / "checkpoint.json"
    save_checkpoint(path, ForecastModel(ModelConfig(mechanism="fsatten", L=32, T=8, C=2,
                                                    H=2, D=8, layers=1)))
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 0
    capsys.readouterr()
    payload = read_json(path)
    CHECKPOINT_DEFECTS[defect](payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(csv)]) == 1
    assert str(path) in single_error_line(capsys)


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
    # finite parameters whose forecasts overflow the squared error to inf
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
    assert "not JSON compliant" in message
    assert (str(out) if to_file else "evaluate") in message
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
    "splits": (None, lambda t, c, d: (_train_args(t, c, d, "--splits", "0.6,abc"), "--splits"),
               ("ratio", "'abc'")),
    "sweep-values": (None, lambda t, c, d: (["sweep", "--param", "K", "--values", "1,x3",
                                             "--config", str(c), "--data", str(d),
                                             "--out", str(t / "sweep")], "--values"),
                     ("value", "'x3'")),
}


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
