"""Command-line interface: train, evaluate, analyze-attention, gradcheck,
synth, sweep.

Config files are flat key=value text mirroring ModelConfig fields; `#`
starts a comment. The SPECTRAL_ATTN_SEED environment variable overrides the
configured seed. All artifacts are byte-deterministic for a fixed
(config, seed, data).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis, data, models
from .artifacts import atomic_open, json_text, read_text, write_json
from .errors import ConfigError, DataError, FormatError, SpectralAttnError
from .models import ForecastModel, ModelConfig

ENV_SEED = "SPECTRAL_ATTN_SEED"

_KIND_NAMES = {int: "an integer", float: "a finite number"}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}

SWEEP_FIELDS = {"F": "F", "K": "kernel_K"}   # sweep --param choice -> ModelConfig field


def parse_kv_text(text, source="<config>"):
    """Ordered key -> value text; FormatError names the line of a malformed or repeated key."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{source}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise FormatError(f"{source}: line {lineno}: key {key!r} is already set")
        out[key] = value
    return out


def _parse_value(kind, key, text, source):
    if kind is str:
        return text
    if kind is bool:
        word = text.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{source}: {key} must be a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"{source}: {key} must be {_KIND_NAMES[kind]}, got {text!r}")
    return value


def _env_seed(default):
    """The SPECTRAL_ATTN_SEED override if it is set, else `default`."""
    env = os.environ.get(ENV_SEED)
    return default if env is None else _parse_value(int, ENV_SEED, env, "environment")


def load_config(path):
    """The config at `path` with the seed override applied; ConfigError names
    `path` for a mistyped value and for one the config refuses."""
    typed = {key: _parse_value(models.CONFIG_TYPES.get(key, str), key, text, path)
             for key, text in parse_kv_text(read_text(path), path).items()}
    typed["seed"] = _env_seed(typed.get("seed", ModelConfig.seed))
    return models.config_from_dict(typed, path)


def _load_split_dataset(args, cfg, source):
    """The --data series split by --splits, and cfg with C filled in from it if 0;
    ConfigError naming `source` (config or checkpoint path) if C differs."""
    dataset = data.load_csv(args.data)
    if args.splits:
        parts = args.splits.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--splits expects 'train,val' ratios, got {args.splits!r}")
        ratios = tuple(_parse_value(float, "ratio", part, "--splits") for part in parts)
    else:
        ratios = data.default_ratios(dataset.name)
    dataset = data.split(dataset, ratios)
    if cfg.C == 0:
        cfg = replace(cfg, C=dataset.variates)
    elif cfg.C != dataset.variates:
        raise ConfigError(f"{source}: C={cfg.C} but {args.data} has {dataset.variates} variates")
    return dataset, cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    dataset, cfg = _load_split_dataset(args, load_config(args.config), args.config)
    model = ForecastModel(cfg)
    report = models.train(model, dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    models.save_checkpoint(out / "checkpoint.json", model)
    write_json(out / "train_report.json", report.to_dict())
    if report.test_metrics is None:
        print(f"note: no test metrics (the test split holds no window of {cfg.L + cfg.T} points)", file=sys.stderr)
    else:
        write_json(out / "metrics.json", report.test_metrics.to_dict())
    print(f"trained {cfg.mechanism}/{cfg.architecture}: "
          f"best epoch {report.best_epoch}, val mse {report.best_val_mse:.6g}")
    return 0


def cmd_evaluate(args):
    model = models.load_checkpoint(args.checkpoint)
    dataset, _ = _load_split_dataset(args, model.config, args.checkpoint)
    report = models.evaluate_on_split(model, dataset, args.split)
    if args.out:
        write_json(args.out, report.to_dict())
    else:
        print(json_text(report.to_dict(), "evaluate"))
    return 0


def cmd_analyze_attention(args):
    model = models.load_checkpoint(args.checkpoint)
    dataset, cfg = _load_split_dataset(args, model.config, args.checkpoint)
    inputs, _ = data.window_arrays(dataset, args.split, cfg.L, cfg.T)
    count = args.num_windows
    stop = args.window_index + count
    if args.window_index < 0 or count < 1 or stop > len(inputs):
        raise DataError(
            f"windows [{args.window_index}, {stop}) out of range; split has {len(inputs)}"
        )
    capture = []
    model.predict_batch(inputs[args.window_index:stop], capture=capture)
    # Averaging window-major, then layer, then plane, sums in the order of one
    # forecast per window, which keeps every byte of the report.
    n = capture[0].final.weights.shape[-1]
    maps = np.stack([entry.final.weights.reshape(count, -1, n, n) for entry in capture], axis=1)
    report = analysis.attention_report([maps], cfg.mechanism, rank_tol=args.rank_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_matrix_csv(out / "attention_mean.csv", report.averaged_map)
    analysis.write_pgm(out / "attention_mean.pgm", report.averaged_map)
    payload = report.to_dict()
    payload.update({
        "config_hash": models.config_hash(cfg),
        "seed": cfg.seed,
        "split": args.split,
        "window_index": args.window_index,
        "num_windows": args.num_windows,
        "rank_tolerance": args.rank_tol,
    })
    write_json(out / "attention_report.json", payload)
    kappa = payload["condition_number"]
    print(f"attention map {report.averaged_map.shape[0]}x{report.averaged_map.shape[0]}: "
          f"rank {report.rank}, condition number {kappa}")
    return 0


def gradcheck_configs(seed=0):
    """Micro-scale configs for every valid mechanism x architecture pair."""
    base = dict(L=16, T=4, C=3, P=4, S=2, H=2, D=8, kernel_K=3, layers=1,
                dropout=0.0, seed=seed)
    combos = [
        ("conventional", "variate", 0),
        ("conventional", "temporal", 0),
        ("fsatten", "variate", 0),
        ("soatten", "variate", 6),
        ("soatten", "temporal", 6),
    ]
    return [
        ModelConfig(mechanism=mech, architecture=arch, F=f, **base)
        for mech, arch, f in combos
    ]


def cmd_gradcheck(args):
    configs = gradcheck_configs(_env_seed(0))
    if args.mechanism != "all":
        configs = [c for c in configs if c.mechanism == args.mechanism]
    all_ok = True
    for cfg in configs:
        report = analysis.grad_check(cfg)
        status = "PASS" if report.passed else "FAIL"
        all_ok = all_ok and report.passed
        print(f"{status} {cfg.mechanism}/{cfg.architecture}: "
              f"max relative error {report.max_rel_error:.3g} "
              f"(threshold {report.threshold:g})")
        if not report.passed:
            for entry in report.entries:
                if entry.max_rel_error >= report.threshold:
                    print(f"  {entry.name}: {entry.max_rel_error:.3g}")
    return 0 if all_ok else 1


def _parse_tones(key, text, source):
    tones = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise FormatError(f"{source}: tone {chunk!r} must be freq:amplitude:phase")
        tones.append(tuple(_parse_value(float, key, part, source) for part in parts))
    return tones


def cmd_synth(args):
    source = args.spec
    kv = parse_kv_text(read_text(source), source)
    for key in ("C", "length"):
        if key not in kv:
            raise ConfigError(f"{source}: missing required key {key!r}")
    field = lambda kind, key, default=None: _parse_value(kind, key, kv.pop(key, default), source)
    c, length = field(int, "C"), field(int, "length")
    period = field(int, "period", "96")
    noise_sigma = field(float, "noise_sigma", "0")
    seed = _env_seed(field(int, "seed", "0"))
    name = kv.pop("name", "synth_multisine")
    if 8 * c * length > np.iinfo(np.intp).max:   # before the per-variate loop below
        raise MemoryError(f"{source}: a {c}x{length} series is too large for memory")
    tone_spec = [_parse_tones(f"tones_{i}", kv.pop(f"tones_{i}", ""), source) for i in range(c)]
    if kv:
        raise ConfigError(f"{source}: unknown keys {sorted(kv)}")
    dataset = data.synth_multisine(c, length, tone_spec, noise_sigma, seed,
                                   period=period, name=name)
    data.save_csv(args.out, dataset)
    print(f"wrote {c}x{length} synthetic series to {args.out}")
    return 0


def cmd_sweep(args):
    dataset, cfg = _load_split_dataset(args, load_config(args.config), args.config)
    data.window_arrays(dataset, "test", cfg.L, cfg.T)   # DataError now, not after training
    values = [_parse_value(int, "value", v, "--values") for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one integer")
    # F is read only by soatten's Q/K maps, K only by its head-coupling kernel
    if cfg.mechanism != "soatten" or (args.param == "K" and not cfg.hcc_enabled):
        arm = "soatten with hcc_enabled = false" if cfg.mechanism == "soatten" else cfg.mechanism
        raise ConfigError(f"{args.config}: mechanism {arm} never reads {args.param}; nothing to sweep")
    swept = {}   # resolved value -> (--values entry, model); all built before any training
    for value in values:
        varied = {**asdict(cfg), SWEEP_FIELDS[args.param]: value}
        model = ForecastModel(models.config_from_dict(varied, f"--values: {args.param}={value}"))
        resolved = model.config.resolved_f if args.param == "F" else value
        if resolved in swept:
            raise ConfigError(f"--values: {args.param}={swept[resolved][0]} and {args.param}={value} "
                              f"both train {args.param}={resolved}; list each value once")
        swept[resolved] = (value, model)
    rows = []
    for value, model in swept.values():
        report = models.train(model, dataset)
        rows.append((args.param, value, report.test_mse, report.test_mae))
        print(f"{args.param}={value}: test mse {report.test_mse:.6g}, mae {report.test_mae:.6g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["param,value,test_mse,test_mae"]
    lines.extend(f"{p},{v},{m!r},{a!r}" for p, v, m, a in rows)
    with atomic_open(out / "sweep_results.csv") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="spectral-attn",
        description="Desk-scale forecasting with spectrum/orthogonal attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    series = argparse.ArgumentParser(add_help=False)   # the dataset flags of four subcommands
    series.add_argument("--data", required=True)
    series.add_argument("--splits", default=None, help="train,val ratios (default by dataset name)")

    p = sub.add_parser("train", parents=[series], help="train a model and write its artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[series],
                       help="metrics for a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze-attention", parents=[series],
                       help="averaged attention map, rank, condition number")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--window-index", type=int, default=0)
    p.add_argument("--num-windows", type=int, default=1)
    p.add_argument("--rank-tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_analyze_attention)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--mechanism", default="all",
                   choices=("all", "conventional", "fsatten", "soatten"))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", help="write a synthetic multi-tone dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", parents=[series], help="sensitivity grid over F or K")
    p.add_argument("--param", required=True, choices=tuple(SWEEP_FIELDS))
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectralAttnError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
