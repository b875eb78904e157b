"""End-to-end and per-layer metrics, and which layer should move which metric.

Metric names and units are declared once, in BENCHMARK.json; the functions
here compute the values and `run.py` checks that the two sets agree.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from tracing import PRIMITIVES, TAPE_RECORDS

NUMERICS = ("numerics.fwd_s.*, numerics.bwd_s.*, numerics.calls.*, "
            "numerics.tape_records_per_window, numerics.backward_s, "
            "numerics.adam_step_s, numerics.adam_steps")
FORECAST = ["forecast_ms_p75", "forecast_ms_p90"]

# (layer metrics, {workload: end-to-end metrics they should move}). A
# workload mapped to [] is one where the prediction is "no change".
PREDICTIONS = (
    (NUMERICS, {
        "variate-desk": ["train_windows_per_s"] + FORECAST,
        "temporal": ["train_windows_per_s"] + FORECAST,
        "variate-wide": ["train_windows_per_s"],
    }),
    ("numerics.svd_s, numerics.svd_calls", {
        "variate-desk": [],
        "variate-wide": ["analyze_s"],
    }),
    ("spectral.amplitude_matrix_s, spectral.amplitude_rows", {
        "variate-desk": ["train_windows_per_s"],
        "temporal": [],
        "variate-wide": ["train_windows_per_s"] + FORECAST,
    }),
    ("attention.forward_self_s, attention.calls, attention.hcc_s, attention.hcc_calls", {
        "temporal": ["train_windows_per_s"] + FORECAST,
        "variate-wide": ["train_windows_per_s"] + FORECAST,
    }),
    ("models.forward_window_self_s, models.encoder_ffn_self_s, models.patchify_s, "
     "models.instance_normalize_s, models.train_self_s", {
        "variate-desk": ["train_windows_per_s"],
        "temporal": ["train_windows_per_s"],
        "variate-wide": ["train_windows_per_s"],
    }),
    ("models.checkpoint_save_s, models.checkpoint_load_s, models.checkpoint_bytes", {
        "variate-desk": ["setup_s"], "temporal": ["setup_s"], "variate-wide": ["setup_s"],
    }),
    ("data.synth_s, data.load_csv_s, data.windows_s, data.windows_count", {
        "variate-desk": ["setup_s"], "temporal": ["setup_s"], "variate-wide": ["setup_s"],
    }),
    ("analysis.average_attention_s, analysis.report_self_s", {
        "variate-desk": ["analyze_s"], "temporal": ["analyze_s"], "variate-wide": ["analyze_s"],
    }),
)


def predictions(workload):
    moves, unchanged = {}, []
    for layer, by_workload in PREDICTIONS:
        if workload not in by_workload:
            continue
        if by_workload[workload]:
            moves[layer] = by_workload[workload]
        else:
            unchanged.append(layer)
    return {"moves": moves, "no_change": unchanged}


def _percentiles(samples):
    return {"p50_ms": 1e3 * float(np.percentile(samples, 50)),
            "p75_ms": 1e3 * float(np.percentile(samples, 75)),
            "p90_ms": 1e3 * float(np.percentile(samples, 90)),
            "mean_ms": 1e3 * float(np.mean(samples)),
            "samples": int(len(samples))}


def end_to_end(workload, prepared, setups, cycles, ledger):
    """(metric values, per-mechanism breakdown). Each mechanism-level number is
    combined over the workload's models, since every metric has to exist on
    every workload.

    A train or analysis time is the 90th percentile of its samples over the
    run's cycles, and forecast latency is given at the 75th and 90th
    percentiles. The measuring machine runs at one usual speed with fast
    phases of a few seconds that fill anywhere from none to most of a run, at
    varying speeds; a high percentile stays on the usual speed (see
    README.md). Set-up time is the median."""
    windows = len(prepared.pairs["train"]) * workload.model["epochs"]
    latency = np.concatenate([c.latency for c in cycles])
    complete = latency[~np.isnan(latency).any(axis=1)].sum(axis=1)
    train_s, analyze_s = {}, {}
    for mechanism in workload.mechanisms:
        trains = [c.train_s[mechanism] for c in cycles if mechanism in c.train_s]
        analyses = [t for c in cycles for t in c.analyze_s.get(mechanism, ())]
        if trains:
            train_s[mechanism] = float(np.percentile(trains, 90))
        if analyses:
            analyze_s[mechanism] = float(np.percentile(analyses, 90))
    ratios = cycles[0].mse_ratio
    if not (len(train_s) == len(analyze_s) == len(workload.mechanisms) and complete.size):
        raise RuntimeError("a model has no successful train, forecast or analysis to measure")
    window_latency = _percentiles(complete)
    values = {
        "setup_s": statistics.median(setups),
        "train_windows_per_s": windows * len(train_s) / sum(train_s.values()),
        "forecast_ms_p75": window_latency["p75_ms"],
        "forecast_ms_p90": window_latency["p90_ms"],
        "analyze_s": sum(analyze_s.values()),
        "ok_frac": 1.0 - len(ledger.failed) / ledger.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    breakdown = {
        "forecast_window": window_latency,
        "forecast_mse_vs_naive": statistics.fmean(ratios.values()) if ratios else None,
    }
    for j, mechanism in enumerate(workload.mechanisms):
        own = latency[:, j][~np.isnan(latency[:, j])]
        breakdown[mechanism] = {
            "train_windows_per_s": windows / train_s[mechanism],
            "forecast": _percentiles(own) if own.size else None,
            "analyze_s": analyze_s[mechanism],
            "forecast_mse_vs_naive": ratios.get(mechanism),
        }
    return values, breakdown


def per_layer(tracer, ledger, workload, prepared, overhead_frac):
    """Per-layer metrics of the traced cycle. Work done only to check outputs
    (operations of kind "check") is left out."""
    flow = [op for op, (kind, _) in enumerate(ledger.ops) if kind != "check"]
    totals = tracer.totals(flow)

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0)

    values = {}
    for op in PRIMITIVES:
        values[f"numerics.fwd_s.{op}"] = total(f"numerics.{op}")
        values[f"numerics.bwd_s.{op}"] = total(f"numerics.{op}.bwd")
        values[f"numerics.calls.{op}"] = total(f"numerics.{op}", "calls")
    train_windows = len(prepared.pairs["train"]) * workload.model["epochs"] * total("models.train", "calls")
    values.update({
        "numerics.tape_records_per_window":
            tracer.counter(TAPE_RECORDS, set(ledger.ids("train"))) / max(train_windows, 1),
        "numerics.backward_s": total("numerics.backward"),
        "numerics.adam_step_s": total("numerics.adam_step"),
        "numerics.adam_steps": total("numerics.adam_step", "calls"),
        "numerics.svd_s": total("numerics.svd"),
        "numerics.svd_calls": total("numerics.svd", "calls"),
        "spectral.amplitude_matrix_s": total("spectral.amplitude_matrix"),
        "spectral.amplitude_rows": tracer.counter("spectral.amplitude_rows", set(flow)),
        "attention.forward_self_s": total("attention.forward", "self_s"),
        "attention.calls": total("attention.forward", "calls"),
        "attention.hcc_s": total("attention.hcc"),
        "attention.hcc_calls": total("attention.hcc", "calls"),
        "models.forward_window_self_s": total("models.forward_window", "self_s"),
        "models.encoder_ffn_self_s": total("models.encoder_layer", "self_s"),
        "models.patchify_s": total("models.patchify"),
        "models.instance_normalize_s": total("models.instance_normalize"),
        "models.train_self_s": total("models.train", "self_s"),
        "models.checkpoint_save_s": total("models.checkpoint_save"),
        "models.checkpoint_load_s": total("models.checkpoint_load"),
        "models.checkpoint_bytes": tracer.counter("models.checkpoint_bytes", set(flow)),
        "data.synth_s": total("data.synth"),
        "data.load_csv_s": total("data.load_csv"),
        "data.windows_s": total("data.windows"),
        "data.windows_count": tracer.counter("data.windows_count", set(flow)),
        "analysis.average_attention_s": total("analysis.average_attention"),
        "analysis.report_self_s": total("analysis.report", "self_s"),
        "trace.overhead_frac": overhead_frac,
    })
    return values, top_self_time(totals), baseline_rows(tracer, ledger, workload, prepared)


def top_self_time(totals, count=5):
    ranked = sorted(totals.items(), key=lambda item: item[1]["self_s"], reverse=True)
    return [
        {"layer": name.split(".", 1)[0], "op": name.split(".", 1)[1],
         "self_s": entry["self_s"], "calls": entry["calls"]}
        for name, entry in ranked[:count]
    ]


def baseline_rows(tracer, ledger, workload, prepared):
    """Per mechanism, the ROADMAP baseline quantities as seen by the traced run:
    forward and backward time per training window, tape records per window,
    and the train() time with the part spent in amplitude_matrix."""
    windows = len(prepared.pairs["train"]) * workload.model["epochs"]
    rows = {}
    for mechanism in workload.mechanisms:
        ops = set(ledger.ids("train", mechanism))
        totals = tracer.totals(ops)
        runs = totals.get("models.train", {}).get("calls", 0)
        if not runs:
            continue
        per_window = 1e3 / (windows * runs)
        rows[mechanism] = {
            "fwd_ms_per_window": totals.get("models.window_loss.train", {}).get("total_s", 0) * per_window,
            "bwd_ms_per_window": totals.get("numerics.backward", {}).get("total_s", 0) * per_window,
            "tape_records_per_window": tracer.counter(TAPE_RECORDS, ops) / (windows * runs),
            "train_s": totals["models.train"]["total_s"] / runs,
            "amplitude_s_in_train": totals.get("spectral.amplitude_matrix", {}).get("total_s", 0) / runs,
        }
    return rows
