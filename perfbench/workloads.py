"""The workloads and the flow the benchmark replays for each of them.

One cycle repeats the CLI's `train` -> checkpoint -> `evaluate` ->
`analyze-attention` sequence in a single process through the public
functions of spectral_attn.data, .models and .analysis, for every model of
the workload, with one caller: each forecast is batch 1 and starts when the
previous one returned. `set_up` is the part before training: `synth`, the
CSV round trip, split, windowing, model construction and a checkpoint
save+load per model.

Every failed operation (a raised error or a failed check) is counted in the
Ledger and the run goes on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from spectral_attn import analysis, data, models
from spectral_attn import numerics as nm

ANALYSIS_REPEATS = 2
CHECKPOINT_WINDOWS = 2  # test windows per cycle whose loaded forecast is compared bitwise

MODEL = dict(L=96, T=24, P=16, S=8, H=4, D=32, layers=2, dropout=0.2,
             batch_size=32, lr=1e-3, kernel_K=3, epochs=1)

# The acceptance desk task (tests c08/c09): two frequency-partner pairs,
# bins 5 and 11, with different phases.
DESK_TONES = (
    ((5, 0.33, 0.0),),
    ((5, 0.30, 1.57),),
    ((11, 0.33, 0.8),),
    ((11, 0.36, 2.37),),
)

# 16 partner pairs on distinct bins 3, 5, ..., 33; partners differ in phase.
WIDE_TONES = tuple(
    ((3 + 2 * pair, amplitude, 0.4 * pair + phase),)
    for pair in range(16)
    for amplitude, phase in ((0.33, 0.0), (0.30, 1.57))
)


@dataclass(frozen=True)
class Workload:
    name: str
    architecture: str
    mechanisms: tuple
    tones: tuple
    length: int
    ratios: tuple
    noise: float = 0.05
    period: int = 96
    model: dict = field(default_factory=lambda: dict(MODEL))
    analysis_windows: int = 8

    @property
    def variates(self):
        return len(self.tones)

    def config(self, mechanism, seed):
        return models.ModelConfig(
            architecture=self.architecture, mechanism=mechanism, C=self.variates,
            F=32 if mechanism == "soatten" else 0, seed=seed, **self.model,
        )


# The series are short so that one cycle takes 3 to 4.5 s and a 40 s run
# holds 9 to 14 of them; each validation split holds a single window.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="variate-desk",
            architecture="variate",
            mechanisms=("fsatten", "soatten", "conventional"),
            tones=DESK_TONES, length=600, ratios=(0.45, 0.2),
        ),
        Workload(
            name="temporal",
            architecture="temporal",
            mechanisms=("soatten", "conventional"),
            tones=DESK_TONES, length=480, ratios=(0.375, 0.25),
        ),
        Workload(
            name="variate-wide",
            architecture="variate",
            mechanisms=("fsatten", "soatten"),
            tones=WIDE_TONES, length=420, ratios=(0.37, 0.285),
        ),
    )
}


class Ledger:
    """Operations attempted (train runs, forecast calls, analyses) and failed.

    Every begin() also starts a new operation id, which the tracer stamps on
    the spans it records; set-up and check work get ids that are not counted.
    """

    def __init__(self):
        self.ops = []          # (kind, mechanism) per operation id
        self.attempted = 0
        self.failed = set()
        self.messages = []
        self.tracer = None

    def begin(self, kind, mechanism=None, counted=True):
        op = len(self.ops)
        self.ops.append((kind, mechanism))
        if counted:
            self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = op
        return op

    def fail(self, op, message):
        self.failed.add(op)
        kind, mechanism = self.ops[op]
        if len(self.messages) < 50:
            self.messages.append(f"{kind} {mechanism}: {message}")

    def check(self, op, ok, message):
        if not ok:
            self.fail(op, message)
        return ok

    def ids(self, kind, mechanism=None):
        return [op for op, (k, m) in enumerate(self.ops)
                if k == kind and (mechanism is None or m == mechanism)]


@dataclass
class Prepared:
    dataset: object
    pairs: dict  # split name -> list of WindowPair


def set_up(workload, seed, workdir, ledger):
    """Everything before training: synth, CSV round trip, split, windows, and a
    checkpoint save+load of each freshly built model."""
    ledger.begin("setup", counted=False)
    series = data.synth_multisine(workload.variates, workload.length, workload.tones,
                                  workload.noise, seed, period=workload.period)
    csv_path = workdir / "series.csv"
    data.save_csv(csv_path, series)
    dataset = data.split(data.load_csv(csv_path), workload.ratios)
    L, T = workload.model["L"], workload.model["T"]
    pairs = {which: data.windows(dataset, which, L, T) for which in ("train", "val", "test")}
    for mechanism in workload.mechanisms:
        path = workdir / f"{mechanism}-untrained.json"
        models.save_checkpoint(path, models.ForecastModel(workload.config(mechanism, seed)))
        models.load_checkpoint(path)
    return Prepared(dataset=dataset, pairs=pairs)


def warm_up(workload, prepared, seed):
    """Touch every code path once so that lazy set-up is not timed."""
    pair = prepared.pairs["train"][0]
    for mechanism in workload.mechanisms:
        model = models.ForecastModel(workload.config(mechanism, seed))
        with nm.GradientTape() as tape:
            loss = model.window_loss(pair.input, pair.target, training=True)
        nm.backward(tape, loss)
        nm.Adam(model.parameters(), model.config.lr).step()
        capture = []
        model.predict(pair.input, capture=capture)
        analysis.attention_report([entry.final for entry in capture], mechanism)


@dataclass
class Cycle:
    train_s: dict      # mechanism -> wall time of its train() call
    latency: np.ndarray  # (test windows, mechanisms) forecast seconds, NaN where it raised
    analyze_s: dict    # mechanism -> wall time of each analysis repeat
    mse_ratio: dict    # mechanism -> test MSE / last-value-repeat MSE
    reports: dict      # mechanism -> train report as a dict
    wall_s: float


def run_cycle(workload, prepared, seed, workdir, ledger, reference_reports=None):
    """One pass of the CLI flow for every model: train, checkpoint, evaluate, analyze.

    Every model is trained and checkpointed first. Then each test window is
    forecast by every loaded model in turn, and last every model's analysis
    runs. Interleaving the forecasts spreads each model's latency samples
    over the whole forecasting stretch, and repeating short cycles spreads
    every metric's samples over the whole run, so that the machine's speed
    phases weigh the same on every metric and every run.
    """
    started = time.perf_counter()
    test = prepared.pairs["test"]
    targets = np.stack([pair.target for pair in test])
    naive = np.stack([models.naive_repeat_forecast(pair.input, workload.model["T"]) for pair in test])
    naive_mse = analysis.mse(naive, targets)
    cycle = Cycle(train_s={}, latency=np.full((len(test), len(workload.mechanisms)), np.nan),
                  analyze_s={}, mse_ratio={}, reports={}, wall_s=0.0)
    trained = {}
    for mechanism in workload.mechanisms:
        result = _train(workload, prepared, seed, workdir, ledger, mechanism, cycle,
                        reference_reports)
        if result is None:
            for _ in test:
                ledger.fail(ledger.begin("forecast", mechanism), "no trained model")
            for _ in range(ANALYSIS_REPEATS):
                ledger.fail(ledger.begin("analysis", mechanism), "no trained model")
        else:
            trained[mechanism] = result
    predictions = _evaluate(workload, test, ledger, trained, cycle.latency)
    for mechanism, preds in predictions.items():
        if len(preds) == len(test):
            cycle.mse_ratio[mechanism] = analysis.mse(np.stack(preds), targets) / naive_mse
    for mechanism, (_, loaded) in trained.items():
        _analyze(workload, test, ledger, mechanism, loaded, cycle)
    cycle.wall_s = time.perf_counter() - started
    return cycle


def _train(workload, prepared, seed, workdir, ledger, mechanism, cycle, reference_reports):
    """train() one fresh model, then save and reload its checkpoint."""
    model = models.ForecastModel(workload.config(mechanism, seed))
    op = ledger.begin("train", mechanism)
    try:
        start = time.perf_counter()
        report = models.train(model, prepared.dataset)
        elapsed = time.perf_counter() - start
        path = workdir / f"{mechanism}.json"
        models.save_checkpoint(path, model)
        loaded = models.load_checkpoint(path)
    except Exception as exc:
        ledger.fail(op, repr(exc))
        return None
    cycle.train_s[mechanism] = elapsed
    cycle.reports[mechanism] = report.to_dict()
    if reference_reports and mechanism in reference_reports:
        ledger.check(op, cycle.reports[mechanism] == reference_reports[mechanism],
                     "train report differs from an earlier run with the same seed")
    return model, loaded


def _evaluate(workload, test, ledger, trained, latency):
    """forecast() every test window with every loaded model in turn; fills
    `latency` (windows, mechanisms) in seconds and returns the forecasts per
    mechanism."""
    C, T = workload.variates, workload.model["T"]
    columns = {mechanism: j for j, mechanism in enumerate(workload.mechanisms)}
    predictions = {mechanism: [] for mechanism in trained}
    for i, pair in enumerate(test):
        for mechanism, (model, loaded) in trained.items():
            op = ledger.begin("forecast", mechanism)
            try:
                start = time.perf_counter()
                pred = models.forecast(pair.input, loaded)
                latency[i, columns[mechanism]] = time.perf_counter() - start
            except Exception as exc:
                ledger.fail(op, repr(exc))
                continue
            predictions[mechanism].append(pred)
            if not ledger.check(op, pred.shape == (C, T) and bool(np.isfinite(pred).all()),
                                f"forecast of shape {pred.shape} is not a finite (C, T) array"):
                continue
            if i < CHECKPOINT_WINDOWS:
                ledger.begin("check", mechanism, counted=False)
                same = pred.tobytes() == model.predict(pair.input).tobytes()
                ledger.check(op, same, "checkpoint-loaded forecast differs from the trained model's")
    return predictions


def _analyze(workload, test, ledger, mechanism, loaded, cycle):
    """Capture attention on the first test windows, then attention_report, as
    analyze-attention does, ANALYSIS_REPEATS times; records each repeat's time."""
    times = []
    for _ in range(ANALYSIS_REPEATS):
        op = ledger.begin("analysis", mechanism)
        try:
            start = time.perf_counter()
            captured = []
            for pair in test[:workload.analysis_windows]:
                capture = []
                loaded.predict(pair.input, capture=capture)
                captured.extend(capture)
            report = analysis.attention_report([entry.final for entry in captured], mechanism)
            times.append(time.perf_counter() - start)
        except Exception as exc:
            ledger.fail(op, repr(exc))
            continue
        check_attention(ledger, op, captured, report)
    if times:
        cycle.analyze_s[mechanism] = times


def check_attention(ledger, op, captured, report):
    """Row sums and signs of the captured maps; rank and condition number against LAPACK."""
    pre = np.stack([entry.pre_hcc.weights for entry in captured])
    final = np.stack([entry.final.weights for entry in captured])
    worst = float(np.abs(pre.sum(axis=-1) - 1.0).max())
    ledger.check(op, worst <= 1e-12, f"pre-HCC attention row sums off by {worst:.3g}")
    ledger.check(op, bool((final >= 0).all()), "post-HCC attention has negative weights")
    values = np.linalg.svd(report.averaged_map, compute_uv=False)
    rank = int(np.sum(values > 1e-10 * values[0])) if values[0] > 0 else 0
    ledger.check(op, rank == report.rank,
                 f"numerical_rank {report.rank}, np.linalg.svd gives {rank}")
    kappa = values[0] / values[-1] if values[-1] >= 1e-300 else math.inf
    got = report.condition_number
    agree = got == kappa if math.isinf(kappa) else abs(got - kappa) <= 1e-6 * kappa
    ledger.check(op, agree, f"condition_number {got!r}, np.linalg.svd gives {kappa!r}")
