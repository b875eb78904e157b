"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. The trained-model criteria (08, 09) share one session of
desk-scale trainings on the frozen synthetic task below.
"""

import time

import numpy as np
import pytest

from spectral_attn import numerics as nm
from spectral_attn.analysis import (
    average_attention,
    condition_number,
    grad_check,
    numerical_rank,
)
from spectral_attn.attention import (
    dirac_kernel,
    hcc,
    orthogonal_init,
)
from spectral_attn.cli import gradcheck_configs, main
from spectral_attn.data import save_csv, split, synth_multisine, window_arrays
from spectral_attn.models import (
    ForecastModel,
    ModelConfig,
    patchify,
    train,
)
from spectral_attn.spectral import amplitude_matrix

from oracles import dft_naive, jacobi_eigenvalues, naive_attention, naive_conv2d


def passed(number, message):
    print(f"[acceptance] criterion {number:02d} PASS - {message}")


# ---------------------------------------------------------------------------
# shared desk-scale training session (criteria 08, 09)
# ---------------------------------------------------------------------------

SEEDS = (101, 102, 103, 104, 105)

# Two frequency-partner pairs with quadrature-ish phase offsets; amplitudes
# sized so the fixed noise floor stays material after instance normalization.
TONES = (
    ((5, 0.33, 0.0),),
    ((5, 0.30, 1.57),),
    ((11, 0.33, 0.8),),
    ((11, 0.36, 2.37),),
)
NOISE_SIGMA = 0.05
PARTNERS = {0: 1, 1: 0, 2: 3, 3: 2}


def desk_config(mechanism, seed):
    return ModelConfig(
        architecture="variate", mechanism=mechanism, L=96, T=24, C=4, H=4, D=32,
        F=(32 if mechanism == "soatten" else 0), kernel_K=3, layers=2,
        dropout=0.2, seed=seed, lr=1e-3, batch_size=32, epochs=4,
    )


def synthetic_dataset(seed):
    ds = synth_multisine(4, 1280, TONES, NOISE_SIGMA, seed, period=96)
    return split(ds, (0.7, 0.1))


def averaged_attention_map(model, dataset, num_windows=8):
    """The mean final attention map of the first test windows' forecast, one batch.

    Averaging window-major, then layer, then head (as `analyze-attention`
    does) sums in the order of one forecast per window, bit for bit."""
    inputs, _ = window_arrays(dataset, "test", model.config.L, model.config.T)
    batch = inputs[:num_windows]
    capture = []
    model.predict_batch(batch, capture=capture)
    n = capture[0].final.weights.shape[-1]
    return average_attention(
        [np.stack([entry.final.weights.reshape(len(batch), -1, n, n) for entry in capture], axis=1)]
    )


def pair_ordering_holds(avg):
    for row, mate in PARTNERS.items():
        for other in range(4):
            if other in (row, mate):
                continue
            if not avg[row, mate] > avg[row, other]:
                return False
    return True


@pytest.fixture(scope="module")
def trained_runs():
    runs = {"fsatten": [], "soatten": [], "conventional": []}
    fsatten_elapsed = 0.0
    for mechanism in runs:
        for seed in SEEDS:
            start = time.perf_counter()
            dataset = synthetic_dataset(seed)
            model = ForecastModel(desk_config(mechanism, seed))
            report = train(model, dataset)
            entry = {"seed": seed, "test_mse": report.test_mse}
            if mechanism == "fsatten":
                entry["ordering"] = pair_ordering_holds(
                    averaged_attention_map(model, dataset)
                )
                fsatten_elapsed += time.perf_counter() - start
            inputs, targets = window_arrays(dataset, "test", 96, 24)
            preds = np.repeat(inputs[:, :, -1:], 24, axis=2)   # last-value-repeat baseline
            entry["naive_mse"] = float(np.mean((preds - targets) ** 2))
            runs[mechanism].append(entry)
    runs["fsatten_elapsed"] = fsatten_elapsed
    return runs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_dft_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        length = int(rng.integers(2, 129))
        x = rng.standard_normal(length)
        amps = amplitude_matrix(x[None])[0]
        reference = dft_naive(x)
        np.testing.assert_allclose(np.fft.rfft(x), reference[: length // 2 + 1], atol=1e-9)
        np.testing.assert_allclose(amps, np.abs(reference[: length // 2 + 1]), atol=1e-9)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(reference) ** 2) / length)
        assert abs(time_energy - freq_energy) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    passed(1, f"200 sequences, bins within 1e-9, Parseval within 1e-9, {elapsed:.1f}s")


def test_c02_phase_invariance():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        length = int(rng.integers(2, 129))
        x = rng.standard_normal(length)
        shift = int(rng.integers(0, length))
        base = amplitude_matrix(x[None])[0]
        rolled = amplitude_matrix(np.roll(x, shift)[None])[0]
        np.testing.assert_allclose(rolled, base, atol=1e-9)
    passed(2, "100 circular shifts leave amplitude spectra unchanged within 1e-9")


def test_c03_gradient_suite():
    start = time.perf_counter()
    combos = gradcheck_configs(seed=0)
    assert {(c.mechanism, c.architecture) for c in combos} == {
        ("conventional", "variate"), ("conventional", "temporal"),
        ("fsatten", "variate"), ("soatten", "variate"), ("soatten", "temporal"),
    }
    worst = 0.0
    for cfg in combos:
        report = grad_check(cfg, step=1e-5, threshold=1e-4)
        assert report.passed, (
            f"{cfg.mechanism}/{cfg.architecture}: max rel err {report.max_rel_error:.3g}"
        )
        worst = max(worst, report.max_rel_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 3 took {elapsed:.1f}s"
    passed(3, f"5 mechanism/architecture combos, worst rel err {worst:.2g}, {elapsed:.0f}s")


def test_c04_orthogonality():
    rng = np.random.default_rng(1004)
    shapes = [(96, 49)]
    while len(shapes) < 50:
        in_dim = int(rng.integers(2, 97))
        out_dim = int(rng.integers(1, min(in_dim, 49) + 1))
        shapes.append((in_dim, out_dim))
    for i, (in_dim, out_dim) in enumerate(shapes):
        w = orthogonal_init(in_dim, out_dim, seed=5000 + i)
        gram_err = np.abs(w.T @ w - np.eye(out_dim)).max()
        assert gram_err < 1e-6, (in_dim, out_dim, gram_err)
        values = nm.svd_singular_values(w)
        assert np.abs(values - 1.0).max() < 1e-6, (in_dim, out_dim)
    passed(4, "50 draws up to 96x49: Gram error < 1e-6, singular values within 1e-6 of 1")


def test_c05_attention_normalization():
    rng = np.random.default_rng(1005)
    for i in range(100):
        heads = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        q = rng.standard_normal((heads, n, d)) * 4
        k = rng.standard_normal((heads, n, d)) * 4
        rng.standard_normal((heads, n, d))  # the values' draw, which the weights never read
        kernel = rng.standard_normal((heads, heads, 3, 3)) * 0.5 if i % 2 else None
        weights = nm.attention_weights(q, k)
        effective = hcc(weights, kernel) if kernel is not None else weights
        assert (weights.data >= 0).all()
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-9)
        assert (effective.data >= 0).all()
    passed(5, "100 passes: pre-HCC rows sum to 1 within 1e-9, post-HCC nonnegative")


def test_c06_hcc_and_attention_oracles():
    rng = np.random.default_rng(1006)
    for kernel_size in (1, 3, 5):
        for _ in range(4):
            heads = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            q = rng.standard_normal((heads, n, d))
            k = rng.standard_normal((heads, n, d))
            v = rng.standard_normal((heads, n, d))
            scale = float(np.sqrt(d))
            weights = nm.attention_weights(q, k)
            out = nm.matmul(weights, v)
            ref_w, ref_o = naive_attention(q, k, v, scale)
            np.testing.assert_allclose(weights.data, ref_w, atol=1e-12)
            np.testing.assert_allclose(out.data, ref_o, atol=1e-12)

            kern = rng.standard_normal((heads, heads, kernel_size, kernel_size))
            coupled = hcc(weights.data, kern)
            expected = np.maximum(naive_conv2d(ref_w, kern), 0.0)
            np.testing.assert_allclose(coupled.data, expected, atol=1e-12)
    passed(6, "attention and HCC match naive loop oracles within 1e-12 for K in {1,3,5}")


def test_c07_patch_count_formula():
    checked = 0
    for length in range(1, 65):
        x = np.arange(float(length))
        for p in range(1, length + 1):
            for s in range(1, p + 1):
                patches = patchify(x, p, s)
                expected_n = (length - p) // s + 2
                assert patches.shape == (expected_n, p)
                full = [x[j * s:j * s + p] for j in range((length - p) // s + 1)]
                padded = np.concatenate([x, np.full(expected_n * s + p, x[-1])])
                for j in range(expected_n):
                    np.testing.assert_array_equal(patches[j], padded[j * s:j * s + p])
                    if j < len(full):
                        np.testing.assert_array_equal(patches[j][: len(full[j])], full[j])
                checked += 1
    passed(7, f"patch counts and contents verified on {checked} (L, P, S) grid points")


def test_c08_mechanism_recovery(trained_runs):
    hits = sum(entry["ordering"] for entry in trained_runs["fsatten"])
    elapsed = trained_runs["fsatten_elapsed"]
    assert elapsed < 300.0, f"fsatten training took {elapsed:.0f}s"
    assert hits >= 4, f"pair ordering held in only {hits}/5 seeds"
    passed(8, f"frequency partners dominate attention rows in {hits}/5 seeds, {elapsed:.0f}s")


def test_c09_training_sanity(trained_runs):
    for mechanism in ("fsatten", "soatten", "conventional"):
        for entry in trained_runs[mechanism]:
            assert entry["test_mse"] < entry["naive_mse"], (mechanism, entry)
    conventional = [e["test_mse"] for e in trained_runs["conventional"]]
    fs_wins = sum(
        f["test_mse"] <= c for f, c in zip(trained_runs["fsatten"], conventional)
    )
    so_wins = sum(
        s["test_mse"] <= c for s, c in zip(trained_runs["soatten"], conventional)
    )
    assert fs_wins >= 4, f"fsatten beat conventional in only {fs_wins}/5 seeds"
    assert so_wins >= 4, f"soatten beat conventional in only {so_wins}/5 seeds"
    passed(9, f"all runs beat the naive baseline; fsatten {fs_wins}/5, soatten {so_wins}/5 vs conventional")


def test_c10_ablation_plumbing():
    base = dict(architecture="variate", mechanism="soatten", L=16, T=4, C=3, P=4,
                S=2, H=2, D=8, F=6, kernel_K=3, layers=2, dropout=0.0, seed=0)
    counts = {}
    for mss in (True, False):
        for hcc_on in (True, False):
            cfg = ModelConfig(mss_enabled=mss, hcc_enabled=hcc_on, **base)
            counts[(mss, hcc_on)] = sum(p.data.size for p in ForecastModel(cfg).parameters())
    c, f, h, k, layers = 3, 6, 2, 3, 2
    assert len(set(counts.values())) == 4
    assert counts[(False, True)] - counts[(True, True)] == layers * 2 * h * (f * f - c * f)
    assert counts[(False, False)] - counts[(True, False)] == layers * 2 * h * (f * f - c * f)
    assert counts[(True, True)] - counts[(True, False)] == layers * h * h * k * k
    assert counts[(False, True)] - counts[(False, False)] == layers * h * h * k * k

    cfg_on = ModelConfig(mss_enabled=True, hcc_enabled=True, **base)
    cfg_off = ModelConfig(mss_enabled=True, hcc_enabled=False, **base)
    with_hcc = ForecastModel(cfg_on)
    without = ForecastModel(cfg_off)
    for layer in with_hcc.layers:
        layer.attn.kernel.data = dirac_kernel(2, 3)
    x = np.random.default_rng(1010).standard_normal((3, 16))
    np.testing.assert_array_equal(with_hcc.predict(x), without.predict(x))
    passed(10, "four ablation arms accounted exactly; Dirac kernel == HCC-off bitwise")


def test_c11_analysis_tool_oracles():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 33))
        a = rng.standard_normal((n, n))
        eigs = np.sqrt(np.clip(jacobi_eigenvalues(a.T @ a), 0.0, None))
        expected = eigs[0] / eigs[-1]
        got = condition_number(a)
        rel = abs(got - expected) / expected
        worst = max(worst, rel)
        assert rel < 1e-6, (n, rel)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        k = int(rng.integers(1, n + 1))
        u = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :k]
        s = 10.0 ** rng.uniform(-2, 2, size=k)
        matrix = u @ np.diag(s) @ v.T
        assert numerical_rank(matrix, tol=1e-10) == k, (n, k)
    passed(11, f"condition numbers within 1e-6 of the eigen-oracle (worst {worst:.2g}); ranks exact")


def test_c12_cli_determinism(tmp_path):
    config = tmp_path / "model.cfg"
    config.write_text(
        "architecture = variate\nmechanism = soatten\nL = 32\nT = 8\nH = 2\nD = 8\n"
        "F = 6\nlayers = 1\ndropout = 0.1\nseed = 5\nlr = 0.002\nbatch_size = 8\nepochs = 2\n",
        encoding="utf-8",
    )
    tones = [[(4, 0.4, 0.0)], [(9, 0.5, 0.7)]]
    dataset = synth_multisine(2, 560, tones, 0.05, 6, period=32)
    csv = tmp_path / "series.csv"
    save_csv(csv, dataset)

    spec = tmp_path / "synth.cfg"
    spec.write_text("C = 2\nlength = 128\nperiod = 32\nnoise_sigma = 0.1\nseed = 3\n"
                    "tones_0 = 4:1:0\ntones_1 = 9:1:0.5\n", encoding="utf-8")
    byte_pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert main(["train", "--config", str(config), "--data", str(csv),
                     "--out", str(out)]) == 0
        maps_dir = tmp_path / f"maps_{tag}"
        assert main(["analyze-attention", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(csv), "--out", str(maps_dir), "--num-windows", "2"]) == 0
        eval_path = tmp_path / f"eval_{tag}.json"
        assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(csv), "--out", str(eval_path)]) == 0
        synth_path = tmp_path / f"synth_{tag}.csv"
        assert main(["synth", "--spec", str(spec), "--out", str(synth_path)]) == 0
        byte_pairs.append([
            (out / "checkpoint.json").read_bytes(),
            (out / "train_report.json").read_bytes(),
            (out / "metrics.json").read_bytes(),
            (maps_dir / "attention_mean.csv").read_bytes(),
            (maps_dir / "attention_mean.pgm").read_bytes(),
            (maps_dir / "attention_report.json").read_bytes(),
            eval_path.read_bytes(),
            synth_path.read_bytes(),
        ])
    assert byte_pairs[0] == byte_pairs[1]
    passed(12, "train/evaluate/analyze/synth artifacts byte-identical across reruns")


def test_c13_fsatten_f_default():
    cfg = ModelConfig(architecture="variate", mechanism="fsatten", L=96, C=4)
    assert cfg.resolved_f == 49
    model = ForecastModel(cfg)
    assert model.layers[0].attn.bin_count == 49
    assert model.params["layers.0.attn.mss_q"].data.shape == (4, 4, 49)
    passed(13, "fsatten with L=96 resolves F to 49")
