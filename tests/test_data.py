"""CSV ingestion, splits, windows, and synthetic generation."""

import math
import re

import numpy as np
import pytest

from spectral_attn.data import (
    SeriesDataset,
    default_ratios,
    load_csv,
    normalized_values,
    save_csv,
    split,
    synth_multisine,
    window_arrays,
    windows,
)
from spectral_attn.errors import ConfigError, DataError, FormatError, ParseError
from spectral_attn.spectral import amplitude_matrix


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_literal_echo(tmp_path):
    path = write(tmp_path, "date,a,b\n2020-01-01,1.5,-2\n2020-01-02,3,4.25\n2020-01-03,5,6\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.values, [[1.5, 3.0, 5.0], [-2.0, 4.25, 6.0]])
    assert ds.variates == 2 and ds.length == 3
    assert ds.timestamps == ("2020-01-01", "2020-01-02", "2020-01-03")
    assert ds.variate_names == ("a", "b")


def test_load_csv_ett_shaped_file(tmp_path):
    # ETTh1 schema: 7 variates sampled hourly
    header = "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"
    rows = [
        f"2016-07-01 {h:02d}:00:00," + ",".join(str(float(h + c)) for c in range(7))
        for h in range(24)
    ]
    ds = load_csv(write(tmp_path, header + "\n" + "\n".join(rows) + "\n", "ETTh1.csv"))
    assert ds.variates == 7
    assert ds.name == "ETTh1"
    assert ds.timestamps[0].endswith("00:00:00") and ds.timestamps[1].endswith("01:00:00")
    assert default_ratios(ds.name) == (0.6, 0.2)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(FormatError):
        load_csv(write(tmp_path, ""))


def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path):
    path = write(tmp_path, "date,a,b\nt0,1,2\nt1,oops,4\n")
    with pytest.raises(ParseError, match=r"row 3.*'a'"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400"])
def test_load_csv_non_finite_cell_names_row_and_column(tmp_path, cell):
    path = write(tmp_path, f"date,a,b\nt0,1,2\nt1,3,{cell}\n")
    with pytest.raises(ParseError, match=rf"non-finite cell at row 3, column 'b': '{cell}'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(FormatError, match="row 3"):
        load_csv(write(tmp_path, "date,a,b\nt0,1,2\nt1,3\n"))


def test_save_csv_writes_each_value_as_its_float_repr(tmp_path):
    ds = SeriesDataset(name="r", values=np.array([[0.1, -0.0, 1e300], [2.5, 5e-324, -1 / 3]]))
    path = tmp_path / "r.csv"
    save_csv(path, ds)
    assert path.read_bytes() == (b"date,v0,v1\r\n0,0.1,2.5\r\n1,-0.0,5e-324\r\n"
                                 b"2,1e+300,-0.3333333333333333\r\n")


def test_csv_round_trip_is_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    ds = SeriesDataset(
        name="rt",
        values=rng.standard_normal((3, 17)) * 1e3,
        timestamps=tuple(f"t{i}" for i in range(17)),
        variate_names=("x", "y", "z"),
    )
    first = tmp_path / "first.csv"
    save_csv(first, ds)
    loaded = load_csv(first)
    np.testing.assert_array_equal(loaded.values, ds.values)
    second = tmp_path / "second.csv"
    save_csv(second, loaded)
    assert first.read_text() == second.read_text()


@pytest.mark.parametrize("fields, named", [
    (dict(values=np.zeros(5)), "values must be (C, Tlen)"),
    (dict(values=np.zeros((2, 5)), timestamps=("t0", "t1", "t2", "t3")), "timestamps holds 4 entries, expected 5"),
    (dict(values=np.zeros((3, 5)), variate_names=("a", "b")), "variate_names holds 2 entries, expected 3"),
], ids=["1-d-values", "short-timestamps", "short-variate-names"])
def test_dataset_that_disagrees_with_itself_is_rejected(fields, named):
    with pytest.raises(DataError, match=re.escape(named)):
        SeriesDataset(name="bad", **fields)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def make_dataset(tlen, c=2, seed=0, name="demo"):
    rng = np.random.default_rng(seed)
    return SeriesDataset(name=name, values=rng.standard_normal((c, tlen)))


def test_split_bounds_basic():
    ds = split(make_dataset(100), (0.7, 0.1))
    assert ds.split_bounds == (70, 80)


def test_split_bounds_ett_convention():
    ds = split(make_dataset(17420), (0.6, 0.2))
    assert ds.split_bounds == (10452, 13936)


def test_split_all_train_then_val_use_fails():
    ds = split(make_dataset(60), (1.0, 0.0))
    with pytest.raises(DataError):
        windows(ds, "val", 4, 2)
    with pytest.raises(DataError):
        windows(ds, "test", 4, 2)


def test_split_rejects_bad_ratios():
    with pytest.raises(DataError):
        split(make_dataset(50), (0.0, 0.5))
    with pytest.raises(DataError):
        split(make_dataset(50), (0.8, 0.3))


@pytest.mark.parametrize("ratios", [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.0),
                                    (0.5, -math.inf)])
def test_split_rejects_non_finite_ratios(ratios):
    with pytest.raises(DataError, match="invalid ratios"):
        split(make_dataset(50), ratios)


def test_norm_stats_from_train_only():
    ds = split(make_dataset(200, seed=3), (0.7, 0.1))
    means, stds = ds.norm_stats
    train = ds.values[:, :140]
    np.testing.assert_array_equal(means, train.mean(axis=1))
    np.testing.assert_array_equal(stds, train.std(axis=1))


_B = 2.0 ** -1018  # within 2^4 of the smallest normal float64

# fault -> (the second variate's four values, 3 of them train values; message)
UNSTANDARDIZABLE = {
    "non-finite": ([1.0, np.nan, 3.0, 4.0], "holds non-finite values"),
    "subnormal": ([1.0, 1e-310, 3.0, 4.0], "holds subnormal values"),
    "mean": ([0.9 * _B, -0.7 * _B, -0.19991 * _B, 1.0], "has a train mean that float64 cannot represent"),
    "std": ([4 * _B, 4 * _B * (1 + 2**-40), 4 * _B * (1 + 3 * 2**-41), 1.0],
            "has a train std that float64 cannot represent"),
    "overflow": ([1.7e308, 1.7e308, -1.7e308, 1.0], "overflows float64 when standardized"),
}


@pytest.mark.parametrize("fault", sorted(UNSTANDARDIZABLE))
def test_split_names_the_variate_it_cannot_standardize(fault, recwarn):
    values, message = UNSTANDARDIZABLE[fault]
    dataset = SeriesDataset("x", np.array([[1.0, 2.0, 3.0, 4.0], values]), variate_names=("a", "b"))
    with pytest.raises(DataError, match=f"split: variate 'b' {message}"):
        split(dataset, (0.75, 0.25))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("k", [-1000, -300, -1, 1, 300, 1000])
def test_split_standardizes_power_of_two_scaled_data_to_the_same_bits(k):
    dataset = make_dataset(200, seed=3)
    want = normalized_values(split(dataset, (0.7, 0.1)))
    scaled = SeriesDataset("x", np.ldexp(dataset.values, k))
    assert normalized_values(split(scaled, (0.7, 0.1))).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_windows_exactly_one():
    ds = split(make_dataset(100), (0.06, 0.94))  # train split holds exactly L+T
    assert len(windows(ds, "train", 4, 2)) == 1


def test_windows_count_small_case():
    ds = split(make_dataset(100), (0.1, 0.9))  # train split holds L+T+4
    assert len(windows(ds, "train", 4, 2)) == 5


def test_windows_count_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    for _ in range(25):
        tlen = int(rng.integers(30, 120))
        ds = split(make_dataset(tlen, seed=int(rng.integers(1000))), (0.6, 0.2))
        L = int(rng.integers(2, 8))
        T = int(rng.integers(1, 5))
        for which in ("train", "val", "test"):
            start, end = {
                "train": (0, ds.split_bounds[0]),
                "val": ds.split_bounds,
                "test": (ds.split_bounds[1], tlen),
            }[which]
            expected = sum(
                1 for origin in range(start, end) if origin + L + T <= end
            )
            if expected == 0:
                with pytest.raises(DataError):
                    windows(ds, which, L, T)
            else:
                got = windows(ds, which, L, T)
                assert len(got) == expected == (end - start) - (L + T) + 1
                for pair in got:
                    assert start <= pair.origin_index
                    assert pair.origin_index + L + T <= end


def test_window_target_continues_input():
    """For every split, window_arrays holds bit for bit the normalized slices
    at each origin, and windows() lists the same windows with their origins."""
    ds = split(make_dataset(120, seed=5), (0.6, 0.2))
    values = normalized_values(ds)
    train_end, val_end = ds.split_bounds
    for which, start in (("train", 0), ("val", train_end), ("test", val_end)):
        pairs = windows(ds, which, 6, 3)
        for pair in pairs:
            joined = np.concatenate([pair.input, pair.target], axis=1)
            np.testing.assert_array_equal(
                joined, values[:, pair.origin_index:pair.origin_index + 9]
            )
        inputs, targets = window_arrays(ds, which, 6, 3)
        origins = range(start, start + len(inputs))
        assert [pair.origin_index for pair in pairs] == list(origins)
        # views of one standardized copy of the split: no window is copied
        assert not inputs.flags.owndata and not targets.flags.owndata
        assert np.shares_memory(inputs, targets) and not inputs.flags.writeable
        assert np.array_equal(inputs, np.stack([values[:, o:o + 6] for o in origins]))
        assert np.array_equal(targets, np.stack([values[:, o + 6:o + 9] for o in origins]))
        assert np.array_equal(inputs, np.stack([pair.input for pair in pairs]))
        assert np.array_equal(targets, np.stack([pair.target for pair in pairs]))


def test_windows_use_train_statistics():
    ds = split(make_dataset(100, seed=6), (0.7, 0.1))
    means, stds = ds.norm_stats
    pair = windows(ds, "test", 4, 2)[0]
    raw = ds.values[:, pair.origin_index:pair.origin_index + 4]
    np.testing.assert_allclose(pair.input, (raw - means[:, None]) / stds[:, None], atol=1e-12)


# ---------------------------------------------------------------------------
# synth_multisine
# ---------------------------------------------------------------------------

def test_synth_single_tone_concentrates_at_bin():
    ds = synth_multisine(1, 300, [[(5, 1.0, 0.3)]], noise_sigma=0.0, seed=1, period=96)
    for start in (0, 50, 123):
        amps = amplitude_matrix(ds.values[:1, start:start + 96])[0]
        assert np.argmax(amps) == 5
        others = np.delete(amps, 5)
        assert others.max() < 1e-9


def test_synth_shared_tone_different_phases_same_spectrum():
    ds = synth_multisine(
        2, 96, [[(7, 1.0, 0.0)], [(7, 1.0, 1.9)]], noise_sigma=0.0, seed=2, period=96
    )
    a0, a1 = amplitude_matrix(ds.values)
    np.testing.assert_allclose(a0, a1, atol=1e-9)


def test_synth_deterministic():
    spec = [[(3, 1.0, 0.0)], [(9, 0.5, 0.7)]]
    a = synth_multisine(2, 128, spec, noise_sigma=0.1, seed=9)
    b = synth_multisine(2, 128, spec, noise_sigma=0.1, seed=9)
    np.testing.assert_array_equal(a.values, b.values)


def test_synth_takes_a_dict_of_the_variates_that_have_tones():
    spec = [[(3, 1.0, 0.0)], [], [(9, 0.5, 0.7)]]
    want = synth_multisine(3, 128, spec, noise_sigma=0.1, seed=9)
    got = synth_multisine(3, 128, {2: spec[2], 0: spec[0]}, noise_sigma=0.1, seed=9)
    np.testing.assert_array_equal(got.values, want.values)


@pytest.mark.parametrize("spec", [[[(3, 1.0, 0.0)]], {3: [(3, 1.0, 0.0)]}, {-1: []}, {0: [], "1": []}])
def test_synth_rejects_a_tone_spec_for_other_variates(spec):
    with pytest.raises(ConfigError, match="tone_spec"):
        synth_multisine(3, 128, spec, noise_sigma=0.0, seed=0)


def test_synth_rejects_nyquist_tone():
    with pytest.raises(ConfigError):
        synth_multisine(1, 100, [[(48, 1.0, 0.0)]], noise_sigma=0.0, seed=0, period=96)


@pytest.mark.parametrize("noise, tone", [
    (math.nan, (3, 1.0, 0.0)),
    (math.inf, (3, 1.0, 0.0)),
    (0.0, (math.nan, 1.0, 0.0)),
    (0.0, (3, math.nan, 0.0)),
    (0.0, (3, 1.0, math.inf)),
])
def test_synth_rejects_non_finite_noise_or_tone(noise, tone):
    with pytest.raises(ConfigError, match="non-finite|finite and >= 0"):
        synth_multisine(1, 100, [[tone]], noise_sigma=noise, seed=0, period=96)
