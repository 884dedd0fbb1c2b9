"""CSV ingestion, splits, normalization, and seeded synthetic streams."""

import numpy as np
import pytest

from sorscn.datastream import (
    Segment,
    SeriesDataset,
    SyntheticStreamSpec,
    fit_normalization,
    generate_synthetic,
    load_csv,
    make_validation,
    split_and_washout,
)
from sorscn.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    WashoutTooLarge,
)


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_plain_columns(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(p, {"a": "input", "b": "input", "y": "target"})
        assert ds.feature_names == ["a", "b"]
        assert ds.target_names == ["y"]
        assert np.array_equal(ds.inputs, [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0]])
        assert np.array_equal(ds.targets, [[3.0, 6.0, 9.0]])
        assert ds.metadata["lag_offset"] == 0

    def test_lagged_feature_alignment(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n10,1\n20,2\n30,3\n40,4\n")
        ds = load_csv(p, {"u": "input", "y_prev": "lag(y,1)", "y": "target"})
        # One leading row consumed: sample i pairs (u(i), y(i-1)) -> y(i).
        assert ds.n_samples == 3
        assert np.array_equal(ds.inputs[0], [20.0, 30.0, 40.0])  # u
        assert np.array_equal(ds.inputs[1], [1.0, 2.0, 3.0])  # y_prev
        assert np.array_equal(ds.targets[0], [2.0, 3.0, 4.0])
        assert ds.metadata["lag_offset"] == 1
        assert ds.feature_names == ["u", "y_prev"]

    def test_mixed_lag_depths(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "y\n1\n2\n3\n4\n5\n")
        ds = load_csv(p, {"y1": "lag(y,1)", "y2": "lag(y,2)", "y": "target"})
        assert ds.n_samples == 3
        assert np.array_equal(ds.inputs[0], [2.0, 3.0, 4.0])
        assert np.array_equal(ds.inputs[1], [1.0, 2.0, 3.0])
        assert np.array_equal(ds.targets[0], [3.0, 4.0, 5.0])
        assert ds.metadata["lag_offset"] == 2

    def test_non_numeric_cell_coordinates(self, tmp_path):
        rows = ["u,y"] + [f"{i},{i}" for i in range(1, 7)] + ["oops,7", "8,8"]
        p = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p, {"u": "input", "y": "target"})
        assert exc.value.row == 7
        assert exc.value.column == "u"
        assert exc.value.value == "oops"

    def test_blank_lines_skipped_without_renumbering(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n1,1\n\n ,\n2,bad\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p, {"u": "input", "y": "target"})
        assert exc.value.row == 2  # blank lines are not data rows
        assert exc.value.column == "y"

    def test_non_finite_cells_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n1,nan\n")
        with pytest.raises(NonNumericCell):
            load_csv(p, {"u": "input", "y": "target"})

    def test_short_row_counts_as_missing_cell(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n1,2\n3\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p, {"u": "input", "y": "target"})
        assert exc.value.row == 2 and exc.value.column == "y"

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(p, {"u": "input", "z": "input", "y": "target"})

    def test_empty_variants(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write_csv(tmp_path / "a.csv", ""), {"y": "target"})
        with pytest.raises(EmptyFile):
            load_csv(write_csv(tmp_path / "b.csv", "u,y\n"), {"u": "input", "y": "target"})
        p = write_csv(tmp_path / "c.csv", "y\n1\n2\n")
        with pytest.raises(EmptyFile):
            load_csv(p, {"deep": "lag(y,2)", "y": "target"})

    def test_schema_validation(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "u,y\n1,2\n")
        with pytest.raises(ConfigError):
            load_csv(p, {"u": "input"})  # no target
        with pytest.raises(ConfigError):
            load_csv(p, {"u": "features", "y": "target"})  # unknown role

    @pytest.mark.parametrize(
        "schema",
        [
            {"u1": "input", "u2": "input", "y": "target"},
            {"u1": "input", "y_prev": "lag(y,1)", "u2": "input", "y": "target"},
        ],
        ids=["plain", "lagged"],
    )
    def test_whitespace_headerless_equals_comma_headered(self, tmp_path, schema):
        rows = np.random.default_rng(4).normal(0.0, 3.0, (30, 3))
        comma = write_csv(
            tmp_path / "d.csv",
            "u1,u2,y\n" + "".join(",".join(f"{v:.10g}" for v in r) + "\n" for r in rows),
        )
        # Tabs and runs of spaces, and a blank line, in the whitespace layout.
        lines = ["\t".join(f"{v:.10g}" for v in r).replace("\t", "   ", 1) for r in rows]
        lines.insert(10, "  ")
        bare = write_csv(tmp_path / "d.txt", "\n".join(lines) + "\n")
        want, got = load_csv(comma, schema), load_csv(bare, schema)
        assert np.array_equal(got.inputs, want.inputs)
        assert np.array_equal(got.targets, want.targets)
        assert got.feature_names == want.feature_names
        assert got.metadata["lag_offset"] == want.metadata["lag_offset"]

    def test_comma_headerless_and_whitespace_headered(self, tmp_path):
        schema = {"u": "input", "y": "target"}
        want = load_csv(write_csv(tmp_path / "a.csv", "u,y\n1,2\n3,4\n"), schema)
        for name, text in (("b.csv", "1,2\n3,4\n"), ("c.txt", "u y\n1 2\n3 4\n")):
            got = load_csv(write_csv(tmp_path / name, text), schema)
            assert np.array_equal(got.inputs, want.inputs)
            assert np.array_equal(got.targets, want.targets)

    def test_whitespace_non_numeric_cell_coordinates(self, tmp_path):
        rows = [f"{i} {i}" for i in range(1, 5)] + ["", "5 oops", "6 6"]
        p = write_csv(tmp_path / "d.txt", "\n".join(rows) + "\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p, {"u": "input", "y": "target"})
        assert exc.value.row == 5  # the blank line is not a data row
        assert exc.value.column == "y"
        assert exc.value.value == "oops"

    def test_whitespace_short_row_counts_as_missing_cell(self, tmp_path):
        p = write_csv(tmp_path / "d.txt", "u y\n1 2\n3\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(p, {"u": "input", "y": "target"})
        assert exc.value.row == 2 and exc.value.column == "y"

    def test_headerless_column_count_must_match_schema(self, tmp_path):
        for name, text in (("a.txt", "1 2 3\n4 5 6\n"), ("b.csv", "1\n2\n")):
            p = write_csv(tmp_path / name, text)
            with pytest.raises(MissingColumn):
                load_csv(p, {"u": "input", "y_prev": "lag(y,1)", "y": "target"})


class TestNormalization:
    def test_minmax_hand_case(self):
        inputs = np.array([[0.0, 2.0, 4.0]])
        targets = np.array([[10.0, 20.0, 30.0]])
        norm = fit_normalization(inputs, targets, train_end=3, kind="minmax")
        scaled_in, scaled_tg = norm.apply(inputs, targets)
        assert np.allclose(scaled_in, [[0.0, 0.5, 1.0]], atol=1e-15)
        assert np.allclose(scaled_tg, [[0.0, 0.5, 1.0]], atol=1e-15)

    def test_zscore_hand_case(self):
        inputs = np.array([[1.0, 3.0]])
        norm = fit_normalization(inputs, np.array([[0.0, 0.0]]), train_end=2, kind="zscore")
        scaled_in, _ = norm.apply(inputs, np.array([[0.0, 0.0]]))
        assert np.allclose(scaled_in, [[-1.0, 1.0]], atol=1e-15)

    def test_constant_feature_maps_to_zero(self):
        inputs = np.array([[5.0, 5.0, 5.0], [0.0, 1.0, 2.0]])
        norm = fit_normalization(inputs, np.zeros((1, 3)), train_end=3, kind="zscore")
        scaled_in, _ = norm.apply(inputs, np.zeros((1, 3)))
        assert np.allclose(scaled_in[0], 0.0, atol=1e-15)
        assert norm.input_scale[0] == 1.0

    def test_apply_invert_round_trip(self):
        rng = np.random.default_rng(0)
        inputs = rng.uniform(-3, 7, (3, 40))
        targets = rng.uniform(0, 100, (2, 40))
        for kind in ("minmax", "zscore", "none"):
            norm = fit_normalization(inputs, targets, train_end=25, kind=kind)
            si, st = norm.apply(inputs, targets)
            # Undo (x - offset) / scale by hand.
            back_in = si * norm.input_scale[:, None] + norm.input_offset[:, None]
            back_tg = st * norm.target_scale[:, None] + norm.target_offset[:, None]
            assert np.allclose(back_in, inputs, atol=1e-10)
            assert np.allclose(back_tg, targets, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_normalization(np.ones((1, 4)), np.ones((1, 4)), train_end=0)
        with pytest.raises(ConfigError):
            fit_normalization(np.ones((1, 4)), np.ones((1, 4)), train_end=5)
        with pytest.raises(ConfigError):
            fit_normalization(np.ones((1, 4)), np.ones((1, 4)), train_end=2, kind="robust")


class TestMakeValidation:
    def test_noise_magnitude_and_reproducibility(self):
        seg = Segment(inputs=np.zeros((1, 10_000)), targets=np.zeros((1, 10_000)), washout=0)
        a = make_validation(seg, 0.1, seed=4)
        b = make_validation(seg, 0.1, seed=4)
        c = make_validation(seg, 0.1, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, c.inputs)
        assert a.inputs.std() == pytest.approx(0.1, abs=0.005)
        assert a.targets.std() == pytest.approx(0.1, abs=0.005)
        assert a.washout == seg.washout

    def test_per_feature_stds(self):
        seg = Segment(inputs=np.zeros((2, 5000)), targets=np.zeros((1, 5000)), washout=0)
        out = make_validation(seg, (np.array([0.2, 0.0]), np.array([0.05])), seed=1)
        assert out.inputs[0].std() == pytest.approx(0.2, abs=0.01)
        assert np.array_equal(out.inputs[1], np.zeros(5000))
        assert out.targets.std() == pytest.approx(0.05, abs=0.005)

    def test_negative_std_rejected(self):
        seg = Segment(inputs=np.zeros((1, 5)), targets=np.zeros((1, 5)), washout=0)
        with pytest.raises(ConfigError):
            make_validation(seg, -0.1, seed=0)
        with pytest.raises(ConfigError):
            make_validation(seg, (np.array([-1.0]), np.array([0.0])), seed=0)


def toy_dataset(n=200, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return SeriesDataset(
        inputs=rng.uniform(-1, 1, (k, n)),
        targets=rng.uniform(-1, 1, (1, n)),
        feature_names=[f"u{i}" for i in range(k)],
        target_names=["y"],
    )


class TestSplitAndWashout:
    def test_segment_boundaries_and_bookkeeping(self):
        ds = toy_dataset(n=2394)
        train, validation, test = split_and_washout(ds, train_end=1600, washout=100)
        assert train.n_samples == 1600 and test.n_samples == 794
        assert train.washout == 100 and test.washout == 100
        assert np.array_equal(train.inputs, ds.inputs[:, :1600])
        assert np.array_equal(test.targets, ds.targets[:, 1600:])
        assert validation.n_samples == test.n_samples
        assert ds.split == (1600, (1600, 2394))
        assert ds.washout == 100

    def test_default_validation_noise_is_five_percent_of_train_std(self):
        ds = toy_dataset(n=12_000, seed=3)
        train, validation, test = split_and_washout(ds, train_end=6000, washout=10)
        noise = validation.inputs - test.inputs
        expected = 0.05 * train.inputs.std(axis=1)
        assert np.allclose(noise.std(axis=1), expected, rtol=0.1)

    def test_train_holdout_mode(self):
        ds = toy_dataset(n=100)
        train, validation, test = split_and_washout(
            ds, train_end=80, washout=5, val_mode="train_holdout", val_fraction=0.25
        )
        assert train.n_samples == 60
        assert validation.n_samples == 20
        assert np.array_equal(validation.inputs, ds.inputs[:, 60:80])
        assert test.n_samples == 20

    def test_holdout_cannot_swallow_training(self):
        ds = toy_dataset(n=30)
        with pytest.raises(WashoutTooLarge):
            split_and_washout(ds, train_end=10, washout=7, val_mode="train_holdout")

    def test_washout_limits(self):
        ds = toy_dataset(n=100)
        with pytest.raises(WashoutTooLarge):
            split_and_washout(ds, train_end=80, washout=25)  # test too short
        with pytest.raises(WashoutTooLarge):
            split_and_washout(ds, train_end=20, washout=20)  # train too short

    def test_bad_boundaries(self):
        ds = toy_dataset(n=100)
        with pytest.raises(ConfigError):
            split_and_washout(ds, train_end=0, washout=0)
        with pytest.raises(ConfigError):
            split_and_washout(ds, train_end=100, washout=0)
        with pytest.raises(ConfigError):
            split_and_washout(ds, train_end=50, washout=0, val_mode="bootstrap")


class TestSyntheticStreams:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticStreamSpec(generator="white_noise", segment_lengths=(10,))
        with pytest.raises(ConfigError):
            SyntheticStreamSpec(generator="drifting_sine", segment_lengths=())
        with pytest.raises(ConfigError):
            SyntheticStreamSpec(generator="drifting_sine", segment_lengths=(10, 0))
        with pytest.raises(ConfigError):
            SyntheticStreamSpec(generator="drifting_sine", segment_lengths=(10,), noise_std=-1)

    @pytest.mark.parametrize("gen", ["regime_switch_narma", "drifting_sine", "variance_burst"])
    def test_shapes_and_drift_points(self, gen):
        spec = SyntheticStreamSpec(generator=gen, segment_lengths=(50, 30, 20), seed=1)
        ds = generate_synthetic(spec)
        assert ds.n_samples == 100
        assert ds.targets.shape == (1, 100)
        assert ds.metadata["drift_points"] == [50, 80]
        assert ds.metadata["generator"] == gen

    @pytest.mark.parametrize("gen", ["regime_switch_narma", "drifting_sine", "variance_burst"])
    def test_previous_target_feature_alignment(self, gen):
        spec = SyntheticStreamSpec(generator=gen, segment_lengths=(60,), seed=2)
        ds = generate_synthetic(spec)
        y_prev = ds.inputs[-1]  # last feature row is y(n-1) in every generator
        assert np.allclose(y_prev[1:], ds.targets[0, :-1], atol=1e-15)

    def test_narma_recurrence_per_regime(self):
        spec = SyntheticStreamSpec(generator="regime_switch_narma", segment_lengths=(40, 40), seed=3)
        ds = generate_synthetic(spec)
        u, y_prev = ds.inputs
        y = ds.targets[0]

        def regime_rhs(i, coeffs):
            a, b, c, d = coeffs
            return np.tanh(a * y_prev[i] + b * y_prev[i] * y_prev[i - 1] + c * u[i] ** 3 + d)

        for i in range(1, 40):  # first regime
            assert y[i] == pytest.approx(regime_rhs(i, (0.4, 0.4, 0.6, 0.1)), abs=1e-12)
        for i in range(41, 80):  # second regime
            assert y[i] == pytest.approx(regime_rhs(i, (-0.5, 1.2, 1.8, -0.3)), abs=1e-12)

    def test_drifting_sine_frequency_ramps_up(self):
        spec = SyntheticStreamSpec(generator="drifting_sine", segment_lengths=(400,), seed=0)
        y = generate_synthetic(spec).targets[0]
        crossings = lambda x: int(np.sum(np.diff(np.signbit(x))))
        assert crossings(y[300:]) > crossings(y[:100])

    def test_variance_burst_scale_jump(self):
        spec = SyntheticStreamSpec(generator="variance_burst", segment_lengths=(300, 300), seed=4)
        y = generate_synthetic(spec).targets[0]
        calm, burst = y[50:300].std(), y[350:].std()
        assert burst > 3.0 * calm

    def test_determinism_and_seed_sensitivity(self):
        spec = SyntheticStreamSpec(generator="regime_switch_narma", segment_lengths=(50,), seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        c = generate_synthetic(
            SyntheticStreamSpec(generator="regime_switch_narma", segment_lengths=(50,), seed=8)
        )
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_observation_noise_applies_to_targets_only(self):
        clean = generate_synthetic(
            SyntheticStreamSpec(generator="variance_burst", segment_lengths=(200,), seed=5)
        )
        noisy = generate_synthetic(
            SyntheticStreamSpec(generator="variance_burst", segment_lengths=(200,), seed=5, noise_std=0.05)
        )
        assert np.array_equal(clean.inputs, noisy.inputs)
        delta = noisy.targets - clean.targets
        assert delta.std() == pytest.approx(0.05, abs=0.01)


class TestSeriesDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            SeriesDataset(
                inputs=np.zeros((1, 5)),
                targets=np.zeros((1, 4)),
                feature_names=["u"],
                target_names=["y"],
            )

    def test_one_dimensional_rows_promoted(self):
        ds = SeriesDataset(
            inputs=np.arange(4.0),
            targets=np.arange(4.0),
            feature_names=["u"],
            target_names=["y"],
        )
        assert ds.inputs.shape == (1, 4)
        assert ds.input_dim == 1 and ds.output_dim == 1
