"""Metrics, model files, experiment configs, trials, reports, and sweeps."""

import json

import numpy as np
import pytest

import sorscn.experiment as experiment
import sorscn.model_io as model_io
from conftest import make_model
from sorscn.construct import ConstructionConfig
from sorscn.errors import (
    AllTrialsFailed,
    ConfigError,
    CorruptFile,
    DimensionMismatch,
    VersionMismatch,
    ZeroVariance,
)
from sorscn.experiment import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    RunConfig,
    TrialRecord,
    aggregate_trials,
    build_variant_model,
    compare_variants,
    grid_search,
    nrmse,
    prepare_dataset,
    run_experiment,
    run_trial,
    static_eval,
    write_report,
    write_surface_csv,
)
from sorscn.model_io import load_model, save_model
from sorscn.reservoir import StructureEvent, harvest_states
from sorscn.self_organize import StreamConfig


class TestNrmse:
    def test_hand_oracle(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        # Constant offset 1: sq error 4, n*var = 4 * 1.25 -> sqrt(0.8).
        assert nrmse(t + 1.0, t) == pytest.approx(0.8944271909999159, abs=1e-12)

    def test_perfect_prediction(self):
        t = np.array([[1.0, -2.0, 0.5]])
        assert nrmse(t, t) == 0.0

    def test_two_outputs_match_manual_formula(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((2, 50))
        p = t + rng.standard_normal((2, 50)) * 0.3
        manual = np.sqrt(np.square(p - t).sum() / (50 * t.var(axis=1).sum()))
        assert nrmse(p, t) == pytest.approx(manual, abs=1e-12)

    def test_constant_targets_rejected(self):
        with pytest.raises(ZeroVariance):
            nrmse(np.zeros(5), np.full(5, 3.0))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            nrmse(np.zeros((1, 4)), np.zeros((1, 5)))
        with pytest.raises(DimensionMismatch):
            nrmse(np.zeros((1, 0)), np.zeros((1, 0)))


class TestModelFiles:
    def _model_with_history(self):
        model = make_model(n_blocks=2, size=3, input_dim=2, seed=1)
        model.history.append(
            StructureEvent(
                kind="grow",
                sample_index=40,
                blocks_after=2,
                block_id=1,
                residual_norm=0.5,
                margins=(0.25, 0.125),
                detail="unit fixture",
            )
        )
        model.stalled = True
        return model

    def test_round_trip_is_lossless(self, tmp_path):
        model = self._model_with_history()
        path = tmp_path / "m.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.input_dim == model.input_dim
        assert loaded.output_dim == model.output_dim
        assert loaded.stalled is True
        assert np.array_equal(loaded.readout, model.readout)
        for a, b in zip(loaded.blocks, model.blocks):
            assert np.array_equal(a.input_weights, b.input_weights)
            assert np.array_equal(a.internal_weights, b.internal_weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.scale_lambda == b.scale_lambda
            assert a.spectral_target == b.spectral_target
            assert a.block_id == b.block_id
        assert loaded.history == model.history

        inputs = np.random.default_rng(2).uniform(-1, 1, (2, 20))
        assert np.array_equal(
            loaded.predict(harvest_states(loaded, inputs, 0)),
            model.predict(harvest_states(model, inputs, 0)),
        )

    def test_garbage_file_reported_corrupt(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_flipped_bytes_reported_corrupt(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(make_model(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_tampered_array_fails_checksum(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(make_model(), path)
        with np.load(path, allow_pickle=False) as data:
            members = {name: data[name] for name in data.files}
        members["readout"] = members["readout"] + 1.0
        with open(path, "wb") as fh:
            np.savez(fh, **members)
        with pytest.raises(CorruptFile, match="checksum"):
            load_model(path)

    def test_unknown_schema_version(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(make_model(), path)
        with np.load(path, allow_pickle=False) as data:
            members = {name: data[name] for name in data.files}
        meta = json.loads(str(members["__meta__"]))
        meta["schema_version"] = 3
        members["__meta__"] = np.asarray(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **members)
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_v1_missing_member_reported_corrupt(self, tmp_path):
        # Version 1 predates the checksum and the history; such a file is
        # refused by its version before any member is read.
        rng = np.random.default_rng(3)
        v1_meta = {"schema_version": 1, "input_dim": 2, "output_dim": 1, "n_blocks": 2}
        path = tmp_path / "old.npz"
        with open(path, "wb") as fh:
            np.savez(
                fh,
                __meta__=np.asarray(json.dumps(v1_meta)),
                readout=rng.standard_normal((1, 4)),
                block0_input_weights=np.array([[2.0, -0.5], [0.25, 1.0]]),
                block0_internal_weights=np.diag([0.5, -0.25]),
                block0_bias=np.array([0.75, -1.0]),
            )
        with pytest.raises(VersionMismatch):
            load_model(path)

        # A current file missing a block member is reported corrupt, both
        # when the digest is left stale and when it is recomputed to match.
        path = tmp_path / "m.npz"
        save_model(make_model(n_blocks=2), path)
        with np.load(path, allow_pickle=False) as data:
            members = {name: data[name] for name in data.files}
        meta = json.loads(str(members.pop("__meta__")))
        del members["block1_bias"]
        for redigest in (False, True):
            if redigest:
                meta["checksum"] = model_io._digest(members, meta)
            with open(path, "wb") as fh:
                np.savez(fh, __meta__=np.asarray(json.dumps(meta)), **members)
            with pytest.raises(CorruptFile, match="block1_bias" if redigest else "checksum"):
                load_model(path)


class TestConfigs:
    def test_dataset_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            DatasetConfig(train_end=10)
        with pytest.raises(ConfigError):
            DatasetConfig(
                source="x.csv",
                synthetic={"generator": "drifting_sine", "segment_lengths": [10]},
                schema={"y": "target"},
                train_end=10,
            )

    def test_csv_source_needs_schema_and_positive_train_end(self):
        with pytest.raises(ConfigError):
            DatasetConfig(source="x.csv", train_end=10)
        with pytest.raises(ConfigError):
            DatasetConfig(
                synthetic={"generator": "drifting_sine", "segment_lengths": [10]},
                train_end=0,
            )

    def test_variant_gate(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="deep_esn")

    @pytest.mark.parametrize("eps", [0.0, -1e-9])
    def test_guard_epsilon_must_be_positive(self, eps):
        with pytest.raises(ConfigError, match="guard_epsilon"):
            ModelConfig(guard_epsilon=eps)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(refit_scope="everything"),
            dict(variant="esn", window_size=0),
            dict(variant="esn", gamma=-0.1),
            dict(variant="sorscn2", rscn_seed_size=0),
            dict(variant="rscn", esn_size=0),
            dict(esn_scale=0.0),
            dict(esn_sparsity=0.0),
            dict(esn_sparsity=1.5),
            dict(kappa_lo=5.0),
            dict(kappa_lo=-0.1),
            dict(max_blocks=0),
        ],
    )
    def test_every_knob_checked_whatever_the_variant(self, knobs):
        # compare runs every variant from one ModelConfig, so a knob only
        # one variant reads must still be refused when the config is made.
        with pytest.raises(ConfigError):
            ModelConfig(**knobs)

    def test_defaults_come_from_the_sub_configs(self):
        mcfg = ModelConfig()
        assert mcfg.construction_config(0) == ConstructionConfig(max_blocks=mcfg.max_blocks)
        assert mcfg.stream_config() == StreamConfig(
            window_size=mcfg.window_size, variant="improved"
        )

    def test_stream_config_variant_mapping(self):
        assert ModelConfig(variant="sorscn1").stream_config().variant == "base"
        assert ModelConfig(variant="sorscn2").stream_config().variant == "improved"

    def test_construction_config_seeding_and_rscn_seed_block(self):
        mcfg = ModelConfig(variant="rscn", rscn_seed_size=7, max_blocks=4, j_step=2)
        ccfg = mcfg.construction_config(seed=11)
        assert ccfg.rng_seed == 11
        assert ccfg.seed_reservoir_size == 7
        assert ModelConfig(variant="sorscn1").construction_config(0).seed_reservoir_size is None

    def test_run_config_requires_trials(self):
        with pytest.raises(ConfigError):
            RunConfig(trials=0)

    def _raw(self):
        return {
            "dataset": {
                "synthetic": {"generator": "drifting_sine", "segment_lengths": [80, 80]},
                "train_end": 100,
                "washout": 5,
                "normalization": "none",
            },
            "model": {"variant": "esn", "esn_size": 10},
            "run": {"trials": 2, "base_seed": 3},
        }

    def test_from_dict_round_trip_preserves_fingerprint(self):
        cfg = ExperimentConfig.from_dict(self._raw())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg.fingerprint() == again.fingerprint()

    def test_from_dict_strictness(self):
        raw = self._raw()
        raw["extra"] = {}
        with pytest.raises(ConfigError, match="unknown config section"):
            ExperimentConfig.from_dict(raw)
        raw = self._raw()
        raw["model"]["neurons"] = 10
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="dataset"):
            ExperimentConfig.from_dict({"model": {}})
        raw = self._raw()
        raw["run"] = 5
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([1, 2])

    def test_overrides_change_fingerprint_not_original(self):
        cfg = ExperimentConfig.from_dict(self._raw())
        tweaked = cfg.with_overrides(gamma=0.5)
        assert tweaked.model.gamma == 0.5
        assert cfg.model.gamma == ModelConfig().gamma
        assert tweaked.fingerprint() != cfg.fingerprint()


class TestAggregates:
    def _record(self, trial, value, nodes=10, failed=False):
        return TrialRecord(
            trial=trial,
            seed=trial,
            validation_nrmse=value,
            testing_nrmse=value,
            n_blocks=1,
            n_nodes=nodes,
            failed=failed,
        )

    def test_mean_std_population(self):
        vals = [1.0, 2.0, 4.0]
        agg = aggregate_trials([self._record(i, v) for i, v in enumerate(vals)])
        assert agg["testing_nrmse"]["mean"] == pytest.approx(np.mean(vals))
        assert agg["testing_nrmse"]["std"] == pytest.approx(np.std(vals))  # ddof=0
        assert not agg["degenerate_std"]

    def test_single_trial_flags_degenerate_std(self):
        agg = aggregate_trials([self._record(0, 1.5)])
        assert agg["degenerate_std"]
        assert agg["testing_nrmse"]["std"] == 0.0

    def test_failed_trials_excluded(self):
        records = [self._record(0, 1.0), self._record(1, 99.0, failed=True)]
        agg = aggregate_trials(records)
        assert agg["n_failed"] == 1
        assert agg["testing_nrmse"]["mean"] == pytest.approx(1.0)

    def test_node_mode_tie_takes_smaller(self):
        records = [
            self._record(0, 1.0, nodes=20),
            self._record(1, 1.0, nodes=10),
            self._record(2, 1.0, nodes=20),
            self._record(3, 1.0, nodes=10),
        ]
        assert aggregate_trials(records)["n_nodes"]["mode"] == 10

    def test_everything_failed(self):
        agg = aggregate_trials([self._record(0, None, failed=True)])
        assert agg["n_failed"] == 1
        assert agg["testing_nrmse"] is None


def synthetic_config(variant="esn", trials=2, **model_overrides):
    model = {
        "variant": variant,
        "esn_size": 20,
        "max_blocks": 3,
        "block_size": 3,
        "candidates_per_setting": 40,
        "j_step": 2,
        "window_size": 20,
        "lambda_grid": [0.5, 1.0],
        "r_grid": [0.9, 0.99],
    }
    model.update(model_overrides)
    return ExperimentConfig.from_dict(
        {
            "dataset": {
                "synthetic": {
                    "generator": "regime_switch_narma",
                    "segment_lengths": [120, 80],
                    "seed": 0,
                },
                "train_end": 120,
                "washout": 10,
                "normalization": "none",
            },
            "model": model,
            "run": {"trials": trials, "base_seed": 5},
        }
    )


class TestPrepareDataset:
    def test_synthetic_segments(self):
        cfg = synthetic_config()
        train, validation, test = prepare_dataset(cfg.dataset)
        assert train.n_samples == 120
        assert test.n_samples == 80
        assert validation.n_samples == 80  # noisy copy of test
        assert train.washout == 10

    def test_csv_train_end_counts_raw_rows(self, tmp_path):
        lines = ["y"] + [str(np.sin(0.3 * i)) for i in range(50)]
        p = tmp_path / "series.csv"
        p.write_text("\n".join(lines) + "\n")
        dcfg = DatasetConfig(
            source=str(p),
            schema={"y_prev": "lag(y,1)", "y": "target"},
            train_end=30,  # raw rows; one is consumed by the lag
            washout=2,
            normalization="none",
        )
        train, _, test = prepare_dataset(dcfg)
        assert train.n_samples == 29
        assert test.n_samples == 20

    def test_csv_normalization_fit_on_train_samples_after_lag_shift(self, tmp_path):
        lines = ["u,y"] + [f"{i},{2 * i}" for i in range(1, 21)]
        p = tmp_path / "series.csv"
        p.write_text("\n".join(lines) + "\n")
        dcfg = DatasetConfig(
            source=str(p),
            schema={"u": "input", "y_prev": "lag(y,1)", "y": "target"},
            train_end=10,  # raw rows: built samples 0..8, u = 2..10
            washout=1,
            normalization="minmax",
        )
        train, _, test = prepare_dataset(dcfg)
        assert train.n_samples == 9
        # Scaler saw u in [2, 10] and y in [4, 20]; the test rows extrapolate past 1.
        assert train.inputs[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert train.inputs[0, -1] == pytest.approx(1.0, abs=1e-12)
        assert test.inputs[0, 0] == pytest.approx((11 - 2) / 8, abs=1e-12)
        assert train.targets[0, -1] == pytest.approx(1.0, abs=1e-12)
        assert test.targets[0, 0] == pytest.approx((22 - 4) / 16, abs=1e-12)

    def test_synthetic_normalization_fit_on_train(self):
        cfg = synthetic_config()
        cfg.dataset.normalization = "minmax"
        train, _, _ = prepare_dataset(cfg.dataset)
        assert train.inputs.min() == pytest.approx(0.0, abs=1e-12)
        assert train.inputs.max() == pytest.approx(1.0, abs=1e-12)


class TestTrials:
    def test_esn_trial_record(self):
        cfg = synthetic_config()
        train, validation, test = prepare_dataset(cfg.dataset)
        record = run_trial(cfg, train, validation, test, trial=1)
        assert record.seed == 6  # base_seed 5 + trial 1
        assert record.n_blocks == 1
        assert record.n_nodes == 20
        assert record.timeline == []
        assert np.isfinite(record.validation_nrmse)
        assert np.isfinite(record.testing_nrmse)

    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_rscn_uses_seed_block(self):
        cfg = synthetic_config(variant="rscn", rscn_seed_size=4)
        train, validation, test = prepare_dataset(cfg.dataset)
        model, _ = build_variant_model(cfg.model, train, validation, seed=0)
        assert model.blocks[0].size == 4
        assert all(b.size == cfg.model.block_size for b in model.blocks[1:])

    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_stream_variant_timeline_and_restructure_count(self):
        cfg = synthetic_config(variant="sorscn1", trials=1)
        train, validation, test = prepare_dataset(cfg.dataset)
        record = run_trial(cfg, train, validation, test, trial=0)
        assert len(record.timeline) == 4  # 80 test samples / window 20
        n_expected = sum(1 for rec in record.timeline if rec["action"] == "restructure")
        assert record.n_restructures == n_expected
        assert np.isfinite(record.testing_nrmse)

    def test_static_eval_matches_manual_computation(self):
        cfg = synthetic_config()
        train, validation, test = prepare_dataset(cfg.dataset)
        model, _ = build_variant_model(cfg.model, train, validation, seed=0)
        states = harvest_states(model, test.inputs, test.washout)
        manual = nrmse(model.predict(states), test.targets[:, test.washout :])
        assert static_eval(model, test) == pytest.approx(manual, abs=1e-12)


class TestRunExperiment:
    def test_trial_seeds_and_aggregates(self):
        report = run_experiment(synthetic_config(trials=3))
        assert [t.seed for t in report.trials] == [5, 6, 7]
        vals = [t.testing_nrmse for t in report.trials]
        assert report.aggregates["testing_nrmse"]["mean"] == pytest.approx(np.mean(vals))
        assert report.aggregates["n_failed"] == 0

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        cfg = synthetic_config(trials=2)
        for sub in ("a", "b"):
            report = run_experiment(cfg)
            write_report(report, tmp_path / sub)
        for name in ("report.json", "report.txt", "report_timeline.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_out_dir_writes_all_artifacts(self, tmp_path):
        cfg = synthetic_config(trials=1)
        cfg.run.out_dir = str(tmp_path / "out")
        report = run_experiment(cfg)
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["fingerprint"] == report.fingerprint
        assert (tmp_path / "out" / "report.txt").read_text().startswith("variant: esn")

    def test_partial_failures_recorded(self, monkeypatch):
        real = experiment.run_trial

        def flaky(cfg, train, validation, test, trial):
            if trial == 0:
                raise ZeroVariance("synthetic failure")
            return real(cfg, train, validation, test, trial)

        monkeypatch.setattr(experiment, "run_trial", flaky)
        report = run_experiment(synthetic_config(trials=2))
        assert report.trials[0].failed
        assert "ZeroVariance" in report.trials[0].error
        assert not report.trials[1].failed
        assert report.aggregates["n_failed"] == 1

    def test_all_failures_raise(self, monkeypatch):
        def doomed(cfg, train, validation, test, trial):
            raise ZeroVariance("synthetic failure")

        monkeypatch.setattr(experiment, "run_trial", doomed)
        with pytest.raises(AllTrialsFailed):
            run_experiment(synthetic_config(trials=2))


class TestCompareAndSweep:
    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_compare_runs_each_variant_once(self, tmp_path):
        cfg = synthetic_config(trials=1, max_blocks=2, j_step=1)
        cfg.run.out_dir = str(tmp_path)
        reports = compare_variants(cfg, variants=("esn", "rscn"))
        assert set(reports) == {"esn", "rscn"}
        assert (tmp_path / "report_esn.json").exists()
        assert (tmp_path / "report_rscn.json").exists()
        assert reports["esn"].config["model"]["variant"] == "esn"

    def test_grid_tie_keeps_first_point(self, monkeypatch):
        visited = []

        def fake_run(sub):
            visited.append((sub.model.gamma, sub.model.alpha))
            return experiment.ExperimentReport(
                config=sub.to_dict(),
                fingerprint=sub.fingerprint(),
                trials=[],
                aggregates={
                    "validation_nrmse": {"mean": 1.0, "std": 0.0},
                    "testing_nrmse": {"mean": 2.0, "std": 0.0},
                },
            )

        monkeypatch.setattr(experiment, "run_experiment", fake_run)
        cfg = synthetic_config()
        best, surface = grid_search(cfg, {"gamma": [0.1, 0.2], "alpha": [0.3, 0.4]}, trials=1)
        assert visited == [(0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4)]
        assert best["point"] == {"gamma": 0.1, "alpha": 0.3}
        assert len(surface) == 4

    def test_failed_grid_points_flagged_not_fatal(self, monkeypatch):
        def fake_run(sub):
            if sub.model.gamma == 0.1:
                raise AllTrialsFailed("bad point")
            return experiment.ExperimentReport(
                config=sub.to_dict(),
                fingerprint=sub.fingerprint(),
                trials=[],
                aggregates={
                    "validation_nrmse": {"mean": 3.0, "std": 0.0},
                    "testing_nrmse": {"mean": 3.0, "std": 0.0},
                },
            )

        monkeypatch.setattr(experiment, "run_experiment", fake_run)
        best, surface = grid_search(synthetic_config(), {"gamma": [0.1, 0.2]}, trials=1)
        assert surface[0]["failed"] and not surface[1]["failed"]
        assert best["point"] == {"gamma": 0.2}

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            grid_search(synthetic_config(), {}, trials=1)
        with pytest.raises(ConfigError):
            grid_search(synthetic_config(), {"gamma": []}, trials=1)

    def test_surface_csv_layout(self, tmp_path):
        surface = [
            {
                "point": {"gamma": 0.1, "alpha": 0.5},
                "failed": False,
                "validation_nrmse_mean": 1.25,
                "validation_nrmse_std": 0.5,
                "testing_nrmse_mean": 1.5,
            },
            {"point": {"gamma": 0.2, "alpha": 0.5}, "failed": True, "error": "x"},
        ]
        path = tmp_path / "surface.csv"
        write_surface_csv(surface, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,alpha,validation_nrmse_mean,validation_nrmse_std,testing_nrmse_mean,failed"
        assert lines[1].startswith("0.1,0.5,1.25000000")
        assert lines[2].endswith("true")
        assert len(lines) == 3
