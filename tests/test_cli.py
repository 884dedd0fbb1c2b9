"""Exit codes, overrides, and artifacts of the command-line runner."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from sorscn.cli import _build_parser, _load_config, main
from sorscn.datastream import SyntheticStreamSpec, generate_synthetic, load_csv
from sorscn.experiment import ExperimentConfig, prepare_dataset, run_trial
from sorscn.model_io import load_model

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))


def base_config(**overrides):
    raw = {
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
        "model": {
            "variant": "esn",
            "esn_size": 20,
            "max_blocks": 3,
            "block_size": 3,
            "candidates_per_setting": 40,
            "window_size": 20,
            "lambda_grid": [0.5, 1.0],
            "r_grid": [0.9, 0.99],
        },
        "run": {"trials": 1, "base_seed": 0},
    }
    for key, value in overrides.items():
        raw[key].update(value)
    return raw


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestBuildEval:
    def test_build_writes_loadable_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        code = main(["build", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "built esn: 1 blocks, 20 nodes" in out
        assert "validation NRMSE:" in out
        model = load_model(tmp_path / "out" / "model.npz")
        assert model.total_size == 20

    def test_eval_saved_model_on_chosen_split(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        main(["build", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--config",
                cfg,
                "--model",
                str(tmp_path / "out" / "model.npz"),
                "--split",
                "train",
            ]
        )
        assert code == 0
        assert "train NRMSE:" in capsys.readouterr().out

    def test_eval_builds_when_no_model_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["eval", "--config", cfg]) == 0
        assert "test NRMSE:" in capsys.readouterr().out

    def test_set_overrides_nested_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        code = main(
            [
                "build",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "out"),
                "--set",
                "model.esn_size=10",
                "--set",
                "dataset.synthetic.seed=9",
            ]
        )
        assert code == 0
        assert load_model(tmp_path / "out" / "model.npz").total_size == 10


class TestStream:
    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_stream_artifacts_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(model={"variant": "sorscn1"}))
        out_dir = tmp_path / "out"
        code = main(["stream", "--config", cfg, "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "interval: [" in out
        assert "4 windows:" in out  # 80 arriving samples / window 20
        assert "stream NRMSE:" in out
        lines = (out_dir / "stream_timeline.jsonl").read_text().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[0])
        assert {"action", "error_norm", "window_index"} <= set(record)
        assert load_model(out_dir / "model_streamed.npz").n_blocks >= 1

    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_stream_scores_like_a_trial(self, tmp_path, capsys):
        config = str(CONFIG_DIR / "synthetic_compare.yaml")
        argv = ["--config", config, "--seed", "3", "--variant", "sorscn2"]
        assert main(["stream", *argv, "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.split("stream NRMSE: ")[1].split()[0]
        cfg, _ = _load_config(_build_parser().parse_args(["stream", *argv]))
        record = run_trial(cfg, *prepare_dataset(cfg.dataset), trial=0)
        assert printed == f"{record.testing_nrmse:.6f}"

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            pytest.param("build", "model.guard_epsilon=0", "guard_epsilon must be positive", id="build"),
            pytest.param("stream", "model.guard_epsilon=0", "guard_epsilon must be positive", id="stream"),
            ("compare", "model.window_size=0", "window_size must be >= 1"),
            ("build", "model.kappa_lo=5", "kappa_lo < kappa_hi"),
            ("compare", "model.rscn_seed_size=0", "seed_reservoir_size must be >= 1"),
            ("compare", "model.esn_size=0", "esn_size must be >= 1"),
            ("compare", "model.esn_sparsity=0", "esn_sparsity must be in (0, 1]"),
        ],
    )
    def test_nonpositive_guard_refused_before_any_build(
        self, tmp_path, capsys, command, setting, message
    ):
        # Every model knob is checked when the config is made, so a bad value
        # exits as a config error before anything is built or written.
        cfg = write_config(tmp_path, base_config(model={"variant": "sorscn2"}))
        out_dir = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out_dir), "--set", setting]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out_dir.exists()

    def test_static_variants_cannot_stream(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["stream", "--config", cfg]) == 1
        assert "no stream mode" in capsys.readouterr().err


class TestCompareSweepGen:
    @pytest.mark.filterwarnings("ignore::sorscn.errors.ConstructionStalledWarning")
    def test_compare_prints_table_and_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--config", cfg, "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("esn", "rscn", "sorscn1", "sorscn2"):
            assert variant in out
            assert (out_dir / f"report_{variant}.json").exists()

    def test_sweep_uses_config_section_and_reports_first_tied_point(self, tmp_path, capsys):
        raw = base_config()
        raw["sweep"] = {"gamma": [0.006, 0.01]}  # inert for the esn variant
        cfg = write_config(tmp_path, raw)
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg, "--out", str(out_dir), "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "swept 2 points x 1 trials" in out
        assert "best point: {'gamma': 0.006}" in out
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,")
        assert len(lines) == 3

    def test_sweep_runs_the_configured_trials(self, tmp_path, capsys):
        raw = base_config()
        raw["sweep"] = {"gamma": [0.006, 0.01]}
        cfg = write_config(tmp_path, raw)  # run.trials: 1, no --trials flag
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
        assert "swept 2 points x 1 trials" in capsys.readouterr().out

    def test_set_overrides_the_sweep_section(self, tmp_path, capsys):
        raw = base_config()
        raw["sweep"] = {"gamma": [0.006, 0.01]}
        cfg = write_config(tmp_path, raw)
        out_dir = tmp_path / "sweep"
        argv = ["sweep", "--config", cfg, "--out", str(out_dir)]
        code = main(argv + ["--set", "sweep.gamma=[0.3]", "--set", "sweep.alpha=[0.3, 0.5]"])
        assert code == 0
        assert "swept 2 points x 1 trials" in capsys.readouterr().out
        lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,alpha,")
        assert [line.split(",")[:2] for line in lines[1:]] == [["0.3", "0.3"], ["0.3", "0.5"]]

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["sweep.alpha=[0.3]", "sweep.gamma=[0.006,-1]"], "gamma must be >= 0"),
            (["sweep.gamma=[0.006]", "sweep.bogus=[1]"], "unexpected keyword argument 'bogus'"),
        ],
        ids=["bad-value", "unknown-key"],
    )
    def test_sweep_checks_every_point_before_the_first_trial(self, tmp_path, capsys, grid, message):
        out_dir = tmp_path / "sweep"
        config = str(CONFIG_DIR / "sweep_alpha_gamma.yaml")
        argv = ["sweep", "--config", config, "--trials", "1", "--out", str(out_dir)]
        for item in grid:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not (out_dir / "sweep.csv").exists()

    def test_sweep_without_section_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_gen_round_trips_through_csv(self, tmp_path, capsys):
        raw = base_config()
        raw["dataset"]["synthetic"] = {
            "generator": "drifting_sine",
            "segment_lengths": [50, 50],
            "seed": 3,
        }
        cfg = write_config(tmp_path, raw)
        out_dir = tmp_path / "gen"
        assert main(["gen", "--config", cfg, "--out", str(out_dir)]) == 0
        assert "drift points at [50]" in capsys.readouterr().out

        ds = load_csv(out_dir / "synthetic.csv", {"y_prev": "input", "y": "target"})
        reference = generate_synthetic(
            SyntheticStreamSpec(generator="drifting_sine", segment_lengths=(50, 50), seed=3)
        )
        assert np.allclose(ds.inputs, reference.inputs, atol=1e-9)
        assert np.allclose(ds.targets, reference.targets, atol=1e-9)
        meta = json.loads((out_dir / "synthetic_meta.json").read_text())
        assert meta["drift_points"] == [50]

    def test_gen_requires_synthetic_dataset(self, tmp_path, capsys):
        raw = base_config()
        raw["dataset"] = {
            "source": "whatever.csv",
            "schema": {"y": "target"},
            "train_end": 10,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["gen", "--config", cfg]) == 1


@pytest.mark.parametrize("path", CONFIGS, ids=[c.name for c in CONFIGS])
def test_shipped_config_loads(path):
    args = _build_parser().parse_args(["compare", "--config", str(path)])
    cfg, sweep = _load_config(args)
    assert isinstance(cfg, ExperimentConfig)
    assert bool(sweep) == (path.name == "sweep_alpha_gamma.yaml")


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["build", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("dataset: [unclosed\n")
        assert main(["build", "--config", str(path)]) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["build", "--config", cfg, "--set", "model.bogus=1"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["build", "--config", cfg, "--set", "model.theta"]) == 1

    def _csv_config(self, tmp_path, csv_text, **dataset_overrides):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(csv_text)
        raw = base_config()
        raw["dataset"] = {
            "source": str(csv_path),
            "schema": {"u": "input", "y": "target"},
            "train_end": 6,
            "washout": 1,
            "normalization": "none",
        }
        raw["dataset"].update(dataset_overrides)
        return write_config(tmp_path, raw)

    def test_missing_column_is_a_data_error(self, tmp_path, capsys):
        cfg = self._csv_config(tmp_path, "u,z\n" + "1,2\n" * 10)
        assert main(["eval", "--config", cfg]) == 2
        assert "MissingColumn" in capsys.readouterr().err

    def test_non_numeric_cell_is_a_data_error(self, tmp_path, capsys):
        cfg = self._csv_config(tmp_path, "u,y\n1,2\n3,oops\n4,5\n" + "6,7\n" * 7)
        assert main(["eval", "--config", cfg]) == 2
        assert "NonNumericCell" in capsys.readouterr().err

    def test_washout_too_large_is_a_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = "".join(f"{rng.uniform():.4f},{rng.uniform():.4f}\n" for _ in range(10))
        cfg = self._csv_config(tmp_path, "u,y\n" + rows, washout=5)
        assert main(["eval", "--config", cfg]) == 2
        assert "WashoutTooLarge" in capsys.readouterr().err

    def test_nonexistent_csv_is_a_data_error(self, tmp_path, capsys):
        raw = base_config()
        raw["dataset"] = {
            "source": str(tmp_path / "missing.csv"),
            "schema": {"u": "input", "y": "target"},
            "train_end": 6,
        }
        cfg = write_config(tmp_path, raw)
        assert main(["eval", "--config", cfg]) == 2

    def test_corrupt_model_file_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        bad = tmp_path / "model.npz"
        bad.write_bytes(b"garbage")
        assert main(["eval", "--config", cfg, "--model", str(bad)]) == 2
        assert "CorruptFile" in capsys.readouterr().err

    def test_constant_targets_fail_every_trial(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = "".join(f"{rng.uniform():.4f},2.5\n" for _ in range(60))
        cfg = self._csv_config(tmp_path, "u,y\n" + rows, train_end=40, washout=2)
        assert main(["compare", "--config", cfg]) == 3
        assert "all trials failed" in capsys.readouterr().err
