"""Tests of the benchmark's tracer, metric table and compare read-back.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from tracer import Span, Tracer, count_spans, summarize, trace_faults  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=FakeClock())

    def leaf():
        return 1

    inner = tracer.wrap("m.inner", "m", lambda: leaf() + traced_leaf())
    traced_leaf = tracer.wrap("m.leaf", "m", leaf)
    outer = tracer.wrap("m.outer", "m", lambda: inner() + inner() + traced_leaf())

    assert outer() == 5
    names = summarize(tracer.spans)["names"]
    # Clock readings: outer 1..12, inners 2..5 and 6..9 (each holding a
    # 1-tick leaf), the outer-level leaf 10..11.
    assert names["m.outer"] == {"self_s": 11.0 - 3 - 3 - 1, "calls": 1, "units": 0}
    assert names["m.inner"] == {"self_s": 2 * (3.0 - 1), "calls": 2, "units": 0}
    assert names["m.leaf"] == {"self_s": 3.0, "calls": 3, "units": 0}
    total_self = sum(e["self_s"] for e in names.values())
    assert total_self == summarize(tracer.spans)["covered_s"] == 11.0


def _span(name, parent, start, end):
    span = Span(name, "m", "", parent, 0)
    span.start, span.end = start, end
    return span


def _traced(spans, wall_s, open_spans=0):
    tracer = Tracer()
    tracer.spans, tracer.wall_s = spans, wall_s
    tracer._stack.extend(range(open_spans))
    return tracer


def test_trace_faults_accepts_a_real_trace():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("m.inner", "m", lambda: None)
    outer = tracer.wrap("m.outer", "m", lambda: inner())
    outer()
    outer()
    tracer.wall_s = 6.2  # root spans cover 1..4 and 5..8
    assert trace_faults(tracer) == []


@pytest.mark.parametrize(
    "spans, wall_s, open_spans, fault",
    [
        ([_span("m.a", -1, 0.0, 10.0), _span("m.b", 0, 2.0, 1.0)], 10.0, 0, "ends before"),
        ([_span("m.a", -1, 0.0, 10.0)], 10.0, 1, "still open"),
        ([_span("m.a", -1, 0.0, 5.0), _span("m.b", 0, 4.0, 9.0)], 10.0, 0, "outside its parent"),
        ([_span("m.a", -1, 0.0, 10.0), _span("m.b", 1, 1.0, 2.0)], 10.0, 0, "not an earlier"),
        ([_span("m.a", -1, 0.0, 6.0), _span("m.b", -1, 5.0, 10.0)], 10.0, 0, "overlaps"),
        (
            [_span("m.a", -1, 0.0, 4.0), _span("m.b", 0, 0.0, 3.0), _span("m.c", 0, 1.0, 4.0)],
            4.0, 0, "negative self time",
        ),
        ([_span("m.a", -1, 0.0, 10.0)], 9.0, 0, "unattributed"),
        ([_span("m.a", -1, 0.0, 5.0)], 10.0, 0, "unattributed"),
    ],
)
def test_trace_faults_catch_malformed_traces(spans, wall_s, open_spans, fault):
    faults = trace_faults(_traced(spans, wall_s, open_spans))
    assert any(fault in f for f in faults), faults


def test_parents_ops_and_errors_are_recorded():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    failing = tracer.wrap("m.boom", "m", boom)
    outer = tracer.wrap("m.outer", "m", lambda: failing())
    tracer.begin_op("build0")
    with pytest.raises(KeyError):
        outer()
    ok = tracer.wrap("m.ok", "m", lambda: None)
    ok()
    out, err, later = tracer.spans
    assert (out.parent, err.parent, later.parent) == (-1, 0, -1)
    assert err.error == "KeyError" and out.error == "KeyError" and later.error == ""
    assert {s.op for s in tracer.spans} == {"build0"}
    assert count_spans(tracer.spans, "m.boom", error="KeyError") == 1
    assert count_spans(tracer.spans, "m.ok", error="") == 1


def test_install_wraps_every_import_site_and_restores():
    from sorscn import construct, reservoir

    originals = (reservoir.spectral_radii, construct.spectral_radii, reservoir.spectral_radius)
    tracer = Tracer()
    with tracer.install():
        assert reservoir.spectral_radii is not originals[0]
        assert construct.spectral_radii is not originals[1]
        reservoir.scale_spectral(np.diag([2.0, 1.0]), 0.5)
        construct.spectral_radii(np.eye(3)[None].repeat(4, axis=0))
    assert (reservoir.spectral_radii, construct.spectral_radii, reservoir.spectral_radius) == originals

    chain = [(s.name, s.site, s.parent) for s in tracer.spans[:3]]
    assert chain == [
        ("reservoir.scale_spectral", "reservoir", -1),
        ("reservoir.spectral_radius", "reservoir", 0),
        ("reservoir.spectral_radii", "reservoir", 1),
    ]
    direct = tracer.spans[3]
    assert (direct.name, direct.site, direct.units) == ("reservoir.spectral_radii", "construct", 4)


def test_stream_windows_start_ops():
    from sorscn import reservoir, self_organize
    from sorscn.construct import ConstructionConfig

    rng = np.random.default_rng(0)
    block = reservoir.new_random_block(rng, 4, 1, 1.0, 0.9, 0)
    model = reservoir.EnsembleModel([block], rng.standard_normal((1, 4)), 1, 1)
    series = rng.standard_normal((1, 100))
    interval = self_organize.ErrorInterval(0.0, 1e6)
    tracer = Tracer()
    with tracer.install():
        tracer.begin_op("model0")
        _, verdicts = self_organize.run_stream(
            model, (series, series), ConstructionConfig(max_blocks=3, block_size=4),
            interval, self_organize.StreamConfig(window_size=40),
        )
    windows = {s.op for s in tracer.spans if s.name == "online_update.project_step"}
    assert len(verdicts) == 3
    assert windows == {"model0/window0", "model0/window1", "model0/window2"}


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_compare_medians_match_compare_variants(tmp_path):
    """The compare workload reads back what ``compare_variants`` computes."""
    import workloads
    from sorscn import experiment

    wl = workloads.CompareWorkload(seed=0, workdir=str(tmp_path))
    wl.trials = 1
    wl.setup()
    rep = wl.run_rep()
    direct = experiment.compare_variants(experiment.ExperimentConfig.from_dict(wl.raw_config()))
    for variant, report in direct.items():
        scores = [t.testing_nrmse for t in report.trials if not t.failed]
        assert rep.extra[f"nrmse_median.{variant}"] == float(np.median(scores))
    assert rep.attempted == 4 and len(rep.op_s) == 4
