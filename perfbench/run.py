"""sorscn benchmark: one command for every workload, metric and output check.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` and receives only the generated
configs and data. A run sets up the workload several times (``setup_s`` is
the import time plus the median set-up), then repeats the workload's op set
until ``--seconds`` is spent, at least three times. ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer metrics instead of the
end-to-end ones. The last line of standard output is one JSON object; a
fuller record (digest, environment, per-rep figures) goes to
``perfbench/results/``. The exit code is 1 when an output check fails and 2
when the package cannot be found.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from tracer import Tracer, count_spans, summarize, sum_units, trace_faults  # noqa: E402  (no numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PASSES = 3
MIN_REPS = 3  # per-op medians need three repetitions
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
}

# Layers whose self time is reported, named defining-module.function.
SELF_TIME = (
    "reservoir.spectral_radii",
    "reservoir.harvest_candidate_states",
    "reservoir.harvest_states",
    "reservoir.harvest_block_states",
    "reservoir.new_random_block",
    "construct.propose_block",
    "construct._score_block",
    "construct.refit_readout",
    "construct.build_initial",
    "online_update.project_step",
    "self_organize.run_stream",
    "self_organize.regrow",
    "self_organize.compute_sensitivity",
    "self_organize.compute_correlation_scores",
    "self_organize.select_blocks",
    "self_organize.prune",
    "datastream.generate_synthetic",
    "datastream.split_and_washout",
    "experiment.run_trial",
    "experiment.write_report",
    "model_io.save_model",
    "model_io.load_model",
    "cli.main",
)
CALLS = (
    "reservoir.spectral_radii",
    "reservoir.harvest_candidate_states",
    "reservoir.harvest_states",
    "reservoir.harvest_block_states",
    "construct.propose_block",
    "construct.refit_readout",
    "online_update.project_step",
    "self_organize.regrow",
)
UNIT_COUNTS = {
    "reservoir.spectral_radii.matrices": "reservoir.spectral_radii",
    "reservoir.harvest_candidate_states.steps": "reservoir.harvest_candidate_states",
    "reservoir.harvest_states.samples": "reservoir.harvest_states",
}
WINDOW_ACTIONS = ("none", "online_update", "restructure", "restructure_failed")
# Layers that only set-up reaches; their per-layer figures come from the
# set-up passes, every other figure from the traced repetitions.
SETUP_LAYERS = ("datastream.", "model_io.")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order.

    Figures are per traced repetition, except for ``SETUP_LAYERS``, which are
    per set-up pass; the results file gives both phases in full.
    """
    units = {f"{n}.self_s": "s" for n in SELF_TIME}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({n: "count" for n in UNIT_COUNTS})
    units.update(
        {
            "construct.settings_tried": "count",
            "construct.settings_per_accept": "ratio",
            "construct.candidates_drawn": "count",
            "construct.stalls": "count",
            "self_organize.blocks_grown": "count",
        }
    )
    units.update({f"self_organize.windows.{a}": "count" for a in WINDOW_ACTIONS})
    units.update({"trace.unattributed_s": "s", "trace.overhead_s": "s"})
    return units


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Keep BLAS/OpenMP pools at or below the cores this process may use."""
    n = nproc()
    for var in _BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "machine": platform.machine(),
    }


def phase_totals(span_sets, walls) -> dict:
    """Per-pass averages of one phase's span totals (set-up passes or traced reps).

    Counts repeat exactly from pass to pass, so their averages are whole.
    """
    n = len(span_sets)
    totals = defaultdict(float, wall_s=sum(walls) / n)
    for spans in span_sets:
        summary = summarize(spans)
        totals["covered_s"] += summary["covered_s"] / n
        for name, entry in summary["names"].items():
            for key, value in entry.items():
                totals[f"{name}.{key}"] += value / n
        derived = {
            "settings": count_spans(spans, "reservoir.spectral_radii", "construct"),
            "drawn": sum_units(spans, "reservoir.spectral_radii", "construct"),
            "accepts": count_spans(spans, "construct.propose_block", error=""),
            "stalls": count_spans(spans, "construct.propose_block", error="NoCandidateFound"),
            "grown": count_spans(spans, "construct.propose_block", "self_organize", error=""),
        }
        for key, value in derived.items():
            totals[key] += value / n
    return totals


def layer_metrics(totals: dict, traced_reps=(), untraced_reps=()) -> dict:
    """Per-layer metrics from phase totals; window counts and tracing
    overhead come from the repetitions when given."""
    get = lambda key: totals.get(key, 0.0)  # noqa: E731
    out = {f"{n}.self_s": get(f"{n}.self_s") for n in SELF_TIME}
    out.update({f"{n}.calls": get(f"{n}.calls") for n in CALLS})
    out.update({k: get(f"{n}.units") for k, n in UNIT_COUNTS.items()})
    out["construct.settings_tried"] = get("settings")
    out["construct.settings_per_accept"] = get("settings") / get("accepts") if get("accepts") else 0.0
    out["construct.candidates_drawn"] = get("drawn")
    out["construct.stalls"] = get("stalls")
    out["self_organize.blocks_grown"] = get("grown")
    out["trace.unattributed_s"] = get("wall_s") - get("covered_s")
    if traced_reps:
        for a in WINDOW_ACTIONS:
            out[f"self_organize.windows.{a}"] = statistics.fmean(
                r.windows.get(a, 0) for r in traced_reps
            )
        out["trace.overhead_s"] = statistics.median(
            r.wall_s for r in traced_reps
        ) - statistics.median(r.wall_s for r in untraced_reps)
    return out


def end_to_end(reps, setup_s: float) -> dict:
    """End-to-end figures from per-op medians over repetitions.

    Every repetition runs the same ops, so each op's time and each timed
    call's time is first taken as its median over repetitions; a slow spell
    on a shared machine then moves a figure only if it lasts most of the run.
    """
    import numpy as np

    op_ms = np.median([r.op_s for r in reps], axis=0) * 1e3
    busy = np.median([r.busy_s for r in reps], axis=0)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(op_ms) / float(busy.sum()),
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p95": float(np.percentile(op_ms, 95)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="build | stream | compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sorscn", "__init__.py")):
        print(f"benchmark: no sorscn package under {ROOT}/src", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.filterwarnings("ignore", module=r"sorscn(\.|$)")

    import workloads  # imports numpy and sorscn: after the thread caps

    import_s = time.perf_counter() - _START
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    klass = workloads.WORKLOADS[args.workload]
    clock = workloads.clock

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup_walls, setup_tracers = [], []
        for _ in range(SETUP_PASSES):
            tracer = Tracer() if args.trace else None
            t0 = clock()
            with tracer.install() if tracer else nullcontext():
                wl = klass(args.seed, workdir)
                wl.setup()
                wl.warm_up()
            wall = clock() - t0
            setup_walls.append(wall)
            if tracer:
                tracer.wall_s = wall
                setup_tracers.append(tracer)

        reps = []
        started = clock()
        while True:
            tracer = Tracer() if args.trace and len(reps) % 2 == 1 else None
            t0 = clock()
            with tracer.install() if tracer else nullcontext():
                rep = wl.run_rep(tracer)
            rep.wall_s = clock() - t0
            rep.tracer = tracer
            if tracer:
                tracer.wall_s = rep.wall_s
            reps.append(rep)
            spent = clock() - started
            if len(reps) >= MIN_REPS and spent + spent / len(reps) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = {r.digest for r in reps}
    finite = all(math.isfinite(x) for r in reps for x in r.nrmse)
    checks = {"digest_repeats": len(digests) == 1, "nrmse_finite": finite}
    if args.trace:
        traced = [r for r in reps if r.tracer]
        untraced = [r for r in reps if not r.tracer]
        tracers = setup_tracers + [r.tracer for r in traced]
        faults = [f for t in tracers for f in trace_faults(t)]
        for fault in faults[:20]:
            print(f"benchmark: trace fault: {fault}", file=sys.stderr)
        checks["trace_well_formed"] = not faults
        setup = phase_totals([t.spans for t in setup_tracers], [t.wall_s for t in setup_tracers])
        run = phase_totals([r.tracer.spans for r in traced], [r.wall_s for r in traced])
        by_phase = {"setup": layer_metrics(setup), "run": layer_metrics(run, traced, untraced)}
        units = per_layer_units()
        metrics = {
            k: by_phase["setup" if k.startswith(SETUP_LAYERS) else "run"][k] for k in units
        }
    else:
        setup_s = import_s + statistics.median(setup_walls)
        metrics = end_to_end(reps, setup_s)
        units = END_TO_END
    correct = all(checks.values())
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "checks": checks,
        "digest": reps[0].digest,
        "op_digests": reps[0].op_digests,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "ops": sum(len(r.op_s) for r in reps),
        "reps": [
            {"wall_s": r.wall_s, "busy_s": sum(r.busy_s), "traced": bool(r.tracer), "digest": r.digest}
            for r in reps
        ],
        "setup_walls_s": setup_walls,
        "import_s": import_s,
        "windows_per_rep": reps[0].windows,
        "quality": {
            "nrmse_median": statistics.median(reps[0].nrmse) if reps[0].nrmse else math.nan,
            **reps[0].extra,
        },
        "nrmse": reps[0].nrmse,
        "environment": environment(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if args.trace:
        record["per_layer_by_phase"] = by_phase
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    env = record["environment"]
    print(
        f"# {args.workload} seed={args.seed} reps={len(reps)} ops={record['ops']} "
        f"attempted={attempted} failed={failed} failed_share={record['failed_share']:.4f}"
    )
    print(
        f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']} digest={record['digest'][:16]} checks={checks}"
    )
    for k, v in record["metrics"].items():
        print(f"# {k:<45} {v['value']:>14.6g} {v['unit']}")
    for k, v in record["quality"].items():
        print(f"# {k:<45} {v:>14.6g} (deterministic, in the digest)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
