"""fkdv benchmark: series -> truncation and smoothing -> BVP, end to end.

    python3 perfbench/run.py --workload NAME[,NAME...|all] --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout: fkdv is imported from ./src, never
from an installed copy. Each workload sets up several times (median reported),
then runs whole operations in a closed loop for S seconds, single-threaded
with BLAS pinned to one thread, timing a reference kernel in between. Time
spent in this process is reported at reference speed (see refkernel.py),
time spent in child interpreters in raw seconds. With --trace 0 the
last stdout line holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Exit code 1 when a correctness check fails, 2 when
the checkout holds no fkdv sources.
"""

import os

# before numpy is imported anywhere, here or in child processes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: length of the timed phase in --smoke mode
SMOKE_SECONDS = 0.5


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _load():
    if not (SRC / "fkdv" / "__init__.py").is_file():
        _fail(f"no fkdv sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fkdv
    if Path(fkdv.__file__).resolve().parent != (SRC / "fkdv").resolve():
        _fail(f"imported fkdv from {fkdv.__file__}, not from {SRC}")
    import workloads
    return workloads


# per-layer metric -> span keys (or span count keys) summed per operation
TIME_METRICS = {
    "series.build_s": ["series.build"],
    "series.save_s": ["series.save"],
    "series.load_s": ["series.load"],
    "late_terms.report_s": ["late_terms.report"],
    "late_terms.ratio_test_s": ["late_terms.ratio_test"],
    "evaluation.partial_sum_s": ["evaluation.partial_sum"],
    "evaluation.empirical_optimum_s": ["evaluation.empirical_optimum"],
    "stokes.integrate_smoothing_s": ["stokes.integrate_smoothing"],
    "stokes.integrate_late_term_s": ["stokes.integrate_late_term"],
    "bvp.measure_s": ["bvp.measure"],
    "bvp.fit_s": ["bvp.fit"],
    "cli.import_s": ["cli.import.seconds"],
    "cli.command_s": ["cli.session.command_s"],
}
#: layers timed in child interpreters: raw seconds, like cli_cold itself
CHILD_LAYERS = ("cli.",)
COUNT_METRICS = {
    "series.table_bytes": ["series.save.bytes"],
    "evaluation.coeff_evals": ["evaluation.partial_sum.coeff_evals",
                               "evaluation.empirical_optimum.coeff_evals"],
    "stokes.refinements": ["stokes.integrate_smoothing.refinements",
                           "stokes.integrate_late_term.refinements"],
    "stokes.rhs_evals": ["stokes.integrate_smoothing.rhs_evals",
                         "stokes.integrate_late_term.rhs_evals"],
    "bvp.newton_iters": ["bvp.sweep.newton_iters"],
    "bvp.nodes": ["bvp.sweep.nodes"],
    "cli.bytes_written": ["cli.session.bytes"],
}


def _per_op_values(per_op: dict, keys: list[str]):
    if not all(k in per_op for k in keys):
        return None
    return [sum(vals) for vals in zip(*(per_op[k] for k in keys))]


def layer_metrics(tracer, groups: dict[str, list], scale: float):
    """Per-layer metrics from spans. Each metric comes from the first group
    (operations, set-up, probe) whose spans carry it; values are per
    operation, median over the group's operations."""
    per_group = {g: tracer.per_op(ops) for g, ops in groups.items()}
    metrics, sources = {}, {}

    def pick(keys):
        for g, per_op in per_group.items():
            vals = _per_op_values(per_op, keys)
            if vals:
                return g, vals
        raise RuntimeError(f"no span carries {keys}")

    for name, keys in TIME_METRICS.items():
        sources[name], vals = pick(keys)
        factor = 1.0 if name.startswith(CHILD_LAYERS) else scale
        metrics[name] = (statistics.median(vals) * factor, "s")
    for name, keys in COUNT_METRICS.items():
        sources[name], vals = pick(keys)
        metrics[name] = (statistics.median(vals), "count")
    # derived: orders per second of the build, solve = sweep minus measure,
    # start-up = session time minus the commands' own durations
    g, build = pick(["series.build"])
    _, orders = pick(["series.build.orders"])
    sources["series.orders_per_s"] = g
    metrics["series.orders_per_s"] = (
        statistics.median(o / (t * scale) for o, t in zip(orders, build)), "1/s")
    g, sw = pick(["bvp.sweep"])
    _, meas = pick(["bvp.measure"])
    sources["bvp.solve_s"] = g
    metrics["bvp.solve_s"] = (statistics.median(s - m for s, m in zip(sw, meas)) * scale, "s")
    g, wall = pick(["cli.session.seconds"])
    _, cmd = pick(["cli.session.command_s"])
    sources["cli.startup_s"] = g
    metrics["cli.startup_s"] = (statistics.median(w - c for w, c in zip(wall, cmd)), "s")
    return metrics, sources


def run_workload(wl_cls, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import workloads
    from checks import CheckFailure
    from refkernel import R0_S, SpeedGauge
    from spans import NullTracer, Tracer

    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl_cls.name}-", dir=STATE))
    try:
        wl = wl_cls(seed, work, SRC, smoke)
        gauge = SpeedGauge()
        tracer = Tracer() if trace else None
        null = NullTracer()

        # set-up: a fresh interpreter's `import fkdv`, then the workload's
        # own preparation in this process; repeated, median reported
        setups = []
        for i in range(1 if smoke else 3):
            tr = tracer or null
            if tracer:
                tracer.op = f"setup-{i}"
            gauge.burst()
            with tr.span("setup"):
                t_import = workloads.import_time(tr, SRC)
                t0 = time.perf_counter()
                wl.prepare(tr)
                setups.append((t_import, t0, time.perf_counter()))
        gauge.burst()
        wl.prepare_checks()

        # closed loop of whole operations; traced runs alternate traced and
        # untraced operations so the tracing overhead can be read off
        ops, traced_ops, failed = [], [], 0
        correct, message = True, ""
        gauge.burst()
        deadline = time.perf_counter() + seconds
        i = 0
        min_ops = 4 if tracer else 2
        while time.perf_counter() < deadline or i < min_ops:
            gauge.maybe_burst()
            traced = tracer is not None and i % 2 == 0
            if traced:
                tracer.op = f"op-{i}"
            tr = tracer if traced else null
            t0 = time.perf_counter()
            try:
                with tr.span(wl.name):
                    out = wl.op(tr)
            except Exception:
                traceback.print_exc()
                failed += 1
                out = None
            t1 = time.perf_counter()
            i += 1
            if out is None:
                continue
            raw = t1 - t0 if wl.in_process else out["seconds"]
            (traced_ops if traced else ops).append((t0, t1, raw))
            if correct:
                try:
                    wl.check(out)
                except CheckFailure as exc:
                    correct, message = False, str(exc)
        gauge.burst()
        if not ops or (tracer and not traced_ops):
            raise RuntimeError(f"every operation of {wl.name} failed")

        extra = {}
        if correct:
            try:
                extra = wl.check_run()
            except CheckFailure as exc:
                correct, message = False, str(exc)

        def at_ref(t0, t1, raw, in_process=True):
            return raw * gauge.local_scale(t0, t1) if in_process else raw

        op_times = [at_ref(*op, wl.in_process) for op in ops]
        setup_times = [imp + at_ref(a, b, b - a) for imp, a, b in setups]
        if tracer:
            probe_ops = []
            for k in range(1 if smoke else 3):
                tracer.op = f"probe-{k}"
                probe_ops.append(tracer.op)
                gauge.burst()
                with tracer.span("probe"):
                    workloads.probe(tracer, SRC, work)
            gauge.burst()
            groups = {
                "ops": [f"op-{j}" for j in range(0, i, 2)],
                "setup": [f"setup-{j}" for j in range(len(setups))],
                "probe": probe_ops,
            }
            layer, sources = layer_metrics(tracer, groups, gauge.scale)
            traced_times = [at_ref(*op, wl.in_process) for op in traced_ops]
            overhead = 100.0 * (statistics.median(traced_times)
                                / statistics.median(op_times) - 1.0)
            layer["trace.overhead_pct"] = (overhead, "%")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
            traces = STATE / "traces"
            traces.mkdir(exist_ok=True)
            tracer.write(traces / f"{wl.name}-seed{seed}.jsonl")
            extra["sources"] = sources
        else:
            who = (resource.RUSAGE_SELF if wl.in_process
                   else resource.RUSAGE_CHILDREN)
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = {
                "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
                "ops_per_s": {"value": len(op_times) / sum(op_times), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
            raw = [op[2] for op in ops]
            extra["raw"] = {"op_p50_s": statistics.median(raw),
                            "ops_per_s": len(raw) / sum(raw),
                            "setup_s": statistics.median(imp + b - a for imp, a, b in setups)}
            if len(op_times) >= 100:
                extra["op_p90_s"] = statistics.quantiles(op_times, n=10)[-1]

        detail = {"workload": wl.name, "seed": seed, "ops": len(ops) + len(traced_ops),
                  "r_s": gauge.r_s, "r0_s": R0_S, "kernel_samples": len(gauge.samples),
                  **extra}
        if not correct:
            detail["check_failed"] = message
        print(json.dumps({"detail": detail}))
        return {"correct": correct, "attempted": i, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, comma-separated names, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"seconds-scale self-test: smaller sizes, one set-up, "
                             f"{SMOKE_SECONDS} s of operations")
    args = parser.parse_args(argv)

    workloads = _load()
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(workloads.WORKLOADS)}")
    seconds = SMOKE_SECONDS if args.smoke else args.seconds

    results = {}
    for name in names:
        results[name] = run_workload(workloads.WORKLOADS[name], args.seed, seconds,
                                     bool(args.trace), args.smoke)
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, "result": res}))
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
