"""carpool benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run sets the workload up at least three times and
for at least a second (the median is ``setup_s``), runs each of the
workload's operations once and then repeats them, spreading the time
evenly over them, until ``--seconds`` have passed, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one pass untraced and
one pass with every layer function wrapped, requires the two passes to
produce the same output digests, and reports the per-layer metrics.
Every operation checks its output; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record (and, when traced, every span)
is written under ``.bench_out/`` at the repository root.

The run needs ``src/carpool`` next to this directory and exits with
status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import spans
import speed
from stats import median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set up at least this many times and for at least this long: a set-up
# of a few milliseconds needs many repeats for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

# Printed and recorded, not in the result line: each is 0 on some
# workload, where a relative spread or bound means nothing.
REPORTED_UNITS = {
    "certified_frac": "ratio", "savings_pct_p50": "%",
    "sim_bytes_per_iter": "bytes/iter", "failed_frac": "ratio",
}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0))}


def src_lines() -> int:
    """Line count of src/carpool, recorded for information only."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "carpool").glob("*.py")))


def workload_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(res.name.encode())
        h.update(bytes.fromhex(res.digest) if res.digest else b"")
    return h.hexdigest()


def setup(workloads, name: str, seed: int, workdir: str):
    """Build the inputs repeatedly: median time, last inputs."""
    times, ops = [], None
    t_end = time.perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_REPEATS or time.perf_counter() < t_end:
        before = speed.calibrate()
        t0 = time.perf_counter()
        ops = workloads.make_ops(name, seed, workdir)
        wall = time.perf_counter() - t0
        times.append(speed.scaled(wall, before, speed.calibrate()))
    return ops, times


def timed_run(runner, ops, seconds: float):
    """Run every op once, then repeat the op with the least time spent
    so far (the first in order on a tie) until seconds have passed.

    Spreading the time evenly, not the repeats, gives a cheap input many
    repeats even when a few inputs cost most of a pass.  Repeats of an
    input must reproduce its first digest bit for bit.
    """
    first: dict = {}
    spent = [0.0] * len(ops)
    results = []
    t_end = time.perf_counter() + seconds
    i = 0
    while i < len(ops) or time.perf_counter() < t_end:
        k = i if i < len(ops) else min(range(len(ops)), key=spent.__getitem__)
        op = ops[k]
        t0 = time.perf_counter()
        res = runner.run(op)
        spent[k] += time.perf_counter() - t0
        if op.name not in first:
            first[op.name] = res
        elif res.digest != first[op.name].digest:
            res.failures.append("output digest differs from the first run "
                                "of this input")
        results.append(res)
        i += 1
    return [first[op.name] for op in ops], results


def end_to_end(results, setup_times) -> tuple[dict, dict]:
    """Each input's time is the median of its repeats; p50 and tail are
    over inputs, so they do not depend on how many passes fitted in the
    run.  Times are in reference seconds (see speed.py).  A run that
    raised counts in failed_frac only; a run that failed a gate after
    completing is measured too, so the metrics of a seed do not depend
    on which of its inputs fail.
    """
    by_input: dict[str, list] = {}
    for res in results:
        if not res.raised:
            by_input.setdefault(res.name, []).append(res)
    failed = sum(1 for r in results if r.failures)
    values = dict.fromkeys(list(metric_units("end_to_end"))
                           + list(REPORTED_UNITS))
    values["setup_s"] = median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_frac"] = failed / len(results)
    notes = {"setup_s": f"median of {len(setup_times)}",
             "failed_frac": f"{failed}/{len(results)}"}
    if not by_input:
        return values, notes
    firsts = [runs[0] for runs in by_input.values()]
    solve = [median(r.solve_s for r in runs) for runs in by_input.values()]
    check = [median(r.check_s for r in runs) for runs in by_input.values()]
    iters = [r.iterations for r in firsts]
    solve_tail, check_tail, iters_tail = tail(solve), tail(check), tail(iters)
    sim = [r.messages for r in firsts if r.messages]
    certified = sum(r.certified for r in firsts)
    values.update({
        "solve_s_p50": median(solve),
        "solve_s_tail": solve_tail.value,
        "iter_ms_p50": median(1000.0 * s / n for s, n in zip(solve, iters)),
        "iters_p50": median(iters),
        "iters_tail": float(iters_tail.value),
        "gap_p50": median(r.gap for r in firsts),
        "cost_ratio_p50": median(r.cost_ratio for r in firsts),
        "check_s_p50": median(check),
        "check_s_tail": check_tail.value,
        "certified_frac": certified / len(firsts),
        "savings_pct_p50": median(r.savings_pct for r in firsts),
        "sim_bytes_per_iter": (sum(m["bytes"] for m in sim)
                               / sum(m["iterations"] for m in sim)
                               if sim else None),
    })
    runs = f"{len(firsts)} inputs, {len(results)} runs"
    notes.update({
        "solve_s_p50": runs,
        "solve_s_tail": _tail_note(solve_tail),
        "iter_ms_p50": runs,
        "iters_p50": f"{len(firsts)} inputs",
        "iters_tail": _tail_note(iters_tail),
        "check_s_p50": runs,
        "check_s_tail": _tail_note(check_tail),
        "certified_frac": f"{certified}/{len(firsts)}",
        "sim_bytes_per_iter": "only simulate sends messages",
    })
    return values, notes


def _tail_note(t) -> str:
    if t.short:
        return f"max of {t.count} inputs (fewer than 11)"
    return f"p{t.percentile:.1f} of {t.count} inputs"


def per_layer(tracer, results, overhead_s: float) -> dict:
    totals = tracer.totals()

    def dur(*names):
        return sum(totals[n]["dur_s"] for n in names)

    sim = [r.messages for r in results if r.messages]
    sim_iters = sum(m["iterations"] for m in sim)

    def per_sim_iter(key):
        return sum(m[key] for m in sim) / sim_iters if sim_iters else 0.0

    subproblem = dur("edge_graph.primal_subproblem")
    solve_wall = dur("solver.solve", "distributed.run_distributed_solve")
    capacity = sum(m["label_capacity"] for m in sim)
    return {
        "model.build_s": dur("model.build_expanded_graph",
                             "model.enumerate_triples"),
        "model.summary_s": dur("model.transmission_summary",
                               "model.total_cost"),
        "model.residual_s": dur("model.conservation_residual"),
        "edge_graph.build_s": dur("edge_graph.build_edge_graph"),
        "edge_graph.subproblem_s": subproblem,
        "edge_graph.subproblem_calls":
            totals["edge_graph.primal_subproblem"]["calls"],
        "edge_graph.subproblem_share": (subproblem / solve_wall
                                        if solve_wall else 0.0),
        "solver.step_s": dur("solver.subgradient_step"),
        "solver.self_s": totals["solver.solve"]["self_s"],
        "solver.iterations": sum(r.iterations for r in results),
        "solver.certified_frac": (sum(r.certified for r in results)
                                  / len(results)),
        "distributed.labels_s": dur("distributed.distributed_shortest_paths"),
        "distributed.price_s": dur("distributed.distributed_price_update"),
        "distributed.self_s":
            totals["distributed.run_distributed_solve"]["self_s"],
        "distributed.label_msgs_per_iter": per_sim_iter("label"),
        "distributed.flow_msgs_per_iter": per_sim_iter("flow"),
        "distributed.rounds_per_iter": per_sim_iter("rounds"),
        "distributed.label_redundancy": (sum(m["label"] for m in sim)
                                         / capacity if capacity else 0.0),
        "distributed.bytes_per_iter": per_sim_iter("bytes"),
        "instances.generate_s": dur("instances.generate_geometric"),
        "instances.baseline_s": dur("instances.plain_routing_cost"),
        "cli.load_s": dur("cli.load_instance"),
        "cli.write_s": dur("cli.solution_to_dict", "cli.write_trace"),
        "cli.check_self_s": totals["cli.cmd_check"]["self_s"],
        "bench.trace_overhead_s": overhead_s,
    }


def run_untraced(args, workloads, workdir: str) -> dict:
    ops, setup_times = setup(workloads, args.workload, args.seed, workdir)
    runner = workloads.Runner(workdir)
    runner.warm_up()
    runner.prepare(ops)
    distinct, results = timed_run(runner, ops, args.seconds)
    values, notes = end_to_end(results, setup_times)
    return {"values": values, "notes": notes, "distinct": distinct,
            "results": results}


def run_traced(args, workloads, workdir: str) -> dict:
    ops = workloads.make_ops(args.workload, args.seed, workdir)
    runner = workloads.Runner(workdir)
    runner.warm_up()
    runner.prepare(ops)
    plain = [runner.run(op) for op in ops]

    originals = spans.current_functions()
    with spans.Tracer() as tracer:
        with tracer.span("bench.setup"):
            ops = workloads.make_ops(args.workload, args.seed, workdir)
        traced = []
        for op in ops:
            with tracer.span(f"bench.op:{op.name}"):
                traced.append(runner.run(op))
    restored = all(now is originals[key]
                   for key, now in spans.current_functions().items())
    if not restored:
        traced[0].failures.append("a layer function was left wrapped")
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.failures.append("traced output digest differs from untraced")
    # solve and check times of each pass, in reference seconds (speed.py)
    plain_s = sum(r.solve_s + r.check_s for r in plain)
    traced_s = sum(r.solve_s + r.check_s for r in traced)
    values = per_layer(tracer, traced, traced_s - plain_s)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(tracer.records(), fh)
    notes = {"bench.trace_overhead_s":
             f"solve+check, traced {traced_s:.3f} s - untraced "
             f"{plain_s:.3f} s",
             "edge_graph.subproblem_share": "of solve wall time"}
    return {"values": values, "notes": notes, "distinct": plain,
            "results": plain + traced}


def report(args, run: dict) -> dict:
    results = run["results"]
    failed = sum(1 for r in results if r.failures)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    shown = dict(units) if args.trace else {**units, **REPORTED_UNITS}
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in shown.items():
        value = run["values"][name]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {text:>12s} {unit:12s} "
              f"{run['notes'].get(name, '')}")
    for res in results:
        for msg in res.failures:
            print(f"  FAILED {res.name}: {msg}")
    return {"correct": failed == 0, "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": run["values"][name], "unit": unit}
                        for name, unit in units.items()}}


def write_record(args, run: dict, result: dict) -> None:
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "result": result,
        "all_metrics": run["values"], "notes": run["notes"],
        "digest": workload_digest(run["distinct"]),
        "inputs": [{"name": r.name, "digest": r.digest,
                    "iterations": r.iterations, "certified": r.certified,
                    "gap": r.gap, "physical_cost": r.physical_cost,
                    "routing_cost": r.routing} for r in run["distinct"]],
        "samples": {name: {key: [getattr(r, key) for r in run["results"]
                                 if r.name == name]
                           for key in ("solve_s", "check_s", "solve_wall_s",
                                       "check_wall_s", "calibrations")}
                    for name in {r.name: None for r in run["results"]}},
        "failures": [f"{r.name}: {m}" for r in run["results"]
                     for m in r.failures],
        "environment": environment(),
        "src_carpool_lines": src_lines(),
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One thread: numpy's BLAS must not start workers that compete with
    # the measured thread on a small machine.  Takes effect only if numpy
    # is not imported yet, which is the case when run as a script.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "carpool" / "__init__.py").is_file():
        print(f"bench: no carpool package at {SRC / 'carpool'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        if args.trace:
            run = run_traced(args, workloads, workdir)
        else:
            run = run_untraced(args, workloads, workdir)
    result = report(args, run)
    write_record(args, run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
