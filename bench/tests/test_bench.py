"""Self-tests of the benchmark harness: statistics, seeding and tracing.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# Three small geometric inputs of certify: quick to solve and check.
SMALL = slice(3, 6)


def test_tail_leaves_exactly_ten_samples_beyond():
    xs = list(range(100, 0, -1))
    t = stats.tail(xs)
    assert sum(x > t.value for x in xs) == 10
    assert t.percentile == 90.0
    assert (t.count, t.short) == (100, False)


def test_tail_at_eleven_samples_is_the_smallest():
    t = stats.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert (t.value, t.short) == (1.0, False)
    assert t.percentile == pytest.approx(100.0 / 11)


def test_tail_of_too_few_samples_is_the_flagged_maximum():
    t = stats.tail([0.3, 0.1, 0.2])
    assert (t.value, t.percentile, t.count, t.short) == (0.3, 100.0, 3, True)
    with pytest.raises(ValueError):
        stats.tail([])


def _instance_files(ops):
    return [Path(op.path).read_bytes() for op in ops]


def test_same_seed_gives_same_instances_and_digests(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    ops_a = workloads.make_ops("certify", 7, str(tmp_path / "a"))
    ops_b = workloads.make_ops("certify", 7, str(tmp_path / "b"))
    assert _instance_files(ops_a) == _instance_files(ops_b)
    runs_a = [workloads.Runner(str(tmp_path / "a")).run(op)
              for op in ops_a[SMALL]]
    runs_b = [workloads.Runner(str(tmp_path / "b")).run(op)
              for op in ops_b[SMALL]]
    assert all(not r.failures for r in runs_a + runs_b)
    assert [r.digest for r in runs_a] == [r.digest for r in runs_b]


def _inputs(workload, seed, workdir):
    workdir.mkdir()
    return {Path(op.path).name: Path(op.path).read_bytes()
            for op in workloads.make_ops(workload, seed, str(workdir))}


@pytest.mark.parametrize(
    "workload", [w["name"] for w in bench_run.load_spec()["workloads"]])
def test_different_seed_gives_different_instances(tmp_path, workload):
    a = _inputs(workload, 1, tmp_path / "a")
    b = _inputs(workload, 2, tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        # builtin instances keep their canonical labels
        if name.removesuffix(".json") in workloads.BUILTIN_TOL:
            assert a[name] == b[name]
        else:
            assert a[name] != b[name], name


def test_seed_drives_the_async_schedule_of_simulate(tmp_path):
    ops = workloads.make_ops("simulate", 4, str(tmp_path))
    assert {op.schedule for op in ops} == {"sync", "async"}
    assert all(op.schedule_seed == 4 for op in ops if op.schedule == "async")


def test_tracer_restores_every_function_even_when_traced_code_raises():
    before = spans.current_functions()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert spans.current_functions() != before
            raise RuntimeError("boom")
    after = spans.current_functions()
    assert all(after[key] is fn for key, fn in before.items())


def test_traced_spans_nest_and_keep_digests(tmp_path):
    ops = workloads.make_ops("certify", 3, str(tmp_path))[SMALL]
    runner = workloads.Runner(str(tmp_path))
    plain = [runner.run(op) for op in ops]
    with spans.Tracer() as tracer:
        with tracer.span("bench.op"):
            traced = runner.run(ops[0])
    assert traced.digest == plain[0].digest
    records = tracer.records()
    by_id = {r["id"]: r for r in records}
    sub = [r for r in records if r["name"] == "edge_graph.primal_subproblem"]
    assert len(sub) == plain[0].iterations
    assert all(by_id[r["parent"]]["name"] == "solver.solve" for r in sub)
    assert all(r["root"] == 0 for r in records)
    assert all(r["self_s"] <= r["dur_s"] + 1e-12 for r in records)


def test_no_wrapper_survives_a_traced_run():
    before = spans.current_functions()
    out = io.StringIO()
    with redirect_stdout(out):
        rc = bench_run.main(["--workload", "simulate", "--seed", "3",
                             "--seconds", "1", "--trace", "1"])
    assert rc == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert set(result["metrics"]) == set(bench_run.metric_units("per_layer"))
    assert result["metrics"]["edge_graph.subproblem_calls"]["value"] == 0
    after = spans.current_functions()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.xfail(strict=True, reason=(
    "known program defect: after a rounding tie the message-passing twin "
    "keeps a stale predecessor, so on this draw it routes a session along "
    "a path of equal length but more hops than solve() takes, and their "
    "flows, prices and traces part; simulate leaves seeded draws out "
    "until this is fixed"))
def test_twin_matches_solve_on_side8_draw3():
    from carpool import distributed, instances, solver
    inst = instances.generate_geometric(
        instances.GeometricConfig(side=8.0, sessions=4, seed=3))
    cfg = solver.SolverConfig(tol=workloads.SIM_TOL,
                              max_iters=workloads.SIM_CAP)
    sol, trace = solver.solve(inst, cfg)
    twin, twin_trace, _ = distributed.run_distributed_solve(inst, cfg)
    assert workloads.outputs_digest(twin, twin_trace) \
        == workloads.outputs_digest(sol, trace)
