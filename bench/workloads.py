"""Seeded inputs and the operations of the four benchmark workloads.

Every workload is a fixed corpus of base instances.  The geometry of the
geometric ones comes from constant generator seeds, so each workload
keeps its size and difficulty; the benchmark seed relabels their nodes
by a seeded permutation, which changes every tie-break the solver makes
and therefore every path, flow, price and digest.  Redrawing the
geometry from the seed instead moved the median iterations to a
certificate by 20-50% between seeds even with 80 instances per run,
more than any usable regression bound.  The builtin instances keep their
canonical labels, so their traces can be compared with the test suite;
on simulate, which runs only builtins, the seed drives the asynchronous
schedule's activation order.

An operation is one solve through the workload's front end followed by
``carpool check`` on the solution it produced.  Each operation checks
its own output and returns the failures it found; it never raises.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from carpool import cli, distributed, instances, solver
from carpool.edge_graph import build_edge_graph
from carpool.model import (Instance, Node, Session, build_expanded_graph,
                           enumerate_triples)

import speed

# certify: eight draws of every (side, sessions) cell, solved to tol or
# the cap; with the builtins that is 75 inputs.  With 57 the input at the
# tail rank moved by 11% between seeds, as relabelling moves each input's
# iterations by up to 10%.  A cell's draws are the first eight base seeds
# from 1000 * side + 10 * sessions + 1 up that the generator accepts (it
# rejects a draw whose sessions cannot all be placed in one component).
# The builtins get the solver's default cap, under which grid2 certifies.
CERTIFY_TOL = 2e-2
CERTIFY_CAP = 2000
CERTIFY_CELLS = [(side, sessions) for side in (6, 7, 8)
                 for sessions in (4, 5, 6)]
CERTIFY_DRAWS = 8
BUILTIN_TOL = {"geo4": 2e-2, "grid2": 1e-3, "grid2rate": 1e-3}
BUILTIN_CAP = 5000

# large: the side-15 and side-20 instances of the roadmap profile plus
# more draws of each, for a fixed number of iterations that never
# certifies.  Few iterations keep one solve short enough for several
# repeats per run, yet the sub-problem is still over 85% of it.
LARGE_ITERS = 6
LARGE_BASE = ([(15.0, 2.0, 16, s) for s in (1, 2, 3, 4)]
              + [(20.0, 1.5, 32, s) for s in (1, 2, 3)])

# simulate: the builtins grid2rate, grid2 and geo4, each under the sync
# schedule and under the async schedule seeded by the benchmark seed.
# Seeded geometric draws are left out because of a known defect of the
# twin: after a rounding tie (two distances whose sums round to the same
# float) a label can keep a predecessor whose own label has since
# changed, so the path it reads back is not the one solve() takes.  On
# the side-8 draw with generator seed 3 this parts twin and solve() on
# 34 of 40 relabellings; tests/test_bench.py keeps that draw as a strict
# xfail.  It belongs in this workload again once the twin is fixed.
SIM_TOL = 2e-2
SIM_CAP = 2000
SIM_BUILTINS = ["grid2rate", "grid2", "geo4"]

# verify: medium instances through the CLI with a few iterations.
VERIFY_TOL = 2e-2
VERIFY_ITERS = 3
VERIFY_BASE = [(10.0, 8), (11.25, 10), (12.5, 12), (13.75, 14), (15.0, 16)]
VERIFY_INTENSITY = 2.0


@dataclass
class Op:
    """One input of a workload and how to run it."""

    name: str
    kind: str            # "solve", "simulate" or "cli"
    inst: Instance
    path: str            # instance JSON the CLI reads
    tol: float
    cap: int
    routing: float       # plain_routing_cost of inst
    schedule: str = ""   # simulate only
    schedule_seed: int = 0


@dataclass
class OpResult:
    name: str
    solve_s: float = 0.0       # in reference seconds, see speed.py
    check_s: float = 0.0
    solve_wall_s: float = 0.0
    check_wall_s: float = 0.0
    # machine speed before the solve, between solve and check, after check
    calibrations: list[float] = field(default_factory=list)
    iterations: int = 0
    certified: bool = False
    gap: float = 0.0
    physical_cost: float = 0.0
    routing: float = 0.0
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    # a run that raised has no complete timing; one that only failed a
    # gate is timed like any other
    raised: bool = False
    # simulate only: MessageStats totals and the redundancy denominator
    messages: dict[str, float] = field(default_factory=dict)

    @property
    def cost_ratio(self) -> float:
        return self.physical_cost / self.routing

    @property
    def savings_pct(self) -> float:
        return 100.0 * (self.routing - self.physical_cost) / self.routing


def relabel(inst: Instance, seed) -> Instance:
    """Same network and sessions under a seeded permutation of node ids."""
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(inst.n)
    nodes = [Node(int(perm[nd.nid]), nd.cost, nd.pos) for nd in inst.nodes]
    edges = sorted((min(int(perm[a]), int(perm[b])),
                    max(int(perm[a]), int(perm[b]))) for a, b in inst.edges)
    sessions = [Session(s.sid, int(perm[s.source]), int(perm[s.dest]), s.rate)
                for s in inst.sessions]
    return Instance(nodes, edges, sessions)


def _geometric(label_seed: int, k: int, **cfg) -> Instance:
    """Generate from cfg, then relabel by the k-th stream of label_seed."""
    base = instances.generate_geometric(instances.GeometricConfig(**cfg))
    return relabel(base, np.random.SeedSequence([label_seed, k]))


def _named_inputs(workload: str, seed: int) -> list[tuple[str, Instance]]:
    if workload == "certify":
        named = instances.builtin_instances()
        out = [(name, named[name]) for name in BUILTIN_TOL]
        for side, sessions in CERTIFY_CELLS:
            base = 1000 * side + 10 * sessions
            for _ in range(CERTIFY_DRAWS):
                while True:
                    base += 1
                    try:
                        inst = _geometric(seed, len(out), side=side,
                                          sessions=sessions, seed=base)
                        break
                    except instances.GenerationError:
                        continue
                out.append((f"L{side}-s{sessions}-b{base}", inst))
        return out
    if workload == "large":
        return [(f"L{side:g}-b{base}",
                 _geometric(seed, k, side=side, intensity=intensity,
                            sessions=sessions, seed=base))
                for k, (side, intensity, sessions, base)
                in enumerate(LARGE_BASE)]
    if workload == "simulate":
        named = instances.builtin_instances()
        return [(name, named[name]) for name in SIM_BUILTINS]
    if workload == "verify":
        return [(f"L{side:g}-s{sessions}",
                 _geometric(seed, k, side=side, intensity=VERIFY_INTENSITY,
                            sessions=sessions, seed=1))
                for k, (side, sessions) in enumerate(VERIFY_BASE)]
    raise ValueError(f"unknown workload {workload!r}")


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """Generate the workload's inputs from seed and write them to workdir."""
    ops = []
    for name, inst in _named_inputs(workload, seed):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cli.instance_to_dict(inst), fh)
        routing, _ = instances.plain_routing_cost(inst)
        if workload == "certify":
            if name in BUILTIN_TOL:
                ops.append(Op(name, "solve", inst, path, BUILTIN_TOL[name],
                              BUILTIN_CAP, routing))
            else:
                ops.append(Op(name, "solve", inst, path, CERTIFY_TOL,
                              CERTIFY_CAP, routing))
        elif workload == "large":
            ops.append(Op(name, "solve", inst, path, CERTIFY_TOL,
                          LARGE_ITERS, routing))
        elif workload == "simulate":
            for mode in ("sync", "async"):
                ops.append(Op(f"{name}-{mode}", "simulate", inst, path,
                              SIM_TOL, SIM_CAP, routing, mode, seed))
        else:
            ops.append(Op(name, "cli", inst, path, VERIFY_TOL, VERIFY_ITERS,
                          routing))
    return ops


def _cli(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue() + err.getvalue(), elapsed


def outputs_digest(sol, trace) -> str:
    """SHA-256 of the trace rows, flows and prices, bit for bit."""
    h = hashlib.sha256()
    for col in (trace.iters, trace.alphas, trace.dual_bounds,
                trace.best_bounds, trace.recovered_costs, trace.rel_gaps):
        h.update(np.asarray(col, dtype=float).tobytes())
    for f in sol.flows:
        h.update(f.session.encode())
        h.update(f.values.tobytes())
    h.update(sol.prices.values.tobytes())
    return h.hexdigest()


def _solve_gates(res: OpResult, best: float, recovered: float,
                 tol: float) -> None:
    if not best <= recovered:
        res.failures.append(f"best dual bound {best!r} exceeds recovered "
                            f"cost {recovered!r}")
    if res.certified and not res.gap <= tol:
        res.failures.append(f"certified with gap {res.gap!r} > tol {tol!r}")


def _check(res: OpResult, op: Op, sol_path: str) -> str:
    """Run carpool check on a solution file; returns what it printed."""
    res.calibrations.append(speed.calibrate())
    rc, text, res.check_wall_s = _cli(["check", op.path, sol_path])
    if rc != 0:
        res.failures.append(f"check exit {rc}: {text.strip()[:200]}")
    return text


def _write_and_check(res: OpResult, op: Op, sol, workdir: str) -> None:
    """Write the solution as the CLI would and run carpool check on it."""
    sol_path = os.path.join(workdir, f"{op.name}.sol.json")
    with open(sol_path, "w") as fh:
        json.dump(cli.solution_to_dict(op.inst, sol, op.routing), fh)
    _check(res, op, sol_path)


class Runner:
    """Runs operations; keeps the in-process solve() of every input that
    a simulate or verify operation is compared with."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.references: dict[str, tuple] = {}
        self.ref_docs: dict[str, dict] = {}
        self.n_vertices: dict[str, int] = {}

    def warm_up(self) -> None:
        """One tiny solve and check, so first-call costs miss the samples."""
        inst = instances.builtin_instances()["relay3"]
        path = os.path.join(self.workdir, "warm-up.json")
        with open(path, "w") as fh:
            json.dump(cli.instance_to_dict(inst), fh)
        routing, _ = instances.plain_routing_cost(inst)
        self.run(Op("warm-up", "solve", inst, path, CERTIFY_TOL, CERTIFY_CAP,
                    routing))

    def prepare(self, ops: list[Op]) -> None:
        """Compute what simulate and verify inputs are compared with,
        outside any timing."""
        for op in ops:
            if op.kind == "simulate":
                self.reference(op)
                g = build_expanded_graph(op.inst)
                self.n_vertices[op.path] = len(
                    build_edge_graph(g, enumerate_triples(g)).vertices)
            elif op.kind == "cli":
                sol, _ = self.reference(op)
                self.ref_docs[op.path] = json.loads(json.dumps(
                    cli.solution_to_dict(op.inst, sol, op.routing)))

    def reference(self, op: Op) -> tuple:
        """Centralized solve() of op's instance, computed once per run."""
        key = op.path
        if key not in self.references:
            cfg = solver.SolverConfig(tol=op.tol, max_iters=op.cap)
            self.references[key] = solver.solve(op.inst, cfg)
        return self.references[key]

    def run(self, op: Op) -> OpResult:
        res = OpResult(op.name, routing=op.routing)
        res.calibrations.append(speed.calibrate())
        try:
            getattr(self, f"_run_{op.kind}")(op, res)
        except Exception as exc:  # any raise is a failed operation
            res.failures.append(f"raised {type(exc).__name__}: {exc}")
            res.raised = True
        res.calibrations.append(speed.calibrate())
        if not res.raised:
            before, between, after = res.calibrations
            res.solve_s = speed.scaled(res.solve_wall_s, before, between)
            res.check_s = speed.scaled(res.check_wall_s, between, after)
        return res

    def _run_solve(self, op: Op, res: OpResult) -> None:
        cfg = solver.SolverConfig(tol=op.tol, max_iters=op.cap)
        t0 = time.perf_counter()
        sol, trace = solver.solve(op.inst, cfg)
        res.solve_wall_s = time.perf_counter() - t0
        self._record(res, sol, trace, op)
        _write_and_check(res, op, sol, self.workdir)

    def _run_simulate(self, op: Op, res: OpResult) -> None:
        ref_sol, ref_trace = self.reference(op)
        cfg = solver.SolverConfig(tol=op.tol, max_iters=op.cap)
        schedule = distributed.SimSchedule(mode=op.schedule,
                                           seed=op.schedule_seed)
        t0 = time.perf_counter()
        sol, trace, stats = distributed.run_distributed_solve(
            op.inst, cfg, schedule)
        res.solve_wall_s = time.perf_counter() - t0
        self._record(res, sol, trace, op)
        if res.digest != outputs_digest(ref_sol, ref_trace):
            res.failures.append("trace, flows or prices differ from solve()")
        res.messages = {
            "label": sum(r["label_messages"] for r in stats.per_iteration),
            "flow": sum(r["flow_messages"] for r in stats.per_iteration),
            "rounds": sum(r["rounds"] for r in stats.per_iteration),
            "bytes": stats.bytes_estimate,
            "iterations": len(stats.per_iteration),
            "label_capacity": (len(stats.per_iteration)
                               * len(op.inst.sessions)
                               * self.n_vertices[op.path]),
        }
        _write_and_check(res, op, sol, self.workdir)

    def _run_cli(self, op: Op, res: OpResult) -> None:
        sol_path = os.path.join(self.workdir, f"{op.name}.sol.json")
        trace_path = os.path.join(self.workdir, f"{op.name}.csv")
        rc, solve_text, res.solve_wall_s = _cli(
            ["solve", op.path, "--tol", repr(op.tol), "--max-iters",
             str(op.cap), "--out", sol_path, "--trace", trace_path])
        with open(sol_path, "rb") as fh:
            sol_bytes = fh.read()
        with open(trace_path, "rb") as fh:
            trace_bytes = fh.read()
        doc = json.loads(sol_bytes)
        res.iterations = int(doc["iterations"])
        res.certified = bool(doc["certified"])
        res.gap = float(doc["gap"])
        res.physical_cost = float(doc["physical_cost"])
        if rc != (0 if res.certified else 2):
            res.failures.append(f"solve exit {rc} with certified="
                                f"{res.certified}: {solve_text.strip()[:200]}")
        # The solution file must be the in-process solve() of the same
        # instance, bit for bit, so that solve's full-precision trace
        # stands for the CLI's, whose CSV is rounded to 12 digits.
        ref_sol, ref_trace = self.reference(op)
        if doc != self.ref_docs[op.path]:
            res.failures.append("solution file differs from solve() of the "
                                "same instance")
        _solve_gates(res, ref_trace.best_bounds[-1],
                     ref_trace.recovered_costs[-1], op.tol)
        check_text = _check(res, op, sol_path)
        rc, base_text, _ = _cli(["baseline", op.path])
        stated = f"routing_cost={float(doc['routing_cost']):.12g}"
        if rc != 0 or base_text.splitlines()[0] != stated:
            res.failures.append(f"baseline exit {rc}, first line "
                                f"{base_text.splitlines()[:1]}, want {stated}")
        h = hashlib.sha256()
        h.update(bytes.fromhex(outputs_digest(ref_sol, ref_trace)))
        for part in (sol_bytes, trace_bytes, solve_text.encode(),
                     check_text.encode(), base_text.encode()):
            h.update(hashlib.sha256(part).digest())
        res.digest = h.hexdigest()

    @staticmethod
    def _record(res: OpResult, sol, trace, op: Op) -> None:
        res.iterations = sol.iterations
        res.certified = sol.certified
        res.gap = sol.gap
        res.physical_cost = sol.physical_cost
        res.digest = outputs_digest(sol, trace)
        _solve_gates(res, trace.best_bounds[-1], trace.recovered_costs[-1],
                     op.tol)
