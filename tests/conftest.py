"""Shared fixtures: builtin instances and the expensive certified runs.

Solves are session-scoped so the acceptance criteria, the feasibility
re-checks, and the baseline-dominance sweep all reuse the same runs.
Each run fixture returns (solution, trace, elapsed_seconds).
"""

from __future__ import annotations

import os
import shutil
import time

import pytest

from carpool import (GeometricConfig, SimSchedule, SolverConfig,
                     builtin_instances, generate_geometric,
                     run_distributed_solve, solve)
from carpool import edge_graph
from carpool.edge_graph import Kernel, bind_kernel, build_kernel
from carpool.model import Instance, Node, Session

# Extra compiler flags for every kernel this suite builds in its own
# process, as a sanitizer needs: CARPOOL_TEST_CFLAGS="-fsanitize=address"
# with the sanitizer's runtime preloaded.  The flags enter the library's
# hash, so such a build never shadows the plain one in a cache.
edge_graph.CC_FLAGS += os.environ.get("CARPOOL_TEST_CFLAGS", "").split()


@pytest.fixture(scope="session")
def kernel(tmp_path_factory):
    """The kernel compiled into a fresh directory, bypassing any cache."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    directory = tmp_path_factory.mktemp("kernel")
    path = build_kernel(directory)
    assert path.parent == directory and path.suffix == ".so"
    assert build_kernel(directory) == path  # built once, then reused
    return bind_kernel(path)


@pytest.fixture(scope="session")
def loop_kernels(request):
    """Each way a solve runs here: the compiled kernel's route search and
    round when cc builds them, then None, for _routes and
    carpool.solver._round."""
    if shutil.which("cc") is None:
        return [None]
    return [request.getfixturevalue("kernel"), None]


@pytest.fixture(scope="session")
def count_rounds():
    """count_rounds(kernel, calls): kernel, the calls of its round
    counted in calls["round"], or None for None."""
    def wrap(kernel, calls):
        if kernel is None:
            return None

        def counted(*args, _call=kernel.round):
            calls["round"] += 1
            return _call(*args)
        return Kernel(kernel.routes, counted)
    return wrap


@pytest.fixture(scope="session")
def named():
    return builtin_instances()


@pytest.fixture(scope="session")
def relay3(named):
    return named["relay3"]


@pytest.fixture(scope="session")
def grid2(named):
    return named["grid2"]


@pytest.fixture(scope="session")
def grid2rate(named):
    return named["grid2rate"]


@pytest.fixture(scope="session")
def geo4(named):
    return named["geo4"]


def timed_solve(inst, cfg):
    t0 = time.perf_counter()
    sol, trace = solve(inst, cfg)
    return sol, trace, time.perf_counter() - t0


@pytest.fixture(scope="session")
def relay3_run(relay3):
    return timed_solve(relay3, SolverConfig(tol=1e-4, max_iters=2000))


@pytest.fixture(scope="session")
def grid2_run(grid2):
    return timed_solve(grid2, SolverConfig(tol=1e-3, max_iters=5000))


@pytest.fixture(scope="session")
def grid2rate_run(grid2rate):
    return timed_solve(grid2rate, SolverConfig(tol=1e-3, max_iters=5000))


@pytest.fixture(scope="session")
def geo4_run(geo4):
    return timed_solve(geo4, SolverConfig(tol=2e-2, max_iters=5000))


@pytest.fixture(scope="session")
def geo_corpus():
    """50 seeded geometric instances (6x6 square, 4 unit sessions)."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(1, 51):
        inst = generate_geometric(GeometricConfig(side=6.0, sessions=4,
                                                  seed=seed))
        sol, trace = solve(inst, SolverConfig(tol=2e-2, max_iters=5000))
        runs.append((seed, inst, sol, trace))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def relay3_single():
    return Instance([Node(0, 1.0), Node(1, 1.0), Node(2, 1.0)],
                    [(0, 1), (1, 2)], [Session("s1", 0, 2, 1.0)])


@pytest.fixture(scope="session")
def relay3_single_run(relay3_single):
    return timed_solve(relay3_single, SolverConfig(tol=1e-4, max_iters=2000))


@pytest.fixture(scope="session")
def single_session_runs(relay3_single, relay3_single_run):
    """Single-session instances: coding cannot beat plain routing."""
    runs = [("relay3_single", relay3_single) + relay3_single_run[:2]]
    for seed in (3, 7, 11):
        inst = generate_geometric(GeometricConfig(side=6.0, sessions=1,
                                                  seed=seed))
        sol, trace = solve(inst, SolverConfig(tol=1e-3, max_iters=5000))
        runs.append((f"geo_single_{seed}", inst, sol, trace))
    return runs


DIST_CASES = [
    ("relay3", None, SolverConfig(tol=1e-4, max_iters=2000)),
    ("grid2", None, SolverConfig(tol=1e-2, max_iters=5000)),
] + [(f"geo_{seed}", GeometricConfig(side=4.0, sessions=2, seed=seed),
      SolverConfig(tol=1e-2, max_iters=5000)) for seed in range(1, 11)]

SCHEDULES = [SimSchedule(mode="sync")] + \
    [SimSchedule(mode="async", seed=s) for s in (1, 2, 3)]


@pytest.fixture(scope="session")
def dist_equiv_runs(named):
    """Centralized vs distributed runs for the equivalence criterion.

    One entry per case: (name, instance, central solution, central trace,
    [(schedule label, solution, trace, stats), ...]) over a synchronous
    schedule and three asynchronous activation seeds.
    """
    entries = []
    for name, gcfg, cfg in DIST_CASES:
        inst = named[name] if gcfg is None else generate_geometric(gcfg)
        sol, trace = solve(inst, cfg)
        dist = []
        for sched in SCHEDULES:
            label = sched.mode if sched.mode == "sync" \
                else f"async{sched.seed}"
            dsol, dtrace, stats = run_distributed_solve(inst, cfg, sched)
            dist.append((label, dsol, dtrace, stats))
        entries.append((name, inst, sol, trace, dist))
    return entries
