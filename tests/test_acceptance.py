"""Acceptance criteria, one test each, at their stated tolerances.

Expensive runs come from session fixtures in conftest.py and are shared
with the unit suites.  Each test finishes by printing a one-line PASS
summary (visible with -s or in captured output); a failed assertion
means the criterion did not hold.
"""

import json

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from carpool import (GenerationError, GeometricConfig, SolverConfig,
                     build_edge_graph, build_expanded_graph, cli,
                     enumerate_triples, generate_geometric,
                     plain_routing_cost, solve)
from carpool.model import Instance, Session

from lp_reference import lp_optimum
from model_reference import (dominant_path, project_pair_reference,
                             project_pairs_by_step)


def absolute_gap(sol, trace):
    return sol.gap * max(1.0, trace.best_bounds[-1])


def artificial_refund(inst):
    return sum(inst.nodes[s.dest].cost * s.rate for s in inst.sessions)


@pytest.fixture(scope="module")
def all_runs(named, relay3_run, grid2_run, grid2rate_run, geo4_run,
             geo_corpus, single_session_runs, dist_equiv_runs):
    """Every certified run the suite produces: (name, inst, sol, trace)."""
    runs = [
        ("relay3", named["relay3"]) + relay3_run[:2],
        ("grid2", named["grid2"]) + grid2_run[:2],
        ("grid2rate", named["grid2rate"]) + grid2rate_run[:2],
        ("geo4", named["geo4"]) + geo4_run[:2],
    ]
    for seed, inst, sol, trace in geo_corpus[0]:
        runs.append((f"geo50_{seed}", inst, sol, trace))
    runs.extend(single_session_runs)
    for name, inst, sol, trace, dist in dist_equiv_runs:
        runs.append((f"{name}_central", inst, sol, trace))
        for label, dsol, dtrace, _ in dist:
            runs.append((f"{name}_{label}", inst, dsol, dtrace))
    return runs


def test_criterion_1_relay_exchange(relay3, relay3_run):
    sol, trace, elapsed = relay3_run
    routing, _ = plain_routing_cost(relay3)
    assert sol.certified and sol.gap <= 1e-4
    assert sol.iterations <= 2000
    assert trace.alphas == [1.0 / n for n in trace.iters]  # step 1/n
    assert sol.physical_cost == pytest.approx(3.0, abs=1e-9)
    assert routing == pytest.approx(4.0, abs=1e-12)
    assert elapsed < 1.0
    print(f"criterion 1: PASS physical=3.0 routing=4.0 gap={sol.gap:.2g} "
          f"iterations={sol.iterations} elapsed={elapsed:.2f}s")


def test_criterion_2_carpooling_deviation(grid2, grid2_run):
    sol, trace, elapsed = grid2_run
    routing, _ = plain_routing_cost(grid2)
    assert sol.certified and sol.gap <= 1e-3
    assert sol.iterations <= 5000
    assert elapsed < 10.0
    unit_cost = grid2.nodes[0].cost
    assert sol.physical_cost <= routing - unit_cost
    print(f"criterion 2: PASS physical={sol.physical_cost:.4f} "
          f"routing={routing} gap={sol.gap:.2e} "
          f"iterations={sol.iterations} elapsed={elapsed:.2f}s")


def test_criterion_3_asymmetric_rates(grid2rate, grid2rate_run):
    sol, trace, _ = grid2rate_run
    routing, _ = plain_routing_cost(grid2rate)
    assert sol.certified
    assert sol.physical_cost < routing
    heavy = max(range(len(grid2rate.sessions)),
                key=lambda t: grid2rate.sessions[t].rate)
    s = grid2rate.sessions[heavy]
    g = build_expanded_graph(grid2rate)
    idx = enumerate_triples(g)
    h = build_edge_graph(g, idx)
    dom = dominant_path(h, sol.flows[heavy], heavy)
    solo_inst = Instance(grid2rate.nodes, grid2rate.edges,
                         [Session(s.sid, s.source, s.dest, 1.0)])
    solo_routing, _ = plain_routing_cost(solo_inst)
    solo = solo_routing + grid2rate.nodes[s.dest].cost  # per unit rate
    assert abs(dom.weight - solo) <= 1e-6 * s.rate
    print(f"criterion 3: PASS heavy-path cost={dom.weight} solo={solo} "
          f"physical={sol.physical_cost:.4f} routing={routing}")


def test_criterion_4_duality_sandwich(geo_corpus):
    runs, elapsed = geo_corpus
    certified = 0
    for seed, inst, sol, trace in runs:
        best = np.array(trace.best_bounds)
        rec = np.array(trace.recovered_costs)
        assert np.all(best <= rec + 1e-7), f"seed {seed}"
        assert sol.iterations <= 5000
        certified += sol.certified and sol.gap <= 0.02
    assert certified >= 45
    assert elapsed < 300.0
    print(f"criterion 4: PASS certified={certified}/50 "
          f"elapsed={elapsed:.1f}s")


def test_criterion_5_projection_oracle():
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(400):                      # free points
        c = rng.uniform(0.0, 5.0)
        samples.append((rng.uniform(-5, 5), rng.uniform(-5, 5), c))
    for _ in range(300):                      # already on the price line
        c = rng.uniform(0.0, 5.0)
        u1 = rng.uniform(-1.0, c + 1.0)
        samples.append((u1, c - u1, c))
    for _ in range(200):                      # far outside the box
        c = rng.uniform(0.0, 5.0)
        samples.append((c + rng.uniform(0, 5), -rng.uniform(0, 5), c))
    for _ in range(100):                      # degenerate zero-cost pairs
        samples.append((rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0))
    # the solver's price step projects all of them at once
    p1, p2 = project_pairs_by_step(*zip(*samples))
    worst = 0.0
    for (u1, u2, c), p in zip(samples, zip(p1.tolist(), p2.tolist())):
        r = project_pair_reference(u1, u2, c)
        worst = max(worst, abs(p[0] - r[0]), abs(p[1] - r[1]))
    assert len(samples) == 1000
    assert worst <= 1e-12
    print(f"criterion 5: PASS samples=1000 worst_diff={worst:.2e}")


def test_criterion_6_distributed_equivalence(dist_equiv_runs):
    checked = 0
    for name, inst, sol, trace, dist in dist_equiv_runs:
        for label, dsol, dtrace, stats in dist:
            tag = f"{name}/{label}"
            for fa, fb in zip(dsol.flows, sol.flows):
                assert np.array_equal(fa.values, fb.values), tag
            assert np.array_equal(dsol.prices.values,
                                  sol.prices.values), tag
            assert dtrace.dual_bounds == trace.dual_bounds, tag
            assert dtrace.rel_gaps == trace.rel_gaps, tag
            assert stats.label_messages + stats.flow_messages == \
                stats.delivered, tag
            checked += 1
    names = [name for name, *_ in dist_equiv_runs]
    assert names[:2] == ["relay3", "grid2"] and len(names) == 12
    print(f"criterion 6: PASS runs={checked} (12 instances x "
          f"sync + 3 async seeds), zero locality violations")


def test_criterion_7_every_solution_passes_check(all_runs, tmp_path,
                                                 capsys):
    checked = 0
    for name, inst, sol, trace in all_runs:
        inst_path = tmp_path / f"{name}.instance.json"
        sol_path = tmp_path / f"{name}.solution.json"
        inst_path.write_text(json.dumps(cli.instance_to_dict(inst)))
        routing, _ = plain_routing_cost(inst)
        sol_path.write_text(json.dumps(
            cli.solution_to_dict(inst, sol, routing)))
        code = cli.main(["check", str(inst_path), str(sol_path)])
        if code != 0:
            raise AssertionError(
                f"{name}: check failed:\n{capsys.readouterr().err}")
        checked += 1
    capsys.readouterr()
    print(f"criterion 7: PASS solutions={checked} all re-verified "
          f"(residuals <= 1e-9, transmissions exact)")


def test_criterion_8_baseline_dominance(all_runs, single_session_runs):
    for name, inst, sol, trace in all_runs:
        routing, _ = plain_routing_cost(inst)
        # routing is a feasible coded plan, so it upper-bounds every
        # certified lower bound outright ...
        assert routing + artificial_refund(inst) >= \
            trace.best_bounds[-1] - 1e-9, name
        # ... and the recovered cost can only sit above it by the
        # certificate's own width
        assert sol.physical_cost <= routing + absolute_gap(sol, trace) \
            + 1e-9, name
    for name, inst, sol, trace in single_session_runs:
        routing, _ = plain_routing_cost(inst)
        assert abs(sol.physical_cost - routing) <= \
            absolute_gap(sol, trace) + 1e-9, name
    print(f"criterion 8: PASS instances={len(all_runs)} "
          f"single_session={len(single_session_runs)}")


def test_reference_lp_brackets_certified_runs(named, relay3_run, grid2_run,
                                              grid2rate_run):
    # cross-check the dual certificates against the independent LP
    for name, run in (("relay3", relay3_run), ("grid2", grid2_run),
                      ("grid2rate", grid2rate_run)):
        sol, trace, _ = run
        opt = lp_optimum(named[name])
        assert trace.best_bounds[-1] <= opt.expanded + 1e-9, name
        assert sol.expanded_cost >= opt.expanded - 1e-9, name
        assert sol.expanded_cost - opt.expanded <= \
            absolute_gap(sol, trace) + 1e-9, name


@settings(max_examples=60, deadline=None)
@given(side=st.floats(4.0, 6.0), sessions=st.integers(1, 3),
       seed=st.integers(0, 10**6))
def test_reference_lp_brackets_random_draws(side, sessions, seed):
    """best dual bound <= LP optimum <= recovered cost on small geometric
    draws, certified or not.  Either side may be met with equality, and
    the LP solver meets its constraints only to 1e-7, so its optimum is
    trusted to 1e-7 of the costs' scale."""
    try:
        inst = generate_geometric(GeometricConfig(side=side,
                                                  sessions=sessions,
                                                  seed=seed))
    except GenerationError:  # too few nodes, or no pair for a session
        reject()
    sol, trace = solve(inst, SolverConfig(tol=1e-2))
    opt = lp_optimum(inst).expanded
    slack = 1e-7 * max(1.0, abs(opt))
    assert trace.best_bounds[-1] <= opt + slack
    assert opt <= sol.expanded_cost + slack
