"""CLI commands, file formats, exit codes."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpool import (GeometricConfig, Instance, InstanceError, Node, Session,
                     SimSchedule, SolverConfig, cli, distributed, edge_graph,
                     generate_geometric, instances, model, plain_routing_cost,
                     run_distributed_solve, solve, solver)
from model_reference import (_node_id_reference, _number_reference,
                             _session_id_reference,
                             instance_from_dict_reference,
                             solution_to_dict_reference, solve_reference)


@pytest.fixture()
def relay3_path(tmp_path):
    path = tmp_path / "relay3.json"
    assert cli.main(["gen", "--builtin", "relay3", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def solved(tmp_path, relay3_path):
    sol = tmp_path / "sol.json"
    trace = tmp_path / "trace.csv"
    code = cli.main(["solve", relay3_path, "--tol", "1e-4",
                     "--max-iters", "2000", "--out", str(sol),
                     "--trace", str(trace)])
    assert code == 0
    return relay3_path, str(sol), str(trace)


def check_code(instance, doc, tmp_path, name="mut.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return cli.main(["check", instance, str(path)])


# ------------------------------------------------------------------ gen

def test_gen_builtin_writes_and_counts(tmp_path, capsys):
    path = tmp_path / "relay3.json"
    assert cli.main(["gen", "--builtin", "relay3", "--out", str(path)]) == 0
    assert capsys.readouterr().out == "nodes=3 edges=2 sessions=2\n"
    doc = json.loads(path.read_text())
    assert [n["id"] for n in doc["nodes"]] == [0, 1, 2]
    assert doc["edges"] == [[0, 1], [1, 2]]
    assert doc["sessions"][0] == {"id": "s1", "source": 0, "dest": 2,
                                  "rate": 1.0}


def test_gen_roundtrips_through_the_parser(relay3, relay3_path):
    assert cli.load_instance(relay3_path) == relay3
    assert cli.instance_from_dict(cli.instance_to_dict(relay3)) == relay3


# the types each kind of value may have, and every type, which one value
# in 16 takes: some are refused wherever they stand, and int, float and
# Fraction also change some values they convert
AS_INTS = [int, np.int64, np.uint8]
AS_REALS = [float, int, np.int64, np.float32, np.float64, Fraction]
AS_IDS = [str, int, np.int64]
AS_ANY = [int, float, str, bool, np.int64, np.uint8, np.float32, np.float64,
          Fraction]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_instance_writes_a_file_that_reads_back(data):
    """An Instance of values of any type either is refused or writes a
    file that the JSON reader reads back as the same instance, value for
    value and type for type."""
    def typed(value, kinds):
        if data.draw(st.integers(0, 15)) == 0:
            kinds = AS_ANY
        return data.draw(st.sampled_from(kinds))(value)

    def position():
        pos = [typed(x, AS_REALS) for x in data.draw(st.sampled_from(
            [(0.5, 2.0), (1.0, 0.0)]))]
        return data.draw(st.sampled_from([None, tuple(pos), pos]))

    nodes = [Node(typed(nid, AS_INTS), typed(cost, AS_REALS), position())
             for nid, cost in ((2, 0.0), (0, 1.0), (1, 2.5))]
    sessions = [Session(typed(t, AS_IDS), typed(a, AS_INTS),
                        typed(b, AS_INTS), typed(rate, AS_REALS))
                for t, a, b, rate in ((1, 0, 2, 1.5), (2, 2, 1, 3.0))]
    try:
        inst = Instance(nodes, [(0, 1), (1, 2)], sessions)
    except InstanceError:
        return
    back = cli.instance_from_dict(json.loads(json.dumps(
        cli.instance_to_dict(inst))))
    assert back == inst
    assert repr(back) == repr(inst)


def test_gen_random_is_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["gen", "-L", "5", "--sessions", "3", "--seed", "12",
                         "--out", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gen_to_stdout_keeps_counts_on_stderr(capsys):
    assert cli.main(["gen", "--builtin", "relay3"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["edges"] == [[0, 1], [1, 2]]
    assert err == "nodes=3 edges=2 sessions=2\n"


def test_gen_rejects_unknown_builtin(capsys):
    assert cli.main(["gen", "--builtin", "nope"]) == 1
    assert "unknown builtin 'nope'" in capsys.readouterr().err


def test_gen_surfaces_generation_failure(capsys):
    assert cli.main(["gen", "-L", "0.1", "--sessions", "3",
                     "--seed", "1"]) == 1
    assert "generation failed" in capsys.readouterr().err


# ----------------------------------------------------------------- solve

def test_solve_summary_line(solved, capsys):
    relay3_path, _, _ = solved
    capsys.readouterr()
    assert cli.main(["solve", relay3_path, "--tol", "1e-4",
                     "--max-iters", "2000"]) == 0
    assert capsys.readouterr().out == \
        "physical_cost=3 routing_cost=4 savings=25.0% gap=0 " \
        "iterations=2 certified\n"


def test_trace_file_is_exact(solved):
    _, _, trace = solved
    assert open(trace).read() == (
        "iter,alpha,dual_bound,best_dual_bound,recovered_cost,rel_gap\n"
        "1,1,3,3,5,0.666666666667\n"
        "2,0.5,5,5,5,0\n")


def test_solution_file_contents(solved):
    _, sol_path, _ = solved
    doc = json.load(open(sol_path))
    assert doc["certified"] is True
    assert doc["iterations"] == 2
    assert doc["expanded_cost"] == 5.0
    assert doc["physical_cost"] == 3.0
    assert doc["routing_cost"] == 4.0
    flows = {rec["id"]: {tuple(e["triple"]): e["value"]
                         for e in rec["flows"]} for rec in doc["sessions"]}
    assert flows["s1"] == {(3, 0, 1): 1.0, (0, 1, 2): 1.0, (1, 2, 4): 1.0}
    assert flows["s2"] == {(5, 2, 1): 1.0, (2, 1, 0): 1.0, (1, 0, 6): 1.0}
    y = {(r["v"], r["mid"], r["w"]): r["y"]
         for r in doc["pair_transmissions"]}
    assert y[(0, 1, 2)] == 1.0
    assert {r["node"]: r["z"] for r in doc["node_transmissions"]} == \
        {0: 2.0, 1: 1.0, 2: 2.0}


def test_unfinished_solve_exits_two(relay3_path, capsys):
    assert cli.main(["solve", relay3_path, "--max-iters", "1",
                     "--tol", "1e-9"]) == 2
    assert "uncertified" in capsys.readouterr().out


def test_distributed_solve_writes_identical_solution(solved, tmp_path,
                                                     capsys):
    relay3_path, sol_path, _ = solved
    dist = tmp_path / "sol_dist.json"
    capsys.readouterr()
    assert cli.main(["solve", relay3_path, "--tol", "1e-4",
                     "--max-iters", "2000", "--distributed",
                     "--out", str(dist)]) == 0
    out = capsys.readouterr().out
    assert "messages: label=20 flow=12 rounds=14 bytes~1184" in out
    assert dist.read_bytes() == open(sol_path, "rb").read()


def test_async_schedule_flag_accepted(solved, tmp_path):
    relay3_path, sol_path, _ = solved
    dist = tmp_path / "sol_async.json"
    assert cli.main(["solve", relay3_path, "--tol", "1e-4",
                     "--max-iters", "2000", "--distributed",
                     "--schedule", "async", "--schedule-seed", "7",
                     "--out", str(dist)]) == 0
    assert dist.read_bytes() == open(sol_path, "rb").read()


def test_one_parser_serves_every_call_of_a_process(relay3_path, capsys,
                                                   monkeypatch):
    # the parser is built once; a flag of one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    tols = []
    monkeypatch.setattr(cli, "solve", lambda inst, cfg: (
        tols.append(cfg.tol), solve(inst, cfg))[1])
    assert cli.main(["solve", relay3_path, "--distributed",
                     "--tol", "1e-4"]) == 0
    assert "messages: label=" in capsys.readouterr().out
    assert cli.main(["solve", relay3_path]) == 0
    out = capsys.readouterr().out
    assert "certified" in out and "messages:" not in out
    assert tols == [SolverConfig().tol]


def test_distributed_solve_of_an_empty_network(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"nodes": [], "edges": [], "sessions": []}))
    assert cli.main(["solve", str(inst), "--distributed"]) == 0
    out = capsys.readouterr().out
    assert "iterations=0 certified" in out
    assert "messages: label=0 flow=0 rounds=0 bytes~0" in out


def _json_bytes(doc):
    return (json.dumps(doc, indent=1) + "\n").encode()


# the builtins, relay3's network with no session (nothing transmits), and
# a geometric draw
WRITER_INPUTS = ["relay3", "grid2", "grid2rate", "geo4", "idle", "geo6-s4"]


def writer_input(named, name):
    if name == "idle":
        return Instance(named["relay3"].nodes, named["relay3"].edges, [])
    if name == "geo6-s4":
        return generate_geometric(GeometricConfig(side=6.0, sessions=4,
                                                  seed=5))
    return named[name]


def assert_states_what_transmits(doc, inst, sol):
    """The document states a y for exactly the pairs with y != 0, in pair
    row order, and a z for exactly the physical nodes with z != 0, in node
    order, each with the solution's bits."""
    idx, y, z = sol.summary.idx, sol.summary.y, sol.summary.z[:inst.n]
    want = [((int(idx.v[k]), int(idx.mid[k]), int(idx.w[k])), float(yk))
            for k, yk in zip(idx.pair_fwd, y) if yk != 0]
    assert [((r["v"], r["mid"], r["w"]), r["y"])
            for r in doc["pair_transmissions"]] == want
    assert [(r["node"], r["z"]) for r in doc["node_transmissions"]] == \
        [(i, float(zi)) for i, zi in enumerate(z) if zi != 0]


@pytest.mark.parametrize("name", WRITER_INPUTS)
def test_solution_file_is_json_dumps_of_the_document(named, name, tmp_path):
    inst = writer_input(named, name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cli.instance_to_dict(inst)))
    cfg = SolverConfig(tol=2e-2, max_iters=300)
    routing, _ = plain_routing_cost(inst)
    runs = [([], solve(inst, cfg)[0]),
            (["--distributed"], run_distributed_solve(inst, cfg)[0])]
    for extra, sol in runs:
        out = tmp_path / "sol.json"
        assert cli.main(["solve", str(path), "--tol", "2e-2", "--max-iters",
                         "300", "--out", str(out)] + extra) in (0, 2)
        doc = cli.solution_to_dict(inst, sol, routing)
        assert_states_what_transmits(doc, inst, sol)
        assert cli.dumps_solution(doc) == json.dumps(doc, indent=1)
        assert out.read_bytes() == _json_bytes(doc)
    if name == "idle":
        assert len(sol.summary.y) > 0
        assert doc["pair_transmissions"] == doc["node_transmissions"] == []


@pytest.mark.parametrize("name", ["relay3", "geo4", "grid2", "idle"])
def test_writer_states_the_nonzero_entries_of_the_dense_flows(
        named, name, loop_kernels, monkeypatch):
    """The document built from the solution's entries is the one built by
    np.nonzero over each session's dense flow from the dense loop, and
    its file the same bytes, after solve() and after the twin's sync and
    async runs, under either round."""
    inst = writer_input(named, name)
    cfg = SolverConfig(tol=2e-2, max_iters=300)
    routing, _ = plain_routing_cost(inst)
    _, means, _ = solve_reference(inst, cfg)
    for kernel in loop_kernels:
        monkeypatch.setattr(edge_graph, "_load_kernel", lambda: kernel)
        sols = [solve(inst, cfg)[0]] + [
            run_distributed_solve(inst, cfg, schedule)[0]
            for schedule in (SimSchedule(mode="sync"),
                             SimSchedule(mode="async", seed=1))]
        for sol in sols:
            want = solution_to_dict_reference(inst, sol, means, routing)
            doc = cli.solution_to_dict(inst, sol, routing)
            assert doc == want
            assert cli.dumps_solution(doc) == json.dumps(want, indent=1)


def dense_layout(doc, inst, idx):
    """doc with the zero records added back: a y for every pair and a z
    for every physical node, as solution files were once written."""
    ys = {(r["v"], r["mid"], r["w"]): r["y"]
          for r in doc["pair_transmissions"]}
    zs = {r["node"]: r["z"] for r in doc["node_transmissions"]}
    keys = [(int(idx.v[k]), int(idx.mid[k]), int(idx.w[k]))
            for k in idx.pair_fwd]
    return dict(doc, pair_transmissions=[
        {"v": v, "mid": i, "w": w, "y": ys.get((v, i, w), 0.0)}
        for v, i, w in keys], node_transmissions=[
        {"node": i, "z": zs.get(i, 0.0)} for i in range(inst.n)])


@pytest.mark.parametrize("name", WRITER_INPUTS)
def test_check_reads_dense_and_sparse_files_alike(named, name, tmp_path,
                                                  capsys):
    inst = writer_input(named, name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cli.instance_to_dict(inst)))
    sol, _ = solve(inst, SolverConfig(tol=2e-2, max_iters=300))
    doc = cli.solution_to_dict(inst, sol, plain_routing_cost(inst)[0])
    dense = dense_layout(doc, inst, sol.summary.idx)
    # the dense layout holds every y and z of the solution, bit for bit
    assert [r["y"] for r in dense["pair_transmissions"]] == \
        sol.summary.y.tolist()
    assert [r["z"] for r in dense["node_transmissions"]] == \
        sol.summary.z[:inst.n].tolist()
    outputs = []
    for layout in (dense, doc):
        capsys.readouterr()
        assert check_code(str(path), layout, tmp_path) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_writer_escapes_session_ids_and_writes_empty_lists(relay3):
    odd = Instance(relay3.nodes, relay3.edges,
                   [Session('s"1\\\u00e9', 0, 2, 1.0),
                    Session("\u2713\n\t\x7f", 2, 0, 1.0)])
    for inst in (odd, Instance([], [], [])):
        sol, _ = solve(inst, SolverConfig(tol=1e-4, max_iters=100))
        doc = cli.solution_to_dict(inst, sol, plain_routing_cost(inst)[0])
        assert cli.dumps_solution(doc) == json.dumps(doc, indent=1)
    assert cli.dumps_solution(doc).startswith('{\n "sessions": [],\n')


_edge_floats = st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308,
                                 math.nan, math.inf, -math.inf, 0.0, 1.0])
_node = st.integers(0, 10**9)


def _record(*keys, **values):
    return st.tuples(*(values[k] for k in keys)).map(
        lambda vals: dict(zip(keys, vals)))


_solution_docs = _record(
    "sessions", "pair_transmissions", "node_transmissions", "expanded_cost",
    "physical_cost", "routing_cost", "gap", "certified", "iterations",
    sessions=st.lists(_record(
        "id", "flows", id=st.text(max_size=5),
        flows=st.lists(_record("triple", "value",
                               triple=st.lists(_node, min_size=3, max_size=3),
                               value=_edge_floats | st.floats()),
                       max_size=4)), max_size=3),
    pair_transmissions=st.lists(_record(
        "v", "mid", "w", "y", v=_node, mid=_node, w=_node,
        y=_edge_floats | st.floats()), max_size=4),
    node_transmissions=st.lists(_record(
        "node", "z", node=_node, z=_edge_floats | st.floats()), max_size=4),
    expanded_cost=_edge_floats, physical_cost=st.floats(),
    routing_cost=_edge_floats | st.floats(), gap=_edge_floats,
    certified=st.booleans(), iterations=st.integers(0, 10**6))


@settings(max_examples=200, deadline=None)
@given(_solution_docs)
def test_writer_equals_json_dumps_on_drawn_documents(doc):
    assert cli.dumps_solution(doc) == json.dumps(doc, indent=1)


def test_solve_builds_the_graph_once(relay3_path, tmp_path, monkeypatch):
    calls = []

    def counted(name):
        original = getattr(model, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for module in (cli, solver, distributed):
        for name in ("build_expanded_graph", "enumerate_triples"):
            monkeypatch.setattr(module, name, counted(name))
    for extra in ([], ["--distributed"]):
        calls.clear()
        assert cli.main(["solve", relay3_path, "--out",
                         str(tmp_path / "sol.json")] + extra) == 0
        assert calls == ["build_expanded_graph", "enumerate_triples"]


def test_check_and_solve_read_the_instance_once(solved, tmp_path,
                                                monkeypatch):
    """carpool check and carpool solve read the instance file into
    columns: one edge_ends call, which the graph builds and the baseline
    reuse, and no Node."""
    calls = Counter()
    for module in (model, cli, instances):
        def counted(edges, _call=module.edge_ends):
            calls["edge_ends"] += 1
            return _call(edges)
        monkeypatch.setattr(module, "edge_ends", counted)
    init = Node.__init__

    def counted_init(self, *args, **kw):
        calls["Node"] += 1
        init(self, *args, **kw)
    monkeypatch.setattr(Node, "__init__", counted_init)
    inst_path, sol_path, _ = solved
    for argv in (["check", inst_path, sol_path],
                 ["solve", inst_path, "--out", str(tmp_path / "again.json")],
                 ["solve", inst_path, "--distributed"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == {"edge_ends": 1}
    # the record loop, which names a bad record, builds one per record
    calls.clear()
    with mock.patch.object(cli, "_plain_instance", return_value=None):
        assert cli.main(["check", inst_path, sol_path]) == 0
    assert calls == {"edge_ends": 1, "Node": 3}


# -------------------------------------------------------------- baseline

def test_baseline_lists_routes(relay3_path, capsys):
    capsys.readouterr()
    assert cli.main(["baseline", relay3_path]) == 0
    assert capsys.readouterr().out == (
        "routing_cost=4\n"
        "s1: 0 -> 1 -> 2 (cost 2)\n"
        "s2: 2 -> 1 -> 0 (cost 2)\n")


@pytest.mark.parametrize("name", ["gen", "solve", "baseline", "check"])
def test_main_calls_the_command_function_set_now(solved, monkeypatch, name):
    """main finds cmd_<name> when it runs, not when the parser was first
    built, so a wrapper put in its place after a first call runs."""
    relay3_path, sol_path, _ = solved
    argv = {"gen": ["gen", "--builtin", "relay3"], "solve": [
        "solve", relay3_path, "--tol", "1e-4", "--max-iters", "2000"],
        "baseline": ["baseline", relay3_path],
        "check": ["check", relay3_path, sol_path]}[name]
    assert cli.main(argv) == 0
    original, calls = getattr(cli, f"cmd_{name}"), []

    def counted(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, f"cmd_{name}", counted)
    assert cli.main(argv) == 0
    assert calls == [name]


# ----------------------------------------------------------------- check

def test_check_accepts_the_solvers_output(solved, capsys):
    relay3_path, sol_path, _ = solved
    capsys.readouterr()
    assert cli.main(["check", relay3_path, sol_path]) == 0
    assert capsys.readouterr().out == \
        "solution checks out: conservation, transmissions, costs\n"


def test_check_catches_a_perturbed_flow(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    doc["sessions"][0]["flows"][0]["value"] = 1.1
    assert check_code(relay3_path, doc, tmp_path) == 1
    err = capsys.readouterr().err
    assert "session s1: conservation violated at pair (0, 1): " \
        "residual -0.1" in err
    assert "session flows through the pair exceed its y" in err


def test_check_catches_understated_transmissions(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    for rec in doc["pair_transmissions"]:
        if rec["y"]:
            rec["y"] -= 0.5
            break
    assert check_code(relay3_path, doc, tmp_path) == 1
    err = capsys.readouterr().err
    assert "stated y=0.5, flows give 1.0 (session flows through the " \
        "pair exceed its y)" in err


def test_check_reads_an_unstated_y_as_zero(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    pairs = doc["pair_transmissions"]
    kept = [r for r in pairs if (r["v"], r["mid"], r["w"]) != (0, 1, 2)]
    assert len(kept) == len(pairs) - 1
    doc["pair_transmissions"] = kept
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "transmissions for pair (0, 1, 2): no y stated, flows give 1.0"]
    # a y stated as 0 is stated, and wrong
    doc["pair_transmissions"] = kept + [{"v": 0, "mid": 1, "w": 2, "y": 0.0}]
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "transmissions for pair (0, 1, 2): stated y=0.0, flows give 1.0 "
        "(session flows through the pair exceed its y)"]


def test_check_compares_every_stated_y(solved, tmp_path, capsys):
    # as for z, a wrong y is wrong also when a right one follows it
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    pairs = doc["pair_transmissions"]
    right = next(r for r in pairs if (r["v"], r["mid"], r["w"]) == (0, 1, 2))
    doc["pair_transmissions"] = [{**right, "y": 0.5}] + pairs
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "transmissions for pair (0, 1, 2): stated y=0.5, flows give 1.0 "
        "(session flows through the pair exceed its y)"]
    # an unknown pair is named once per record
    doc["pair_transmissions"] = pairs + [{"v": 0, "mid": 2, "w": 1,
                                          "y": 1.0}] * 2
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "transmissions stated for unknown pair (0, 2, 1)"] * 2


def test_check_rejects_unknown_triples(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    doc["sessions"][0]["flows"][0]["triple"] = [0, 2, 1]
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert "unknown triple (0, 2, 1)" in capsys.readouterr().err


def test_check_requires_matching_session_sets(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    doc["sessions"].pop()
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert "session sets differ" in capsys.readouterr().err


def test_check_recomputes_the_costs(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    doc["physical_cost"] = 99.0
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert "physical_cost: stated 99.0, flows give 3.0" in \
        capsys.readouterr().err
    doc = json.load(open(sol_path))
    doc["node_transmissions"][1]["z"] = 0.25
    assert check_code(relay3_path, doc, tmp_path, "z.json") == 1
    assert "node 1: stated z=0.25, flows give 1.0" in \
        capsys.readouterr().err


def test_check_reads_an_unstated_z_as_zero(solved, tmp_path, capsys):
    relay3_path, sol_path, _ = solved
    doc = json.load(open(sol_path))
    doc["node_transmissions"] = []
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "node 0: no z stated, flows give 2.0",
        "node 1: no z stated, flows give 1.0",
        "node 2: no z stated, flows give 2.0"]
    # node 4 is s'_1, an artificial node; the duplicate of node 1 is
    # compared on its own, and node 0 stays unstated
    doc = json.load(open(sol_path))
    doc["node_transmissions"] = [{"node": 4, "z": 0.0},
                                 {"node": 1, "z": 1.0}, {"node": 2, "z": 2.0},
                                 {"node": 1, "z": 0.5}]
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == [
        "transmissions stated for unknown node 4",
        "node 1: stated z=0.5, flows give 1.0",
        "node 0: no z stated, flows give 2.0"]


def relay3_document(flows):
    """A relay3 solution document stating flows and, for the transmissions
    and costs, the two opposite unit routes that share the relay."""
    pairs = [(1, 0, 3), (1, 0, 6), (0, 1, 2), (1, 2, 4), (1, 2, 5)]
    return {"sessions": [{"id": sid, "flows": [
                {"triple": list(t), "value": x} for t, x in entries]}
                         for sid, entries in flows],
            "pair_transmissions": [{"v": v, "mid": i, "w": w, "y": 1.0}
                                   for v, i, w in pairs],
            "node_transmissions": [{"node": i, "z": z}
                                   for i, z in enumerate([2.0, 1.0, 2.0])],
            "expanded_cost": 5.0, "physical_cost": 3.0,
            "routing_cost": 4.0}


def test_check_keys_each_flow_by_session_and_triple(relay3_path, tmp_path,
                                                    capsys):
    s1 = [((3, 0, 1), 1.0), ((0, 1, 2), 7.0), ((1, 2, 4), 1.0),
          ((0, 1, 2), 1.0)]  # the later entry for (0, 1, 2) wins
    s2 = [((5, 2, 1), 1.0), ((2, 1, 0), 1.0), ((1, 0, 6), 1.0)]
    # sessions in reverse order, and s2 on a triple of s1's, which s2's
    # flow must not merge with
    doc = relay3_document([("s2", s2 + [((0, 1, 2), 0.5)]), ("s1", s1)])
    assert check_code(relay3_path, doc, tmp_path) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "session s2: conservation violated at pair (0, 1): residual 0.5",
        "session s2: conservation violated at pair (1, 2): residual -0.5",
        "transmissions for pair (0, 1, 2): stated y=1.0, flows give 1.5 "
        "(session flows through the pair exceed its y)",
        "node 1: stated z=1.0, flows give 1.5",
        "expanded_cost: stated 5.0, flows give 5.5",
        "physical_cost: stated 3.0, flows give 3.5"]
    assert check_code(relay3_path, relay3_document([("s2", s2),
                                                    ("s1", s1)]),
                      tmp_path) == 0
    # an unknown triple in the instance's last session, listed first
    doc = relay3_document([("s2", s2 + [((0, 2, 1), 1.0)]), ("s1", s1)])
    capsys.readouterr()
    assert check_code(relay3_path, doc, tmp_path) == 1
    assert capsys.readouterr() == ("", "session s2: unknown triple "
                                   "(0, 2, 1)\n")


# ------------------------------------------------------------ bad inputs

def test_missing_file_exits_one(capsys):
    assert cli.main(["solve", "/nonexistent/x.json"]) == 1
    assert "cannot read /nonexistent/x.json" in capsys.readouterr().err


def test_unreadable_files_are_named(tmp_path, relay3_path, solved, capsys):
    _, sol_path, _ = solved
    text = '{"nodes": [], "edges": [], "sessions": [{"id": "caf\xe9"}]}'
    latin = tmp_path / "latin1.json"
    latin.write_bytes(text.encode("latin-1"))
    not_utf8 = (f"cannot read {latin}: 'utf-8' codec can't decode byte "
                f"0xe9 in position {text.index(chr(0xe9))}: invalid "
                f"continuation byte\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    too_deep = f"cannot read {deep}: maximum recursion depth exceeded"
    for argv, message in (
            (["solve", str(tmp_path)],
             f"cannot read {tmp_path}: Is a directory\n"),
            (["baseline", str(latin)], not_utf8),
            (["solve", str(deep)], too_deep),
            (["check", relay3_path, str(tmp_path)],
             f"cannot read {tmp_path}: Is a directory\n"),
            (["check", relay3_path, str(latin)], not_utf8),
            (["check", relay3_path, str(deep)], too_deep)):
        assert rejected(argv, capsys).startswith(message)


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="integer string conversion is unlimited")
def test_an_overlong_integer_names_its_file(tmp_path, relay3_path, solved,
                                            capsys):
    """json.load refuses an integer literal longer than the interpreter's
    digit limit with a plain ValueError: the file is named all the same."""
    _, sol_path, _ = solved
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 700)
    inst, sol = tmp_path / "long_cost.json", tmp_path / "long_gap.json"
    doc = json.loads(Path(relay3_path).read_text())
    doc["nodes"][0]["cost"] = "LONG"
    inst.write_text(json.dumps(doc).replace('"LONG"', digits))
    doc = json.loads(Path(sol_path).read_text())
    doc["gap"] = "LONG"
    sol.write_text(json.dumps(doc).replace('"LONG"', digits))
    for argv, path in ((["solve", str(inst)], inst),
                       (["baseline", str(inst)], inst),
                       (["check", relay3_path, str(sol)], sol)):
        assert rejected(argv, capsys).startswith(
            f"cannot read {path}: Exceeds the limit ({limit} digits) for "
            f"integer string conversion")


def test_unwritable_outputs_are_named(tmp_path, relay3_path, capsys):
    missing = tmp_path / "missing"
    for argv, path in (
            (["gen", "--builtin", "relay3", "--out"], missing / "i.json"),
            (["solve", relay3_path, "--out"], missing / "s.json"),
            (["solve", relay3_path, "--trace"], missing / "t.csv")):
        assert rejected(argv + [str(path)], capsys) == \
            f"cannot write {path}: No such file or directory\n"
    assert not missing.exists()


@pytest.fixture
def solve_calls(monkeypatch):
    """The arguments of every solve the CLI starts, which all fail."""
    calls = []

    def never(*args, **kw):
        calls.append(args)
        raise AssertionError("the solve ran before the outputs were checked")

    monkeypatch.setattr(cli, "solve", never)
    monkeypatch.setattr(cli, "run_distributed_solve", never)
    return calls


def test_unwritable_outputs_fail_before_the_solve(tmp_path, relay3_path,
                                                  capsys, solve_calls):
    plain = tmp_path / "plain"
    plain.write_text("")
    for flag, path, reason in (
            ("--out", tmp_path / "missing" / "s.json",
             "No such file or directory"),
            ("--trace", tmp_path / "missing" / "t.csv",
             "No such file or directory"),
            ("--out", plain / "s.json", "Not a directory"),
            ("--out", tmp_path, "Is a directory"),
            ("--trace", tmp_path, "Is a directory")):
        for extra in ([], ["--distributed"]):
            argv = ["solve", relay3_path, flag, str(path), *extra]
            assert rejected(argv, capsys) == \
                f"cannot write {path}: {reason}\n"
    assert solve_calls == []


def test_out_and_trace_must_name_different_files(tmp_path, relay3_path,
                                                 capsys, solve_calls):
    out = tmp_path / "s.json"
    (tmp_path / "sub").mkdir()
    for trace in (out, tmp_path / "sub" / ".." / "s.json"):
        argv = ["solve", relay3_path, "--out", str(out), "--trace", str(trace)]
        assert rejected(argv, capsys) == \
            f"--out {out} and --trace {trace} name the same file\n"
    assert solve_calls == [] and not out.exists()
    with pytest.raises(AssertionError, match="the solve ran"):
        cli.main(["solve", relay3_path, "--out", str(out), "--trace",
                  str(tmp_path / "t.csv")])
    assert len(solve_calls) == 1


def test_outputs_must_not_name_the_instance(tmp_path, relay3_path, capsys,
                                           solve_calls, monkeypatch):
    def never(path):
        raise AssertionError("the instance was loaded before the outputs "
                             "were checked")

    monkeypatch.setattr(cli, "load_instance", never)
    before = open(relay3_path, "rb").read()
    (tmp_path / "sub").mkdir()
    link = tmp_path / "link.json"
    link.symlink_to(relay3_path)
    for flag in ("--out", "--trace"):
        for path in (relay3_path, tmp_path / "sub" / ".." / "relay3.json",
                     link):
            argv = ["solve", relay3_path, flag, str(path)]
            assert rejected(argv, capsys) == \
                f"{flag} {path} names the instance file {relay3_path}\n"
        # the instance may be named through a link, too
        argv = ["solve", str(link), flag, relay3_path]
        assert rejected(argv, capsys) == \
            f"{flag} {relay3_path} names the instance file {link}\n"
    assert solve_calls == []
    assert open(relay3_path, "rb").read() == before


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"nodes": [,]}')
    assert cli.main(["solve", str(bad)]) == 1
    assert f"{bad}:1:12: Expecting value" in capsys.readouterr().err


def test_invalid_instance_exits_one(tmp_path, relay3_path, capsys):
    doc = json.load(open(relay3_path))
    doc["sessions"][0]["rate"] = -1
    bad = tmp_path / "badrate.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["solve", str(bad)]) == 1
    assert "session s1 rate must be > 0" in capsys.readouterr().err


def test_unreachable_session_exits_one(tmp_path, relay3_path, capsys):
    doc = json.load(open(relay3_path))
    doc["nodes"].append({"id": 3, "cost": 1.0})
    doc["sessions"][0]["dest"] = 3
    bad = tmp_path / "unreach.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["baseline", str(bad)]) == 1
    assert "session s1 unreachable" in capsys.readouterr().err


def rejected(argv, capsys):
    """Run the CLI on bad data: exit 1, a message, no traceback."""
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def _drop_flows(doc):
    del doc["sessions"][0]["flows"]
    return doc


def _set(path, value):
    def mutate(doc):
        rec = doc
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
        return doc
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_drop_flows, "session s1: record has no 'flows'"),
    (lambda doc: [doc], "solution must be a JSON object, got list"),
    (_set(["sessions", 0, "flows", 0, "value"], "lots"),
     "session s1 flows[0] value: 'lots' is not a number"),
    (_set(["sessions", 0, "flows", 0, "value"], float("nan")),
     "session s1: non-finite flow nan on (3, 0, 1)"),
    (_set(["sessions", 0, "flows", 0, "value"], float("inf")),
     "session s1: non-finite flow inf on (3, 0, 1)"),
    (_set(["pair_transmissions", 1, "y"], None),
     "pair_transmissions[1] y: None is not a number"),
    (_set(["node_transmissions", 2, "z"], [2.0]),
     "node_transmissions[2] z: [2.0] is not a number"),
    (_set(["sessions", 1, "flows", 2, "triple"], [1, 0]),
     "session s2 flows[2] triple: [1, 0] is not three node ids"),
    (_set(["sessions", 0, "flows", 0, "triple"], [3.5, 0, 1]),
     "session s1 flows[0] triple: [3.5, 0, 1] is not three node ids"),
    (_set(["sessions", 0, "flows", 0, "triple"], ["3", "0", "1"]),
     "session s1 flows[0] triple: ['3', '0', '1'] is not three node ids"),
    (_set(["pair_transmissions", 0, "v"], True),
     "pair_transmissions[0] v: True is not a node id"),
    (_set(["node_transmissions", 0, "node"], 0.25),
     "node_transmissions[0] node: 0.25 is not a node id"),
    (_set(["pair_transmissions", 1, "y"], 10**400),
     f"pair_transmissions[1] y: {10**400!r} is not a number"),
    (_set(["physical_cost"], 10**400),
     f"physical_cost: {10**400!r} is not a number"),
    (_set(["sessions", 0, "flows", 1, "value"], True),
     "session s1 flows[1] value: True is not a number"),
    (_set(["pair_transmissions", 0, "y"], True),
     "pair_transmissions[0] y: True is not a number"),
    (_set(["node_transmissions", 1, "z"], "2"),
     "node_transmissions[1] z: '2' is not a number"),
    (_set(["expanded_cost"], "5"), "expanded_cost: '5' is not a number"),
    (_set(["sessions", 1, "id"], None),
     "sessions[1]: session id None is not a string or an integer"),
    (_set(["sessions", 0, "id"], 1.5),
     "sessions[0]: session id 1.5 is not a string or an integer"),
    (_set(["gap"], "0"), "gap: '0' is not a number"),
    (_set(["gap"], False), "gap: False is not a number"),
    (_set(["certified"], "yes"), "certified: 'yes' is not true or false"),
    (_set(["certified"], 1), "certified: 1 is not true or false"),
    (_set(["iterations"], "x"), "iterations: 'x' is not an integer >= 0"),
    (_set(["iterations"], 2.5), "iterations: 2.5 is not an integer >= 0"),
    (_set(["iterations"], -1), "iterations: -1 is not an integer >= 0"),
    (_set(["iterations"], True),
     "iterations: True is not an integer >= 0"),
], ids=["no-flows", "list-document", "text-value", "nan-value", "inf-value",
        "null-y", "list-z", "short-triple", "fraction-in-triple",
        "text-in-triple", "bool-v", "fraction-node", "huge-y",
        "huge-cost", "bool-value", "bool-y", "text-z", "text-cost",
        "null-session-id", "fraction-session-id", "text-gap", "bool-gap",
        "text-certified", "int-certified", "text-iterations",
        "fraction-iterations", "negative-iterations", "bool-iterations"])
def test_check_rejects_a_malformed_solution(solved, tmp_path, capsys, mutate,
                                            message):
    relay3_path, sol_path, _ = solved
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.load(open(sol_path)))))
    capsys.readouterr()
    assert message in rejected(["check", relay3_path, str(bad)], capsys)


def test_check_names_pairs_and_nodes_the_instance_lacks(tmp_path, capsys):
    inst = tmp_path / "empty.json"
    inst.write_text(json.dumps({"nodes": [], "edges": [], "sessions": []}))
    doc = {"sessions": [], "expanded_cost": 0.0, "physical_cost": 0.0,
           "pair_transmissions": [{"v": 0, "mid": 1, "w": 2, "y": 1.0}],
           "node_transmissions": [{"node": 0, "z": 1.0}]}
    sol = tmp_path / "empty.sol.json"
    sol.write_text(json.dumps(doc))
    err = rejected(["check", str(inst), str(sol)], capsys)
    assert err == ("transmissions stated for unknown pair (0, 1, 2)\n"
                   "transmissions stated for unknown node 0\n")


def test_check_reports_the_position_of_bad_json(relay3_path, tmp_path,
                                                capsys):
    bad = tmp_path / "broken.sol.json"
    bad.write_text('{"sessions": [\n  {"id": "s1",, }]}')
    err = rejected(["check", relay3_path, str(bad)], capsys)
    assert f"{bad}:2:15: Expecting property name" in err


@pytest.fixture(scope="module")
def relay3_solution(tmp_path_factory):
    """relay3's instance file and certified solution document."""
    root = tmp_path_factory.mktemp("fuzz")
    inst_path = root / "relay3.json"
    sol_path = root / "sol.json"
    assert cli.main(["gen", "--builtin", "relay3", "--out",
                     str(inst_path)]) == 0
    assert cli.main(["solve", str(inst_path), "--tol", "1e-4",
                     "--out", str(sol_path)]) == 0
    return str(inst_path), json.load(open(sol_path)), root


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def mutate_one_member(doc, data, values=json_values):
    """A copy of doc with one member anywhere replaced, by one of values,
    or deleted."""
    doc = json.loads(json.dumps(doc))
    # walk down to a random container, then replace or delete one member
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.booleans())):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    if parent is None:
        doc = data.draw(values)
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(values)
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_check_never_crashes_on_a_mutated_solution(relay3_solution, data):
    inst_path, doc, root = relay3_solution
    path = root / "mutated.json"
    path.write_text(json.dumps(mutate_one_member(doc, data)))
    assert cli.main(["check", inst_path, str(path)]) in (0, 1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_and_baseline_never_crash_on_a_mutated_instance(
        relay3_solution, data):
    inst_path, _, root = relay3_solution
    path = root / "mutated-instance.json"
    path.write_text(json.dumps(mutate_one_member(
        json.load(open(inst_path)), data)))
    assert cli.main(["solve", str(path), "--max-iters", "20"]) in (0, 1, 2)
    assert cli.main(["baseline", str(path)]) in (0, 1)


@pytest.fixture(scope="module")
def instance_docs(named):
    """The JSON documents of relay3 and geo4."""
    return [json.loads(json.dumps(cli.instance_to_dict(named[name])))
            for name in ("relay3", "geo4")]


def field_types(inst):
    """The type of every field of an instance, record by record."""
    return ([(type(nd.nid), type(nd.cost),
              None if nd.pos is None else tuple(map(type, nd.pos)))
             for nd in inst.nodes],
            [tuple(map(type, e)) for e in inst.edges],
            [(type(s.sid), type(s.source), type(s.dest), type(s.rate))
             for s in inst.sessions])


# small numbers, which land on ids, ends and costs that exist or nearly do
near_values = (st.integers(-2, 30) | st.floats(-1.0, 31.0)
               | st.sampled_from([math.inf, -math.inf, math.nan, True, 0.0,
                                  2**63, -2**63 - 1, 10**20]))


def mutate_numbers(doc, data):
    """A copy of doc with one to three numbers of its records replaced by
    near values: faults that only the instance's checks catch, and
    their order."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        recs = doc[data.draw(st.sampled_from(["nodes", "edges",
                                              "sessions"]))]
        rec = recs[data.draw(st.integers(0, len(recs) - 1))]
        key = data.draw(st.sampled_from(
            range(2) if isinstance(rec, list) else list(rec)))
        if key == "pos":
            rec = rec["pos"]
            key = data.draw(st.integers(0, 1))
        rec[key] = data.draw(near_values)
    return doc


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_loader_equals_the_record_loop(instance_docs, data):
    doc = data.draw(st.sampled_from(instance_docs))
    if data.draw(st.booleans()):
        doc = mutate_numbers(doc, data)
    else:
        doc = mutate_one_member(doc, data, data.draw(
            st.sampled_from([json_values, near_values])))
    results = []
    for load in (cli.instance_from_dict, instance_from_dict_reference):
        try:
            results.append(load(json.loads(json.dumps(doc))))
        except (model.InstanceError, model.InfeasibleSessionError) as exc:
            results.append((type(exc), str(exc)))
    got, want = results
    assert got == want
    if isinstance(want, Instance):
        assert field_types(got) == field_types(want)


@pytest.fixture(scope="module")
def side15():
    return generate_geometric(GeometricConfig(side=15.0, intensity=2.0,
                                              sessions=16, seed=1))


def test_plain_documents_take_no_record_path(named, side15, monkeypatch):
    def refuse(value):
        raise AssertionError(f"per-record conversion of {value!r}")

    monkeypatch.setattr(cli, "_node_id", refuse)
    monkeypatch.setattr(cli, "_number", refuse)
    for inst in [*named.values(), side15]:
        doc = json.loads(json.dumps(cli.instance_to_dict(inst)))
        got = cli.instance_from_dict(doc)
        assert got == inst
        assert field_types(got) == field_types(inst)


@st.composite
def drawn_instance_docs(draw):
    """An instance document of up to seven nodes, listed in any order,
    all, none or some of them placed; edges either way round and sessions
    that may be unreachable."""
    n = draw(st.integers(1, 7))
    placed = draw(st.sampled_from(["all", "none", "some"]))
    nodes = []
    for nid in draw(st.permutations(range(n))):
        rec = {"id": nid, "cost": draw(st.sampled_from(
            [0.0, -0.0, 0.5, 1.0, 2.5, 1e-300, 3]))}
        if placed == "all" or placed == "some" and draw(st.booleans()):
            rec["pos"] = [draw(st.floats(-5.0, 5.0)),
                          draw(st.sampled_from([0.0, -0.0, 1.5, 2]))]
        nodes.append(rec)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=12)) if pairs else []
    edges = [[b, a] if draw(st.booleans()) else [a, b] for a, b in chosen]
    ends = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    sessions = [{"id": f"s{t}", "source": a, "dest": b,
                 "rate": draw(st.sampled_from([1.0, 0.25, 2]))}
                for t, (b, a) in enumerate(ends)]
    return {"nodes": nodes, "edges": edges, "sessions": sessions}


def library_instance(doc):
    """Instance(nodes, edges, sessions) of the document's records, each
    value read as the reader reads it; None when one cannot be."""
    nid, num = _node_id_reference, _number_reference
    if not (isinstance(doc, dict) and all(
            type(doc.get(k)) is list for k in ("nodes", "edges", "sessions"))):
        return None
    try:
        nodes = [Node(nid(r["id"]), num(r["cost"]),
                      tuple(map(num, r["pos"])) if "pos" in r else None)
                 for r in doc["nodes"]]
        edges = [(nid(a), nid(b)) for a, b in doc["edges"]]
        sessions = [Session(_session_id_reference(r["id"]), nid(r["source"]),
                            nid(r["dest"]), num(r["rate"]))
                    for r in doc["sessions"]]
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return Instance(nodes, edges, sessions)


def loaded(load, doc):
    """What load makes of a copy of doc: the facts of its instance, or the
    type and text of the error it raises."""
    try:
        inst = load(json.loads(json.dumps(doc)))
    except (model.InstanceError, model.InfeasibleSessionError) as exc:
        return type(exc), str(exc)
    if inst is None:
        return None
    g = model.build_expanded_graph(inst)
    idx = model.enumerate_triples(g)
    arrays = [getattr(obj, f.name) for obj in (g, idx)
              for f in dataclasses.fields(obj)
              if isinstance(getattr(obj, f.name), np.ndarray)]
    return (repr(inst.nodes), repr(inst.edges), repr(inst.sessions),
            json.dumps(cli.instance_to_dict(inst)),
            [(a.dtype, a.tobytes()) for a in arrays], g.refund,
            inst.cost_vector.tobytes(), inst.ends.tobytes(),
            repr(plain_routing_cost(inst)))


@settings(max_examples=300, deadline=None)
@given(doc=drawn_instance_docs(), data=st.data())
def test_bulk_record_and_library_paths_agree(doc, data):
    """The reader's bulk path, its record loop and Instance on the records
    make equal instances, graphs and routes, or raise the same error:
    on plain documents, on documents that write an id or an end as a
    float such as 2.0, which only the record loop reads, and on documents
    with a faulty record."""
    kind = data.draw(st.sampled_from(["plain", "float-id", "faulty"]))
    if kind == "float-id":
        name = data.draw(st.sampled_from(
            [k for k in ("nodes", "edges", "sessions") if doc[k]]))
        rec = data.draw(st.sampled_from(doc[name]))
        key = data.draw(st.sampled_from(
            {"nodes": ["id"], "edges": [0, 1],
             "sessions": ["source", "dest"]}[name]))
        rec[key] = float(rec[key])
    elif kind == "faulty":
        if all(doc.values()) and data.draw(st.booleans()):
            doc = mutate_numbers(doc, data)
        else:
            doc = mutate_one_member(doc, data, data.draw(
                st.sampled_from([json_values, near_values])))
    bulk = loaded(cli.instance_from_dict, doc)
    with mock.patch.object(cli, "_plain_instance", return_value=None):
        record = loaded(cli.instance_from_dict, doc)
    assert bulk == record
    library = loaded(library_instance, doc)
    assert library in (None, bulk)
    if kind != "faulty":
        assert library == bulk


@pytest.mark.parametrize("nid, message", [
    (463, "node ids must be dense 0..462, got 463"),
    (-1, "node ids must be dense 0..462, got -1"),
    (7, "node ids must be dense 0..462, 7 is repeated and 40 is missing")])
def test_a_bad_node_id_is_named(side15, tmp_path, capsys, nid, message):
    doc = cli.instance_to_dict(side15)
    assert len(doc["nodes"]) == 463
    doc["nodes"][40]["id"] = nid
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    err = rejected(["solve", str(bad)], capsys)
    assert err == message + "\n"
    assert len(err) < 200


@pytest.mark.parametrize("path, value, message", [
    (["nodes", 1, "cost"], float("inf"), "node 1 has non-finite cost inf"),
    (["sessions", 0, "rate"], float("inf"),
     "session s1 has non-finite rate inf"),
    (["sessions", 0, "rate"], 1e308,
     "iteration 1: recovered cost is inf"),
], ids=["inf-cost", "inf-rate", "rate-1e308"])
def test_solve_rejects_non_finite_numbers(relay3_path, tmp_path, capsys, path,
                                          value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_set(path, value)(json.load(open(relay3_path)))))
    for extra in ([], ["--distributed"]):
        err = rejected(["solve", str(bad)] + extra, capsys)
        assert message in err


def test_overflowing_costs_are_not_reported_unreachable(named, tmp_path,
                                                         capsys):
    # grid2 is connected, but at cost 1e308 every route sums to inf
    doc = cli.instance_to_dict(named["grid2"])
    for node in doc["nodes"]:
        node["cost"] = 1e308
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    for argv in (["solve"], ["solve", "--distributed"], ["baseline"]):
        err = rejected(argv[:1] + [str(bad)] + argv[1:], capsys)
        assert "too large for float arithmetic" in err
        assert "unreachable" not in err
    # each relay3 route costs 1e308, but the two together overflow
    doc = cli.instance_to_dict(named["relay3"])
    for node in doc["nodes"]:
        node["cost"] = 5e307
    bad.write_text(json.dumps(doc))
    assert "session s2: routing cost is too large" in rejected(
        ["baseline", str(bad)], capsys)


def _delete(path):
    def mutate(doc):
        rec = doc
        for key in path[:-1]:
            rec = rec[key]
        del rec[path[-1]]
        return doc
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(["sessions", 0, "source"], float("inf")),
     "malformed sessions[0]: cannot convert float infinity to integer"),
    (_set(["nodes", 2, "id"], float("nan")),
     "malformed nodes[2]: cannot convert float NaN to integer"),
    (_set(["edges", 1], [1, float("-inf")]),
     "malformed edges[1]: cannot convert float infinity to integer"),
    (_set(["edges", 0], [1]),
     "malformed edges[0]: not enough values to unpack"),
    (_set(["nodes"], 5), "malformed nodes: 'int' object is not iterable"),
    (_delete(["sessions", 1, "rate"]), "sessions[1] has no 'rate'"),
    (_delete(["edges"]), "instance document has no 'edges'"),
    (_set(["sessions", 0, "source"], 0.9),
     "malformed sessions[0]: node id 0.9 is not an integer"),
    (_set(["sessions", 1, "dest"], True),
     "malformed sessions[1]: node id True is not an integer"),
    (_set(["edges", 1], [1, 2.5]),
     "malformed edges[1]: node id 2.5 is not an integer"),
    (_set(["nodes", 0, "id"], "0"),
     "malformed nodes[0]: node id '0' is not an integer"),
    (_set(["sessions", 0, "rate"], True),
     "malformed sessions[0]: True is not a number"),
    (_set(["sessions", 1, "rate"], "inf"),
     "malformed sessions[1]: 'inf' is not a number"),
    (_set(["nodes", 1, "cost"], "1"),
     "malformed nodes[1]: '1' is not a number"),
    (_set(["nodes", 2, "pos"], [2, "0"]),
     "malformed nodes[2]: '0' is not a number"),
    (_set(["sessions", 1, "id"], None),
     "malformed sessions[1]: session id None is not a string or an integer"),
    (_set(["sessions", 0, "id"], ["s1"]),
     "malformed sessions[0]: session id ['s1'] is not a string or an "
     "integer"),
    (_set(["nodes"], {"a": 1}), "malformed nodes: 'dict' object is not a list"),
    (_set(["edges"], "01"), "malformed edges: 'str' object is not a list"),
    (_set(["sessions"], {}),
     "malformed sessions: 'dict' object is not a list"),
    (lambda doc: [], "instance must be a JSON object, got list"),
    (lambda doc: None, "instance must be a JSON object, got NoneType"),
    (lambda doc: 5, "instance must be a JSON object, got int"),
    (lambda doc: "x", "instance must be a JSON object, got str"),
], ids=["inf-source", "nan-id", "inf-endpoint", "short-edge", "int-nodes",
        "no-rate", "no-edges", "fraction-source", "bool-dest",
        "fraction-endpoint", "text-id", "bool-rate", "text-rate", "text-cost",
        "text-pos", "null-session-id", "list-session-id", "object-nodes",
        "text-edges", "object-sessions", "list-document", "null-document",
        "number-document", "text-document"])
def test_malformed_instance_names_the_element(relay3_path, tmp_path, capsys,
                                              mutate, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.load(open(relay3_path)))))
    for argv in (["solve", str(bad)], ["baseline", str(bad)]):
        assert message in rejected(argv, capsys)


@pytest.mark.parametrize("flag, value", [("--step-a", "inf"),
                                         ("--step-a", "nan"),
                                         ("--tol", "inf"), ("--tol", "nan")])
def test_solve_rejects_non_finite_flags(relay3_path, capsys, flag, value):
    name = flag[2:].replace("-", "_")
    for extra in ([], ["--distributed"]):
        err = rejected(["solve", relay3_path, flag, value] + extra, capsys)
        assert f"{name} must be finite and > 0, got {value}" in err


@pytest.mark.parametrize("side, message", [
    ("1e9", "side 1000000000.0 and intensity 1.0 give 1e+18 expected nodes"),
    ("inf", "side must be finite and > 0, got inf")])
def test_gen_rejects_a_side_too_large_to_draw(side, message, capsys):
    err = rejected(["gen", "-L", side, "--sessions", "2"], capsys)
    assert message in err


@pytest.mark.parametrize("flag, value, message", [
    ("--rate", "inf", "rate must be finite and > 0, got inf"),
    ("--cost", "inf", "cost must be finite and >= 0, got inf"),
    ("--cost", "nan", "cost must be finite and >= 0, got nan"),
    ("--seed", "-1", "seed must be >= 0, got -1")])
def test_gen_names_the_field_it_refuses(flag, value, message, capsys):
    err = rejected(["gen", "-L", "3", "--sessions", "0", flag, value], capsys)
    assert message in err


def test_solve_refuses_a_negative_schedule_seed(relay3_path, capsys):
    err = rejected(["solve", relay3_path, "--distributed", "--schedule",
                    "async", "--schedule-seed", "-1"], capsys)
    assert "seed must be >= 0, got -1" in err


# ---------------------------------------------------------------- logging

def test_log_env_var_controls_stderr(relay3_path):
    # The child must import the carpool under test, installed or not.
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(level):
        env = dict(os.environ, CARPOOL_LOG=level, PYTHONPATH=pythonpath)
        done = subprocess.run(
            [sys.executable, "-m", "carpool.cli", "solve", relay3_path],
            capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        return done
    noisy = run("debug")
    assert "INFO carpool: solving" in noisy.stderr
    info = run("info").stderr
    assert ("sub-problem kernel: C (" in info
            or "sub-problem kernel: python (" in info), info
    quiet = run("quiet")
    assert quiet.stderr == ""
    assert noisy.stdout == quiet.stdout
