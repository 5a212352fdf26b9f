"""CLI commands, file formats, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carpool import (Instance, Session, SolverConfig, cli, distributed,
                     model, plain_routing_cost, run_distributed_solve, solve,
                     solver)


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


def _json_bytes(doc):
    return (json.dumps(doc, indent=1) + "\n").encode()


@pytest.mark.parametrize("name", ["relay3", "grid2", "grid2rate", "geo4"])
def test_solution_file_is_json_dumps_of_the_document(named, name, tmp_path):
    inst = named[name]
    path = tmp_path / f"{name}.json"
    assert cli.main(["gen", "--builtin", name, "--out", str(path)]) == 0
    cfg = SolverConfig(tol=2e-2, max_iters=300)
    routing, _ = plain_routing_cost(inst)
    runs = [([], solve(inst, cfg)[0]),
            (["--distributed"], run_distributed_solve(inst, cfg)[0])]
    for extra, sol in runs:
        out = tmp_path / "sol.json"
        assert cli.main(["solve", str(path), "--tol", "2e-2", "--max-iters",
                         "300", "--out", str(out)] + extra) in (0, 2)
        doc = cli.solution_to_dict(inst, sol, routing)
        assert cli.dumps_solution(doc) == json.dumps(doc, indent=1)
        assert out.read_bytes() == _json_bytes(doc)


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


# -------------------------------------------------------------- baseline

def test_baseline_lists_routes(relay3_path, capsys):
    capsys.readouterr()
    assert cli.main(["baseline", relay3_path]) == 0
    assert capsys.readouterr().out == (
        "routing_cost=4\n"
        "s1: 0 -> 1 -> 2 (cost 2)\n"
        "s2: 2 -> 1 -> 0 (cost 2)\n")


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


def test_unwritable_outputs_are_named(tmp_path, relay3_path, capsys):
    missing = tmp_path / "missing"
    for argv, path in (
            (["gen", "--builtin", "relay3", "--out"], missing / "i.json"),
            (["solve", relay3_path, "--out"], missing / "s.json"),
            (["solve", relay3_path, "--trace"], missing / "t.csv")):
        assert rejected(argv + [str(path)], capsys) == \
            f"cannot write {path}: No such file or directory\n"
    assert not missing.exists()


def test_unwritable_outputs_fail_before_the_solve(tmp_path, relay3_path,
                                                  capsys, monkeypatch):
    calls = []

    def never(*args, **kw):
        calls.append(args)
        raise AssertionError("the solve ran before the outputs were checked")

    monkeypatch.setattr(cli, "solve", never)
    monkeypatch.setattr(cli, "run_distributed_solve", never)
    plain = tmp_path / "plain"
    plain.write_text("")
    for flag, path, reason in (
            ("--out", tmp_path / "missing" / "s.json",
             "No such file or directory"),
            ("--trace", tmp_path / "missing" / "t.csv",
             "No such file or directory"),
            ("--out", plain / "s.json", "Not a directory")):
        for extra in ([], ["--distributed"]):
            argv = ["solve", relay3_path, flag, str(path), *extra]
            assert rejected(argv, capsys) == \
                f"cannot write {path}: {reason}\n"
    assert calls == []


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
], ids=["no-flows", "list-document", "text-value", "nan-value", "inf-value",
        "null-y", "list-z", "short-triple", "fraction-in-triple",
        "text-in-triple", "bool-v", "fraction-node", "huge-y",
        "huge-cost", "bool-value", "bool-y", "text-z", "text-cost",
        "null-session-id", "fraction-session-id"])
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


def mutate_one_member(doc, data):
    """A copy of doc with one member anywhere replaced or deleted."""
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
        doc = data.draw(json_values)
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(json_values)
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
], ids=["inf-source", "nan-id", "inf-endpoint", "short-edge", "int-nodes",
        "no-rate", "no-edges", "fraction-source", "bool-dest",
        "fraction-endpoint", "text-id", "bool-rate", "text-rate", "text-cost",
        "text-pos", "null-session-id", "list-session-id"])
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
