"""Command-line surface and file formats.

Commands: gen (write an instance), solve (certify a coded routing),
baseline (no-coding reference), check (independently re-verify a
solution file against its instance).  Exit codes: 0 success/certified,
1 bad input or infeasible session, 2 solve finished uncertified.

Instances and solutions are JSON with round-trip-exact floats; traces
are CSV with one row per iteration.  CARPOOL_LOG=quiet|info|debug
controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .distributed import SimSchedule, run_distributed_solve
from .instances import (GenerationError, GeometricConfig, builtin_instances,
                        generate_geometric, plain_routing_cost)
from .model import (InfeasibleSessionError, Instance, InstanceError, Node,
                    Session, build_expanded_graph, conservation_residual,
                    enumerate_triples, ordered_pairs, total_cost,
                    transmission_summary)
from .solver import NonFiniteError, SolverConfig, solve

log = logging.getLogger("carpool")

TRACE_HEADER = "iter,alpha,dual_bound,best_dual_bound,recovered_cost,rel_gap"


def instance_to_dict(inst: Instance) -> dict:
    nodes = []
    for nd in inst.nodes:
        rec: dict = {"id": nd.nid, "cost": nd.cost}
        if nd.pos is not None:
            rec["pos"] = [nd.pos[0], nd.pos[1]]
        nodes.append(rec)
    return {
        "nodes": nodes,
        "edges": [[a, b] for a, b in inst.edges],
        "sessions": [{"id": s.sid, "source": s.source, "dest": s.dest,
                      "rate": s.rate} for s in inst.sessions],
    }


def _node_id(value) -> int:
    """An integral number as a node id; a bool or a fraction is refused."""
    nid = int(value)
    if isinstance(value, bool) or nid != value:
        raise ValueError(f"node id {value!r} is not an integer")
    return nid


def _number(value) -> float:
    """A JSON number as a float; a bool or a string is refused."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _session_id(value) -> str:
    """A JSON string or integer as a session id."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"session id {value!r} is not a string or an "
                         f"integer")
    return str(value)


def instance_from_dict(doc: dict) -> Instance:
    where = "instance document"

    def records(name: str):
        nonlocal where
        where = "instance document"
        recs = doc[name]
        where = name
        for n, rec in enumerate(recs):
            where = f"{name}[{n}]"
            yield rec

    try:
        nodes = [Node(_node_id(r["id"]), _number(r["cost"]),
                      tuple(_number(x) for x in r["pos"]) if "pos" in r
                      else None)
                 for r in records("nodes")]
        edges = [(_node_id(a), _node_id(b)) for a, b in records("edges")]
        sessions = [Session(_session_id(r["id"]), _node_id(r["source"]),
                            _node_id(r["dest"]), _number(r["rate"]))
                    for r in records("sessions")]
    except KeyError as exc:
        raise InstanceError(f"{where} has no {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"malformed {where}: {exc}") from exc
    return Instance(nodes, edges, sessions)


def _read_json(path: str, error: type[ValueError]):
    """The JSON document in the UTF-8 file at path.  A failure to read or
    decode it raises error, with a message that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # deep nesting
        raise error(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    """Write text to the file at path; an OSError names the path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def load_instance(path: str) -> Instance:
    return instance_from_dict(_read_json(path, InstanceError))


def write_trace(path: str, trace) -> None:
    rows = zip(trace.iters, trace.alphas, trace.dual_bounds,
               trace.best_bounds, trace.recovered_costs, trace.rel_gaps)
    _write_text(path, TRACE_HEADER + "\n" + "".join(
        "%d,%.12g,%.12g,%.12g,%.12g,%.12g\n" % row for row in rows))


def solution_to_dict(inst: Instance, sol, routing_cost: float) -> dict:
    idx = sol.summary.idx
    v, mid, w = idx.v.tolist(), idx.mid.tolist(), idx.w.tolist()
    sessions = []
    for f in sol.flows:
        ks = np.nonzero(f.values)[0]
        entries = [{"triple": [v[k], mid[k], w[k]], "value": x}
                   for k, x in zip(ks.tolist(), f.values[ks].tolist())]
        sessions.append({"id": f.session, "flows": entries})
    pairs = [{"v": v[k], "mid": mid[k], "w": w[k], "y": y}
             for k, y in zip(idx.pair_fwd.tolist(), sol.summary.y.tolist())]
    z = [{"node": i, "z": zi}
         for i, zi in enumerate(sol.summary.z[:inst.n].tolist())]
    return {
        "sessions": sessions,
        "pair_transmissions": pairs,
        "node_transmissions": z,
        "expanded_cost": sol.expanded_cost,
        "physical_cost": sol.physical_cost,
        "routing_cost": routing_cost,
        "gap": sol.gap,
        "certified": sol.certified,
        "iterations": sol.iterations,
    }


# json.dumps(doc, indent=1) of each record kind of a solution document, at
# the depth solution_to_dict puts it: node ids are ints, and "%s" takes
# json's text of a float.
_FLOW_ENTRY = ('    {\n     "triple": [\n      %d,\n      %d,\n      %d\n'
               '     ],\n     "value": %s\n    }')
_SESSION = '  {\n   "id": %s,\n   "flows": %s\n  }'
_PAIR = '  {\n   "v": %d,\n   "mid": %d,\n   "w": %d,\n   "y": %s\n  }'
_NODE = '  {\n   "node": %d,\n   "z": %s\n  }'


def _texts(values: list) -> list[str]:
    """json's text of each number, from one call of the C encoder.

    json.dumps without indent runs the C encoder, which renders floats
    (repr, NaN, Infinity) exactly as the pure-Python one does.
    """
    return json.dumps(values)[1:-1].split(", ") if values else []


def _json_list(body: str, indent: str) -> str:
    return f"[\n{body}\n{indent}]" if body else "[]"


def _sessions_text(recs: list) -> str:
    out = []
    for rec in recs:
        ents = rec["flows"]
        values = _texts([e["value"] for e in ents])
        body = ",\n".join([_FLOW_ENTRY % (*e["triple"], x)
                           for e, x in zip(ents, values)])
        out.append(_SESSION % (json.dumps(rec["id"]),
                               _json_list(body, "   ")))
    return ",\n".join(out)


def _pairs_text(recs: list) -> str:
    ys = _texts([r["y"] for r in recs])
    return ",\n".join([_PAIR % (r["v"], r["mid"], r["w"], y)
                       for r, y in zip(recs, ys)])


def _nodes_text(recs: list) -> str:
    zs = _texts([r["z"] for r in recs])
    return ",\n".join([_NODE % (r["node"], z) for r, z in zip(recs, zs)])


_RECORD_LISTS = {"sessions": _sessions_text,
                 "pair_transmissions": _pairs_text,
                 "node_transmissions": _nodes_text}


def dumps_solution(doc: dict) -> str:
    """json.dumps(doc, indent=1) of a solution_to_dict document, byte for
    byte, without json's pure-Python encoder (indent turns the C one off).
    """
    parts = []
    for key, value in doc.items():
        if key in _RECORD_LISTS:
            text = _json_list(_RECORD_LISTS[key](value), " ")
        else:
            text = json.dumps(value, indent=1).replace("\n", "\n ")
        parts.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


class SolutionError(ValueError):
    """Malformed solution data; the message names the offending element."""


@dataclass
class SolutionDoc:
    """A solution file's claims, as arrays.

    flows maps a session id to its (m, 3) triples and m values, in file
    order.  A cost the file does not state is None.
    """

    flows: dict[str, tuple[np.ndarray, np.ndarray]]
    pairs: np.ndarray        # (m, 3): v, mid, w of each stated y
    y: np.ndarray
    nodes: np.ndarray
    z: np.ndarray
    expanded_cost: float | None
    physical_cost: float | None
    routing_cost: float | None


def _records(doc: dict, name: str, where: str) -> list:
    recs = doc.get(name, [])
    if not isinstance(recs, list):
        raise SolutionError(f"{where} must be a list, got "
                            f"{type(recs).__name__}")
    return recs


def _convert_each(recs: list, where: str, key: str, convert,
                  what: str) -> list:
    """convert(rec[key]) of every record; SolutionError names a bad one."""
    out = []
    for n, rec in enumerate(recs):
        if not isinstance(rec, dict):
            raise SolutionError(f"{where}[{n}] must be an object, got "
                                f"{type(rec).__name__}")
        if key not in rec:
            raise SolutionError(f"{where}[{n}] has no {key!r}")
        try:
            out.append(convert(rec[key]))
        except (TypeError, ValueError, OverflowError):
            raise SolutionError(f"{where}[{n}] {key}: {rec[key]!r} is not "
                                f"{what}") from None
    return out


def _numbers(recs: list, where: str, key: str) -> np.ndarray:
    """rec[key] of every record as floats; a bool or a string is refused."""
    try:
        raw = [rec[key] for rec in recs]
        # numpy reads bools and numeric strings, so the fast path takes
        # only plain JSON numbers
        if set(map(type, raw)) <= {int, float}:
            return np.array(raw, dtype=float)
    except (KeyError, TypeError, OverflowError):
        pass
    return np.array(_convert_each(recs, where, key, _number, "a number"),
                    dtype=float)


def _node_ids(recs: list, where: str, key: str,
              shape: tuple[int, ...] = ()) -> np.ndarray:
    """rec[key] of every record as int64 node ids of the given shape."""
    full = (len(recs),) + shape
    try:
        raw = [rec[key] for rec in recs]
        ids = np.array(raw, dtype=np.int64)
        # numpy truncates fractions and reads bools and digit strings, so
        # the fast path takes only plain JSON integers
        flat = itertools.chain.from_iterable(raw) if shape else raw
        if ids.shape == full and set(map(type, flat)) <= {int}:
            return ids
    except (KeyError, TypeError, ValueError, OverflowError):
        pass

    def convert(value) -> np.ndarray:
        ids = np.array([_node_id(x) for x in value] if shape
                       else _node_id(value), dtype=np.int64)
        if ids.shape != shape:
            raise ValueError(f"shape {ids.shape}")
        return ids

    return np.array(_convert_each(recs, where, key, convert,
                                  "three node ids" if shape else "a node id"),
                    dtype=np.int64).reshape(full)


def solution_from_dict(doc) -> SolutionDoc:
    """Parse a solution document; raise SolutionError naming what is bad."""
    if not isinstance(doc, dict):
        raise SolutionError(f"solution must be a JSON object, got "
                            f"{type(doc).__name__}")
    flows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for n, rec in enumerate(_records(doc, "sessions", "sessions")):
        if not isinstance(rec, dict):
            raise SolutionError(f"sessions[{n}] must be an object, got "
                                f"{type(rec).__name__}")
        if "id" not in rec:
            raise SolutionError(f"sessions[{n}] has no 'id'")
        try:
            sid = _session_id(rec["id"])
        except ValueError as exc:
            raise SolutionError(f"sessions[{n}]: {exc}") from None
        if sid in flows:
            raise SolutionError(f"sessions[{n}]: duplicate session id "
                                f"{sid!r}")
        if "flows" not in rec:
            raise SolutionError(f"session {sid}: record has no 'flows'")
        where = f"session {sid} flows"
        ents = _records(rec, "flows", where)
        flows[sid] = (_node_ids(ents, where, "triple", (3,)),
                      _numbers(ents, where, "value"))
    pairs = _records(doc, "pair_transmissions", "pair_transmissions")
    pair_ids = np.stack([_node_ids(pairs, "pair_transmissions", key)
                         for key in ("v", "mid", "w")], axis=1)
    y = _numbers(pairs, "pair_transmissions", "y")
    nodes = _records(doc, "node_transmissions", "node_transmissions")
    node_ids = _node_ids(nodes, "node_transmissions", "node")
    z = _numbers(nodes, "node_transmissions", "z")
    costs = []
    for name in ("expanded_cost", "physical_cost", "routing_cost"):
        value = doc.get(name)
        try:
            costs.append(None if value is None else _number(value))
        except (TypeError, ValueError, OverflowError):
            raise SolutionError(f"{name}: {value!r} is not a number") \
                from None
    return SolutionDoc(flows, pair_ids, y, node_ids, z, *costs)


def cmd_gen(args) -> int:
    if args.builtin:
        named = builtin_instances()
        if args.builtin not in named:
            print(f"unknown builtin {args.builtin!r}; have "
                  f"{', '.join(sorted(named))}", file=sys.stderr)
            return 1
        inst = named[args.builtin]
    else:
        try:
            inst = generate_geometric(GeometricConfig(
                side=args.L, sessions=args.sessions, rate=args.rate,
                cost=args.cost, seed=args.seed))
        except GenerationError as exc:
            print(f"generation failed: {exc}", file=sys.stderr)
            return 1
    doc = json.dumps(instance_to_dict(inst), indent=1)
    counts = (f"nodes={len(inst.nodes)} edges={len(inst.edges)} "
              f"sessions={len(inst.sessions)}")
    if args.out:
        _write_text(args.out, doc + "\n")
        print(counts)
    else:
        print(doc)
        print(counts, file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    # fail now, as _write_text would after the solve
    for path in filter(None, (args.trace, args.out)):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(f"cannot write {path}: {os.strerror(code)}")
    inst = load_instance(args.instance)
    log.info("solving %s: %d nodes, %d edges, %d sessions",
             args.instance, len(inst.nodes), len(inst.edges),
             len(inst.sessions))
    cfg = SolverConfig(step_a=args.step_a, tol=args.tol,
                       max_iters=args.max_iters)
    stats = None
    if args.distributed:
        schedule = SimSchedule(mode=args.schedule, seed=args.schedule_seed)
        sol, trace, stats = run_distributed_solve(inst, cfg, schedule)
    else:
        sol, trace = solve(inst, cfg)
    routing, _ = plain_routing_cost(inst)
    if args.trace:
        write_trace(args.trace, trace)
    if args.out:
        _write_text(args.out,
                   dumps_solution(solution_to_dict(inst, sol, routing)) + "\n")
    saving = 100.0 * (routing - sol.physical_cost) / routing if routing else 0.0
    status = "certified" if sol.certified else "uncertified"
    print(f"physical_cost={sol.physical_cost:.12g} "
          f"routing_cost={routing:.12g} savings={saving:.1f}% "
          f"gap={sol.gap:.3g} iterations={sol.iterations} {status}")
    if stats is not None:
        print(f"messages: label={stats.label_messages} "
              f"flow={stats.flow_messages} rounds={stats.rounds} "
              f"bytes~{stats.bytes_estimate}")
    return 0 if sol.certified else 2


def cmd_baseline(args) -> int:
    inst = load_instance(args.instance)
    cost, paths = plain_routing_cost(inst)
    print(f"routing_cost={cost:.12g}")
    for s, path in zip(inst.sessions, paths):
        hops = " -> ".join(str(v) for v in path)
        pay = sum(inst.nodes[v].cost for v in path[:-1]) * s.rate
        print(f"{s.sid}: {hops} (cost {pay:.12g})")
    return 0


def _last_of_each(rows: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each distinct value in rows."""
    _, first_from_end = np.unique(rows[::-1], return_index=True)
    return len(rows) - 1 - first_from_end


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    doc = solution_from_dict(_read_json(args.solution, SolutionError))
    g = build_expanded_graph(inst)
    idx = enumerate_triples(g)
    problems: list[str] = []

    by_id = {s.sid for s in inst.sessions}
    if set(doc.flows) != by_id:
        print(f"session sets differ: instance has {sorted(by_id)}, "
              f"solution has {sorted(doc.flows)}", file=sys.stderr)
        return 1
    # every entry, in instance session order and then file order
    sids = [s.sid for s in inst.sessions]
    parts = [doc.flows[sid] for sid in sids]
    sessions = np.repeat(np.arange(len(parts)), [len(v) for _, v in parts])
    trips = np.concatenate([np.empty((0, 3), np.int64)]
                           + [trips for trips, _ in parts])
    vals = np.concatenate([np.empty(0)] + [vals for _, vals in parts])
    rows = idx.rows(trips)
    if (rows < 0).any():
        j = int(np.argmax(rows < 0))
        print(f"session {sids[sessions[j]]}: unknown triple "
              f"{tuple(trips[j].tolist())}", file=sys.stderr)
        return 1
    bad = ~(vals >= 0) | np.isinf(vals)
    for j in np.nonzero(bad)[0]:
        where = f"session {sids[sessions[j]]}"
        key = tuple(trips[j].tolist())
        val = float(vals[j])
        if val < 0:
            problems.append(f"{where}: negative flow on {key}")
        else:
            problems.append(f"{where}: non-finite flow {val!r} on {key}")
    # a later entry for the same (session, triple) overrides an earlier
    # one; the survivors come sorted by (session, triple)
    last = _last_of_each(sessions * len(idx) + rows)
    sessions, rows = sessions[last], rows[last]
    vals = np.where(bad, 0.0, vals)[last]

    res = conservation_residual(sessions, rows, vals, g, idx)
    bad_rows, bad_pairs = np.nonzero(~(np.abs(res) <= 1e-9))
    if len(bad_pairs):
        pairs = ordered_pairs(g)
        for t, e in zip(bad_rows.tolist(), bad_pairs.tolist()):
            problems.append(
                f"session {sids[t]}: conservation violated at pair "
                f"{pairs[e]}: residual {res[t, e]:.3g}")

    agg = np.bincount(rows, weights=vals, minlength=len(idx))
    summary = transmission_summary(agg, g, idx)
    # pair row of each triple row; row -1, an unknown triple, maps to -1
    row_of = np.full(len(idx) + 1, -1)
    row_of[idx.pair_fwd] = np.arange(len(idx.pair_fwd))
    stated_rows = row_of[idx.rows(doc.pairs)]
    known = stated_rows >= 0
    stated_rows, stated_y = stated_rows[known], doc.y[known]
    last = _last_of_each(stated_rows)
    got = np.zeros(len(idx.pair_fwd))
    got[stated_rows[last]] = stated_y[last]
    for row in np.nonzero(got != summary.y)[0].tolist():
        kf = int(idx.pair_fwd[row])
        key = (int(idx.v[kf]), int(idx.mid[kf]), int(idx.w[kf]))
        want, stated = float(summary.y[row]), float(got[row])
        note = " (session flows through the pair exceed its y)" \
            if stated < want else ""
        problems.append(f"transmissions for pair {key}: stated "
                        f"y={stated!r}, flows give {want!r}{note}")
    unknown = dict.fromkeys(map(tuple, doc.pairs[~known].tolist()))
    for key in unknown:
        problems.append(f"transmissions stated for unknown pair {key}")
    # z is stated for physical nodes only; an unstated one reads as 0
    known = (doc.nodes >= 0) & (doc.nodes < g.n_base)
    want_z = np.zeros(len(doc.nodes))
    want_z[known] = summary.z[doc.nodes[known]]
    for j in np.nonzero(~known | (doc.z != want_z))[0].tolist():
        i = int(doc.nodes[j])
        if not known[j]:
            problems.append(f"transmissions stated for unknown node {i}")
        else:
            problems.append(f"node {i}: stated z={float(doc.z[j])!r}, "
                            f"flows give {float(want_z[j])!r}")
    unstated = summary.z[:g.n_base].copy()
    unstated[doc.nodes[known]] = 0.0
    for i in np.nonzero(unstated)[0].tolist():
        problems.append(f"node {i}: no z stated, flows give "
                        f"{float(unstated[i])!r}")

    expanded, physical = total_cost(summary, g)
    for name, stated, want in (("expanded_cost", doc.expanded_cost, expanded),
                               ("physical_cost", doc.physical_cost, physical)):
        if stated is None or not abs(stated - want) <= 1e-9:
            problems.append(f"{name}: stated {stated!r}, flows give {want!r}")
    if doc.routing_cost is not None:
        routing, _ = plain_routing_cost(inst)
        if not abs(doc.routing_cost - routing) <= 1e-9:
            problems.append(f"routing_cost: stated {doc.routing_cost!r}, "
                            f"recomputed {routing!r}")

    log.debug("check: %d sessions, worst problems: %d, expanded %s",
              len(inst.sessions), len(problems), doc.expanded_cost)
    for msg in problems:
        print(msg, file=sys.stderr)
    if problems:
        return 1
    print("solution checks out: conservation, transmissions, costs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carpool",
        description="coded multi-unicast routing: generate, solve, verify")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a random or builtin instance")
    gen.add_argument("-L", type=float, default=6.0, help="square side")
    gen.add_argument("--sessions", type=int, default=4)
    gen.add_argument("--rate", type=float, default=1.0)
    gen.add_argument("--cost", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--builtin", help="named instance instead of random")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(func=cmd_gen)

    sv = sub.add_parser("solve", help="run the certified coded solver")
    sv.add_argument("instance")
    sv.add_argument("--tol", type=float, default=1e-2)
    sv.add_argument("--max-iters", type=int, default=5000)
    sv.add_argument("--step-a", type=float, default=1.0)
    sv.add_argument("--trace", help="per-iteration CSV path")
    sv.add_argument("--out", help="solution JSON path")
    sv.add_argument("--distributed", action="store_true",
                    help="solve by neighbour-only message passing")
    sv.add_argument("--schedule", choices=["sync", "async"], default="sync")
    sv.add_argument("--schedule-seed", type=int, default=0)
    sv.set_defaults(func=cmd_solve)

    bl = sub.add_parser("baseline", help="plain per-session routing cost")
    bl.add_argument("instance")
    bl.set_defaults(func=cmd_baseline)

    ck = sub.add_parser("check", help="re-verify a solution file")
    ck.add_argument("instance")
    ck.add_argument("solution")
    ck.set_defaults(func=cmd_check)
    return ap


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
                 os.environ.get("CARPOOL_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, InfeasibleSessionError, GenerationError,
            NonFiniteError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
