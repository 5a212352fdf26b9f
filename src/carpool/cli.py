"""Command-line surface and file formats.

Commands: gen (write an instance), solve (certify a coded routing),
baseline (no-coding reference), check (independently re-verify a
solution file against its instance).  Exit codes: 0 success/certified,
1 bad input or infeasible session, 2 solve finished uncertified.

Instances and solutions are JSON with round-trip-exact floats; traces
are CSV with one row per iteration.  CARPOOL_LOG=quiet|info|debug
controls diagnostics on stderr.

The instance reader takes a document whose values all have their plain
JSON types in bulk, into columns: each of the ids, costs, positions,
edge ends and session fields is taken from the records with one type
scan, and no Node is built.  Instance.from_columns checks the values
themselves, once, and keeps the cost vector and the edge-end array
that the graph builds and the baseline read.  The reader reads record
by record, which builds a Node per record, only to name the first
record that cannot be read, or when only some nodes have a position.
The solution reader reads each column in bulk in the same way, and
record by record to name a fault.
"""

from __future__ import annotations

import argparse
import errno
import functools
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
                    edge_ends, enumerate_triples, ordered_pairs, total_cost,
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


def _flag(value) -> bool:
    """A JSON true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _count(value) -> int:
    """An integral number >= 0, read as a node id is read."""
    n = _node_id(value)
    if n < 0:
        raise ValueError(f"{value!r} is negative")
    return n


def _session_id(value) -> str:
    """A JSON string or integer as a session id."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"session id {value!r} is not a string or an "
                         f"integer")
    return str(value)


def _floats(values: list) -> np.ndarray | None:
    """values as a float array when each is a JSON number, read as _number
    reads it; None when one is not."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return np.array(values, dtype=float)
    if kinds <= {int, float}:
        return np.array(list(map(float, values)), dtype=float)
    return None


def _plain_instance(doc) -> Instance | None:
    """The instance of a document read in bulk, into columns: one type
    scan per column and no Node per record.  None when a record lacks a
    key or a value is not of its plain JSON type, or when only some nodes
    have a position, for the record loop to name the fault or read the
    records; a fault of the values themselves Instance raises."""
    try:
        nodes, edges, sessions = doc["nodes"], doc["edges"], doc["sessions"]
        if not type(nodes) is type(edges) is type(sessions) is list:
            return None
        ids = [r["id"] for r in nodes]
        cost = _floats([r["cost"] for r in nodes])
        pos = [r["pos"] for r in nodes if "pos" in r]
        coords = _floats(list(itertools.chain.from_iterable(pos)))
        ends = edge_ends(edges)
        sids = [r["id"] for r in sessions]
        src = [r["source"] for r in sessions]
        dst = [r["dest"] for r in sessions]
        rates = _floats([r["rate"] for r in sessions])
    except (KeyError, TypeError, OverflowError, InstanceError):
        return None
    if (cost is None or coords is None or rates is None
            or not set(map(type, ids)) <= {int}
            or not set(map(type, src + dst)) <= {int}
            or not set(map(type, sids)) <= {str}
            or len(pos) not in (0, len(nodes))
            or not set(map(type, pos)) <= {list}
            or not set(map(len, pos)) <= {2}):
        return None
    return Instance.from_columns(
        ids, cost, coords.reshape(-1, 2) if pos else None, ends,
        list(map(Session, sids, src, dst, rates.tolist())))


def instance_from_dict(doc) -> Instance:
    """The instance of a JSON document, validated.

    A document of plain values is read in bulk; otherwise each record is
    read in turn, and the first that cannot be read is named.
    """
    if not isinstance(doc, dict):
        raise InstanceError(f"instance must be a JSON object, got "
                            f"{type(doc).__name__}")
    inst = _plain_instance(doc)
    if inst is not None:
        return inst
    where = "instance document"

    def records(name: str):
        nonlocal where
        where = "instance document"
        recs = doc[name]
        where = name
        if not isinstance(recs, list):
            iter(recs)  # a number or null is "not iterable"
            raise TypeError(f"'{type(recs).__name__}' object is not a list")
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
    # bad UTF-8, deep nesting, or an integer of over 4,300 digits
    except (ValueError, RecursionError) as exc:
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
    """The solution document.  Only nonzero flows, y and z are stated:
    check reads an unstated one as 0.  The flows are the solution's
    entries, which are in (session, row) order."""
    idx = sol.summary.idx
    t, rows, values = sol.entries
    trips = np.stack((idx.v[rows], idx.mid[rows], idx.w[rows]), axis=1)
    recs = [{"triple": k, "value": x}
            for k, x in zip(trips.tolist(), values.tolist())]
    cuts = np.searchsorted(t, np.arange(len(inst.sessions) + 1)).tolist()
    sessions = [{"id": s.sid, "flows": recs[a:b]}
                for s, a, b in zip(inst.sessions, cuts, cuts[1:])]
    y = sol.summary.y
    stated = np.flatnonzero(y)
    ks = idx.pair_fwd[stated]
    pair_recs = [{"v": v, "mid": i, "w": w, "y": yk}
                 for v, i, w, yk in zip(idx.v[ks].tolist(),
                                        idx.mid[ks].tolist(),
                                        idx.w[ks].tolist(),
                                        y[stated].tolist())]
    z = sol.summary.z[:inst.n]
    nodes = np.nonzero(z)[0]
    node_recs = [{"node": i, "z": zi}
                 for i, zi in zip(nodes.tolist(), z[nodes].tolist())]
    return {
        "sessions": sessions,
        "pair_transmissions": pair_recs,
        "node_transmissions": node_recs,
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


def _column(recs: list, where: str, key: str, ids: int = 0) -> np.ndarray:
    """rec[key] of every record: floats when ids is 0, otherwise int64
    node ids, a single one per record when ids is 1 and a list of ids
    when it is more.  A bool or a string is refused, and so is a fraction
    as a node id."""
    shape = (ids,) if ids > 1 else ()
    dtype = np.int64 if ids else float
    try:
        raw = [rec[key] for rec in recs]
        flat = itertools.chain.from_iterable(raw) if shape else raw
        # numpy truncates fractions and reads bools and numeric strings,
        # so the bulk path takes only plain JSON numbers
        if set(map(type, flat)) <= ({int} if ids else {int, float}):
            out = np.array(raw, dtype=dtype)
            if out.shape == (len(recs),) + shape:
                return out
    except (KeyError, TypeError, ValueError, OverflowError):
        pass

    def node_ids(value) -> np.ndarray:
        out = np.array([_node_id(x) for x in value] if shape
                       else _node_id(value), dtype=np.int64)
        if out.shape != shape:
            raise ValueError(f"shape {out.shape}")
        return out

    convert, what = ((node_ids, "three node ids" if shape else "a node id")
                     if ids else (_number, "a number"))
    return np.array(_convert_each(recs, where, key, convert, what),
                    dtype=dtype).reshape((len(recs),) + shape)


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
        flows[sid] = (_column(ents, where, "triple", 3),
                      _column(ents, where, "value"))
    pairs = _records(doc, "pair_transmissions", "pair_transmissions")
    pair_ids = np.stack([_column(pairs, "pair_transmissions", key, 1)
                         for key in ("v", "mid", "w")], axis=1)
    y = _column(pairs, "pair_transmissions", "y")
    nodes = _records(doc, "node_transmissions", "node_transmissions")
    node_ids = _column(nodes, "node_transmissions", "node", 1)
    z = _column(nodes, "node_transmissions", "z")

    def stated(name: str, convert=_number, what: str = "a number"):
        """convert(doc[name]), or None when the file does not state it."""
        value = doc.get(name)
        try:
            return None if value is None else convert(value)
        except (TypeError, ValueError, OverflowError):
            raise SolutionError(f"{name}: {value!r} is not {what}") \
                from None
    # the run's own claims are read for their type only
    stated("gap")
    stated("certified", _flag, "true or false")
    stated("iterations", _count, "an integer >= 0")
    return SolutionDoc(flows, pair_ids, y, node_ids, z,
                       *map(stated, ("expanded_cost", "physical_cost",
                                     "routing_cost")))


def _compare_stated(problems: list[str], at: np.ndarray, stated: np.ndarray,
                    want: np.ndarray, sym: str, lead: str, stated_name,
                    entry_name, note: str = "") -> None:
    """Compare each stated value j with want[at[j]] on its own, where at[j]
    is -1 for a record that names no entry, and flag every nonzero entry
    that no record states: an unstated value reads as 0.  lead and the
    name of a record or an entry open its message; note ends a message
    whose stated value is below the recomputed one."""
    known = at >= 0
    given = np.zeros(len(stated))
    given[known] = want[at[known]]
    for j in np.nonzero(~known | (stated != given))[0].tolist():
        if not known[j]:
            problems.append(
                f"transmissions stated for unknown {stated_name(j)}")
        else:
            s, w = float(stated[j]), float(given[j])
            problems.append(f"{lead}{stated_name(j)}: stated {sym}={s!r}, "
                            f"flows give {w!r}{note if s < w else ''}")
    unstated = want.copy()
    unstated[at[known]] = 0.0
    for e in np.nonzero(unstated)[0].tolist():
        problems.append(f"{lead}{entry_name(e)}: no {sym} stated, flows "
                        f"give {float(unstated[e])!r}")


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
    counts = (f"nodes={inst.n} edges={len(inst.ends)} "
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
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(f"cannot write {path}: {os.strerror(code)}")
    out, trace = (path and os.path.realpath(path)
                  for path in (args.out, args.trace))
    if out and out == trace:
        raise ValueError(f"--out {args.out} and --trace {args.trace} name "
                         "the same file")
    if out or trace:
        instance = os.path.realpath(args.instance)
        for flag, path, real in (("--out", args.out, out),
                                 ("--trace", args.trace, trace)):
            if real == instance:
                raise ValueError(f"{flag} {path} names the instance file "
                                 f"{args.instance}")
    inst = load_instance(args.instance)
    log.info("solving %s: %d nodes, %d edges, %d sessions",
             args.instance, inst.n, len(inst.ends), len(inst.sessions))
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
    costs = inst.cost_vector.tolist()
    for s, path in zip(inst.sessions, paths):
        hops = " -> ".join(str(v) for v in path)
        pay = sum(costs[v] for v in path[:-1]) * s.rate
        print(f"{s.sid}: {hops} (cost {pay:.12g})")
    return 0


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
    flat = sessions * len(idx) + rows
    _, first_from_end = np.unique(flat[::-1], return_index=True)
    last = len(flat) - 1 - first_from_end
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
    fwd = idx.pair_fwd
    row_of = np.full(len(idx) + 1, -1)
    row_of[fwd] = np.arange(len(fwd))
    _compare_stated(
        problems, row_of[idx.rows(doc.pairs)], doc.y, summary.y, "y",
        "transmissions for ",
        lambda j: "pair (%d, %d, %d)" % tuple(doc.pairs[j]),
        lambda e: "pair (%d, %d, %d)" % (idx.v[fwd[e]], idx.pair_mid[e],
                                         idx.w[fwd[e]]),
        " (session flows through the pair exceed its y)")
    # z is stated for physical nodes only
    known = (doc.nodes >= 0) & (doc.nodes < g.n_base)
    _compare_stated(problems, np.where(known, doc.nodes, -1), doc.z,
                    summary.z[:g.n_base], "z", "",
                    lambda j: f"node {int(doc.nodes[j])}", "node {}".format)

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


@functools.cache  # one build per process; each parse gets a new namespace
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

    bl = sub.add_parser("baseline", help="plain per-session routing cost")
    bl.add_argument("instance")

    ck = sub.add_parser("check", help="re-verify a solution file")
    ck.add_argument("instance")
    ck.add_argument("solution")
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
    # looked up on every call: the parser is built once per process
    command = {"gen": cmd_gen, "solve": cmd_solve, "baseline": cmd_baseline,
               "check": cmd_check}[args.command]
    try:
        return command(args)
    except (InstanceError, InfeasibleSessionError, GenerationError,
            NonFiniteError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
