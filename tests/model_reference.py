"""Loop references for the array code in carpool.model.

These are the dictionary-and-loop forms of triple enumeration and the
conservation residual that the package computed before it moved to
arrays.  The tests require the array versions to reproduce them bit for
bit: same triple order, same reversal and pair tables, and residuals
whose sums run in the same (triple) order, so every float is equal, not
merely close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ReferenceTriples:
    triples: list[tuple[int, int, int]]
    index: dict[tuple[int, int, int], int]
    v: np.ndarray
    mid: np.ndarray
    w: np.ndarray
    rev: np.ndarray
    cost: np.ndarray
    pair_fwd: np.ndarray
    pair_rev: np.ndarray
    pair_cost: np.ndarray


def enumerate_triples_reference(g) -> ReferenceTriples:
    triples: list[tuple[int, int, int]] = []
    for i in range(g.n_nodes):
        nbrs = g.adj[i]
        if len(nbrs) < 2:
            continue
        for v in nbrs:
            for w in nbrs:
                if v == w:
                    continue
                if g.is_artificial(v) and g.is_artificial(w):
                    continue
                triples.append((v, i, w))
    index = {tr: k for k, tr in enumerate(triples)}
    varr = np.array([tr[0] for tr in triples], dtype=np.int64)
    marr = np.array([tr[1] for tr in triples], dtype=np.int64)
    warr = np.array([tr[2] for tr in triples], dtype=np.int64)
    rev = np.array([index[(tr[2], tr[1], tr[0])] for tr in triples],
                   dtype=np.int64)
    cost = g.costs[marr] if len(triples) else np.zeros(0)
    pair_fwd = np.nonzero(varr < warr)[0]
    pair_rev = rev[pair_fwd]
    pair_cost = cost[pair_fwd]
    return ReferenceTriples(triples, index, varr, marr, warr, rev, cost,
                            pair_fwd, pair_rev, pair_cost)


def ordered_pairs_reference(g) -> list[tuple[int, int]]:
    out = []
    for a, b in g.edges:
        out.append((a, b))
        out.append((b, a))
    out.sort()
    return out


def conservation_residual_reference(x, g, triples
                                    ) -> dict[tuple[int, int], float]:
    """Residual of one session's flow x at every ordered pair, by dicts.

    triples is the list of (v, i, w) that x.values is indexed by.
    """
    t = None
    for k, s in enumerate(g.base.sessions):
        if s.sid == x.session:
            t = k
            break
    if t is None:
        raise ValueError(f"unknown session {x.session!r}")
    sess = g.base.sessions[t]
    sp, dp = g.terminals[t]
    out_sum: dict[tuple[int, int], float] = {}
    in_sum: dict[tuple[int, int], float] = {}
    vals = x.values
    for k, (v, i, w) in enumerate(triples):
        if vals[k] == 0.0:
            continue
        out_sum[(v, i)] = out_sum.get((v, i), 0.0) + vals[k]
        in_sum[(i, w)] = in_sum.get((i, w), 0.0) + vals[k]
    res: dict[tuple[int, int], float] = {}
    for pair in ordered_pairs_reference(g):
        sigma = 0.0
        if pair == (sp, sess.source):
            sigma = sess.rate
        elif pair == (sess.dest, dp):
            sigma = -sess.rate
        res[pair] = out_sum.get(pair, 0.0) - in_sum.get(pair, 0.0) - sigma
    return res
