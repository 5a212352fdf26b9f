/* The two compiled parts of a round of price ascent (carpool.solver):
 * carpool_routes, the priced shortest route of every session, and
 * carpool_round, which closes the round that follows it: the dual
 * bound, the recovery, the transmission summary, the price step, the
 * gap, the trace row and the stop test.  Each runs in one call.
 *
 * carpool_routes
 *
 * The arcs leaving vertex u are k = lo[u] .. hi[u] - 1, and arc k
 * (0 <= k < m) runs to heads[k] at weight w[k].  The ranges need not be
 * in vertex order, and may be empty or overlap.
 * Labels follow carpool.edge_graph._routes exactly: pop order
 * (dist, hops, vertex); a label is replaced on a strictly smaller
 * distance, or an equal distance with fewer hops; on an equal (dist,
 * hops) the smaller predecessor vertex wins (an offer has at least one
 * hop, so no tie reaches the source or an unreached vertex, which have
 * none), so of two parallel arcs that tie the first keeps the label;
 * the search stops when it pops the destination, and a route is read
 * back through the arc that set each label.  Sums are
 * plain IEEE double additions, so the build must not contract or
 * reorder them (no -ffast-math, -ffp-contract=off).
 *
 * The queue is an implicit 4-ary heap of keys (D. B. Johnson, Inf.
 * Process. Lett. 4, 1975), half as deep as a binary one.  A key is two
 * words compared as one unsigned 128-bit number, or word by word where
 * the compiler has no such type, without a branch either way: the bit
 * pattern of dist, then hops << 32 | vertex.  Its order is the pop order
 * (dist, hops, vertex), because a finite double >= +0.0 orders by its
 * bits exactly as by value, and no distance is -0.0, NaN or infinite:
 * +0.0 + -0.0 is +0.0, and a NaN or infinite offer never beats a label.
 * No two pushes share a key, as a vertex is pushed again only on a
 * strictly smaller (dist, hops), so any correct queue pops in the same
 * order.  A pop moves the hole at the root down along the smallest child
 * to a leaf and fills it with the last key from there (I. Wegener,
 * Theor. Comput. Sci. 118, 1993).  The heap has room for sum(hi - lo)
 * + 1 keys: each vertex is settled once and relaxes its range once, so a
 * session pushes at most once per range entry, plus its source.  The
 * labels of a session are one 16-byte record per vertex, in a buffer of
 * the call's own, so that a pop and a relaxation read one cache line per
 * vertex.
 *
 * The counts and arrays of one graph and its sessions are one
 * search_state, which carpool.edge_graph.RouteSearch binds once, so a
 * call passes one pointer; the ranges and the weights are still checked
 * on every call.  carpool.edge_graph._routes is this function in Python
 * on the same state, filling the same buffers with the same status
 * codes.
 *
 * Session t searches from src[t] to dst[t], both in 0 .. nv - 1 (which
 * RouteSearch checks once), and stops when it pops dst[t].  Its distance
 * goes to qdist[t] and its arcs, source first, to rows[start[t]] ..
 * rows[start[t + 1] - 1]; an unreached destination has distance infinity
 * and no arcs.
 *
 * It returns 0, or -1 when memory runs out, -2 when a weight is negative
 * (below -0.0: a distance below +0.0 does not order by its bits) or the
 * pushes outgrow the heap, -3 when the paths need more than cap rows,
 * -4 on a broken predecessor chain, -5 when lo[u] < 0, lo[u] > hi[u],
 * hi[u] > m or a head is out of range, or nv or m is 2^31 or more (hops
 * and the vertex must fit 32 bits each).
 *
 * carpool_round
 *
 * Round n of the loop, whose step size is alpha, routed session t at
 * rate rates[t] and distance qdist[t] along the triple rows
 * rows[start[t]] .. rows[start[t + 1] - 1], each (session, row) at most
 * once; one call closes the round.  carpool.solver._round is this
 * function in numpy, with the same status codes, on the same buffers
 * but keys and bins, and it makes the same IEEE operations in the same
 * order, so both leave the same bits in every other buffer:
 *   - it sets q, the round's dual bound, to the sum of rates[t] *
 *     qdist[t], added from +0.0 in session order, and raises best to q
 *     when q is larger;
 *   - it adds each rate into sums[t * nt + row], in (session, route)
 *     order, and merges the keys t * nt + row of the sums that were
 *     +-0.0 into keys[0 .. nkeys - 1], sorted, and their rows into bins,
 *     so that no key is divided by nt;
 *   - it sets work[row], the recovered flow per triple, to the sum of
 *     sums[key] / n over the keys of that row in key order, that is in
 *     session order, added from +0.0; _round, which keeps no keys, adds
 *     every session's sums[t * nt + row] / n, and each term it adds
 *     beyond the keys is +0.0, which moves no sum;
 *   - it sets y[k] to the larger of work[fwd[k]] and work[rev[k]] and
 *     adds it into z[mid[k]], from +0.0, in pair order;
 *   - it sets expanded, the summary's expanded cost, to the sum of
 *     ncost[k] * z[k], added from +0.0 in node order, as
 *     carpool.model.total_cost adds it, so that no bit depends on the
 *     BLAS kernel that np.dot would pick by CPU;
 *   - it sets work[row] to the round's flow per triple, each rate added
 *     from +0.0 in (session, route) order, and steps the prices in
 *     place: x = p[fwd[k]] + 0.5 * alpha * (work[fwd[k]] -
 *     work[rev[k]]), clamped to [0, cost[k]], is the new p[fwd[k]] and
 *     cost[k] - x the new p[rev[k]].  Once a pair's flows are read,
 *     work[fwd[k]] and work[rev[k]] keep its prices from before the
 *     step, the ones the round was routed at; each row is in one pair
 *     at most;
 *   - it sets gap = (expanded - best) / (best > 1 ? best : 1) and
 *     writes the row (alpha, q, best, expanded, gap) of the trace at
 *     trace[5 * ntrace], then counts it in ntrace;
 *   - when gap <= tol, the round certifies: it puts the routed prices
 *     back from work into p, pair by pair, and returns 1.
 * The larger and smaller of two doubles are taken as np.maximum and
 * np.minimum take them: a NaN first operand, else a NaN second one,
 * else the second on a tie, so max(-0.0, +0.0) is +0.0, as numpy's
 * x86-64 loops take it (numpy 2.4, AVX-512); numpy documents no rule
 * for that tie.  No solve makes it: an instance turns a node cost of
 * -0.0 into +0.0, and then no flow, cost or price is -0.0.  Of two NaNs
 * of different payloads, an addition keeps the one the compiled code does;
 * numpy keeps the first operand's in its vector loop and the second's
 * in the tail of some arrays, so no order matches it everywhere.
 *
 * The fixed arrays and counts of a solve are one round_state, bound
 * once; a round passes n and alpha.  The routes are start[ns] rows of
 * the nrows that rows holds.  qdist, start and rows are the route
 * call's own buffers, the route search's under solve() and the
 * simulator's under the twin, bound again only when the call returns
 * other arrays, so no route is copied between the two calls.  keys and
 * bins have room for cap entries, and nkeys of them are in use; the
 * trace has room for tcap rows, and ntrace of them are written.
 * It returns 1 when the round certifies, 0 when it does not, or
 *   -1 when memory runs out;
 *   -3 when the merged keys would not fit cap or the trace is full,
 *      which the caller mends by growing them and calling again (_round
 *      only on a full trace);
 *   -5 when start[0] is not 0, start falls, start[ns] exceeds nrows or
 *      a row is out of range;
 *   -6 when q is not finite, which it leaves in the frame;
 *   -7 when expanded is not finite, after the price step and with no
 *      trace row written.
 * -5 comes before q is summed; on -1, -3 and -6 only q has changed.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    uint64_t hi, lo; /* the bits of dist, then hops << 32 | vertex */
} key;

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

static int less(key a, key b)
{
    return ((u128)a.hi << 64 | a.lo) < ((u128)b.hi << 64 | b.lo);
}
#else
static int less(key a, key b)
{
    return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
}
#endif

/* Sifts k up from the hole at heap[i] and puts it where it stops. */
static void sift_up(key *heap, int64_t i, key k)
{
    while (i > 0 && less(k, heap[(i - 1) / 4])) {
        heap[i] = heap[(i - 1) / 4];
        i = (i - 1) / 4;
    }
    heap[i] = k;
}

/* Takes the smallest of the n >= 1 keys in heap: the hole at the root
   moves down along the smallest child to a leaf, and the last key fills
   it from there.  The children of heap[i] are heap[4 * i + 1] to
   heap[4 * i + 4]; the last group may have fewer than four. */
static key take(key *heap, int64_t n)
{
    key top = heap[0];
    int64_t i = 0, c = 1;
    n--;
    for (; c + 3 < n; c = 4 * c + 1) {
        int64_t a = c + less(heap[c + 1], heap[c]);
        int64_t b = c + 2 + less(heap[c + 3], heap[c + 2]);
        c = less(heap[b], heap[a]) ? b : a;
        heap[i] = heap[c];
        i = c;
    }
    if (c < n) {
        for (int64_t k = c + 1; k < n; k++)
            c = less(heap[k], heap[c]) ? k : c;
        heap[i] = heap[c];
        i = c;
    }
    sift_up(heap, i, heap[n]);
    return top;
}

static uint64_t bits(double d)
{
    uint64_t u;
    memcpy(&u, &d, sizeof u);
    return u;
}

static double value(uint64_t u)
{
    double d;
    memcpy(&d, &u, sizeof d);
    return d;
}

typedef struct {
    int64_t nv, m, ns, cap;   /* vertices, arcs, sessions, route rows */
    const int64_t *lo, *hi;   /* nv */
    const int64_t *heads;     /* m */
    const double *w;          /* m */
    const int64_t *src, *dst; /* ns */
    double *qdist;            /* ns */
    int64_t *start, *rows;    /* ns + 1, cap */
} search_state;

typedef struct {
    double dist;
    int32_t hops, pred; /* < 2^31, as nv is */
} label;

int64_t carpool_routes(const search_state *r)
{
    const int64_t nv = r->nv, m = r->m, ns = r->ns, cap = r->cap;
    const int64_t *lo = r->lo, *hi = r->hi, *heads = r->heads;
    const double *w = r->w;
    int64_t *start = r->start;
    const int64_t limit = (int64_t)1 << 31;
    int64_t used = 0, status = 0, in_ranges = 0, *via;
    key *heap;
    label *lab;
    if (nv >= limit || m >= limit)
        return -5;
    for (int64_t u = 0; u < nv; u++) {
        if (lo[u] < 0 || lo[u] > hi[u] || hi[u] > m)
            return -5;
        in_ranges += hi[u] - lo[u];
    }
    for (int64_t k = 0; k < m; k++)
        if (heads[k] < 0 || heads[k] >= nv)
            return -5;
    for (int64_t k = 0; k < m; k++)
        if (w[k] < 0.0)
            return -2;
    heap = (uint64_t)in_ranges < SIZE_MAX / sizeof *heap
           ? malloc((in_ranges + 1) * sizeof *heap) : NULL;
    via = malloc((nv + 1) * sizeof *via);
    lab = malloc((nv + 1) * sizeof *lab);
    if (!heap || !via || !lab) {
        status = -1;
        goto done;
    }
    start[0] = 0;
    for (int64_t t = 0; t < ns; t++) {
        int64_t s = r->src[t], stop = r->dst[t], size = 1;
        for (int64_t x = 0; x < nv; x++) {
            lab[x].dist = INFINITY;
            lab[x].hops = 0;
            lab[x].pred = -1;
        }
        lab[s].dist = 0.0;
        heap[0].hi = 0;
        heap[0].lo = (uint64_t)s;
        while (size) {
            key top = take(heap, size--);
            double d = value(top.hi);
            int64_t h = (int64_t)(top.lo >> 32);
            int64_t u = (int64_t)(top.lo & 0xffffffffu);
            if (d != lab[u].dist || h != lab[u].hops)
                continue;
            if (u == stop)
                break;
            for (int64_t k = lo[u]; k < hi[u]; k++) {
                int64_t x = heads[k], nh = h + 1;
                double nd = d + w[k];
                label *to = &lab[x];
                if (nd < to->dist || (nd == to->dist && nh < to->hops)) {
                    if (size > in_ranges) {
                        status = -2;
                        goto done;
                    }
                    to->dist = nd;
                    to->hops = (int32_t)nh;
                    to->pred = (int32_t)u;
                    via[x] = k;
                    key next = {bits(nd), (uint64_t)nh << 32 | (uint64_t)x};
                    sift_up(heap, size++, next);
                } else if (nd == to->dist && nh == to->hops && u < to->pred) {
                    to->pred = (int32_t)u;
                    via[x] = k;
                }
            }
        }
        r->qdist[t] = lab[stop].dist;
        if (lab[stop].dist != INFINITY) {
            int64_t len = lab[stop].hops, x = stop;
            if (len > cap - used) {
                status = -3;
                goto done;
            }
            for (int64_t i = used + len - 1; i >= used && x >= 0; i--) {
                r->rows[i] = via[x];
                x = lab[x].pred;
            }
            if (x != s) {
                status = -4;
                goto done;
            }
            used += len;
        }
        start[t + 1] = used;
    }
done:
    free(heap);
    free(via);
    free(lab);
    return status;
}

typedef struct {
    int64_t ns, nt, npairs, nn;  /* sessions, triples, pairs, nodes */
    const double *rates;         /* ns */
    const double *qdist;         /* ns: the routes' distances */
    const int64_t *start;        /* ns + 1 */
    const int64_t *rows;         /* nrows: the round's rows and room */
    int64_t nrows;
    double *sums;                /* ns * nt */
    int64_t *keys, *bins;        /* cap */
    int64_t nkeys, cap;
    const int64_t *fwd, *rev, *mid;  /* npairs */
    const double *cost;          /* npairs */
    double *y;                   /* npairs */
    double *z;                   /* nn */
    double *p, *work;            /* nt */
    const double *ncost;         /* nn */
    double *trace;               /* 5 * tcap: a row per round */
    int64_t ntrace, tcap;
    double tol;
    double best;                 /* the largest dual bound so far */
    double q, expanded, gap;     /* written: the round's bound, cost, gap */
} round_state;

static double larger(double a, double b)
{
    return isnan(a) || a > b ? a : b;
}

static double smaller(double a, double b)
{
    return isnan(a) || a < b ? a : b;
}

int64_t carpool_round(round_state *r, int64_t n, double alpha)
{
    const int64_t ns = r->ns, nt = r->nt, *start = r->start, *rows = r->rows;
    const int64_t *fwd = r->fwd, *rev = r->rev;
    double *sums = r->sums, *work = r->work, *p = r->p, *row;
    int64_t fresh = 0, *fkeys = NULL, *fbins = NULL;
    double dn = (double)n, half = 0.5 * alpha, q = 0.0, e = 0.0, best, gap;
    if (start[0] != 0 || start[ns] > r->nrows)
        return -5;
    for (int64_t t = 0; t < ns; t++) {
        if (start[t + 1] < start[t])
            return -5;
        for (int64_t j = start[t]; j < start[t + 1]; j++) {
            if (rows[j] < 0 || rows[j] >= nt)
                return -5;
            fresh += sums[t * nt + rows[j]] == 0.0;
        }
    }
    for (int64_t t = 0; t < ns; t++)
        q = q + r->rates[t] * r->qdist[t];
    r->q = q;
    if (!isfinite(q))
        return -6;
    if (fresh > r->cap - r->nkeys || r->ntrace >= r->tcap)
        return -3;
    if (fresh) {
        fkeys = malloc(2 * fresh * sizeof *fkeys);
        if (!fkeys)
            return -1;
        fbins = fkeys + fresh;
    }
    if (q > r->best)
        r->best = q;
    /* the sums; the fresh keys in order, as the keys of session t all
       lie below those of session t + 1 */
    fresh = 0;
    for (int64_t t = 0; t < ns; t++)
        for (int64_t j = start[t]; j < start[t + 1]; j++) {
            int64_t row = rows[j], key = t * nt + row, i = fresh;
            if (sums[key] == 0.0) {
                for (; i > 0 && fkeys[i - 1] > key; i--) {
                    fkeys[i] = fkeys[i - 1];
                    fbins[i] = fbins[i - 1];
                }
                fkeys[i] = key;
                fbins[i] = row;
                fresh++;
            }
            sums[key] = sums[key] + r->rates[t];
        }
    /* merge from the top down, so that no key is overwritten unread */
    for (int64_t i = r->nkeys - 1, j = fresh - 1, k = r->nkeys + fresh - 1;
         j >= 0; k--) {
        if (i >= 0 && r->keys[i] > fkeys[j]) {
            r->keys[k] = r->keys[i];
            r->bins[k] = r->bins[i--];
        } else {
            r->keys[k] = fkeys[j];
            r->bins[k] = fbins[j--];
        }
    }
    r->nkeys += fresh;
    free(fkeys);
    /* the recovered flow per triple, then y, z and the expanded cost */
    for (int64_t k = 0; k < nt; k++)
        work[k] = 0.0;
    for (int64_t i = 0; i < r->nkeys; i++)
        work[r->bins[i]] = work[r->bins[i]] + sums[r->keys[i]] / dn;
    for (int64_t k = 0; k < r->nn; k++)
        r->z[k] = 0.0;
    for (int64_t k = 0; k < r->npairs; k++) {
        double y = larger(work[fwd[k]], work[rev[k]]);
        r->y[k] = y;
        r->z[r->mid[k]] = r->z[r->mid[k]] + y;
    }
    for (int64_t k = 0; k < r->nn; k++)
        e = e + r->ncost[k] * r->z[k];
    r->expanded = e;
    /* the round's flow per triple, then the step, which leaves the
       routed prices in work */
    for (int64_t k = 0; k < nt; k++)
        work[k] = 0.0;
    for (int64_t t = 0; t < ns; t++)
        for (int64_t j = start[t]; j < start[t + 1]; j++)
            work[rows[j]] = work[rows[j]] + r->rates[t];
    for (int64_t k = 0; k < r->npairs; k++) {
        double x = work[fwd[k]] - work[rev[k]], c = r->cost[k];
        work[fwd[k]] = p[fwd[k]];
        work[rev[k]] = p[rev[k]];
        x = half * x;
        x = p[fwd[k]] + x;
        x = smaller(larger(x, 0.0), c);
        p[fwd[k]] = x;
        p[rev[k]] = c - x;
    }
    if (!isfinite(e))
        return -7;
    /* the gap and the trace row; a gap within tol certifies the round,
       at the prices it was routed at */
    best = r->best;
    gap = (e - best) / (best > 1.0 ? best : 1.0);
    r->gap = gap;
    row = r->trace + 5 * r->ntrace++;
    row[0] = alpha;
    row[1] = q;
    row[2] = best;
    row[3] = e;
    row[4] = gap;
    if (!(gap <= r->tol))
        return 0;
    for (int64_t k = 0; k < r->npairs; k++) {
        p[fwd[k]] = work[fwd[k]];
        p[rev[k]] = work[rev[k]];
    }
    return 1;
}
