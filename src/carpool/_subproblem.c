/* Priced shortest routes for every session in one call.
 *
 * The graph is a CSR: the arcs leaving vertex u are arcs[bounds[u]] ..
 * arcs[bounds[u + 1] - 1], and arc k (0 <= k < m) runs to heads[k] at
 * weight w[k].  arcs has narcs entries.
 * Labels follow carpool.edge_graph._dijkstra exactly: pop order
 * (dist, hops, vertex); a label is replaced on a strictly smaller
 * distance, or an equal distance with fewer hops; on an equal (dist,
 * hops) the smaller predecessor vertex wins (an offer has at least one
 * hop, so no tie reaches the source or an unreached vertex, which have
 * none); the search stops when it pops the destination.  Sums are
 * plain IEEE double additions, so the build must not contract or
 * reorder them (no -ffast-math, -ffp-contract=off).
 *
 * Session t searches from src[t] to dst[t] (no early stop when dst[t]
 * is negative).  Its distance goes to qdist[t] and its arcs, source
 * first, to rows[start[t]] .. rows[start[t + 1] - 1]; an unreached
 * destination has distance infinity and no arcs.  dist, hops and pred
 * hold the labels of the last session when the call returns.
 *
 * Returns 0, or -1 when memory runs out, -2 when the heap outgrows the
 * arc count (a negative weight), -3 when the paths need more than cap
 * rows, -4 on a broken predecessor chain, -5 when an index of the CSR
 * is out of range.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double d;
    int64_t h;
    int64_t v;
} entry;

static int before(const entry *a, const entry *b)
{
    if (a->d != b->d)
        return a->d < b->d;
    if (a->h != b->h)
        return a->h < b->h;
    return a->v < b->v;
}

static void push(entry *heap, int64_t *n, entry e)
{
    int64_t i = (*n)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&e, &heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

static entry pop(entry *heap, int64_t *n)
{
    entry top = heap[0], last = heap[--*n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= *n)
            break;
        if (c + 1 < *n && before(&heap[c + 1], &heap[c]))
            c++;
        if (!before(&heap[c], &last))
            break;
        heap[i] = heap[c];
        i = c;
    }
    if (*n > 0)
        heap[i] = last;
    return top;
}

int64_t carpool_routes(int64_t nv, const int64_t *bounds, int64_t narcs,
                       const int64_t *arcs, int64_t m, const int64_t *heads,
                       const double *w, int64_t ns, const int64_t *src,
                       const int64_t *dst, double *dist, int64_t *hops,
                       int64_t *pred, double *qdist, int64_t *start,
                       int64_t *rows, int64_t cap)
{
    int64_t cap_heap = narcs + 1, used = 0, status = 0;
    entry *heap = malloc(cap_heap * sizeof *heap);
    int64_t *via = malloc((nv + 1) * sizeof *via);
    if (!heap || !via) {
        status = -1;
        goto done;
    }
    for (int64_t u = 0; u < nv; u++)
        if (bounds[u] < 0 || bounds[u] > bounds[u + 1]
            || bounds[u + 1] > narcs) {
            status = -5;
            goto done;
        }
    start[0] = 0;
    for (int64_t t = 0; t < ns; t++) {
        int64_t s = src[t], stop = dst[t], n = 0;
        for (int64_t x = 0; x < nv; x++) {
            dist[x] = INFINITY;
            hops[x] = 0;
            pred[x] = -1;
        }
        dist[s] = 0.0;
        push(heap, &n, (entry){0.0, 0, s});
        while (n > 0) {
            entry e = pop(heap, &n);
            int64_t u = e.v;
            if (e.d != dist[u] || e.h != hops[u])
                continue;
            if (u == stop)
                break;
            for (int64_t j = bounds[u]; j < bounds[u + 1]; j++) {
                int64_t k = arcs[j], nh = e.h + 1;
                if (k < 0 || k >= m || heads[k] < 0 || heads[k] >= nv) {
                    status = -5;
                    goto done;
                }
                int64_t x = heads[k];
                double nd = e.d + w[k];
                if (nd < dist[x] || (nd == dist[x] && nh < hops[x])) {
                    if (n == cap_heap) {
                        status = -2;
                        goto done;
                    }
                    dist[x] = nd;
                    hops[x] = nh;
                    pred[x] = u;
                    via[x] = k;
                    push(heap, &n, (entry){nd, nh, x});
                } else if (nd == dist[x] && nh == hops[x] && u < pred[x]) {
                    pred[x] = u;
                    via[x] = k;
                }
            }
        }
        qdist[t] = stop < 0 ? 0.0 : dist[stop];
        if (stop >= 0 && dist[stop] != INFINITY) {
            int64_t len = hops[stop], x = stop;
            if (len > cap - used) {
                status = -3;
                goto done;
            }
            for (int64_t i = used + len - 1; i >= used && x >= 0; i--) {
                rows[i] = via[x];
                x = pred[x];
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
    return status;
}
