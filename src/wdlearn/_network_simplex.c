/* Primal network simplex for uncapacitated min-cost flow.
 *
 * Solves  min sum_e cost[e] flow[e]  over flow >= 0 with outflow minus
 * inflow equal to supply[u] at each of the n nodes, where arc e runs from
 * node ends[2e] to node ends[2e + 1]: the exact solver of Bonneel et al.
 * (2011), after LEMON's network simplex (Kovacs 2015), without capacities.
 *
 * The basis is a strongly feasible spanning tree (Cunningham 1976) over
 * the nodes and an artificial root, built as LEMON builds it: a node of
 * supply >= 0 hangs from the root by an up-arc u -> root of cost 0, any
 * other node by a down-arc root -> u of cost (max |cost| + 1) * (n + 1),
 * each carrying |supply[u]|.  The artificial arc of node u is arc m + u.
 * Potentials pi make every tree arc's reduced cost
 * cost[e] + pi[tail] - pi[head] zero.  Pricing is a block search: the
 * arcs are scanned cyclically in blocks of ceil(sqrt(m)), and the most
 * negative of nontree[e] times the reduced cost (0 on a tree arc, with
 * no branch) enters at the end of the first block that holds one below
 * -tol.  The leaving arc is LEMON's: the first blocking arc from the
 * entering arc's tail up to the join, by '<', else the last one from its
 * head, by '<='; this keeps every tree arc of zero flow pointed at the
 * root.  The subtree cut off by the leaving arc is re-hung from the
 * entering arc, and only its depths and potentials are set again, each
 * from its new parent.
 *
 * Each call allocates its own memory, only reads its inputs and keeps no
 * state between calls, so calls may run at once on different threads;
 * wdlearn.ot keeps a flow LP's ends in its flow slot, built once. */
#include <float.h>
#include <math.h>
#include <stdlib.h>

enum { UP = 1, DOWN = -1 };
enum { FAILED_CAP = -1, FAILED_OTHER = -2 };

/* A reduced cost enters only below -TOL_PER_ART * art: potentials, sums
 * along tree paths from the root, reach about 2 art and round far below. */
#define TOL_PER_ART (1024 * DBL_EPSILON)

typedef struct {
    int *tail, *head, *parent, *pred, *dir, *depth, *child, *next, *prev;
    char *nontree;
    double *cost, *pi;
} tree_t;

static void link_child(tree_t *t, int u, int p)
{
    t->parent[u] = p;
    t->prev[u] = -1;
    t->next[u] = t->child[p];
    if (t->child[p] >= 0)
        t->prev[t->child[p]] = u;
    t->child[p] = u;
}

static void unlink_child(tree_t *t, int u)
{
    if (t->prev[u] >= 0)
        t->next[t->prev[u]] = t->next[u];
    else
        t->child[t->parent[u]] = t->next[u];
    if (t->next[u] >= 0)
        t->prev[t->next[u]] = t->prev[u];
}

/* Sets the depths and potentials of the subtree under top from its new
 * parent down, in preorder along the child lists. */
static void set_subtree(tree_t *t, int top)
{
    int u = top;
    for (;;) {
        int p = t->parent[u];
        t->depth[u] = t->depth[p] + 1;
        t->pi[u] = t->pi[p] - t->dir[u] * t->cost[t->pred[u]];
        if (t->child[u] >= 0) {
            u = t->child[u];
            continue;
        }
        while (u != top && t->next[u] < 0)
            u = t->parent[u];
        if (u == top)
            return;
        u = t->next[u];
    }
}

/* The arc to enter, or -1 when no reduced cost is below -tol. */
static int price(const tree_t *t, int m, int block, double tol, int *next_arc)
{
    int best = -1, count = block, e = *next_arc;
    double min = 0.0;
    for (int seen = 1; seen <= m; ++seen) {
        double r = t->nontree[e] * (t->cost[e] + t->pi[t->tail[e]] - t->pi[t->head[e]]);
        if (r < min) {
            min = r;
            best = e;
        }
        e = e + 1 == m ? 0 : e + 1;
        if (--count == 0 || seen == m) {
            if (min < -tol) {
                *next_arc = e;
                return best;
            }
            count = block;
        }
    }
    return -1;
}

/* One pivot on entering arc `in`; returns 0, or FAILED_OTHER if nothing
 * blocks the cycle (an unbounded flow). */
static int pivot(tree_t *t, int in, double *flow)
{
    int first = t->tail[in], second = t->head[in], u = first, v = second;
    while (u != v) {
        if (t->depth[u] > t->depth[v])
            u = t->parent[u];
        else
            v = t->parent[v];
    }
    int join = u, u_out = -1, side = 0;
    double delta = INFINITY;
    for (u = first; u != join; u = t->parent[u])
        if (t->dir[u] == UP && flow[t->pred[u]] < delta) {
            delta = flow[t->pred[u]];
            u_out = u;
            side = 1;
        }
    for (u = second; u != join; u = t->parent[u])
        if (t->dir[u] == DOWN && flow[t->pred[u]] <= delta) {
            delta = flow[t->pred[u]];
            u_out = u;
            side = 2;
        }
    if (!side)
        return FAILED_OTHER;
    if (delta > 0.0) {
        flow[in] += delta;
        for (u = first; u != join; u = t->parent[u])
            flow[t->pred[u]] -= t->dir[u] * delta;
        for (u = second; u != join; u = t->parent[u])
            flow[t->pred[u]] += t->dir[u] * delta;
    }
    t->nontree[t->pred[u_out]] = 1;
    t->nontree[in] = 0;

    /* Reverse the stem from u_in up to u_out: each stem node hangs from
     * the one before it, by the arc that joined them. */
    int u_in = side == 1 ? first : second;
    int new_parent = side == 1 ? second : first;
    int arc = in, arc_dir = u_in == first ? UP : DOWN;
    for (u = u_in;;) {
        int old_parent = t->parent[u], old_arc = t->pred[u], old_dir = t->dir[u];
        unlink_child(t, u);
        link_child(t, u, new_parent);
        t->pred[u] = arc;
        t->dir[u] = arc_dir;
        if (u == u_out)
            break;
        new_parent = u;
        u = old_parent;
        arc = old_arc;
        arc_dir = -old_dir;
    }
    set_subtree(t, u_in);
    return 0;
}

/* Solves the flow problem above.  flow gets m + n values, the arcs' flows
 * and then the artificial arcs' (node u's at m + u): one left with flow
 * means no feasible flow exists.  pi gets the n node potentials, with
 * cost[e] + pi[tail] - pi[head] >= -tol on every arc and 0 on the tree's.
 * Returns the pivot count at an optimum, FAILED_CAP once max_pivots
 * pivots have run without one, and FAILED_OTHER if memory runs out, an
 * arc names a node outside [0, n), or the flow is unbounded. */
long ns_solve(int n, int m, const int *ends, const double *cost, const double *supply,
              long max_pivots, double *flow, double *pi)
{
    int all = m + n, root = n, nodes = n + 1;
    long result = FAILED_OTHER;
    tree_t t;
    int *ints = malloc(sizeof(int) * (2 * (size_t)all + 7 * (size_t)nodes));
    double *reals = malloc(sizeof(double) * ((size_t)all + nodes));
    t.nontree = malloc((size_t)all);
    if (!ints || !reals || !t.nontree || m < 1)
        goto done;
    t.tail = ints;
    t.head = t.tail + all;
    t.parent = t.head + all;
    t.pred = t.parent + nodes;
    t.dir = t.pred + nodes;
    t.depth = t.dir + nodes;
    t.child = t.depth + nodes;
    t.next = t.child + nodes;
    t.prev = t.next + nodes;
    t.cost = reals;
    t.pi = reals + all;

    double art = 0.0;
    for (int e = 0; e < m; ++e) {
        t.tail[e] = ends[2 * e];
        t.head[e] = ends[2 * e + 1];
        if (t.tail[e] < 0 || t.tail[e] >= n || t.head[e] < 0 || t.head[e] >= n)
            goto done;
        t.cost[e] = cost[e];
        t.nontree[e] = 1;
        flow[e] = 0.0;
        art = fmax(art, fabs(cost[e]));
    }
    art = (art + 1.0) * (n + 1);
    t.parent[root] = t.pred[root] = t.child[root] = -1;
    t.depth[root] = 0;
    t.pi[root] = 0.0;
    for (int u = 0; u < n; ++u) {
        int e = m + u;
        int up = supply[u] >= 0.0;
        t.tail[e] = up ? u : root;
        t.head[e] = up ? root : u;
        t.cost[e] = up ? 0.0 : art;
        t.nontree[e] = 0;
        flow[e] = fabs(supply[u]);
        t.child[u] = -1;
        link_child(&t, u, root);
        t.pred[u] = e;
        t.dir[u] = up ? UP : DOWN;
        t.depth[u] = 1;
        t.pi[u] = up ? 0.0 : art;
    }

    int block = (int)ceil(sqrt((double)m)), next_arc = 0;
    for (long pivots = 0;; ++pivots) {
        int in = price(&t, m, block, TOL_PER_ART * art, &next_arc);
        if (in < 0) {
            for (int u = 0; u < n; ++u)
                pi[u] = t.pi[u];
            result = pivots;
            break;
        }
        if (pivots == max_pivots) {
            result = FAILED_CAP;
            break;
        }
        if (pivot(&t, in, flow) != 0)
            break;
    }
done:
    free(ints);
    free(reals);
    free(t.nontree);
    return result;
}
