/* The solver's native inner loops, over the CSR buffers of a graph.
 *
 * Built by repro.native with the system C compiler and called through
 * ctypes.  Every entry point is pinned bit-identical to a pure-Python
 * twin, which runs when no compiler is available:
 *
 *   dcc_detect    phase (1) in one pass: radius-r ball, tree reject,
 *                 2-core peel, block selection and adoption
 *                 (repro.core.dcc: _ball_cores_python +
 *                 _select_blocks_python);
 *   short_cycles  dcc_detect's prefilter, the nodes on short cycles; it
 *                 only decides which passes dcc_detect skips, so the
 *                 pair is pinned to dcc_detect's twin;
 *   class_sweep   the deterministic (deg+1)-list engine over a run of
 *                 layers (repro.primitives.list_coloring:
 *                 _class_sweep_python);
 *   pending_nodes the sorted uncolored targets a trial run starts from
 *                 (list_coloring: _pending);
 *   trial_round   one propose/compare/commit round of the randomized
 *                 engines (list_coloring: _python_trial_round);
 *   linial_round  one reduction round of Linial's O(Δ²)-coloring
 *                 (repro.primitives.linial: _reduce_round_python);
 *   level_bfs     multi-source BFS bounded by depth and a byte mask,
 *                 with the reached nodes bucketed by level
 *                 (repro.graphs.bfs: _bfs_distances_python,
 *                 _distance_layers_python; Graph._is_connected_python);
 *   validate      the checks of a coloring, pass or first failure
 *                 (repro.graphs.validation: _validate_coloring_python);
 *   h_boundary    the nodes of H with fewer than delta neighbours in H
 *                 (repro.core.happiness: _boundary_python);
 *   edge_pairs    every edge (u, v), u < v, in CSR order, as
 *                 interleaved pairs (repro.graphs.graph:
 *                 _edge_pairs_python);
 *   edge_keys     the sorted packed keys (min << 32) | max of a pair
 *                 buffer, endpoints range-checked (repro.service.
 *                 fingerprint: _edge_keys_python);
 *   adopt_rows    row starts, row lengths and degree histogram of a CSR
 *                 (repro.graphs.dynamic: _adopt_rows_python);
 *   degree_list_surplus
 *                 phase (9): a run of B0 components, each a degree-list
 *                 instance against its colored surroundings, in the
 *                 surplus case; every other case is handed back to the
 *                 twin (repro.core.degree_choosable:
 *                 color_against_outside);
 *   marking_select
 *                 phase (4)'s selection and backoff from one block of
 *                 the engine rng's bytes (repro.core.marking:
 *                 _select_python).
 */

#include <stdlib.h>

static int ascending(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* Is the block (k >= 4 nodes, each marked mask == 2) neither a clique nor
 * an odd cycle?  A block is connected, so it is a clique iff every
 * in-block degree is k - 1, and a cycle iff every in-block degree is 2. */
static int is_dcc_block(const int *offsets, const int *indices,
                        const unsigned char *mask, const int *block, int k)
{
    int i, e, first = 0;
    for (i = 0; i < k; i++) {
        int u = block[i], d = 0;
        for (e = offsets[u]; e < offsets[u + 1]; e++)
            d += mask[indices[e]] == 2;
        if (i == 0)
            first = d;
        else if (d != first)
            return 1;
    }
    return first != k - 1 && (first != 2 || k % 2 == 0);
}

/* Hopcroft–Tarjan over the core (the nodes with mask != 0, listed
 * ascending in core[0..size)): roots ascending, neighbours in CSR order,
 * so blocks complete in the order of repro.graphs.blocks.blocks_through.
 * Returns the size k of the first block that contains v, has >= 4 nodes
 * and is neither a clique nor an odd cycle, with its nodes (unsorted) in
 * block[0..k); 0 when there is none.  A block's nodes are popped from a
 * vertex stack: the child's subtree above it plus the parent, the same
 * set the twin collects from its edge stack.  disc must be zero on entry
 * for the core; the caller zeroes it again. */
static int first_dcc_block(const int *offsets, const int *indices,
                           unsigned char *mask, const int *core, int size,
                           int v, int *disc, int *low, int *next, int *parent,
                           int *dfs, int *vstack, int *block)
{
    int timer = 1, r, i;
    for (r = 0; r < size; r++) {
        int root = core[r], depth = 0, vtop = 0;
        if (disc[root])
            continue;
        disc[root] = low[root] = timer++;
        parent[root] = -1;
        next[root] = offsets[root];
        dfs[depth++] = root;
        vstack[vtop++] = root;
        while (depth) {
            int u = dfs[depth - 1], p, k, x, has_v;
            if (next[u] < offsets[u + 1]) {
                int w = indices[next[u]++];
                if (!mask[w] || w == parent[u])
                    continue;
                if (!disc[w]) {
                    disc[w] = low[w] = timer++;
                    parent[w] = u;
                    next[w] = offsets[w];
                    dfs[depth++] = w;
                    vstack[vtop++] = w;
                } else if (disc[w] < low[u]) {
                    low[u] = disc[w];
                }
                continue;
            }
            depth--;
            p = parent[u];
            if (p == -1)
                continue;
            if (low[u] < low[p])
                low[p] = low[u];
            if (low[u] < disc[p])
                continue;
            k = 0;
            has_v = p == v;
            do {
                x = vstack[--vtop];
                block[k++] = x;
                has_v |= x == v;
            } while (x != u);
            block[k++] = p;
            if (k < 4 || !has_v)
                continue;
            for (i = 0; i < k; i++)
                mask[block[i]] = 2;
            x = is_dcc_block(offsets, indices, mask, block, k);
            for (i = 0; i < k; i++)
                mask[block[i]] = 1;
            if (x)
                return k;
        }
    }
    return 0;
}

/* The radius-`radius` ball of v in level order into ball[0..size), every
 * member marked mask 1, stepping only onto nodes w > above with
 * active[w] != 0 (when `active` is not NULL).  parent[] receives the BFS
 * tree (parent[v] = -1) and deg[] the in-ball degree of every node below
 * level `radius`: each of its neighbours that qualifies is in the ball
 * once its row has been read.  Returns the size; *rim receives the index
 * of the first node at level `radius` (the size when the ball ends
 * sooner). */
static int collect_ball(const int *offsets, const int *indices,
                        const unsigned char *active, int above, int v,
                        int radius, unsigned char *mask, int *deg,
                        int *parent, int *ball, int *rim)
{
    int size = 1, lo = 0, level, e;
    mask[v] = 1;
    ball[0] = v;
    parent[v] = -1;
    for (level = 0; level < radius && lo < size; level++) {
        int hi = size;
        for (; lo < hi; lo++) {
            int u = ball[lo], d = 0;
            for (e = offsets[u]; e < offsets[u + 1]; e++) {
                int w = indices[e];
                if (mask[w]) {
                    d++;
                } else if (w > above && (!active || active[w])) {
                    mask[w] = 1;
                    parent[w] = u;
                    ball[size++] = w;
                    d++;
                }
            }
            deg[u] = d;
        }
    }
    *rim = lo;
    return size;
}

/* The in-ball degree of a rim node u, read from its row. */
static int rim_degree(const int *offsets, const int *indices,
                      const unsigned char *mask, int u)
{
    int e, d = 0;
    for (e = offsets[u]; e < offsets[u + 1]; e++)
        d += mask[indices[e]];
    return d;
}

/* Peel ball[0..size) (mask 1, deg[] the in-ball degrees) to its 2-core;
 * returns the survivor count.  Survivors keep mask 1 and their core
 * degree; peeled nodes end with mask and deg zero.  A node peeled with
 * one live neighbour reaches it through its BFS parent when the parent is
 * alive (it is then that neighbour), else by reading its row.  The 2-core
 * does not depend on the peel order. */
static int peel(const int *offsets, const int *indices, unsigned char *mask,
                int *deg, const int *parent, const int *ball, int size,
                int *stack)
{
    int i, e, top = 0, alive = size;
    for (i = 0; i < size; i++)
        if (deg[ball[i]] <= 1)
            stack[top++] = ball[i];
    while (top) {
        int u = stack[--top], p = parent[u], live;
        if (!mask[u])
            continue;
        mask[u] = 0;
        live = deg[u];
        deg[u] = 0;
        alive--;
        if (!live)
            continue;
        if (p >= 0 && mask[p]) {
            if (--deg[p] == 1)
                stack[top++] = p;
            continue;
        }
        for (e = offsets[u]; e < offsets[u + 1]; e++) {
            int w = indices[e];
            if (mask[w]) {
                if (--deg[w] == 1)
                    stack[top++] = w;
                break;
            }
        }
    }
    return alive;
}

/* dcc_detect skips a node unless it lies on a cycle of length <= 2r+1:
 * a node that selects lies in a 2-connected block of its ball with >= 4
 * nodes, so some in-ball edge (s, t) joins two BFS branches of v, and the
 * two tree paths plus (s, t) close such a cycle through v.  Every such
 * cycle lies in the restricted ball of its smallest node x (depth r,
 * stepping only onto nodes > x), hence in that ball's 2-core.
 *
 * Once more than 1/DENSE_SHARE_DEN of the swept nodes are marked the
 * marks are dropped and every pass runs: where short cycles are
 * everywhere a filtered sweep costs more than it saves (without this
 * guard, detection took 1.5-3.0x as long on rrg n=1024 Δ=8 r=2, n=4096
 * Δ=6 and 8 r=3 and n=32768 Δ=16 r=2; 2-CPU box, gcc 12 -O2).  The
 * outputs are the same either way. */
#define DENSE_SHARE_DEN 2

/* short_cycles: for positions 0 .. count-1 (node nodes[pos], or pos when
 * nodes is NULL) mark in `cyclic` (n bytes, zero on entry) the 2-core of
 * the node's restricted radius-`radius` ball (within `active` when not
 * NULL).  Every node on a cycle of length <= 2*radius+1 of the graph
 * induced on the swept nodes ends marked.  Returns the number marked, or
 * -1 (cyclic zero again) once more than count / DENSE_SHARE_DEN are.
 * mask, zeroed and work are as in dcc_detect and left as found. */
int short_cycles(
    const int *offsets, const int *indices, int n, int radius,
    const unsigned char *active, const int *nodes, int count,
    unsigned char *mask, int *zeroed, int *work, unsigned char *cyclic)
{
    int *deg = zeroed, *ball = work, *stack = work + n, *parent = work + 5 * n;
    int marked = 0, pos, i;
    for (pos = 0; pos < count; pos++) {
        int x = nodes ? nodes[pos] : pos, rim, twice = 0;
        int size = collect_ball(offsets, indices, active, x, x, radius, mask,
                                deg, parent, ball, &rim);
        for (i = rim; i < size; i++)
            deg[ball[i]] = rim_degree(offsets, indices, mask, ball[i]);
        for (i = 0; i < size; i++)
            twice += deg[ball[i]];
        if (twice >= 2 * size) {  /* connected with a cycle */
            peel(offsets, indices, mask, deg, parent, ball, size, stack);
            for (i = 0; i < size; i++) {
                int u = ball[i];
                if (mask[u] && !cyclic[u]) {
                    cyclic[u] = 1;
                    marked++;
                }
            }
        }
        for (i = 0; i < size; i++) {
            mask[ball[i]] = 0;
            deg[ball[i]] = 0;
        }
        if (DENSE_SHARE_DEN * marked > count) {
            for (i = 0; i < count; i++)
                cyclic[nodes ? nodes[i] : i] = 0;
            return -1;
        }
    }
    return marked;
}

/* dcc_detect: for positions pos = start .. count-1 (node nodes[pos], or
 * pos itself when nodes is NULL), skipping v when selected_by[v] != -1,
 * or when `cyclic` is not NULL and cyclic[v] == 0 (short_cycles' marks
 * for the same radius, active set and nodes; such a v selects nothing):
 *
 *   1. collect the radius-`radius` ball of v over the CSR (offsets,
 *      indices), stepping only onto nodes with active[w] != 0 when
 *      `active` is not NULL;
 *   2. reject it if it has < 4 members or fewer in-ball edges than
 *      members (it is a tree: no 2-connected block);
 *   3. peel it to its 2-core; stop unless v survives in a core of >= 4
 *      nodes;
 *   4. choose the first block through v that has >= 4 nodes and is
 *      neither a clique nor an odd cycle (a core whose degrees are all 2
 *      is one cycle, its own only block);
 *   5. emit that block as DCC number base + (DCCs emitted so far in this
 *      call): its size into `sizes`, its nodes ascending into `members`,
 *      and set selected_by[u] to its number for every member u still at
 *      -1.
 *
 * With `cyclic`, a rim node (level `radius`) left unmarked is not read:
 * its in-ball degree is 1, since a second in-ball neighbour would close a
 * cycle of length <= 2*radius+1 through it.
 *
 * `mask` (n bytes) and `zeroed` (2n ints: in-ball degrees, discovery
 * times) must be zero on entry and are zero on return; `work` (7n ints)
 * is free scratch.  When the next DCC does not fit in `sizes` (size_cap
 * entries) or `members` (member_cap entries), the pass stops before v,
 * having changed nothing for it, and returns the position to resume
 * from; it returns `count` when done.  *emitted receives the DCC count.
 * member_cap >= n guarantees progress (a block fits an empty buffer).
 */
int dcc_detect(
    const int *offsets, const int *indices, int n, int radius,
    const unsigned char *active, const int *nodes, int count, int start,
    const unsigned char *cyclic,
    unsigned char *mask, int *zeroed, int *work, int *selected_by, int base,
    int *sizes, int size_cap, int *members, int member_cap, int *emitted)
{
    int *deg = zeroed, *disc = zeroed + n;
    int *ball = work, *stack = work + n, *core = work + 2 * n;
    int *low = work + 3 * n, *next = work + 4 * n, *parent = work + 5 * n;
    int *vstack = work + 6 * n, *block = ball;
    int num = 0, used = 0, pos;
    for (pos = start; pos < count; pos++) {
        int v = nodes ? nodes[pos] : pos;
        int size, rim, i, twice = 0, alive, k;
        const int *chosen = core;
        if (selected_by[v] != -1 || (cyclic && !cyclic[v]))
            continue;
        size = collect_ball(offsets, indices, active, -1, v, radius, mask,
                            deg, parent, ball, &rim);
        for (i = rim; i < size; i++) {
            int u = ball[i];
            deg[u] = cyclic && !cyclic[u]
                         ? 1 : rim_degree(offsets, indices, mask, u);
        }
        for (i = 0; i < size; i++)
            twice += deg[ball[i]];
        if (size < 4 || twice < 2 * size) {
            for (i = 0; i < size; i++) {
                mask[ball[i]] = 0;
                deg[ball[i]] = 0;
            }
            continue;
        }
        alive = peel(offsets, indices, mask, deg, parent, ball, size, stack);
        k = 0;
        if (alive >= 4 && mask[v]) {
            int cycle = 1;
            for (i = 0; i < size; i++) {
                int u = ball[i];
                if (mask[u]) {
                    core[k++] = u;
                    cycle &= deg[u] == 2;
                }
            }
            /* The ball is finished with: its nodes are the core (mask
             * set) and peeled nodes (mask and deg already zero). */
            for (i = 0; i < k; i++)
                deg[core[i]] = 0;
            qsort(core, k, sizeof *core, ascending);
            if (!cycle) {
                k = first_dcc_block(offsets, indices, mask, core, alive, v,
                                    disc, low, next, parent, stack, vstack,
                                    block);
                for (i = 0; i < alive; i++)
                    disc[core[i]] = 0;
                chosen = block;
                qsort(block, k, sizeof *block, ascending);
            } else if (k % 2) {
                k = 0;
            }
            for (i = 0; i < alive; i++)
                mask[core[i]] = 0;
        } else {
            for (i = 0; i < size; i++) {
                mask[ball[i]] = 0;
                deg[ball[i]] = 0;
            }
        }
        if (!k)
            continue;
        if (num == size_cap || used + k > member_cap)
            break;
        for (i = 0; i < k; i++) {
            int u = chosen[i];
            members[used + i] = u;
            if (selected_by[u] == -1)
                selected_by[u] = base + num;
        }
        sizes[num++] = k;
        used += k;
    }
    *emitted = num;
    return pos;
}

/* ---- (deg+1)-list coloring ------------------------------------------- */

/* Sort a[0..k) ascending and drop repeats; returns how many are left. */
static int distinct(int *a, int k)
{
    int i, j;
    if (k > 32) {
        qsort(a, k, sizeof *a, ascending);
    } else {
        for (i = 1; i < k; i++) {
            int c = a[i];
            for (j = i; j > 0 && a[j - 1] > c; j--)
                a[j] = a[j - 1];
            a[j] = c;
        }
    }
    for (i = j = 0; i < k; i++)
        if (!j || a[j - 1] != a[i])
            a[j++] = a[i];
    return j;
}

/* The distinct colors in 1..max_colors that neighbours of v wear,
 * ascending, into worn (room for deg(v) entries); returns how many. */
static int worn_colors(const int *offsets, const int *indices,
                       const int *colors, int max_colors, int v, int *worn)
{
    int e, k = 0;
    for (e = offsets[v]; e < offsets[v + 1]; e++) {
        int c = colors[indices[e]];
        if (c >= 1 && c <= max_colors)
            worn[k++] = c;
    }
    return distinct(worn, k);
}

/* The (pick + 1)-th smallest positive color not in worn[0..k) (ascending,
 * distinct): each worn color at or below the candidate pushes it up. */
static int nth_free(const int *worn, int k, unsigned long long pick)
{
    unsigned long long c = pick + 1;
    int i;
    for (i = 0; i < k && (unsigned long long)worn[i] <= c; i++)
        c++;
    return (int)c;
}

/* pending_nodes: sort nodes[0..count) ascending and keep, once each, the
 * nodes with colors[v] == 0.  Returns how many are kept, or -1 (nodes
 * sorted, nothing dropped) when a node lies outside 0..n-1. */
int pending_nodes(const int *colors, int n, int *nodes, int count)
{
    int i, kept = 0;
    if (count > 1)
        qsort(nodes, count, sizeof *nodes, ascending);
    if (count && (nodes[0] < 0 || nodes[count - 1] >= n))
        return -1;
    for (i = 0; i < count; i++)
        if (!colors[nodes[i]] && (!kept || nodes[kept - 1] != nodes[i]))
            nodes[kept++] = nodes[i];
    return kept;
}

static int ascending_key(const void *a, const void *b)
{
    unsigned long long x = *(const unsigned long long *)a;
    unsigned long long y = *(const unsigned long long *)b;
    return (x > y) - (x < y);
}

/* class_sweep: the deterministic (deg+1)-list engine over `layers` runs
 * of nodes, in the order given; layer i is nodes[ends[i-1] .. ends[i])
 * (ends[-1] = 0).  In each layer, its pending nodes (pending_nodes) go
 * by base color class 0 .. palette-1 and, within a class, in ascending
 * node order; each takes the smallest color in 1..max_colors that no
 * neighbour wears.  A class is an independent set when `base` is
 * proper, so the order within one is free; fixing it keeps this pass
 * and its twin equal on any input.
 *
 * Returns -1 when every layer is colored.  Otherwise it stops, keeping
 * the colors given so far, with *failure set: 1 when the pending node
 * it returns has a base color outside [0, palette) (checked for a whole
 * layer before any of it is colored), 2 when the node it returns has no
 * free color, 3 when the layer number it returns holds a node outside
 * 0..n-1.  nodes is reordered in place; order (one 64-bit entry per
 * entry of nodes) and worn (max degree) are scratch.
 */
int class_sweep(const int *offsets, const int *indices, int n, int *colors,
                int max_colors, const int *base, int palette,
                int *nodes, const int *ends, int layers,
                unsigned long long *order, int *worn, int *failure)
{
    int layer, start = 0;
    for (layer = 0; layer < layers; layer++) {
        int *run = nodes + start;
        int size = pending_nodes(colors, n, run, ends[layer] - start), i;
        start = ends[layer];
        if (size < 0) {
            *failure = 3;
            return layer;
        }
        for (i = 0; i < size; i++) {
            int b = base[run[i]];
            if (b < 0 || b >= palette) {
                *failure = 1;
                return run[i];
            }
            order[i] = (unsigned long long)b << 32 | (unsigned)run[i];
        }
        if (size > 1)
            qsort(order, size, sizeof *order, ascending_key);
        for (i = 0; i < size; i++) {
            int v = (int)(order[i] & 0xffffffffu);
            int k = worn_colors(offsets, indices, colors, max_colors, v, worn);
            if (k >= max_colors) {
                *failure = 2;
                return v;
            }
            colors[v] = nth_free(worn, k, 0);
        }
    }
    return -1;
}

/* trial_round: one propose/compare/commit round of the randomized
 * engines over live[0..count) (uncolored, ascending, distinct).  The
 * node v at position i proposes the (key % f)-th smallest of its f free
 * colors in 1..max_colors, key being the little-endian 64-bit word in
 * keys[8i .. 8i+8), and commits it (colors[v] = it) unless a neighbour
 * proposed the same color.  The nodes that did not commit move, in
 * order, to the front of live; returns how many.  When the node at
 * position i has no free color, returns -1 - i having changed nothing.
 * props (n entries) must be zero on entry and is zero on return; worn
 * (max degree) is scratch.
 */
int trial_round(const int *offsets, const int *indices, int *colors,
                int max_colors, int *live, int count,
                const unsigned char *keys, int *props, int *worn)
{
    int i, j, e;
    for (i = 0; i < count; i++) {
        int v = live[i];
        int k = worn_colors(offsets, indices, colors, max_colors, v, worn);
        const unsigned char *bytes = keys + 8 * (size_t)i;
        unsigned long long key = 0;
        if (k >= max_colors) {
            for (j = 0; j < i; j++)
                props[live[j]] = 0;
            return -1 - i;
        }
        for (j = 7; j >= 0; j--)
            key = key << 8 | bytes[j];
        props[v] = nth_free(worn, k, key % (unsigned long long)(max_colors - k));
    }
    /* A node that lost marks itself by complementing its entry; props
     * stay untouched until every comparison is made. */
    for (i = 0; i < count; i++) {
        int v = live[i];
        for (e = offsets[v]; e < offsets[v + 1]; e++)
            if (props[indices[e]] == props[v])
                break;
        if (e < offsets[v + 1])
            live[i] = ~v;
    }
    for (i = j = 0; i < count; i++) {
        int v = live[i];
        if (v < 0) {
            v = ~v;
            live[j++] = v;
        } else {
            colors[v] = props[v];
        }
        props[v] = 0;
    }
    return j;
}

/* ---- degree-list instances (phase 9) --------------------------------- */

/* One component run[0..k) (ascending, distinct; local[v] = j + 1 for
 * v = run[j], 0 for every other node) in the surplus case of
 * repro.core.degree_choosable.color_against_outside.  Member v's list is
 * 1..max_colors minus the colors its outside neighbours wear; the root is
 * the first member whose list exceeds its in-component degree; a BFS from
 * the root over the members' rows, in row order, gives the order, and the
 * members take, in reverse BFS order, the smallest list color no colored
 * member neighbour wears.  The result is checked (each color on its list,
 * no member edge monochromatic) and only then written to colors.  Returns
 * 1 when it wrote the component, 0 (nothing written) when a list is
 * shorter than its member's in-component degree, when no member has a
 * surplus, when the BFS misses a member, when a greedy step finds no color
 * or when the check fails.  local is left negated for the members (the
 * caller clears it); order and assign hold k entries, worn max degree. */
static int surplus_component(const int *offsets, const int *indices,
                             int *colors, int max_colors, const int *run,
                             int k, int *local, int *order, int *assign,
                             int *worn)
{
    int j, e, root = -1, head = 0, tail = 1;
    for (j = 0; j < k; j++) {
        int v = run[j], inside = 0, m = 0;
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            int w = indices[e], c = colors[w];
            if (local[w])
                inside++;
            else if (c >= 1 && c <= max_colors)
                worn[m++] = c;
        }
        m = max_colors - distinct(worn, m);
        if (m < inside)
            return 0;
        if (root < 0 && m > inside)
            root = j;
        assign[j] = 0;
    }
    if (root < 0)
        return 0;
    order[0] = root;
    local[run[root]] = -local[run[root]];
    while (head < tail) {
        int u = run[order[head++]];
        for (e = offsets[u]; e < offsets[u + 1]; e++) {
            int t = local[indices[e]];
            if (t > 0) {
                local[indices[e]] = -t;
                order[tail++] = t - 1;
            }
        }
    }
    if (tail < k)
        return 0;
    while (tail--) {
        int v = run[order[tail]], m = 0;
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            int w = indices[e];
            int c = local[w] ? assign[-local[w] - 1] : colors[w];
            if (c >= 1 && c <= max_colors)
                worn[m++] = c;
        }
        m = distinct(worn, m);
        if (m >= max_colors)
            return 0;
        assign[order[tail]] = nth_free(worn, m, 0);
    }
    for (j = 0; j < k; j++) {
        int v = run[j], c = assign[j];
        if (c < 1 || c > max_colors)
            return 0;
        for (e = offsets[v]; e < offsets[v + 1]; e++) {
            int w = indices[e];
            if ((local[w] ? assign[-local[w] - 1] : colors[w]) == c)
                return 0;
        }
    }
    for (j = 0; j < k; j++)
        colors[run[j]] = assign[j];
    return 1;
}

/* degree_list_surplus: color components start .. count-1 in order, each
 * the run members[ends[i-1] .. ends[i]) (ends[-1] = 0), as a degree-list
 * instance against the colors around it (surplus_component); a component
 * sees the colors of the ones before it.  Each run is sorted and its
 * repeats dropped in place.  Returns the index of the first component not
 * colored (count when all are), leaving it and those after it untouched;
 * or, having written nothing, -1 - i when component i holds a node
 * outside 0..n-1.  local (n entries) must be zero on entry and is zero on
 * return; work holds twice the longest run, worn max degree entries.
 */
int degree_list_surplus(const int *offsets, const int *indices, int n,
                        int *colors, int max_colors, int *members,
                        const int *ends, int count, int start, int *local,
                        int *work, int *worn)
{
    int i, j;
    for (i = start; i < count; i++)
        for (j = i ? ends[i - 1] : 0; j < ends[i]; j++)
            if (members[j] < 0 || members[j] >= n)
                return -1 - i;
    for (i = start; i < count; i++) {
        int lo = i ? ends[i - 1] : 0, k = distinct(members + lo, ends[i] - lo);
        int *run = members + lo, colored;
        for (j = 0; j < k; j++)
            local[run[j]] = j + 1;
        colored = !k || surplus_component(offsets, indices, colors, max_colors,
                                          run, k, local, work, work + k, worn);
        for (j = 0; j < k; j++)
            local[run[j]] = 0;
        if (!colored)
            return i;
    }
    return count;
}

/* ---- The marking process (phase 4) ----------------------------------- */

/* The little-endian 32-bit word at b. */
static unsigned long le32(const unsigned char *b)
{
    return b[0] | (unsigned long)b[1] << 8 | (unsigned long)b[2] << 16 |
           (unsigned long)b[3] << 24;
}

/* marking_select: phase (4)'s selection and backoff
 * (repro.core.marking._select_python).  H is nodes[0..count), in the
 * caller's set order; colors (n ints) must be 0 on each of them, and may
 * be NULL when no node is colored.  Entry i draws
 * ((a >> 5) * 2^26 + (b >> 6)) / 2^53, where a and b are the
 * little-endian 32-bit words at block[8i] and block[8i + 4]: the value
 * random.random() makes of the same two generator outputs.  A node is
 * selected, once, when a draw of one of its entries is below p.  A selected
 * node survives when no other selected node lies within backoff hops of
 * it inside H; each search, level by level in row order, stops at the
 * first one it reaches.  Writes the survivors ascending to out[0..k), the
 * number selected to *selected, and returns k; or returns -1, having
 * written nothing, when a node lies outside 0..n-1 or is colored.  mask
 * (n bytes) must be zero on entry and is zero on return; queue and out
 * hold count ints each.
 */
int marking_select(const int *offsets, const int *indices, int n,
                   const int *colors, const int *nodes, int count,
                   const unsigned char *block, double p, int backoff,
                   unsigned char *mask, int *queue, int *out, int *selected)
{
    enum { IN_H = 1, SELECTED = 2, SEEN = 4 };
    int i, e, k = 0, chosen = 0;
    for (i = 0; i < count; i++)
        if (nodes[i] < 0 || nodes[i] >= n)
            return -1;
    if (colors)
        for (i = 0; i < count; i++)
            if (colors[nodes[i]] != 0)
                return -1;
    for (i = 0; i < count; i++)
        mask[nodes[i]] = IN_H;
    for (i = 0; i < count; i++) {
        const unsigned char *b = block + 8 * (long long)i;
        double draw = ((le32(b) >> 5) * 67108864.0 + (le32(b + 4) >> 6)) *
                      (1.0 / 9007199254740992.0);
        if (draw < p && !(mask[nodes[i]] & SELECTED)) {
            mask[nodes[i]] |= SELECTED;
            out[chosen++] = nodes[i];
        }
    }
    for (i = 0; i < chosen; i++) {
        int source = out[i], head = 0, tail = 1, depth, hit = 0;
        queue[0] = source;
        mask[source] |= SEEN;
        for (depth = 0; depth < backoff && !hit && head < tail; depth++) {
            int end = tail;
            for (; head < end && !hit; head++) {
                int v = queue[head];
                for (e = offsets[v]; e < offsets[v + 1]; e++) {
                    int w = indices[e];
                    if ((mask[w] & (IN_H | SEEN)) != IN_H)
                        continue;
                    if (mask[w] & SELECTED) {
                        hit = 1;
                        break;
                    }
                    mask[w] |= SEEN;
                    queue[tail++] = w;
                }
            }
        }
        while (tail--)
            mask[queue[tail]] &= ~SEEN;
        if (!hit)
            out[k++] = source;
    }
    for (i = 0; i < count; i++)
        mask[nodes[i]] = 0;
    if (k > 1)
        qsort(out, k, sizeof *out, ascending);
    *selected = chosen;
    return k;
}

/* ---- Linial's color reduction ----------------------------------------- */

/* The polynomial with coefficients digits[0..d] (digits[j] that of x^j),
 * over GF(q), at x (Horner). */
static int poly_at(const int *digits, int d, int q, int x)
{
    long long acc = 0;
    int j;
    if (!x)
        return digits[0];
    for (j = d; j >= 0; j--)
        acc = (acc * x + digits[j]) % q;
    return (int)acc;
}

/* linial_round: one reduction round of Linial's coloring.  Node v's color
 * (colors[v], or v itself when colors is NULL) is read as a polynomial of
 * degree <= d over GF(q), its base-q digits being the coefficients (the
 * least significant that of x^0); colors must be below q^(d+1).  Each v
 * takes the smallest x in 0..q-1 at which its polynomial differs from
 * every neighbour's and gets out[v] = x*q + p_v(x).  digits (n*(d+1)
 * ints) is scratch.  Returns -1 when every node got a color; otherwise
 * the first node v with no such point (a neighbour wears v's color, or q
 * is too small for v's degree), with out[0..v) written.
 */
int linial_round(const int *offsets, const int *indices, int n,
                 const int *colors, int d, int q, int *out, int *digits)
{
    int v, j, e, x, width = d + 1;
    for (v = 0; v < n; v++) {
        int c = colors ? colors[v] : v;
        int *own = digits + (size_t)v * width;
        for (j = 0; j < width; j++) {
            own[j] = c % q;
            c /= q;
        }
    }
    for (v = 0; v < n; v++) {
        const int *own = digits + (size_t)v * width;
        for (x = 0; x < q; x++) {
            int value = poly_at(own, d, q, x);
            for (e = offsets[v]; e < offsets[v + 1]; e++)
                if (poly_at(digits + (size_t)indices[e] * width, d, q, x) == value)
                    break;
            if (e == offsets[v + 1]) {
                out[v] = x * q + value;
                break;
            }
        }
        if (x == q)
            return v;
    }
    return -1;
}

/* ---- Breadth-first search --------------------------------------------- */

/* level_bfs: multi-source BFS over the CSR from sources[0..count).  A
 * source already reached (a repeat) is skipped, and so is one with
 * allowed[s] == 0 when allowed is not NULL; the search steps only onto
 * nodes w with allowed[w] != 0, and stops after max_depth levels
 * (max_depth < 0: no bound).  dist (n ints) must be -1 for every node on
 * entry; it receives each reached node's distance.  order (n ints)
 * receives the reached nodes level by level, each level ascending when
 * `sorted` is nonzero, and ends (n ints) the end of each level in order
 * (level i is order[ends[i-1] .. ends[i]), ends[-1] = 0).  Returns the
 * number of levels, or -1 - i (having changed nothing) when sources[i]
 * lies outside 0..n-1.
 */
int level_bfs(const int *offsets, const int *indices, int n,
              const int *sources, int count, int max_depth,
              const unsigned char *allowed, int *dist, int *order, int *ends,
              int sorted)
{
    int i, e, size = 0, lo = 0, levels = 0;
    for (i = 0; i < count; i++)
        if (sources[i] < 0 || sources[i] >= n)
            return -1 - i;
    for (i = 0; i < count; i++) {
        int s = sources[i];
        if (dist[s] < 0 && (!allowed || allowed[s])) {
            dist[s] = 0;
            order[size++] = s;
        }
    }
    while (lo < size) {
        int hi = size;
        ends[levels] = hi;
        if (levels++ == max_depth)
            break;
        for (; lo < hi; lo++) {
            int u = order[lo];
            for (e = offsets[u]; e < offsets[u + 1]; e++) {
                int w = indices[e];
                if (dist[w] < 0 && (!allowed || allowed[w])) {
                    dist[w] = levels;
                    order[size++] = w;
                }
            }
        }
    }
    if (!sorted)
        return levels;
    /* By one scan over the nodes when the search reached a good part of
     * them, else level by level. */
    if ((long long)size * 16 >= n) {
        int start = 0;
        for (i = 0; i < levels; i++) {
            int end = ends[i];
            ends[i] = start;
            start = end;
        }
        for (i = 0; i < n; i++)
            if (dist[i] >= 0)
                order[ends[dist[i]]++] = i;
    } else {
        for (i = 0, lo = 0; i < levels; lo = ends[i++])
            qsort(order + lo, ends[i] - lo, sizeof *order, ascending);
    }
    return levels;
}

/* ---- Whole-graph scans ------------------------------------------------- */

/* validate: the checks of repro.graphs.validation._validate_coloring_python
 * over colors[0..n) (0 = uncolored).  A node fails when it is uncolored
 * and allow_partial is 0, or when its color lies outside 1..max_colors;
 * an edge (u, v), u < v, fails when both ends wear one color.  Returns
 * -1 when nothing fails, else the first failing node: the first in node
 * order, or failing that the smaller end of the first failing edge in
 * CSR order.
 */
int validate(const int *offsets, const int *indices, int n, const int *colors,
             int max_colors, int allow_partial)
{
    int u, e;
    for (u = 0; u < n; u++) {
        int c = colors[u];
        if (c == 0 ? !allow_partial : c < 1 || c > max_colors)
            return u;
    }
    for (u = 0; u < n; u++) {
        int c = colors[u];
        if (c == 0)
            continue;
        for (e = offsets[u]; e < offsets[u + 1]; e++)
            if (u < indices[e] && colors[indices[e]] == c)
                return u;
    }
    return -1;
}

/* h_boundary: the nodes of H (nodes[0..count), mask[v] != 0 exactly for
 * v in H) with fewer than delta neighbours w in H (mask[w] != 0), into
 * out in the order of nodes (repro.core.happiness._boundary_python).
 * Returns how many, or -1 (nothing written) when a node lies outside
 * 0..n-1.
 */
int h_boundary(const int *offsets, const int *indices, int n,
               const unsigned char *mask, const int *nodes, int count,
               int delta, int *out)
{
    int i, e, size = 0;
    for (i = 0; i < count; i++)
        if (nodes[i] < 0 || nodes[i] >= n)
            return -1;
    for (i = 0; i < count; i++) {
        int v = nodes[i], inside = 0;
        for (e = offsets[v]; e < offsets[v + 1]; e++)
            inside += mask[indices[e]] != 0;
        if (inside < delta)
            out[size++] = v;
    }
    return size;
}

/* edge_pairs: every CSR entry v of row u with u < v, row by row in CSR
 * order, as the interleaved pair pairs[2i] = u, pairs[2i + 1] = v
 * (repro.graphs.graph._edge_pairs_python).  Writes at most cap pairs
 * and returns how many it found (more than cap only when the CSR is not
 * symmetric).
 */
int edge_pairs(const int *offsets, const int *indices, int n,
               int *pairs, int cap)
{
    int u, e, m = 0;
    for (u = 0; u < n; u++)
        for (e = offsets[u]; e < offsets[u + 1]; e++)
            if (u < indices[e]) {
                if (m < cap) {
                    pairs[2 * (long long)m] = u;
                    pairs[2 * (long long)m + 1] = indices[e];
                }
                m++;
            }
    return m;
}

/* One stable counting pass of an LSD radix sort: src into dst by the
 * 11-bit digit of each key at shift. */
static void radix_pass(const unsigned long long *src, unsigned long long *dst,
                       int m, int shift)
{
    int i, digit;
    long long at = 0, count[2048] = {0};
    for (i = 0; i < m; i++)
        count[(src[i] >> shift) & 2047]++;
    for (digit = 0; digit < 2048; digit++) {
        long long c = count[digit];
        count[digit] = at;
        at += c;
    }
    for (i = 0; i < m; i++)
        dst[count[(src[i] >> shift) & 2047]++] = src[i];
}

/* edge_keys: the packed key (min(u, v) << 32) | max(u, v) of each of the
 * m interleaved pairs (u, v) = (pairs[2i], pairs[2i + 1]), ascending in
 * keys (repro.service.fingerprint._edge_keys_python); scratch holds m
 * keys.  An endpoint below n sets only the low bits(n - 1) bits of each
 * half, so the sort is an LSD radix sort over those bits, 11 at a time,
 * low half first: every pass is stable, so the result is the order of
 * the whole 64-bit keys.  Returns 0, or -1 when an endpoint lies outside
 * 0..n-1 (keys are then undefined).
 */
int edge_keys(const int *pairs, int m, long long n,
              long long *keys, long long *scratch)
{
    unsigned long long *from = (unsigned long long *)keys;
    unsigned long long *to = (unsigned long long *)scratch, *swap;
    int i, bits = 0, half, shift;
    for (i = 0; i < m; i++) {
        long long u = pairs[2 * (long long)i], v = pairs[2 * (long long)i + 1];
        if (u < 0 || v < 0 || u >= n || v >= n)
            return -1;
        from[i] = u < v ? (unsigned long long)u << 32 | v
                        : (unsigned long long)v << 32 | u;
    }
    while (n > 1 && bits < 31 && (n - 1) >> bits)
        bits++;
    for (half = 0; half <= 32; half += 32)
        for (shift = 0; shift < bits; shift += 11) {
            radix_pass(from, to, m, half + shift);
            swap = from;
            from = to;
            to = swap;
        }
    if (from != (unsigned long long *)keys)
        for (i = 0; i < m; i++)
            keys[i] = (long long)from[i];
    return 0;
}

/* adopt_rows: starts[v] = offsets[v], lens[v] = offsets[v + 1] - offsets[v]
 * and hist[d] = the number of rows of length d, for d < cap
 * (repro.graphs.dynamic._adopt_rows_python).  hist must hold cap zeros.
 * Returns the largest row length, or -1 when a row is cap long or
 * longer.
 */
int adopt_rows(const int *offsets, int n, long long *starts, int *lens,
               int *hist, int cap)
{
    int v, top = 0;
    for (v = 0; v < n; v++) {
        int d = offsets[v + 1] - offsets[v];
        if (d < 0 || d >= cap)
            return -1;
        starts[v] = offsets[v];
        lens[v] = d;
        hist[d]++;
        if (d > top)
            top = d;
    }
    return top;
}
