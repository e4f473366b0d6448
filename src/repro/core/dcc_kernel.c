/* DCC detection ball pass: radius-r ball, tree reject, 2-core peel.
 *
 * Built by repro.core.native with the system C compiler and called
 * through ctypes from repro.core.dcc.  Pinned bit-identical to the
 * pure-Python twin there (_ball_cores_python): for each node v, in the
 * order given, it emits exactly the core that twin would hand to block
 * selection.  The kernel never reads selection state, so emitting every
 * core up front and letting the caller skip already-selected nodes gives
 * the same selections as the lazy per-node loop.
 */

/* dcc_cores: for positions pos = start .. count-1 (node nodes[pos], or pos
 * itself when nodes is NULL):
 *
 *   1. collect the radius-`radius` ball of v over the CSR (offsets,
 *      indices), stepping only onto nodes with active[w] != 0 when
 *      `active` is not NULL;
 *   2. reject it if it has < 4 members or fewer in-ball edges than
 *      members (it is a tree: no 2-connected block);
 *   3. peel it to its 2-core;
 *   4. if v survives in a core of >= 4 nodes, emit the row
 *      (v, core size, single-cycle flag) into `rows` and the core members
 *      into `members`.
 *
 * `mask`, `deg` (n entries each) must be zero on entry and are zero on
 * return; `ball` and `stack` (n entries each) are free scratch.  When the
 * next core does not fit in `rows` (row_cap rows) or `members`
 * (member_cap entries), the pass stops and returns the position to resume
 * from; it returns `count` when done.  *emitted receives the row count.
 * member_cap >= n guarantees progress (a core fits an empty buffer).
 */
int dcc_cores(
    const int *offsets, const int *indices, int radius,
    const unsigned char *active, const int *nodes, int count, int start,
    unsigned char *mask, int *deg, int *ball, int *stack,
    int *rows, int row_cap, int *members, int member_cap, int *emitted)
{
    int num_rows = 0, used = 0, pos;
    for (pos = start; pos < count; pos++) {
        int v = nodes ? nodes[pos] : pos;
        int size = 1, lo = 0, level, i, e, twice = 0, top = 0, alive;
        mask[v] = 1;
        ball[0] = v;
        for (level = 0; level < radius && lo < size; level++) {
            int hi = size;
            for (; lo < hi; lo++) {
                int u = ball[lo];
                for (e = offsets[u]; e < offsets[u + 1]; e++) {
                    int w = indices[e];
                    if (!mask[w] && (!active || active[w])) {
                        mask[w] = 1;
                        ball[size++] = w;
                    }
                }
            }
        }
        if (size >= 4) {
            for (i = 0; i < size; i++) {
                int u = ball[i], d = 0;
                for (e = offsets[u]; e < offsets[u + 1]; e++)
                    d += mask[indices[e]];
                deg[u] = d;
                twice += d;
            }
        }
        if (size < 4 || twice < 2 * size) {
            for (i = 0; i < size; i++) {
                mask[ball[i]] = 0;
                deg[ball[i]] = 0;
            }
            continue;
        }
        for (i = 0; i < size; i++)
            if (deg[ball[i]] <= 1)
                stack[top++] = ball[i];
        alive = size;
        while (top) {
            int u = stack[--top];
            if (!mask[u])
                continue;
            mask[u] = 0;
            alive--;
            for (e = offsets[u]; e < offsets[u + 1]; e++) {
                int w = indices[e];
                if (mask[w] && --deg[w] == 1)
                    stack[top++] = w;
            }
        }
        if (alive >= 4 && mask[v]) {
            int cycle = 1, k = used;
            if (num_rows == row_cap || used + alive > member_cap) {
                for (i = 0; i < size; i++) {
                    mask[ball[i]] = 0;
                    deg[ball[i]] = 0;
                }
                break;
            }
            for (i = 0; i < size; i++) {
                int u = ball[i];
                if (mask[u]) {
                    members[k++] = u;
                    cycle &= deg[u] == 2;
                }
            }
            rows[3 * num_rows] = v;
            rows[3 * num_rows + 1] = alive;
            rows[3 * num_rows + 2] = cycle;
            num_rows++;
            used = k;
        }
        for (i = 0; i < size; i++) {
            mask[ball[i]] = 0;
            deg[ball[i]] = 0;
        }
    }
    *emitted = num_rows;
    return pos;
}
