/* The compiled kernels: lockstep walk steps (bippr.graph.step_many), the
 * forward push (bippr.push.approximate_pagerank, bippr.mstp.approximate_mstp)
 * and the diffusion combine (bippr.mstp: the term table and the per-level
 * sums of every diffusion query; terms() and combine() at the end).
 *
 * bippr.graph compiles this file on import with -O2 -ffp-contract=off and
 * loads it with ctypes. Every kernel repeats, float operation for float
 * operation, the numpy code it replaced, which the tests keep as the
 * reference, so every seeded answer keeps its bits. A step makes exactly
 * the float operations x = u*len[v] and j = indptr[v] + (int64)x, then one
 * comparison, as the array step in the tests does, so a seeded walk takes
 * the same path bit for bit.
 *
 * walk_<T> steps `rounds` rounds. Round r steps walks 0 .. live[r]-1 from
 * src + r*stride into dst + r*stride, each with the next uniform of u, so the
 * uniforms are laid out round by round. A position table passes dst = src +
 * stride (round r writes row r+1 from row r); stride 0 with dst = src steps
 * one row in place. A unit-weight graph passes thr = NULL and its int64
 * neighbour ids as pair, and steps to pair[j]; any other graph steps to
 * pair[2j + (x >= thr[j])], slot j's neighbour or its alias.
 *
 * Returns -1, or the offset in u of the first step from a node outside
 * [0, n), from an isolated node, or with a uniform outside [0, 1). Returns
 * -2 at the first round whose count is negative, over `width` or over the
 * uniforms left of the `nu` in u, and at the end if uniforms are left over.
 * The bad step or round and the ones after it are not taken, so no access
 * leaves the arrays.
 *
 * The push works on a Push record over a slot map: slot[v] is node v's slot
 * or -1, node[i] and deg[i] slot i's node and degree, for the k members.
 * Both pushes run the same round, claim() then spread(), and repeat the
 * numpy round they replace float operation for float operation:
 * - a round pushes its frontier slots in order; a push settles its residual
 *   ru and adds d_u to `work`, left to right, and spreads (keep*ru)/d_u,
 *   times w on weighted graphs, over u's CSR row;
 * - a node the round reaches without a slot claims the next one, in the
 *   order of its last appearance in the round's edge list (the frontier's
 *   rows back to back), as numpy's scatter `slot[new] = entry` did;
 * - the amounts a slot receives are summed from 0.0 in push order in acc,
 *   which is -1.0 at every slot the round has not touched, so the first
 *   amount replaces it (0.0 + a is a), and each sum is used only after the
 *   whole round is spread.
 * push_pagerank adds the sums to r and repeats rounds while a ratio
 * r[i]/deg[i] exceeds r_max, the frontier being those slots in ascending
 * order; settling adds alpha*ru to p and zeroes r. A slot not touched by a
 * round stays at or below the threshold, so after the first round the
 * frontier is found among the touched slots, ordered by the bitmap bits.
 * push_levels runs one round per level l: the frontier is level l's
 * entries above the threshold in the order the push first wrote them; they
 * move to the q log, the others stay in the r log as level l's residual,
 * and the sums, in first-touch order, are level l+1's entries.
 * The per-entry decisions (a first touch, a fresh node, a ratio over the
 * threshold) are made without branches: they follow the data, and in a C
 * harness on the benchmark's deep push their mispredictions took about
 * half the kernel's time.
 *
 * Each returns 0 after `rounds` rounds or when no round is left (more = 0),
 * or 1 with nothing changed when an array is too short: the slot map must
 * hold `need` members, the logs qneed and rneed entries. No return leaves a
 * slot entry other than -1 or a member's slot, an acc entry other than -1.0
 * or a bitmap bit set. Every slot is below cap; the per-slot arrays hold
 * cap + 1 entries, as the branch-free loops write one past the last entry
 * they keep, and the bitmap cap/64 + 1 words.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* One round: walks 0 .. a-1 step from `from` into `to`, each to PICK. */
#define ROUND(PICK)                                                               \
    for (int64_t i = 0; i < a; i++, at++) {                                       \
        int64_t v = from[i];                                                      \
        if ((uint64_t)v >= (uint64_t)n || indptr[v] == indptr[v + 1]              \
            || !(u[at] >= 0.0 && u[at] < 1.0))                                    \
            return at;                                                            \
        double x = u[at] * len[v];                                                \
        int64_t j = indptr[v] + (int64_t)x;                                       \
        to[i] = PICK;                                                             \
    }

/* The unit-weight and the alias rounds are separate loops, so neither tests
 * thr at each step. */
#define WALK(T)                                                                   \
    int64_t walk_##T(const int64_t *indptr, const double *len, const T *pair,     \
                     const double *thr, int64_t n, const int64_t *src,            \
                     int64_t *dst, int64_t stride, const double *u,               \
                     int64_t nu, const int64_t *live, int64_t rounds,             \
                     int64_t width)                                               \
    {                                                                             \
        int64_t at = 0;                                                           \
        for (int64_t r = 0; r < rounds; r++) {                                    \
            int64_t a = live[r];                                                  \
            if (a < 0 || a > width || a > nu - at)                                \
                return -2;                                                        \
            const int64_t *from = src + r * stride;                               \
            int64_t *to = dst + r * stride;                                       \
            if (thr)                                                              \
                ROUND(pair[2 * j + (x >= thr[j])])                                \
            else                                                                  \
                ROUND(pair[j])                                                    \
        }                                                                         \
        return at == nu ? -1 : -2;                                                \
    }

WALK(int8_t)
WALK(int16_t)
WALK(int32_t)
WALK(int64_t)

typedef struct {
    /* the graph; weights is NULL on a unit-weight graph */
    const int64_t *indptr, *indices;
    const double *weights, *degrees;
    /* the slot map */
    int64_t *slot, *node;
    double *deg;
    int64_t k, cap, need;
    /* per-slot scratch: acc is -1.0 and the bitmap clear between rounds */
    int64_t *front, *touch;
    double *ru, *acc;
    uint64_t *bits;
    /* push_pagerank: residual and estimate by slot */
    double *r, *p;
    /* push_levels: level l's entries are [ptr[l], ptr[l+1]) of each log */
    int64_t *qptr, *qslot, *rptr, *rslot;
    double *qval, *rval;
    int64_t qcap, rcap, qneed, rneed, level, levels;
    /* counters and parameters */
    int64_t pushes, more;
    double work, alpha, r_max;
} Push;

/* The record's layout, for bippr.push to compare with its copy of it
 * (push._Record) on import: push_fields names every field in declaration
 * order, and push_layout holds sizeof(Push) and then each field's offset
 * and size. */
#define PUSH_FIELDS(X)                                                            \
    X(indptr) X(indices) X(weights) X(degrees) X(slot) X(node) X(deg) X(k)        \
    X(cap) X(need) X(front) X(touch) X(ru) X(acc) X(bits) X(r) X(p) X(qptr)       \
    X(qslot) X(rptr) X(rslot) X(qval) X(rval) X(qcap) X(rcap) X(qneed) X(rneed)   \
    X(level) X(levels) X(pushes) X(more) X(work) X(alpha) X(r_max)
#define PUSH_OFFSET(f) offsetof(Push, f), sizeof(((Push *)0)->f),
#define PUSH_NAME(f) #f " "
const int64_t push_layout[] = {sizeof(Push), PUSH_FIELDS(PUSH_OFFSET)};
const int64_t push_layout_size = sizeof push_layout / sizeof *push_layout;
const char *const push_fields = PUSH_FIELDS(PUSH_NAME);

/* Claims a slot for each node of the frontier's rows that has none, in the
 * order of its last appearance. One pass walks the round's edge list
 * backward, so it meets each such node first at its last appearance and
 * marks it there with -2 - c, c counting the nodes met, and lists it in
 * node[k + c]; the c nodes then take slots k + c - 1 down to k. Returns 0
 * after resetting the marks to -1 if the claims would pass cap, 1
 * otherwise. */
static int claim(Push *s, const int64_t *f, int64_t nf)
{
    const int64_t *indptr = s->indptr, *indices = s->indices;
    int64_t *slot = s->slot, *node = s->node, k = s->k, cap = s->cap, c = 0;
    for (int64_t i = nf - 1; i >= 0; i--) {
        int64_t u = node[f[i]], a = indptr[u];
        for (int64_t j = indptr[u + 1] - 1; j >= a; j--) {
            int64_t v = indices[j], x = slot[v], fresh = x == -1;
            node[k + c < cap ? k + c : cap] = v;
            slot[v] = fresh ? -2 - c : x;
            c += fresh;
        }
    }
    if (k + c > cap) {
        for (int64_t i = 0; i < nf; i++) {
            int64_t u = node[f[i]];
            for (int64_t j = indptr[u]; j < indptr[u + 1]; j++)
                if (slot[indices[j]] < 0)
                    slot[indices[j]] = -1;
        }
        s->need = k + c;
        return 0;
    }
    const double *degrees = s->degrees;
    double *deg = s->deg;
    for (int64_t lo = k, hi = k + c - 1; lo < hi; lo++, hi--) {
        int64_t v = node[lo];
        node[lo] = node[hi];
        node[hi] = v;
    }
    for (int64_t i = k; i < k + c; i++) {
        slot[node[i]] = i;
        deg[i] = degrees[node[i]];
    }
    s->k = k + c;
    return 1;
}

/* Pushes the frontier slots f[0..nf) with residuals ru[0..nf) into acc,
 * each over its row in order, and lists the touched slots in touch in
 * first-touch order; returns their count. A sum starts from acc's value
 * with its bits masked to +0.0 unless it is above 0.0, which turns an
 * untouched slot's -1.0 into 0.0 without a branch. */
#define SPREAD(AMOUNT)                                                            \
    for (int64_t i = 0; i < nf; i++) {                                            \
        int64_t u = s->node[f[i]], b = indptr[u + 1];                             \
        double d = s->deg[f[i]], a = keep * ru[i] / d;                            \
        work += d;                                                                \
        for (int64_t j = indptr[u]; j < b; j++) {                                 \
            int64_t t = slot[indices[j]];                                         \
            double old = acc[t], sum;                                             \
            uint64_t word;                                                        \
            memcpy(&word, &old, sizeof word);                                     \
            word &= -(uint64_t)(old > 0.0);                                       \
            memcpy(&sum, &word, sizeof sum);                                      \
            touch[nt] = t;                                                        \
            nt += old < 0.0;                                                      \
            acc[t] = sum + AMOUNT;                                                \
        }                                                                         \
    }

static int64_t spread(Push *s, const int64_t *f, const double *ru, int64_t nf,
                      double keep, int64_t *touch)
{
    const int64_t *indptr = s->indptr, *indices = s->indices, *slot = s->slot;
    const double *weights = s->weights;
    double *acc = s->acc, work = s->work;
    int64_t nt = 0;
    if (weights)
        SPREAD(a * weights[j])
    else
        SPREAD(a)
    s->work = work;
    s->pushes += nf;
    return nt;
}

int64_t push_pagerank(Push *s, int64_t rounds)
{
    int64_t *front = s->front, nf = 0;
    double *r = s->r, *deg = s->deg, r_max = s->r_max;
    for (int64_t i = 0; i < s->k; i++) {
        front[nf] = i;
        nf += r[i] / deg[i] > r_max;
    }
    for (; nf > 0 && rounds > 0; rounds--) {
        for (int64_t i = 0; i < nf; i++)
            s->ru[i] = r[front[i]];
        if (!claim(s, front, nf))
            return 1;
        int64_t nt = spread(s, front, s->ru, nf, 1.0 - s->alpha, s->touch);
        for (int64_t i = 0; i < nf; i++) {
            r[front[i]] = 0.0;
            s->p[front[i]] += s->alpha * s->ru[i];
        }
        /* the next frontier: touched slots above the threshold, ascending */
        uint64_t *bits = s->bits;
        for (int64_t i = 0; i < nt; i++) {
            int64_t t = s->touch[i];
            r[t] += s->acc[t];
            s->acc[t] = -1.0;
            bits[t >> 6] |= (uint64_t)(r[t] / deg[t] > r_max) << (t & 63);
        }
        nf = 0;
        for (int64_t w = 0; w <= (s->k - 1) >> 6; w++) {
            for (uint64_t x = bits[w]; x; x &= x - 1)
                front[nf++] = (w << 6) + __builtin_ctzll(x);
            bits[w] = 0;
        }
    }
    s->more = nf > 0;
    return 0;
}

int64_t push_levels(Push *s, int64_t rounds)
{
    double r_max = s->r_max;
    for (; s->level < s->levels; s->level++, rounds--) {
        int64_t l = s->level, a = s->rptr[l], b = s->rptr[l + 1], q = s->qptr[l];
        if (rounds <= 0) {
            s->more = 1;
            return 0;
        }
        if (q + (b - a) > s->qcap || b + s->cap > s->rcap) {
            s->qneed = q + (b - a);
            s->rneed = b + s->cap;
            return 1;
        }
        int64_t *rslot = s->rslot, *qslot = s->qslot + q, nh = 0;
        double *rval = s->rval, *qval = s->qval + q, *deg = s->deg;
        for (int64_t j = a; j < b; j++) {
            qslot[nh] = rslot[j];
            qval[nh] = rval[j];
            nh += rval[j] / deg[rslot[j]] > r_max;
        }
        if (!nh)
            break;
        if (!claim(s, qslot, nh))
            return 1;
        int64_t c = a;
        for (int64_t j = a; j < b; j++) {
            int64_t t = rslot[j];
            double x = rval[j];
            rslot[c] = t;
            rval[c] = x;
            c += !(x / deg[t] > r_max);
        }
        s->qptr[l + 1] = q + nh;
        s->rptr[l + 1] = c;
        int64_t nt = spread(s, qslot, qval, nh, 1.0, rslot + c);
        for (int64_t j = c; j < c + nt; j++) {
            rval[j] = s->acc[rslot[j]];
            s->acc[rslot[j]] = -1.0;
        }
        s->rptr[l + 2] = c + nt;
    }
    s->more = 0;
    return 0;
}

/* The diffusion combine (bippr.mstp). R holds one row of `cols` terms per
 * level that holds an entry, levels[i] (increasing) the level of row i:
 * column c + 1 is r[k][v] * (d_t / d_v) for slot c's node v, column 0,
 * every node the push never touched, is 0.0.
 *
 * terms() fills R, zeroed by the caller, from the push's r-level log: level
 * l's entries are [ptr[l], ptr[l+1]) of slot and val. Returns -1, or -2
 * before any write if a level's entries lie outside [0, nval), or the index
 * of the first entry whose slot is not a column of R or whose node lies
 * outside [0, n). */
int64_t terms(const int64_t *ptr, const int64_t *slot, const double *val,
              int64_t nval, const int64_t *levels, int64_t nlev,
              const int64_t *node, const double *degrees, int64_t n,
              double d_t, double *R, int64_t cols)
{
    for (int64_t i = 0; i < nlev; i++)
        if (ptr[levels[i]] < 0 || ptr[levels[i]] > ptr[levels[i] + 1]
            || ptr[levels[i] + 1] > nval)
            return -2;
    for (int64_t i = 0; i < nlev; i++) {
        double *row = R + i * cols;
        for (int64_t e = ptr[levels[i]]; e < ptr[levels[i] + 1]; e++) {
            int64_t c = slot[e];
            if ((uint64_t)c >= (uint64_t)(cols - 1) || (uint64_t)node[c] >= (uint64_t)n)
                return e;
            row[c + 1] = val[e] * (d_t / degrees[node[c]]);
        }
    }
    return -1;
}

/* combine() sums one run's samples over its position table pos, top + 1
 * rows of width walks, row p every walk's step p. A sample of length L
 * starts from 0.0 and adds R[i][slot[pos[(L - levels[i])*width + j]] + 1]
 * of each level levels[i] <= L in increasing i, as the numpy combine it
 * replaces added one level at a time, so its bits are the same.
 * - With len = NULL (shared walks) every walk has length top and gives a
 *   sample at each level l <= top, the sum of its first l + 1 steps read
 *   backward, written at acc[(top - l)*width + j]. Each position is read by
 *   every level, so a first pass turns the whole table, in place, into
 *   term columns.
 * - Otherwise (independent levels) walk j has length len[j] and gives one
 *   sample, at acc[j].
 * Returns -1, or -2 before any read if the levels do not increase from 0,
 * -3 if a length lies outside [0, top], or the offset in pos of the first
 * position read that lies outside [0, n) or whose column slot + 1 lies
 * outside [0, cols). The bad position is left as it was. */
/* Adds to each out[j], in order, the terms r[b][c[b][j]] of the k <= 4 rows
 * b < k: four levels per pass over out, so out is read and written once
 * per four terms, not once per term. */
static void add_terms(double *out, int64_t width, const int64_t **c, const double **r,
                      int64_t k)
{
    if (k == 4)
        for (int64_t j = 0; j < width; j++)
            out[j] = (((out[j] + r[0][c[0][j]]) + r[1][c[1][j]]) + r[2][c[2][j]])
                     + r[3][c[3][j]];
    else if (k == 3)
        for (int64_t j = 0; j < width; j++)
            out[j] = ((out[j] + r[0][c[0][j]]) + r[1][c[1][j]]) + r[2][c[2][j]];
    else if (k == 2)
        for (int64_t j = 0; j < width; j++)
            out[j] = (out[j] + r[0][c[0][j]]) + r[1][c[1][j]];
    else
        for (int64_t j = 0; j < width; j++)
            out[j] += r[0][c[0][j]];
}

int64_t combine(int64_t *pos, int64_t top, int64_t width, const int64_t *len,
                const int64_t *slot, int64_t n, const double *R, int64_t cols,
                const int64_t *levels, int64_t nlev, double *acc)
{
    for (int64_t i = 0; i < nlev; i++)
        if (levels[i] < 0 || (i > 0 && levels[i] <= levels[i - 1]))
            return -2;
    if (!len) {
        for (int64_t p = 0; p < (top + 1) * width; p++) {
            int64_t v = pos[p], c;
            if ((uint64_t)v >= (uint64_t)n || (uint64_t)(c = slot[v] + 1) >= (uint64_t)cols)
                return p;
            pos[p] = c;
        }
        for (int64_t l = 0, m = 0; l <= top; l++) {
            while (m < nlev && levels[m] <= l)
                m++;
            double *out = acc + (top - l) * width;
            for (int64_t j = 0; j < width; j++)
                out[j] = 0.0;
            for (int64_t i = 0; i < m; i += 4) {
                const int64_t *c[4];
                const double *r[4];
                for (int64_t b = 0; b < 4 && i + b < m; b++) {
                    c[b] = pos + (l - levels[i + b]) * width;
                    r[b] = R + (i + b) * cols;
                }
                add_terms(out, width, c, r, m - i < 4 ? m - i : 4);
            }
        }
        return -1;
    }
    for (int64_t j = 0; j < width; j++)
        if (len[j] < 0 || len[j] > top)
            return -3;
    for (int64_t j = 0; j < width; j++) {
        double sum = 0.0;
        for (int64_t i = 0; i < nlev && levels[i] <= len[j]; i++) {
            int64_t p = (len[j] - levels[i]) * width + j, v = pos[p], c;
            if ((uint64_t)v >= (uint64_t)n || (uint64_t)(c = slot[v] + 1) >= (uint64_t)cols)
                return p;
            sum += R[i * cols + c];
        }
        acc[j] = sum;
    }
    return -1;
}
