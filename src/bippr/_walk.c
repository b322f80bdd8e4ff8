/* The compiled kernels: lockstep walk steps (bippr.graph.step_many) and the
 * forward push (bippr.push.approximate_pagerank, bippr.mstp.approximate_mstp).
 *
 * bippr.graph compiles this file on import with -O2 -ffp-contract=off and
 * loads it with ctypes. A step makes exactly the float operations
 * x = u*len[v] and j = indptr[v] + (int64)x, then one comparison, as the
 * array step in the tests does, so a seeded walk takes the same path bit
 * for bit.
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
