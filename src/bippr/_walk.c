/* Lockstep walk steps, the kernel of bippr.graph.step_many.
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
 */
#include <stdint.h>

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
