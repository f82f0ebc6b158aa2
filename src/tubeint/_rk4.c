/* Compiled RK4 for tubeint's three systems (z, coupled and Ermakov), the
 * series sums of ``perturb._sum`` and the CSV rows of the command-line tool.
 *
 * Each system is written once, as a vector field evaluated in the same order
 * and association as the stages of its Python ``step``, and ``rk4`` combines
 * the stages as the Python steps do.  So the compiled loop reproduces the
 * Python loop of ``tubeint.integrate._drive`` bit for bit, when compiled
 * without floating-point contraction and without fast-math:
 *
 *     cc -O3 -shared -fPIC -ffp-contract=off -o _rk4.so _rk4.c -lm
 *
 * -O3 vectorises the block loops of ``tubeint_sum`` and the coupled system's
 * loops over its pairs.  That changes no result: each vector lane does one
 * point's or one pair's operations in their written order, and without
 * contraction or fast-math no operation is fused, reassociated or dropped.
 *
 * ``pow`` is the libm function that Python's float ``**`` calls.  Python raises
 * OverflowError where ``**`` overflows; C returns inf, so every ``pow`` result
 * is checked and reported as NONFINITE at the step where Python would raise.
 *
 * The first export, ``tubeint_rk4``, runs the steps start .. stop-1 of one
 * chunk over the half-step coefficient table ``coef`` (coef[2i .. 2i+2] at t,
 * t + h/2 and t + h of step start + i), with the escape test after every step
 * and the finiteness test at every record point.  The system fixes what is
 * tested for escape, as ``integrate._SYSTEMS`` does: z of the z system, every
 * z of the coupled one, nothing of Ermakov.  It writes each recorded
 * state into row ``*rows`` of ``out``, whose rows are ``ld`` doubles apart
 * (ld >= dim: the state may sit behind leading columns of a wider table that
 * the caller fills), and returns a status code (below).  The
 * coupled system carries any number N >= 0 of (z, p) pairs behind its one
 * (y, y', y'', J) block, so its state has 4 + 2N components; the caller
 * passes the state's dimension.  With N = 0 and omega = 1 it is the
 * coefficient system in rescaled time (``integrate_y``): every ``om *`` is
 * then an exact multiply by 1.
 *
 * One stage routine, ``rk4``, and one chunk loop, ``run``, serve every system.
 * The states of fixed size (z, Ermakov, coupled with N <= 1) are stepped in
 * a local copy, one step of the whole state at a time.  A coupled state with
 * N >= 2 is stepped in two passes over each STEPS steps (``two_pass``): ``run``
 * steps the block alone, as ``integrate_y`` steps it, keeping g = y^(-5/2) at
 * the four stages of every step in 4 STEPS doubles (16 KiB) of its own stack
 * frame; then ``rk4`` steps every pair as a z system over those g, a pair per
 * vector lane.  Each value is formed by the same operations in the same order
 * as in one step of the whole state, so the bits are the same, and the first
 * failure in step order is reported: the pairs are stepped only up to the step
 * where the block fails.
 *
 * The second export, ``tubeint_sum``, runs ``perturb._sum``'s Chebyshev
 * recurrence and Horner sums over one block of points, with numpy's cos and
 * sin of the points given, in the operations and order of the numpy loop.
 *
 * The pair pass and the series sums come in three clones, AVX-512, AVX2 and
 * baseline, and the CPU's best one runs; all three give the same bits.
 *
 * The third export, ``tubeint_csv`` (at the end of the file), writes a block
 * of rows as CSV text with each float exactly as Python's ``repr`` writes it,
 * so the CSV bytes are the same with and without this library.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { Z, COUPLED, ERMAKOV }; /* the systems, in the order of _rk4.KERNELS */

enum {
    OK = 0,
    ESCAPE = 1,           /* |x[esc]| > limit or NaN after step *at - 1 */
    NONFINITE = 2,        /* a pow overflowed in step *at, or the state is
                             non-finite at record step *at */
    NONPOSITIVE_T = 3,    /* stage value *value <= 0 at t = *at h */
    NONPOSITIVE_HALF = 4, /* ... at t + h/2 */
    NONPOSITIVE_H = 5     /* ... at t + h */
};

#define DIM 6 /* the largest state of fixed size: z, Ermakov, coupled with N <= 1 */
/* Steps per pass of two_pass, whose frame holds their 16 KiB of stage values:
 * it fits Python's smallest thread stack (32 KiB), and twice as many do not. */
#define STEPS 512
/* Unrolled, the stage loops keep a state in registers as hand-written stages do. */
#define UNROLLED _Pragma("GCC unroll 6")

/* Constants of one run, derived as the Python integrators derive them. */
struct sys { double h, half, sixth, eps, om, om2; };

/* A field writes the derivative k at the dim-dimensional state x and
 * coefficient value c; the coupled field also keeps its y^(-5/2) in *g.  It
 * returns OK, NONFINITE when a pow overflows, or NONPOSITIVE_T with *value
 * set when the component that must stay positive does not. */
typedef int (*field_fn)(const struct sys *s, int dim, const double *x, double c, double *k,
                        double *g, double *value);

#define POSITIVE(v) if ((v) <= 0.0) { *value = (v); return NONPOSITIVE_T; }
#define POW(out, v, e) const double out = pow((v), (e)); if (isinf(out)) return NONFINITE;

/* The p' of z'' + omega^2 z + g z^2 = 0: of the z system, and of each coupled
 * pair under g = y^(-5/2). */
static inline double force(double om2, double g, double z) { return -om2 * z - g * z * z; }

/* (z, p) of z'' + omega^2 z + g(t) z^2 = 0; c is g. */
static inline int field_z(const struct sys *s, int dim, const double *x, double c, double *k,
                          double *g, double *value)
{
    const double z = x[0], p = x[1];

    (void)dim;
    (void)g;
    (void)value;
    k[0] = p;
    k[1] = force(s->om2, c, z);
    return OK;
}

/* (y, y', y'', J) in physical time, then the N >= 0 (z, p) pairs, each
 * driven by g = y^(-5/2): one pow per stage for all of them. */
static inline int field_coupled(const struct sys *s, int dim, const double *x, double c,
                                double *k, double *g, double *value)
{
    const double y = x[0], dy = x[1], ddy = x[2];
    const double eps = s->eps, om = s->om;
    int j;

    POSITIVE(y);
    POW(pw, y, -2.5);
    k[0] = om * dy;
    k[1] = om * ddy;
    k[2] = om * (eps * c * pw - 4.0 * dy);
    k[3] = om * pw * c;
    for (j = 4; j < dim; j += 2) {
        k[j] = x[j + 1];
        k[j + 1] = force(s->om2, pw, x[j]);
    }
    *g = pw;
    return OK;
}

/* (z, p, w, w') of z'' = -f z and w'' = -f w + w^-3; c is f. */
static inline int field_ermakov(const struct sys *s, int dim, const double *x, double c,
                                double *k, double *g, double *value)
{
    const double z = x[0], p = x[1], w = x[2], dw = x[3];

    (void)s;
    (void)dim;
    (void)g;
    POSITIVE(w);
    k[0] = p;
    k[1] = -c * z;
    k[2] = dw;
    POW(pw, w, -3.0);
    k[3] = -c * w + pw;
    return OK;
}

/* One field evaluation; a nonpositive value is reported with the stage's code. */
#define STAGE(xs, c, k, g, code)                        \
    if ((status = field(s, dim, xs, c, k, g, value)) != OK) \
        return status == NONPOSITIVE_T ? (code) : status;

/* One RK4 step of the dim-dimensional state x from t, with the coefficient
 * c0 at t, c1 and c2 at t + h/2 and c3 at t + h; work holds 5 dim doubles and
 * g[0 .. 4) receives the coupled field's y^(-5/2) at the four stages. */
static inline int rk4(field_fn field, int dim, const struct sys *s, double *restrict x,
                      double c0, double c1, double c2, double c3, double *restrict work,
                      double *restrict g, double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth;
    double *k1 = work, *k2 = k1 + dim, *k3 = k2 + dim, *k4 = k3 + dim, *xs = k4 + dim;
    int i, status;

    STAGE(x, c0, k1, g, NONPOSITIVE_T);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + half * k1[i];
    STAGE(xs, c1, k2, g + 1, NONPOSITIVE_HALF);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + half * k2[i];
    STAGE(xs, c2, k3, g + 2, NONPOSITIVE_HALF);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + h * k3[i];
    STAGE(xs, c3, k4, g + 3, NONPOSITIVE_H);
    UNROLLED for (i = 0; i < dim; i++)
        x[i] = x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
    return OK;
}

/* The chunk loop of _drive around one field; inlined once per system.  The
 * escape components are esc, esc + 2, ... below dim (none when esc < 0).  The
 * coupled field's y^(-5/2) at the four stages of step k go to
 * g[gs (k - start) ..): gs = 4 keeps every step's, gs = 0 only the last. */
static inline int run(field_fn field, int dim, const struct sys *s, const double *coef,
                      int64_t start, int64_t stop, int64_t rec, int esc, double limit,
                      double *restrict x, double *restrict work, double *restrict g, int gs,
                      double *restrict out, int64_t ld, int64_t *rows, int64_t *at,
                      double *value)
{
    int i, status;

    for (int64_t k = start; k < stop; k++) {
        const double *c = coef + 2 * (k - start);
        status = rk4(field, dim, s, x, c[0], c[1], c[1], c[2], work, g + gs * (k - start),
                     value);
        if (status != OK) {
            *at = k;
            return status;
        }
        const int64_t kk = k + 1;
        /* Written so that a NaN coordinate escapes too. */
        for (i = esc; i >= 0 && i < dim; i += 2) {
            if (!(fabs(x[i]) <= limit)) {
                *at = kk;
                return ESCAPE;
            }
        }
        /* The row is tested, not x: with x, GCC 12 made two_pass's block 15 % slower. */
        if (kk % rec == 0) {
            double *row = out + *rows * ld;
            memcpy(row, x, sizeof x[0] * (size_t)dim);
            for (i = 0; i < dim; i++) {
                if (!isfinite(row[i])) {
                    *at = kk;
                    return NONFINITE;
                }
            }
            ++*rows;
        }
    }
    return OK;
}

/* The oscillator pass and the series sums run in their AVX-512 clone (8
 * lanes) where the CPU has AVX-512F, in their AVX2 clone (4 lanes) where it
 * has AVX2, and in the baseline one (SSE2, 2 lanes) elsewhere: an ifunc picks
 * one when the library loads.  All three give the same bits: each lane does
 * one pair's or one point's operations in their order, and -ffp-contract=off
 * forbids the fused multiply-adds that AVX-512F could otherwise bring. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

/* The oscillator pass of two_pass: steps the pairs (z, p) of zp[0 .. 2 pairs)
 * over the n steps k0 .. k0+n-1 with rk4 and field_z under the kept g, a pair
 * per vector lane: the operations of field_coupled on a pair, in their order.
 * After each step every z is tested for escape (one flag, no early exit); at
 * a record step the pairs go into row *rows behind the block that two_pass
 * wrote there, and the row of dim values is tested for finiteness.  Returns
 * OK, ESCAPE or NONFINITE with *at set, as run does. */
CLONES static int pair_pass(const struct sys *s, int pairs, const double *restrict g,
                            int64_t k0, int64_t n, int64_t rec, double limit,
                            double *restrict zp, double *restrict out, int64_t ld, int dim,
                            int64_t *rows, int64_t *at)
{
    for (int64_t i = 0; i < n; i++) {
        const double *gi = g + 4 * i;
        const int64_t kk = k0 + i + 1;
        int escaped = 0;

        for (int j = 0; j < 2 * pairs; j += 2) {
            double work[5 * 2], unused[4], value;

            rk4(field_z, 2, s, zp + j, gi[0], gi[1], gi[2], gi[3], work, unused, &value);
            /* Written so that a NaN z escapes too. */
            escaped |= !(fabs(zp[j]) <= limit);
        }
        if (escaped) {
            *at = kk;
            return ESCAPE;
        }
        if (kk % rec == 0) {
            double *row = out + *rows * ld;
            memcpy(row + 4, zp, sizeof zp[0] * 2 * (size_t)pairs);
            for (int c = 0; c < dim; c++) {
                if (!isfinite(row[c])) {
                    *at = kk;
                    return NONFINITE;
                }
            }
            ++*rows;
        }
    }
    return OK;
}

/* The chunk loop of a coupled state of dim = 4 + 2N components, N >= 2, in
 * two passes over each STEPS steps: run steps the (y, y', y'', J) block alone,
 * as integrate_y steps it (the coupled field at N = 0), keeping the stage
 * values of y^(-5/2) of step k0 + i in g[4i .. 4i+4) and writing the block of
 * each recorded row, up to the step where it fails; then pair_pass steps the
 * pairs up to that step.  Each value is formed by the same operations in the
 * same order as in one step of the whole state, and the first failure in step
 * order is reported: the pairs' escape or non-finite row, or else the
 * block's. */
static int two_pass(const struct sys *s, int dim, const double *coef, int64_t start,
                    int64_t stop, int64_t rec, double limit, double *restrict x,
                    double *restrict out, int64_t ld, int64_t *rows, int64_t *at, double *value)
{
    double block[5 * 4 + 4]; /* the block, then its work */
    double g[4 * STEPS];
    int status = OK;

    memcpy(block, x, sizeof block[0] * 4);
    for (int64_t k0 = start; k0 < stop && status == OK; k0 += STEPS) {
        /* the pass's end, or the step where run stops */
        int64_t row = *rows, end = stop - k0 < STEPS ? stop : k0 + STEPS;

        status = run(field_coupled, 4, s, coef + 2 * (k0 - start), k0, end, rec, -1, limit, block,
                     block + 4, g, 4, out, ld, &row, &end, value);
        const int pairs = pair_pass(s, (dim - 4) / 2, g, k0, end - k0, rec, limit, x + 4, out, ld,
                                    dim, rows, at);
        if (pairs != OK)
            return pairs;
        if (status != OK)
            *at = end;
    }
    memcpy(x, block, sizeof block[0] * 4);
    return status;
}

/* par: (h, eps, omega) for every system; a system ignores what it does not
 * use.  x holds the dim components of the state; row r of out starts at
 * out + r ld.  Returns -1 for an unknown system or a dimension that it does
 * not have. */
int tubeint_rk4(int system, int dim, const double *par, const double *coef, int64_t start,
                int64_t stop, int64_t rec, double limit, double *x, double *out, int64_t ld,
                int64_t *rows, int64_t *at, double *value)
{
    const double h = par[0], om = par[2];
    const struct sys s = {h, 0.5 * h, h / 6.0, par[1], om, om * om};
    /* A state of at most DIM components is stepped in this copy (the state,
     * then its work), with a dimension known to the compiler: 8 % (z) to
     * 22 % (Ermakov) faster per step than in the caller's buffers. */
    double local[6 * DIM], g[4];
    int status;

#define LOCAL(field, n, esc) \
    run(field, n, &s, coef, start, stop, rec, esc, limit, local, local + DIM, g, 0, out, ld, \
        rows, at, value)
    if (system == COUPLED && dim > DIM && dim % 2 == 0)
        return two_pass(&s, dim, coef, start, stop, rec, limit, x, out, ld, rows, at, value);
    if (dim < 0 || dim > DIM)
        return -1;
    memcpy(local, x, sizeof local[0] * (size_t)dim);
    if (system == Z && dim == 2)
        status = LOCAL(field_z, 2, 0);
    else if (system == COUPLED && dim == 4) /* integrate_y: no z */
        status = LOCAL(field_coupled, 4, 4);
    else if (system == COUPLED && dim == 6)
        status = LOCAL(field_coupled, 6, 4);
    else if (system == ERMAKOV && dim == 4)
        status = LOCAL(field_ermakov, 4, -1);
    else
        return -1;
    memcpy(x, local, sizeof local[0] * (size_t)dim);
    return status;
}

/* Adds one row's polynomial of m coefficients a (lowest first) at each of
 * the n points t, Horner-summed from the top, into sum: times the basis for
 * a harmonic k > 0, alone for k = 0. */
static inline void add_row(int64_t n, int m, int k, const double *restrict a,
                           const double *restrict t, const double *restrict basis,
                           double *restrict sum)
{
    for (int64_t i = 0; i < n; i++) {
        double v = a[m - 1];
        for (int j = m - 2; j >= 0; j--)
            v = v * t[i] + a[j];
        sum[i] += k ? v * basis[i] : v;
    }
}

#define SUM_BLOCK 512 /* points summed at a time: their recurrence stays in the L1 cache */

/* tubeint_sum over at most SUM_BLOCK points. */
CLONES static void sum_block(int64_t n, const double *restrict t,
                             const double *restrict c1, const double *restrict s1, int pairs,
                             int top, int width, const int64_t *restrict len,
                             const double *restrict coef, double *restrict out, int64_t stride)
{
    double cp[SUM_BLOCK], sp[SUM_BLOCK], ck[SUM_BLOCK], sk[SUM_BLOCK];
    int64_t i;

    for (i = 0; i < n; i++) {
        cp[i] = 1.0;
        sp[i] = 0.0;
        ck[i] = c1[i];
        sk[i] = s1[i];
    }
    for (int k = 0; k <= top; k++) {
        if (k > 1) {
            for (i = 0; i < n; i++) {
                const double twice = 2.0 * c1[i];
                const double cn = twice * ck[i] - cp[i], sn = twice * sk[i] - sp[i];
                cp[i] = ck[i];
                sp[i] = sk[i];
                ck[i] = cn;
                sk[i] = sn;
            }
        }
        for (int p = 0; p < pairs; p++) {
            for (int r = 0; r < 2; r++) {
                const int64_t row = ((int64_t)p * (top + 1) + k) * 2 + r;
                const int m = (int)len[row];
                const double *a = coef + row * width, *basis = r ? sk : ck;
                double *sum = out + p * stride;
                /* A constant m unrolls the Horner loop, so the point loop
                 * vectorises: the series have at most 3 coefficients. */
                switch (m) {
                case 0: break;
                case 1: add_row(n, 1, k, a, t, basis, sum); break;
                case 2: add_row(n, 2, k, a, t, basis, sum); break;
                case 3: add_row(n, 3, k, a, t, basis, sum); break;
                default: add_row(n, m, k, a, t, basis, sum);
                }
            }
        }
    }
}

/* The series sums of ``perturb._sum`` over n points: the same operations in
 * the same order for each point, so the same bits.
 *
 * t holds the points and c1, s1 their cos and sin, which the caller computes.
 * For each of the pairs, harmonic k = 0 .. top and row r (0: cos k tau, 1:
 * sin k tau), len[(p (top + 1) + k) 2 + r] is the number of polynomial
 * coefficients in tau, lowest first, at coef + ((p (top + 1) + k) 2 + r)
 * width.  Pair p's sum is added into out + p stride, which holds zeros or the
 * sum so far.
 *
 * The loops run harmonic by harmonic over a block of points, as numpy runs
 * them: cos k tau and sin k tau by the Chebyshev recurrence for k > 1, then
 * each row Horner-summed and added in.  A loop over the points outside the
 * one over k, with every harmonic of a point in registers, was no faster
 * than numpy. */
void tubeint_sum(int64_t n, const double *t, const double *c1, const double *s1, int pairs,
                 int top, int width, const int64_t *len, const double *coef, double *out,
                 int64_t stride)
{
    for (int64_t i = 0; i < n; i += SUM_BLOCK)
        sum_block(n - i < SUM_BLOCK ? n - i : SUM_BLOCK, t + i, c1 + i, s1 + i, pairs, top,
                  width, len, coef, out + i, stride);
}

/* CSV rows with floats written as Python's repr writes them.
 *
 * The digits are the shortest decimal in the rounding interval of the value,
 * the closest to it among those, and the even one on a tie: what repr's dtoa
 * gives.  They are found by Schubfach (R. Giulietti, "The Schubfach way to
 * render doubles", 2020) with exact 126-bit products against the table g of
 * 10^-k, k = K_MIN .. 292: g is floor(10^-k 2^-r) + 1, r = flog2pow10(-k) - 125,
 * stored as (g >> 63, g mod 2^63).  The caller computes g with exact integers.
 * Unlike the Java original, which keeps at least two digits, a one-digit
 * result is allowed, as in repr's 5e-324.
 *
 * Each 64 x 64 -> 128-bit product is one multiply of the compiler's
 * ``unsigned __int128`` (GCC and Clang), without a fallback: a compiler
 * without it fails the build, and tubeint then writes its CSVs by ``repr``.
 * The digits are written from the end of the number, two at a time from a
 * table of the pairs 00 .. 99, straight into their place in the line; the
 * lowest 8 digits of a number of more than 8 are split off first, so the two
 * division chains run side by side.  The number of digits comes from the bit
 * length (as in Adams, "Ryu: fast float-to-string conversion", PLDI 2018).
 */

#define K_MIN (-324)
#define Q_MIN (-1074)
#define C_MIN ((uint64_t)1 << 52)
#define MASK63 (((uint64_t)1 << 63) - 1)

__extension__ typedef unsigned __int128 uint128;

/* floor(x / 2^n), also for negative x */
static inline int floor_shift(int64_t x, int n)
{
    return (int)(x >= 0 ? x >> n : ~(~x >> n));
}

/* floor(q log10 2), floor(q log10 2 + log10 3/4) and floor(e log2 10) */
static inline int flog10pow2(int q) { return floor_shift(q * INT64_C(661971961083), 41); }
static inline int flog10three_quarters_pow2(int q)
{
    return floor_shift(q * INT64_C(661971961083) - INT64_C(274743187321), 41);
}
static inline int flog2pow10(int e) { return floor_shift(e * INT64_C(913124641741), 38); }

/* The high 64 bits of the 128-bit product a b. */
static inline uint64_t mulhi(uint64_t a, uint64_t b)
{
    return (uint64_t)((uint128)a * b >> 64);
}

/* Round to odd of g cp / 2^127 (g = g1 2^63 + g0). */
static inline uint64_t rop(uint64_t g1, uint64_t g0, uint64_t cp)
{
    const uint64_t x1 = mulhi(g0, cp), y0 = g1 * cp, y1 = mulhi(g1, cp);
    const uint64_t z = (y0 >> 1) + x1;
    return (y1 + (z >> 63)) | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest decimal f 10^*e in the rounding interval of c 2^q. */
static uint64_t to_decimal(const uint64_t *g, int q, uint64_t c, int *e)
{
    const uint64_t out = c & 1, cb = c << 2, cbr = cb + 2;
    uint64_t cbl;
    int k;

    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* the lower neighbour is closer */
        cbl = cb - 1;
        k = flog10three_quarters_pow2(q);
    }
    const int h = q + flog2pow10(-k) + 2;
    const uint64_t g1 = g[2 * (k - K_MIN)], g0 = g[2 * (k - K_MIN) + 1];
    const uint64_t vb = rop(g1, g0, cb << h), vbl = rop(g1, g0, cbl << h),
                   vbr = rop(g1, g0, cbr << h);
    const uint64_t s = vb >> 2, t = s + 1;

    *e = k;

    if (s >= 10) { /* one digit fewer, if exactly one of those neighbours fits */
        const uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        const int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    const int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    /* both fit: the closer, and the even one on a tie */
    const uint64_t mid = (s + t) << 1;
    return vb < mid || (vb == mid && (s & 1) == 0) ? s : t;
}

static char *put(char *p, const char *s)
{
    while (*s)
        *p++ = *s++;
    return p;
}

static const char PAIRS[200] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 0 and 10^k, k = 1 .. 19: n has digits(n) digits. */
static const uint64_t TENS[20] = {
    0, UINT64_C(10), UINT64_C(100), UINT64_C(1000), UINT64_C(10000), UINT64_C(100000),
    UINT64_C(1000000), UINT64_C(10000000), UINT64_C(100000000), UINT64_C(1000000000),
    UINT64_C(10000000000), UINT64_C(100000000000), UINT64_C(1000000000000),
    UINT64_C(10000000000000), UINT64_C(100000000000000), UINT64_C(1000000000000000),
    UINT64_C(10000000000000000), UINT64_C(100000000000000000),
    UINT64_C(1000000000000000000), UINT64_C(10000000000000000000)};

/* The number of decimal digits of n, 1 for 0: the bit length times log10 2
 * (1233 / 4096) is the count or one less. */
static inline int digits(uint64_t n)
{
    const int t = (64 - __builtin_clzll(n | 1)) * 1233 >> 12;
    return t + (n >= TENS[t]);
}

/* The pair of digits of n < 100 at p. */
static inline void put2(char *p, uint32_t n) { memcpy(p, PAIRS + 2 * n, 2); }

/* The digits of n, most significant first, in p[0 .. digits(n)); returns
 * the end. */
static char *put_uint(char *p, uint64_t n)
{
    char *const end = p + digits(n), *q = end;

    while (n >= 100000000) { /* the lowest 8 digits, apart from the rest */
        const uint32_t low = (uint32_t)(n % 100000000), a = low / 10000, b = low % 10000;
        n /= 100000000;
        q -= 8;
        put2(q, a / 100);
        put2(q + 2, a % 100);
        put2(q + 4, b / 100);
        put2(q + 6, b % 100);
    }
    uint32_t m = (uint32_t)n;
    for (; m >= 100; m /= 100)
        put2(q -= 2, m % 100);
    if (m >= 10)
        put2(q - 2, m);
    else
        q[-1] = (char)('0' + m);
    return end;
}

/* v as repr(v) writes it: at most 24 characters. */
static char *put_double(char *p, double v, const uint64_t *g)
{
    uint64_t bits, f;
    int e;

    memcpy(&bits, &v, sizeof bits);
    const uint64_t t = bits & (C_MIN - 1);
    const int bq = (int)(bits >> 52) & 0x7ff;
    if (isnan(v)) /* without its sign, as repr writes it */
        return put(p, "nan");
    if (bits >> 63)
        *p++ = '-';
    if (bq == 0x7ff)
        return put(p, "inf");
    if (bq == 0 && t == 0)
        return put(p, "0.0");
    /* |v| = c 2^q */
    const uint64_t c = bq ? C_MIN | t : t;
    const int q = bq ? bq + Q_MIN - 1 : Q_MIN;
    if (-53 < q && q < 0 && (c >> -q) << -q == c) { /* an integer below 2^52: exact */
        f = c >> -q;
        e = 0;
    } else {
        f = to_decimal(g, q, c, &e);
    }
    for (; f % 10 == 0; f /= 10)
        e++;

    /* the n digits of f with the decimal point after digit decpt */
    const int n = digits(f), decpt = n + e;
    if (decpt <= -4 || decpt > 16) { /* d.ddde-XX: the digits one place on, then d. */
        put_uint(p + 1, f);
        p[0] = p[1];
        p[1] = '.';
        p += n > 1 ? n + 1 : 1;
        const int x = decpt - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        if (abs(x) < 10)
            *p++ = '0';
        return put_uint(p, (uint64_t)abs(x));
    }
    if (decpt <= 0) { /* 0.000ddd */
        memcpy(p, "0.000", (size_t)(2 - decpt));
        return put_uint(p + 2 - decpt, f);
    }
    if (decpt < n) { /* dd.ddd: the digits one place on, then the first decpt back */
        char *const end = put_uint(p + 1, f);
        memmove(p, p + 1, (size_t)decpt);
        p[decpt] = '.';
        return end;
    }
    p = put_uint(p, f); /* ddd000.0 */
    memcpy(p, "000000000000000", (size_t)(decpt - n));
    return put(p + decpt - n, ".0");
}

/* The rows x cols values of x (C order) as CSV lines into out, each line
 * ending in a newline; a column with integer[j] set is written as integers,
 * which its values must be, below 2^63 in magnitude.  out holds 25 bytes
 * per value.  Returns the number of bytes written. */
int64_t tubeint_csv(const double *x, int64_t rows, int64_t cols, const unsigned char *integer,
                    const uint64_t *g, char *out)
{
    char *p = out;

    for (int64_t i = 0; i < rows; i++) {
        for (int64_t j = 0; j < cols; j++) {
            const double v = x[i * cols + j];
            if (!integer[j]) {
                p = put_double(p, v, g);
            } else if (v < 0) {
                *p++ = '-';
                p = put_uint(p, (uint64_t)-v);
            } else {
                p = put_uint(p, (uint64_t)v);
            }
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    }
    return p - out;
}
