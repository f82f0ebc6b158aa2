/* Compiled RK4 for tubeint's four systems: y, z, coupled and Ermakov.
 *
 * Each system is written once, as a vector field evaluated in the same order
 * and association as the stages of its Python ``step``, and one stage routine,
 * ``rk4``, combines the stages as the Python steps do.  So the compiled loop
 * reproduces the Python loop of ``tubeint.integrate._drive`` bit for bit, when
 * compiled without floating-point contraction and without fast-math:
 *
 *     cc -O2 -shared -fPIC -ffp-contract=off -o _rk4.so _rk4.c -lm
 *
 * ``pow`` is the libm function that Python's float ``**`` calls.  Python raises
 * OverflowError where ``**`` overflows; C returns inf, so every ``pow`` result
 * is checked and reported as NONFINITE at the step where Python would raise.
 *
 * The one export, ``tubeint_rk4``, runs the steps start .. stop-1 of one
 * chunk over the half-step coefficient table ``coef`` (coef[2i .. 2i+2] at t,
 * t + h/2 and t + h of step start + i), with the escape test after every step
 * and the finiteness test at every record point.  It writes each recorded
 * state into row ``*rows`` of ``out`` and returns a status code (below).
 */

#include <math.h>
#include <stdint.h>

enum { Y, Z, COUPLED, ERMAKOV }; /* the systems, in the order of _rk4.KERNELS */

enum {
    OK = 0,
    ESCAPE = 1,           /* |x[esc]| > limit or NaN after step *at - 1 */
    NONFINITE = 2,        /* a pow overflowed in step *at, or the state is
                             non-finite at record step *at */
    NONPOSITIVE_T = 3,    /* stage value *value <= 0 at t = *at h */
    NONPOSITIVE_HALF = 4, /* ... at t + h/2 */
    NONPOSITIVE_H = 5     /* ... at t + h */
};

#define DIM 6 /* the largest state, the coupled one */
/* Unrolled, the stage loops keep a state in registers as hand-written stages do. */
#define UNROLLED _Pragma("GCC unroll 6")

/* Constants of one run, derived as the Python integrators derive them. */
struct sys { double h, half, sixth, eps, om, om2; };

/* A field writes the derivative k at state x and coefficient value c.  It
 * returns OK, NONFINITE when a pow overflows, or NONPOSITIVE_T with *value set
 * when the component that must stay positive does not. */
typedef int (*field_fn)(const struct sys *s, const double *x, double c, double *k,
                        double *value);

#define POSITIVE(v) if ((v) <= 0.0) { *value = (v); return NONPOSITIVE_T; }
#define POW(out, v, e) const double out = pow((v), (e)); if (isinf(out)) return NONFINITE;

/* (y, y', y'', J) in rescaled time. */
static inline int field_y(const struct sys *s, const double *x, double c, double *k,
                          double *value)
{
    const double y = x[0], dy = x[1], ddy = x[2], eps = s->eps;

    POSITIVE(y);
    POW(pw, y, -2.5);
    k[0] = dy;
    k[1] = ddy;
    k[2] = eps * c * pw - 4.0 * dy;
    k[3] = pw * c;
    return OK;
}

/* (z, p) of z'' + omega^2 z + g(t) z^2 = 0; c is g. */
static inline int field_z(const struct sys *s, const double *x, double c, double *k,
                          double *value)
{
    const double z = x[0], p = x[1];

    (void)value;
    k[0] = p;
    k[1] = -s->om2 * z - c * z * z;
    return OK;
}

/* (y, y', y'', J, z, p) in physical time, g = y^(-5/2). */
static inline int field_coupled(const struct sys *s, const double *x, double c, double *k,
                                double *value)
{
    const double y = x[0], dy = x[1], ddy = x[2], z = x[4], p = x[5];
    const double eps = s->eps, om = s->om;

    POSITIVE(y);
    POW(pw, y, -2.5);
    k[0] = om * dy;
    k[1] = om * ddy;
    k[2] = om * (eps * c * pw - 4.0 * dy);
    k[3] = om * pw * c;
    k[4] = p;
    k[5] = -s->om2 * z - pw * z * z;
    return OK;
}

/* (z, p, w, w') of z'' = -f z and w'' = -f w + w^-3; c is f. */
static inline int field_ermakov(const struct sys *s, const double *x, double c, double *k,
                                double *value)
{
    const double z = x[0], p = x[1], w = x[2], dw = x[3];

    (void)s;
    POSITIVE(w);
    k[0] = p;
    k[1] = -c * z;
    k[2] = dw;
    POW(pw, w, -3.0);
    k[3] = -c * w + pw;
    return OK;
}

/* One field evaluation; a nonpositive value is reported with the stage's code. */
#define STAGE(xs, c, k, code)                   \
    if ((status = field(s, xs, c, k, value)) != OK) \
        return status == NONPOSITIVE_T ? (code) : status;

/* One RK4 step of the dim-dimensional state x from t, given the coefficient
 * at t, t + h/2 and t + h in c[0], c[1], c[2]. */
static inline int rk4(field_fn field, int dim, const struct sys *s, double *x,
                      const double *c, double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth;
    double k1[DIM], k2[DIM], k3[DIM], k4[DIM], xs[DIM];
    int i, status;

    STAGE(x, c[0], k1, NONPOSITIVE_T);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + half * k1[i];
    STAGE(xs, c[1], k2, NONPOSITIVE_HALF);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + half * k2[i];
    STAGE(xs, c[1], k3, NONPOSITIVE_HALF);
    UNROLLED for (i = 0; i < dim; i++)
        xs[i] = x[i] + h * k3[i];
    STAGE(xs, c[2], k4, NONPOSITIVE_H);
    UNROLLED for (i = 0; i < dim; i++)
        x[i] = x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
    return OK;
}

/* The chunk loop of _drive around one field; inlined once per system. */
static inline int run(field_fn field, int dim, const struct sys *s, const double *coef,
                      int64_t start, int64_t stop, int64_t rec, int esc, double limit,
                      double *x, double *out, int64_t *rows, int64_t *at, double *value)
{
    double state[DIM];
    int i, status;

    for (i = 0; i < dim; i++)
        state[i] = x[i];
    for (int64_t k = start; k < stop; k++) {
        status = rk4(field, dim, s, state, coef + 2 * (k - start), value);
        if (status != OK) {
            *at = k;
            return status;
        }
        const int64_t kk = k + 1;
        /* Written so that a NaN coordinate escapes too. */
        if (esc >= 0 && !(fabs(state[esc]) <= limit)) {
            *at = kk;
            return ESCAPE;
        }
        if (kk % rec == 0) {
            double *row = out + *rows * dim;
            for (i = 0; i < dim; i++) {
                if (!isfinite(state[i])) {
                    *at = kk;
                    return NONFINITE;
                }
                row[i] = state[i];
            }
            ++*rows;
        }
    }
    for (i = 0; i < dim; i++)
        x[i] = state[i];
    return OK;
}

/* par: (h, eps, omega) for every system; a system ignores what it does not
 * use.  Returns -1 for an unknown system. */
int tubeint_rk4(int system, const double *par, const double *coef, int64_t start,
                int64_t stop, int64_t rec, int esc, double limit, double *x, double *out,
                int64_t *rows, int64_t *at, double *value)
{
    const double h = par[0], om = par[2];
    const struct sys s = {h, 0.5 * h, h / 6.0, par[1], om, om * om};

#define RUN(field, dim) \
    run(field, dim, &s, coef, start, stop, rec, esc, limit, x, out, rows, at, value)
    switch (system) {
    case Y: return RUN(field_y, 4);
    case Z: return RUN(field_z, 2);
    case COUPLED: return RUN(field_coupled, 6);
    case ERMAKOV: return RUN(field_ermakov, 4);
    }
    return -1;
}
