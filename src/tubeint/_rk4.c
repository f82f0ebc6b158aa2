/* Compiled RK4 steps for tubeint's four systems: y, z, coupled and Ermakov.
 *
 * Each step below copies the Python ``step`` of its system operation for
 * operation, in the same order, so a kernel reproduces the Python loop of
 * ``tubeint.integrate._drive`` bit for bit.  That holds only when the file is
 * compiled without floating-point contraction and without fast-math:
 *
 *     cc -O2 -shared -fPIC -ffp-contract=off -o _rk4.so _rk4.c -lm
 *
 * ``pow`` is the libm function that Python's float ``**`` calls.  Python raises
 * OverflowError where ``**`` overflows; C returns inf, so every ``pow`` result
 * is checked and reported as NONFINITE at the step where Python would raise.
 *
 * Every exported kernel runs the steps start .. stop-1 of one chunk over the
 * half-step coefficient table ``coef`` (coef[2i], coef[2i+1], coef[2i+2] are
 * the coefficient at t, t + h/2 and t + h of step start + i).  It applies the
 * escape test after every step and the finiteness test at every record point,
 * writes each recorded state into row ``*rows`` of ``out`` and returns a
 * status.  On failure ``*at`` is a step index and ``*value`` the offending
 * stage value, as listed with the status codes.
 */

#include <math.h>
#include <stdint.h>

enum {
    OK = 0,
    ESCAPE = 1,           /* |x[esc]| > limit or NaN after step *at - 1 */
    NONFINITE = 2,        /* a pow overflowed in step *at, or the state is
                             non-finite at record step *at */
    NONPOSITIVE_T = 3,    /* stage value *value <= 0 at t = *at h */
    NONPOSITIVE_HALF = 4, /* ... at t + h/2 */
    NONPOSITIVE_H = 5     /* ... at t + h */
};

/* Constants of one run, derived as the Python integrators derive them. */
struct sys {
    double h, half, sixth, eps, om, om2;
};

typedef int (*step_fn)(const struct sys *s, double *x, double c0, double cm, double c1,
                       double *value);

#define POSITIVE(v, status) \
    if ((v) <= 0.0) {       \
        *value = (v);       \
        return (status);    \
    }

#define POW(v, e, out)       \
    out = pow((v), (e));     \
    if (isinf(out))          \
        return NONFINITE;

static inline int step_y(const struct sys *s, double *x, double c0, double cm, double c1,
                         double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth, eps = s->eps;
    const double y = x[0], dy = x[1], ddy = x[2], J = x[3];
    double pw;

    POSITIVE(y, NONPOSITIVE_T);
    POW(y, -2.5, pw);
    const double a1_y = dy, a1_dy = ddy, a1_ddy = eps * c0 * pw - 4.0 * dy;
    const double a1_J = pw * c0;

    const double y2 = y + half * a1_y;
    POSITIVE(y2, NONPOSITIVE_HALF);
    POW(y2, -2.5, pw);
    const double force = eps * cm;
    const double a2_y = dy + half * a1_dy;
    const double a2_dy = ddy + half * a1_ddy;
    const double a2_ddy = force * pw - 4.0 * a2_y;
    const double a2_J = pw * cm;

    const double y3 = y + half * a2_y;
    POSITIVE(y3, NONPOSITIVE_HALF);
    POW(y3, -2.5, pw);
    const double a3_y = dy + half * a2_dy;
    const double a3_dy = ddy + half * a2_ddy;
    const double a3_ddy = force * pw - 4.0 * a3_y;
    const double a3_J = pw * cm;

    const double y4 = y + h * a3_y;
    POSITIVE(y4, NONPOSITIVE_H);
    POW(y4, -2.5, pw);
    const double a4_y = dy + h * a3_dy;
    const double a4_dy = ddy + h * a3_ddy;
    const double a4_ddy = eps * c1 * pw - 4.0 * a4_y;
    const double a4_J = pw * c1;

    x[0] = y + sixth * (a1_y + 2.0 * (a2_y + a3_y) + a4_y);
    x[1] = dy + sixth * (a1_dy + 2.0 * (a2_dy + a3_dy) + a4_dy);
    x[2] = ddy + sixth * (a1_ddy + 2.0 * (a2_ddy + a3_ddy) + a4_ddy);
    x[3] = J + sixth * (a1_J + 2.0 * (a2_J + a3_J) + a4_J);
    return OK;
}

static inline int step_z(const struct sys *s, double *x, double g0, double gm, double g1,
                         double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth, om2 = s->om2;
    const double z = x[0], p = x[1];
    (void)value;

    const double a1_z = p;
    const double a1_p = -om2 * z - g0 * z * z;

    const double z2 = z + half * a1_z;
    const double a2_z = p + half * a1_p;
    const double a2_p = -om2 * z2 - gm * z2 * z2;

    const double z3 = z + half * a2_z;
    const double a3_z = p + half * a2_p;
    const double a3_p = -om2 * z3 - gm * z3 * z3;

    const double z4 = z + h * a3_z;
    const double a4_z = p + h * a3_p;
    const double a4_p = -om2 * z4 - g1 * z4 * z4;

    x[0] = z + sixth * (a1_z + 2.0 * (a2_z + a3_z) + a4_z);
    x[1] = p + sixth * (a1_p + 2.0 * (a2_p + a3_p) + a4_p);
    return OK;
}

static inline int step_coupled(const struct sys *s, double *x, double c0, double cm,
                               double c1, double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth;
    const double eps = s->eps, om = s->om, om2 = s->om2;
    const double y = x[0], dy = x[1], ddy = x[2], J = x[3], z = x[4], p = x[5];
    double pw;

    POSITIVE(y, NONPOSITIVE_T);
    POW(y, -2.5, pw);
    const double a1_y = om * dy;
    const double a1_dy = om * ddy;
    const double a1_ddy = om * (eps * c0 * pw - 4.0 * dy);
    const double a1_J = om * pw * c0;
    const double a1_z = p;
    const double a1_p = -om2 * z - pw * z * z;

    const double y2 = y + half * a1_y;
    POSITIVE(y2, NONPOSITIVE_HALF);
    POW(y2, -2.5, pw);
    const double force = eps * cm;
    const double dy2 = dy + half * a1_dy;
    const double ddy2 = ddy + half * a1_ddy;
    const double z2 = z + half * a1_z;
    const double a2_y = om * dy2;
    const double a2_dy = om * ddy2;
    const double a2_ddy = om * (force * pw - 4.0 * dy2);
    const double a2_J = om * pw * cm;
    const double a2_z = p + half * a1_p;
    const double a2_p = -om2 * z2 - pw * z2 * z2;

    const double y3 = y + half * a2_y;
    POSITIVE(y3, NONPOSITIVE_HALF);
    POW(y3, -2.5, pw);
    const double dy3 = dy + half * a2_dy;
    const double ddy3 = ddy + half * a2_ddy;
    const double z3 = z + half * a2_z;
    const double a3_y = om * dy3;
    const double a3_dy = om * ddy3;
    const double a3_ddy = om * (force * pw - 4.0 * dy3);
    const double a3_J = om * pw * cm;
    const double a3_z = p + half * a2_p;
    const double a3_p = -om2 * z3 - pw * z3 * z3;

    const double y4 = y + h * a3_y;
    POSITIVE(y4, NONPOSITIVE_H);
    POW(y4, -2.5, pw);
    const double dy4 = dy + h * a3_dy;
    const double ddy4 = ddy + h * a3_ddy;
    const double z4 = z + h * a3_z;
    const double a4_y = om * dy4;
    const double a4_dy = om * ddy4;
    const double a4_ddy = om * (eps * c1 * pw - 4.0 * dy4);
    const double a4_J = om * pw * c1;
    const double a4_z = p + h * a3_p;
    const double a4_p = -om2 * z4 - pw * z4 * z4;

    x[0] = y + sixth * (a1_y + 2.0 * (a2_y + a3_y) + a4_y);
    x[1] = dy + sixth * (a1_dy + 2.0 * (a2_dy + a3_dy) + a4_dy);
    x[2] = ddy + sixth * (a1_ddy + 2.0 * (a2_ddy + a3_ddy) + a4_ddy);
    x[3] = J + sixth * (a1_J + 2.0 * (a2_J + a3_J) + a4_J);
    x[4] = z + sixth * (a1_z + 2.0 * (a2_z + a3_z) + a4_z);
    x[5] = p + sixth * (a1_p + 2.0 * (a2_p + a3_p) + a4_p);
    return OK;
}

static inline int step_ermakov(const struct sys *s, double *x, double fc, double fm, double fe,
                               double *value)
{
    const double h = s->h, half = s->half, sixth = s->sixth;
    const double z = x[0], p = x[1], w = x[2], dw = x[3];
    double pw;

    POSITIVE(w, NONPOSITIVE_T);
    const double a1_z = p;
    const double a1_p = -fc * z;
    const double a1_w = dw;
    POW(w, -3.0, pw);
    const double a1_dw = -fc * w + pw;

    const double z2 = z + half * a1_z;
    const double w2 = w + half * a1_w;
    POSITIVE(w2, NONPOSITIVE_HALF);
    const double a2_z = p + half * a1_p;
    const double a2_p = -fm * z2;
    const double a2_w = dw + half * a1_dw;
    POW(w2, -3.0, pw);
    const double a2_dw = -fm * w2 + pw;

    const double z3 = z + half * a2_z;
    const double w3 = w + half * a2_w;
    POSITIVE(w3, NONPOSITIVE_HALF);
    const double a3_z = p + half * a2_p;
    const double a3_p = -fm * z3;
    const double a3_w = dw + half * a2_dw;
    POW(w3, -3.0, pw);
    const double a3_dw = -fm * w3 + pw;

    const double z4 = z + h * a3_z;
    const double w4 = w + h * a3_w;
    POSITIVE(w4, NONPOSITIVE_H);
    const double a4_z = p + h * a3_p;
    const double a4_p = -fe * z4;
    const double a4_w = dw + h * a3_dw;
    POW(w4, -3.0, pw);
    const double a4_dw = -fe * w4 + pw;

    x[0] = z + sixth * (a1_z + 2.0 * (a2_z + a3_z) + a4_z);
    x[1] = p + sixth * (a1_p + 2.0 * (a2_p + a3_p) + a4_p);
    x[2] = w + sixth * (a1_w + 2.0 * (a2_w + a3_w) + a4_w);
    x[3] = dw + sixth * (a1_dw + 2.0 * (a2_dw + a3_dw) + a4_dw);
    return OK;
}

/* The chunk loop of _drive around one step; inlined into each kernel. */
static inline int run(step_fn step, int dim, const struct sys *s, const double *coef,
                      int64_t start, int64_t stop, int64_t rec, int esc, double limit,
                      double *x, double *out, int64_t *rows, int64_t *at, double *value)
{
    double state[6];
    int i, status;

    for (i = 0; i < dim; i++)
        state[i] = x[i];
    for (int64_t k = start; k < stop; k++) {
        const double *c = coef + 2 * (k - start);
        status = step(s, state, c[0], c[1], c[2], value);
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
            }
            for (i = 0; i < dim; i++)
                row[i] = state[i];
            ++*rows;
        }
    }
    for (i = 0; i < dim; i++)
        x[i] = state[i];
    return OK;
}

static struct sys constants(double h, double eps, double om)
{
    struct sys s = {h, 0.5 * h, h / 6.0, eps, om, om * om};
    return s;
}

/* par: (h, eps) */
int tubeint_rk4_y(const double *par, const double *coef, int64_t start, int64_t stop,
                  int64_t rec, int esc, double limit, double *x, double *out, int64_t *rows,
                  int64_t *at, double *value)
{
    const struct sys s = constants(par[0], par[1], 0.0);
    return run(step_y, 4, &s, coef, start, stop, rec, esc, limit, x, out, rows, at, value);
}

/* par: (h, omega) */
int tubeint_rk4_z(const double *par, const double *coef, int64_t start, int64_t stop,
                  int64_t rec, int esc, double limit, double *x, double *out, int64_t *rows,
                  int64_t *at, double *value)
{
    const struct sys s = constants(par[0], 0.0, par[1]);
    return run(step_z, 2, &s, coef, start, stop, rec, esc, limit, x, out, rows, at, value);
}

/* par: (h, eps, omega) */
int tubeint_rk4_coupled(const double *par, const double *coef, int64_t start, int64_t stop,
                        int64_t rec, int esc, double limit, double *x, double *out,
                        int64_t *rows, int64_t *at, double *value)
{
    const struct sys s = constants(par[0], par[1], par[2]);
    return run(step_coupled, 6, &s, coef, start, stop, rec, esc, limit, x, out, rows, at,
               value);
}

/* par: (h,) */
int tubeint_rk4_ermakov(const double *par, const double *coef, int64_t start, int64_t stop,
                        int64_t rec, int esc, double limit, double *x, double *out,
                        int64_t *rows, int64_t *at, double *value)
{
    const struct sys s = constants(par[0], 0.0, 0.0);
    return run(step_ermakov, 4, &s, coef, start, stop, rec, esc, limit, x, out, rows, at,
               value);
}
