/* The Verlet and RK4 runners of _kernels.py, operation for operation.
 *
 * Every expression keeps the order of its Python counterpart, and the
 * library is built with -O2 -ffp-contract=off (no fused multiply-add, no
 * reassociation), so each result equals the Python reference bit for bit.
 * exp is libm's, the function that Python's math.exp calls.
 *
 * Where the Python reference raises ZeroDivisionError (an exact contact
 * under a zero coincidence floor), a runner returns DEFER and the ctypes
 * wrapper re-runs the reference, which raises it.  math.exp would also raise
 * on overflow, but beta > 0 (ModelParams) keeps the argument <= 0.
 */

#include <math.h>
#include <stdint.h>

enum { DEFER = -1, RAN_ALL = 0, EXIT = 1, COINCIDENT = 2 };

typedef struct {
    double k, alpha, A, beta;
    int64_t n;
} Model;

/* What a completed step is checked and recorded against. */
typedef struct {
    double t0, dt, exit_radius, e0;
    int64_t stride, cap;
    double *t, *x1, *v1, *x2, *v2;
} Tail;

/* _accel; nonzero where the Python reference divides by zero. */
static int accel(const Model *m, double x1, double x2,
                 double *a1, double *a2, double *g1, double *g2)
{
    double dx = x1 - x2;
    double sep = fabs(dx);
    double p = 1.0;
    for (int64_t j = 0; j < m->n + 2; j++)
        p *= sep;
    *g1 = exp(-m->beta * x1 * x1);
    *g2 = exp(-m->beta * x2 * x2);
    if (p == 0.0)
        return 1;
    double internal = -m->k * dx + m->n * m->alpha * dx / p;
    double coef = -2.0 * m->A * m->beta;
    *a1 = internal + coef * x1 * *g1;
    *a2 = -internal + coef * x2 * *g2;
    return 0;
}

/* _after_step, the runners' shared tail after a completed step: the drift
 * peak, with pair_energy written inline, the recording test and the exit
 * test.  Model and Tail hold its model and tail tuples; Tail adds cap, the
 * common length of the buffers. */
static int after_step(const Model *m, const Tail *r, int64_t steps,
                      double x1, double v1, double x2, double v2,
                      double dx, double sep, double g1, double g2,
                      double *maxd, int64_t *nrec)
{
    double p = 1.0;
    for (int64_t j = 0; j < m->n; j++)
        p *= sep;
    if (p == 0.0)
        return DEFER;
    double kinetic = 0.5 * (v1 * v1 + v2 * v2);
    double spring = 0.5 * m->k * dx * dx;
    double repulsion = m->alpha / p;
    double well = (-m->A * g1) + (-m->A * g2);
    double e = kinetic + spring + repulsion + well;
    double d = fabs(e - r->e0);
    if (d > *maxd)
        *maxd = d;
    if (r->stride > 0 && steps % r->stride == 0 && *nrec < r->cap) {
        r->t[*nrec] = r->t0 + steps * r->dt;
        r->x1[*nrec] = x1;
        r->v1[*nrec] = v1;
        r->x2[*nrec] = x2;
        r->v2[*nrec] = v2;
        *nrec += 1;
    }
    if (r->exit_radius > 0.0) {
        double R = 0.5 * (x1 + x2);
        double V = 0.5 * (v1 + v2);
        if ((R >= r->exit_radius || R <= -r->exit_radius) && R * V > 0.0)
            return EXIT;
    }
    return RAN_ALL;
}

static int done(int status, int64_t steps, double x1, double v1, double x2, double v2,
                double maxd, int64_t nrec, double *out, int64_t *counts)
{
    if (status == DEFER)
        return DEFER;
    out[0] = x1;
    out[1] = v1;
    out[2] = x2;
    out[3] = v2;
    out[4] = maxd;
    counts[0] = steps;
    counts[1] = nrec;
    return status;
}

/* The runners' arguments: the Python runner's 21, with cap (the common length
 * of the five buffers) after rec_stride, then out, which receives (x1, v1, x2,
 * v2, maxd), and counts, which receives (steps, nrec), unless the status is
 * DEFER. */
#define SIGNATURE(name)                                                          \
    int name(double x1, double v1, double x2, double v2, double t0, double dt,   \
             int64_t nsteps, double k, double alpha, int64_t n, double A,        \
             double beta, double floor_, double exit_radius, double e0,          \
             int64_t rec_stride, int64_t cap, double *rec_t, double *rec_x1,     \
             double *rec_v1, double *rec_x2, double *rec_v2,                     \
             double *out, int64_t *counts)

/* The locals both runners start from. */
#define SETUP                                                                    \
    const Model m = {k, alpha, A, beta, n};                                      \
    const Tail tail = {t0, dt, exit_radius, e0, rec_stride, cap,                 \
                       rec_t, rec_x1, rec_v1, rec_x2, rec_v2};                   \
    double maxd = 0.0;                                                           \
    int64_t nrec = 0;                                                            \
    int64_t steps = 0;                                                           \
    int status = RAN_ALL

#define RETURN(status, steps, x1, v1, x2, v2)                                    \
    return done(status, steps, x1, v1, x2, v2, maxd, nrec, out, counts)

/* _run_verlet: velocity Verlet (kick-drift-kick), force reused across steps. */
SIGNATURE(run_verlet)
{
    SETUP;
    double a1, a2, g1, g2;
    double dx = x1 - x2;
    if (fabs(dx) < floor_)
        RETURN(COINCIDENT, steps, x1, v1, x2, v2);
    if (accel(&m, x1, x2, &a1, &a2, &g1, &g2))
        return DEFER;
    double h2 = 0.5 * dt;
    for (int64_t i = 0; i < nsteps; i++) {
        v1 += h2 * a1;
        v2 += h2 * a2;
        x1 += dt * v1;
        x2 += dt * v2;
        dx = x1 - x2;
        double sep = fabs(dx);
        if (sep < floor_)
            RETURN(COINCIDENT, i + 1, x1, v1, x2, v2);
        if (accel(&m, x1, x2, &a1, &a2, &g1, &g2))
            return DEFER;
        v1 += h2 * a1;
        v2 += h2 * a2;
        steps = i + 1;
        status = after_step(&m, &tail, steps, x1, v1, x2, v2, dx, sep, g1, g2, &maxd, &nrec);
        if (status != RAN_ALL)
            break;
    }
    RETURN(status, steps, x1, v1, x2, v2);
}

/* A stage of _run_rk4: its positions breach the floor, or its force divides
 * by zero. */
#define STAGE(xs1, vs1, xs2, vs2, f1, f2)                                        \
    if (fabs(xs1 - xs2) < floor_)                                                \
        RETURN(COINCIDENT, i + 1, xs1, vs1, xs2, vs2);                           \
    if (accel(&m, xs1, xs2, &f1, &f2, &g1, &g2))                                 \
        return DEFER

/* _run_rk4: classical RK4 on (x1, v1, x2, v2). */
SIGNATURE(run_rk4)
{
    SETUP;
    double a1, b1, a2_, b2, a3, b3, a4, b4, g1, g2;
    if (fabs(x1 - x2) < floor_)
        RETURN(COINCIDENT, steps, x1, v1, x2, v2);
    double h2 = 0.5 * dt;
    for (int64_t i = 0; i < nsteps; i++) {
        if (accel(&m, x1, x2, &a1, &b1, &g1, &g2))
            return DEFER;
        double xa1 = x1 + h2 * v1;
        double xa2 = x2 + h2 * v2;
        double va1 = v1 + h2 * a1;
        double va2 = v2 + h2 * b1;
        STAGE(xa1, va1, xa2, va2, a2_, b2);
        double xb1 = x1 + h2 * va1;
        double xb2 = x2 + h2 * va2;
        double vb1 = v1 + h2 * a2_;
        double vb2 = v2 + h2 * b2;
        STAGE(xb1, vb1, xb2, vb2, a3, b3);
        double xc1 = x1 + dt * vb1;
        double xc2 = x2 + dt * vb2;
        double vc1 = v1 + dt * a3;
        double vc2 = v2 + dt * b3;
        STAGE(xc1, vc1, xc2, vc2, a4, b4);
        double sixth = dt / 6.0;
        x1 = x1 + sixth * (v1 + 2.0 * va1 + 2.0 * vb1 + vc1);
        x2 = x2 + sixth * (v2 + 2.0 * va2 + 2.0 * vb2 + vc2);
        v1 = v1 + sixth * (a1 + 2.0 * a2_ + 2.0 * a3 + a4);
        v2 = v2 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4);
        double dx = x1 - x2;
        double sep = fabs(dx);
        if (sep < floor_)
            RETURN(COINCIDENT, i + 1, x1, v1, x2, v2);
        steps = i + 1;
        g1 = exp(-beta * x1 * x1);
        g2 = exp(-beta * x2 * x2);
        status = after_step(&m, &tail, steps, x1, v1, x2, v2, dx, sep, g1, g2, &maxd, &nrec);
        if (status != RAN_ALL)
            break;
    }
    RETURN(status, steps, x1, v1, x2, v2);
}
