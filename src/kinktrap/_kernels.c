/* The Python reference of _kernels.py, operation for operation: the Verlet
 * and RK4 runners, derived_column (one of a trajectory's R, V, r, w and E
 * columns) and format_rows (the CSV rows of float64 columns).
 *
 * Every expression keeps the order of its Python counterpart, and the
 * library is built with -O2 -ffp-contract=off (no fused multiply-add, no
 * reassociation), so each result equals the Python reference bit for bit.
 * exp is libm's, the function that Python's math.exp calls.
 *
 * accel, pair_energy, verlet_step and after_step are static inline so that
 * gcc -O2 inlines them into each runner's loop: a step then keeps the accelerations,
 * the Gaussian factors, maxd and nrec in registers, and the runners call
 * nothing but exp (objdump -d shows it).  Called out of line, they sent those
 * through memory every step, about a fifth of a Verlet step's time.
 * Inlining moves no operation, so the bits are unchanged.
 *
 * No division is by zero: every separation is >= floor, and floor^(n+2) > 0.
 *
 * format_rows writes each float as the bytes of Python's repr: the shortest
 * digits that read back to the same double, found with Ryu (U. Adams, "Ryu:
 * fast float-to-string conversion", PLDI 2018), laid out as repr lays them out.
 * The digits go straight into the caller's buffer, in the 8-, 4- and 2-digit
 * groups of Ryu's d2s; only cells near the end of the buffer are formatted
 * aside first, so that nothing is written past its capacity.
 *
 * run_verlet_lanes runs the points of a batch as run_verlet runs each one,
 * two at a time in one loop.  While both of its lanes hold a point, one step
 * advances both in SSE2 vectors of two doubles (GCC's vector extensions;
 * SSE2 is the x86-64 baseline, so the flags stay as they are): kick, drift,
 * the floor test, the power loop, the divide, the force, the energy, the
 * drift peak and the exit test run packed, two lanes per instruction, and
 * exp is libm's, called once per lane and coordinate.  The force, energy and step
 * are written once, in STEP_FUNCTIONS, for double and for the vector, so
 * each lane does run_verlet's operations in run_verlet's order and each
 * point's results are run_verlet's bit for bit.  A step whose drift breaches
 * the floor in either lane is taken again on the scalar verlet_step in each
 * lane, so no force is taken below the floor, and the last point left
 * finishes alone on the scalar step.  Threads share a batch through a
 * counter that the caller owns, and the library keeps no state.
 *
 * The five functions without static are the library's whole interface:
 * _kernels.py binds each of them, and nothing else.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { RAN_ALL = 0, EXIT = 1, COINCIDENT = 2 };

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

/* Two doubles, one per lane, and what comparing two of them gives (all ones
 * where true): GCC vector types, which SSE2 computes both lanes of at once. */
typedef double v2d __attribute__((vector_size(16)));
typedef int64_t v2m __attribute__((vector_size(16)));

/* The per-type helpers of STEP_FUNCTIONS for v2d: fabs, exp, c ? a : b and
 * "true in either lane".  abs_v2 clears the sign bits as fabs does, and
 * exp_v2 calls libm's exp once per lane. */
static inline v2d abs_v2(v2d x)
{
    return (v2d)((v2m)x & INT64_MAX);
}

static inline v2d exp_v2(v2d x)
{
    return (v2d){exp(x[0]), exp(x[1])};
}

static inline v2d select_v2(v2m c, v2d a, v2d b)
{
    return (v2d)((c & (v2m)a) | (~c & (v2m)b));
}

static inline int any_v2(v2m c)
{
    return (c[0] | c[1]) != 0;
}

/* ... and for double. */
#define SELECT(c, a, b) ((c) ? (a) : (b))
#define ONLY(c) (c)

/* The force, the energy, the Verlet step and the checks after it, written
 * once for T, which is double or v2d: S is the suffix of their names (none
 * for double), M the type of a comparison, ONE the T whose lanes are 1.0,
 * and ABS, EXP, SELECT and ANY the helpers above.  Each lane of a v2d gets
 * the double version's operations in its order, basic IEEE operations that
 * SSE2 rounds as the scalar unit does, so every lane's bits are the double
 * version's.
 *
 *   Pair         a pair's state and the force there: the accelerations and
 *                the Gaussian factors of _accel.
 *   accel        _accel.
 *   pair_energy  pair_energy, with dx = x1 - x2 and g = exp(-beta x^2).
 *   verlet_step  one step of _run_verlet on p: kick, drift, the floor check,
 *                the force at the new positions, kick.  Returns COINCIDENT,
 *                with the positions drifted and the velocities kicked once,
 *                when the drift breaches the floor in any lane, before any
 *                force is taken there; RAN_ALL otherwise.  dx is x1 - x2.
 *   drift_peak   after_step's drift peak: maxd becomes |E - e0| where that
 *                is larger.
 *   leaving      after_step's exit test, for exit_radius > 0: true where the
 *                pair is past the exit radius and moving outward. */
#define STEP_FUNCTIONS(T, S, M, ONE, ABS, EXP, SELECT, ANY)                      \
    typedef struct {                                                             \
        T x1, v1, x2, v2, a1, a2, g1, g2;                                        \
    } Pair##S;                                                                   \
                                                                                 \
    static inline void accel##S(const Model *m, T x1, T x2,                      \
                                T *a1, T *a2, T *g1, T *g2)                      \
    {                                                                            \
        T dx = x1 - x2;                                                          \
        T sep = ABS(dx);                                                         \
        T p = ONE;                                                               \
        for (int64_t j = 0; j < m->n + 2; j++)                                   \
            p *= sep;                                                            \
        *g1 = EXP(-m->beta * x1 * x1);                                           \
        *g2 = EXP(-m->beta * x2 * x2);                                           \
        T internal = -m->k * dx + m->n * m->alpha * dx / p;                      \
        double coef = -2.0 * m->A * m->beta;                                     \
        *a1 = internal + coef * x1 * *g1;                                        \
        *a2 = -internal + coef * x2 * *g2;                                       \
    }                                                                            \
                                                                                 \
    static inline T pair_energy##S(const Model *m, T dx, T v1, T v2, T g1, T g2) \
    {                                                                            \
        T sep = ABS(dx);                                                         \
        T p = ONE;                                                               \
        for (int64_t j = 0; j < m->n; j++)                                       \
            p *= sep;                                                            \
        return 0.5 * (v1 * v1 + v2 * v2) + 0.5 * m->k * dx * dx + m->alpha / p   \
               + ((-m->A * g1) + (-m->A * g2));                                  \
    }                                                                            \
                                                                                 \
    static inline int verlet_step##S(const Model *m, double dt, double h2,       \
                                     double floor_, Pair##S *p, T *dx)           \
    {                                                                            \
        p->v1 += h2 * p->a1;                                                     \
        p->v2 += h2 * p->a2;                                                     \
        p->x1 += dt * p->v1;                                                     \
        p->x2 += dt * p->v2;                                                     \
        *dx = p->x1 - p->x2;                                                     \
        if (ANY(ABS(*dx) < floor_))                                              \
            return COINCIDENT;                                                   \
        accel##S(m, p->x1, p->x2, &p->a1, &p->a2, &p->g1, &p->g2);               \
        p->v1 += h2 * p->a1;                                                     \
        p->v2 += h2 * p->a2;                                                     \
        return RAN_ALL;                                                          \
    }                                                                            \
                                                                                 \
    static inline void drift_peak##S(const Model *m, T e0, T dx, T v1, T v2,     \
                                     T g1, T g2, T *maxd)                        \
    {                                                                            \
        T d = ABS(pair_energy##S(m, dx, v1, v2, g1, g2) - e0);                   \
        *maxd = SELECT(d > *maxd, d, *maxd);                                     \
    }                                                                            \
                                                                                 \
    static inline M leaving##S(double exit_radius, T x1, T v1, T x2, T v2)       \
    {                                                                            \
        T R = 0.5 * (x1 + x2);                                                   \
        T V = 0.5 * (v1 + v2);                                                   \
        return ((R >= exit_radius) | (R <= -exit_radius)) & (R * V > 0.0);       \
    }

STEP_FUNCTIONS(double, , int, 1.0, fabs, exp, SELECT, ONLY)
STEP_FUNCTIONS(v2d, _v2, v2m, ((v2d){1.0, 1.0}), abs_v2, exp_v2, select_v2, any_v2)

/* _tail's after_step, the runners' shared bookkeeping after a completed
 * step: the drift peak, the recording test and the exit test.  Model and
 * Tail hold what _tail closes over, maxd and nrec its running totals. */
static inline int after_step(const Model *m, const Tail *r, int64_t steps,
                             double x1, double v1, double x2, double v2,
                             double dx, double g1, double g2,
                             double *maxd, int64_t *nrec)
{
    drift_peak(m, r->e0, dx, v1, v2, g1, g2, maxd);
    if (r->stride > 0 && steps % r->stride == 0 && *nrec < r->cap) {
        r->t[*nrec] = r->t0 + steps * r->dt;
        r->x1[*nrec] = x1;
        r->v1[*nrec] = v1;
        r->x2[*nrec] = x2;
        r->v2[*nrec] = v2;
        *nrec += 1;
    }
    if (r->exit_radius > 0.0 && leaving(r->exit_radius, x1, v1, x2, v2))
        return EXIT;
    return RAN_ALL;
}

/* _tail's done: the runner's results into out and counts. */
static int done(int status, int64_t steps, double x1, double v1, double x2, double v2,
                double maxd, int64_t nrec, double *out, int64_t *counts)
{
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
 * v2, maxd), and counts, which receives (steps, nrec). */
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
    Pair p = {x1, v1, x2, v2, 0.0, 0.0, 0.0, 0.0};
    double dx;
    if (fabs(x1 - x2) < floor_)
        RETURN(COINCIDENT, steps, x1, v1, x2, v2);
    accel(&m, x1, x2, &p.a1, &p.a2, &p.g1, &p.g2);
    double h2 = 0.5 * dt;
    for (int64_t i = 0; i < nsteps; i++) {
        if (verlet_step(&m, dt, h2, floor_, &p, &dx) != RAN_ALL)
            RETURN(COINCIDENT, i + 1, p.x1, p.v1, p.x2, p.v2);
        steps = i + 1;
        status = after_step(&m, &tail, steps, p.x1, p.v1, p.x2, p.v2, dx, p.g1, p.g2,
                            &maxd, &nrec);
        if (status != RAN_ALL)
            break;
    }
    RETURN(status, steps, p.x1, p.v1, p.x2, p.v2);
}

/* What the points of one run_verlet_lanes call share: the model, dt, floor
 * and exit radius, and the arrays and counter of the batch. */
typedef struct {
    Model m;
    double dt, h2, floor_, exit_radius;
    const double *starts;
    const int64_t *nsteps;
    int64_t npoints;
    int64_t *next;
    double *ends;
    int64_t *counts;
} Batch;

/* A point in flight in run_verlet_lanes: its index (-1 for a lane left
 * idle), its state and step budget, and run_verlet's running totals, with
 * its own Tail for its e0 (stride 0: nothing is recorded). */
typedef struct {
    int64_t point, steps, nsteps, nrec;
    double maxd;
    Pair p;
    Tail tail;
} Lane;

/* L's point's results, as run_verlet's done gives them: ends holds five
 * doubles a point (x1, v1, x2, v2, maxd), counts three int64s (steps, nrec,
 * status). */
static void lane_done(const Lane *L, int status, const Batch *b)
{
    int64_t *c = b->counts + 3 * L->point;
    c[2] = done(status, L->steps, L->p.x1, L->p.v1, L->p.x2, L->p.v2, L->maxd, L->nrec,
                b->ends + 5 * L->point, c);
}

/* Give L the next point that takes a step, claimed from the shared counter;
 * a point that breaches the floor at its start, or has no steps to run,
 * ends at once, as in run_verlet.  L->point is -1 once the points are all
 * claimed. */
static void lane_start(Lane *L, const Batch *b)
{
    for (;;) {
        L->point = __atomic_fetch_add(b->next, 1, __ATOMIC_RELAXED);
        if (L->point >= b->npoints) {
            L->point = -1;
            return;
        }
        const double *s = b->starts + 5 * L->point;
        L->p = (Pair){s[0], s[1], s[2], s[3], 0.0, 0.0, 0.0, 0.0};
        L->tail = (Tail){0.0, b->dt, b->exit_radius, s[4], 0, 0, NULL, NULL, NULL, NULL, NULL};
        L->nsteps = b->nsteps[L->point];
        L->steps = L->nrec = 0;
        L->maxd = 0.0;
        if (fabs(L->p.x1 - L->p.x2) < b->floor_) {
            lane_done(L, COINCIDENT, b);
            continue;
        }
        accel(&b->m, L->p.x1, L->p.x2, &L->p.a1, &L->p.a2, &L->p.g1, &L->p.g2);
        if (L->nsteps > 0)
            return;
        lane_done(L, RAN_ALL, b);
    }
}

static void lane_end(Lane *L, int status, const Batch *b)
{
    lane_done(L, status, b);
    lane_start(L, b);
}

/* One step of L's point on the scalar verlet_step, as run_verlet takes it. */
static void lane_step(Lane *L, const Batch *b)
{
    double dx;
    int status = verlet_step(&b->m, b->dt, b->h2, b->floor_, &L->p, &dx);
    L->steps += 1;
    if (status == RAN_ALL)
        status = after_step(&b->m, &L->tail, L->steps, L->p.x1, L->p.v1, L->p.x2,
                            L->p.v2, dx, L->p.g1, L->p.g2, &L->maxd, &L->nrec);
    if (status != RAN_ALL || L->steps == L->nsteps)
        lane_end(L, status, b);
}

/* Steps of both lanes' points at once, each verlet_step_v2, drift_peak_v2
 * and leaving_v2, until one of the points ends: it leaves, spends its
 * budget, or breaches the floor.  A breaching step is taken again from the
 * state before it, by lane_step in each lane, so that the breaching lane
 * ends as run_verlet ends and the other takes its step with its force. */
static void run_packed(Lane *lane, const Batch *b)
{
    Lane *L0 = &lane[0], *L1 = &lane[1];
    Pair_v2 p = {{L0->p.x1, L1->p.x1}, {L0->p.v1, L1->p.v1}, {L0->p.x2, L1->p.x2},
                 {L0->p.v2, L1->p.v2}, {L0->p.a1, L1->p.a1}, {L0->p.a2, L1->p.a2},
                 {L0->p.g1, L1->p.g1}, {L0->p.g2, L1->p.g2}};
    const v2d e0 = {L0->tail.e0, L1->tail.e0};
    v2d maxd = {L0->maxd, L1->maxd};
    const int64_t left0 = L0->nsteps - L0->steps, left1 = L1->nsteps - L1->steps;
    const int64_t left = left0 < left1 ? left0 : left1;
    v2m exits = {0, 0};
    int breached = 0;
    int64_t i = 0;
    while (i < left) {
        const Pair_v2 before = p;
        v2d dx;
        if (verlet_step_v2(&b->m, b->dt, b->h2, b->floor_, &p, &dx) != RAN_ALL) {
            p = before;
            breached = 1;
            break;
        }
        i++;
        drift_peak_v2(&b->m, e0, dx, p.v1, p.v2, p.g1, p.g2, &maxd);
        if (b->exit_radius > 0.0) {
            exits = leaving_v2(b->exit_radius, p.x1, p.v1, p.x2, p.v2);
            if (any_v2(exits))
                break;
        }
    }
    for (int j = 0; j < 2; j++) {
        Lane *L = &lane[j];
        L->p = (Pair){p.x1[j], p.v1[j], p.x2[j], p.v2[j], p.a1[j], p.a2[j], p.g1[j], p.g2[j]};
        L->maxd = maxd[j];
        L->steps += i;
        if (breached)
            lane_step(L, b);
        else if (exits[j])
            lane_end(L, EXIT, b);
        else if (L->steps == L->nsteps)
            lane_end(L, RAN_ALL, b);
    }
}

/* run_verlet_lanes: point i of npoints is run_verlet from starts[5i..5i+5)
 * = (x1, v1, x2, v2, e0) for nsteps[i] steps under the shared model, dt,
 * floor and exit radius, with t0 = 0 and no recording; its results go to
 * ends and counts (see lane_done).  Points are claimed one at a time from
 * *next, which callers on other threads may share: every point is run
 * once, by whichever of the two lanes is free first.  While both lanes hold
 * a point, run_packed advances them together; the last point left finishes
 * alone on lane_step. */
void run_verlet_lanes(const double *starts, const int64_t *nsteps, int64_t npoints,
                      double dt, double k, double alpha, int64_t n, double A, double beta,
                      double floor_, double exit_radius, int64_t *next,
                      double *ends, int64_t *counts)
{
    const Batch b = {{k, alpha, A, beta, n}, dt, 0.5 * dt, floor_, exit_radius,
                     starts, nsteps, npoints, next, ends, counts};
    Lane lane[2];
    lane_start(&lane[0], &b);
    lane_start(&lane[1], &b);
    while (lane[0].point >= 0 && lane[1].point >= 0)
        run_packed(lane, &b);
    for (int j = 0; j < 2; j++)
        while (lane[j].point >= 0)
            lane_step(&lane[j], &b);
}

/* A stage of _run_rk4: the floor check on its positions, then its force. */
#define STAGE(xs1, vs1, xs2, vs2, f1, f2)                                        \
    if (fabs(xs1 - xs2) < floor_)                                                \
        RETURN(COINCIDENT, i + 1, xs1, vs1, xs2, vs2);                           \
    accel(&m, xs1, xs2, &f1, &f2, &g1, &g2)

/* _run_rk4: classical RK4 on (x1, v1, x2, v2). */
SIGNATURE(run_rk4)
{
    SETUP;
    double a1, b1, a2_, b2, a3, b3, a4, b4, g1, g2;
    if (fabs(x1 - x2) < floor_)
        RETURN(COINCIDENT, steps, x1, v1, x2, v2);
    double h2 = 0.5 * dt;
    for (int64_t i = 0; i < nsteps; i++) {
        accel(&m, x1, x2, &a1, &b1, &g1, &g2);
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
        if (fabs(dx) < floor_)
            RETURN(COINCIDENT, i + 1, x1, v1, x2, v2);
        steps = i + 1;
        g1 = exp(-beta * x1 * x1);
        g2 = exp(-beta * x2 * x2);
        status = after_step(&m, &tail, steps, x1, v1, x2, v2, dx, g1, g2, &maxd, &nrec);
        if (status != RAN_ALL)
            break;
    }
    RETURN(status, steps, x1, v1, x2, v2);
}

/* derived_column: at each of len recorded states, the column DERIVED[which]
 * into out: R, V, r or w (cm_coordinates) for which 0 to 3, and for 4 E
 * (pair_energy), whose Gaussian factors come from exp as in the runners. */
void derived_column(const double *x1, const double *v1, const double *x2, const double *v2,
                    int64_t len, double k, double alpha, int64_t n, double A, double beta,
                    int64_t which, double *out)
{
    const Model m = {k, alpha, A, beta, n};
    for (int64_t i = 0; i < len; i++) {
        switch (which) {
        case 0:
            out[i] = 0.5 * (x1[i] + x2[i]);
            break;
        case 1:
            out[i] = 0.5 * (v1[i] + v2[i]);
            break;
        case 2:
            out[i] = 0.5 * (x2[i] - x1[i]);
            break;
        case 3:
            out[i] = 0.5 * (v2[i] - v1[i]);
            break;
        default: {
            double g1 = exp(-beta * x1[i] * x1[i]);
            double g2 = exp(-beta * x2[i] * x2[i]);
            out[i] = pair_energy(&m, x1[i] - x2[i], v1[i], v2[i], g1, g2);
        }
        }
    }
}

/* The integer helpers of shortest, below. */

static inline int32_t pow5bits(int32_t e)     /* bitlen(5^e), for 0 <= e <= 3528 */
{
    return (int32_t)((((uint32_t)e * 1217359u) >> 19) + 1);
}

static inline uint32_t log10_pow2(int32_t e)  /* floor(log10(2^e)), 0 <= e <= 1650 */
{
    return ((uint32_t)e * 78913u) >> 18;
}

static inline uint32_t log10_pow5(int32_t e)  /* floor(log10(5^e)), 0 <= e <= 2620 */
{
    return ((uint32_t)e * 732923u) >> 20;
}

static inline int multiple_of_pow5(uint64_t v, uint32_t p)   /* v > 0 */
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* (m * mul) >> j, mul the 128-bit table entry, j >= 64. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    unsigned __int128 lo = (unsigned __int128)m * mul[0];
    unsigned __int128 hi = (unsigned __int128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

static inline int decimal_length(uint64_t v)  /* v < 10^17 */
{
    /* a compare chain, as Ryu's decimalLength17: no table, no loop */
    if (v >= 10000000000000000ull) return 17;
    if (v >= 1000000000000000ull) return 16;
    if (v >= 100000000000000ull) return 15;
    if (v >= 10000000000000ull) return 14;
    if (v >= 1000000000000ull) return 13;
    if (v >= 100000000000ull) return 12;
    if (v >= 10000000000ull) return 11;
    if (v >= 1000000000ull) return 10;
    if (v >= 100000000ull) return 9;
    if (v >= 10000000ull) return 8;
    if (v >= 1000000ull) return 7;
    if (v >= 100000ull) return 6;
    if (v >= 10000ull) return 5;
    if (v >= 1000ull) return 4;
    if (v >= 100ull) return 3;
    if (v >= 10ull) return 2;
    return 1;
}

/* Ryu's d2d: the shortest decimal digits * 10^e10 that read back as the
 * double with this biased exponent and mantissa field (not both zero), the
 * closest of them, ties to even.  pow5_inv[2q..2q+1] holds the low and high
 * words of 2^(bitlen(5^q) - 1 + 125) / 5^q + 1 and pow5[2i..2i+1] those of
 * 5^i scaled to 125 bits; _kernels.py computes both. */
static uint64_t shortest(uint32_t ieee_exponent, uint64_t ieee_mantissa,
                         const uint64_t *pow5_inv, const uint64_t *pow5, int32_t *e10)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_exponent == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = ieee_mantissa;
    } else {
        e2 = (int32_t)ieee_exponent - 1023 - 52 - 2;
        m2 = (1ull << 52) | ieee_mantissa;
    }
    const int accept_bounds = (m2 & 1) == 0;
    /* In units of 2^e2, x is mv and the midpoints to its neighbours are
     * mv + 2 and mv - 1 - mm_shift; mm_shift is 0 at a power of two, whose
     * lower neighbour is nearer.  Even mantissas own those midpoints. */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = ieee_mantissa != 0 || ieee_exponent <= 1;
    uint64_t vr, vp, vm;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        *e10 = (int32_t)q;
        const int32_t i = -e2 + (int32_t)q + 125 + pow5bits((int32_t)q) - 1;
        const uint64_t *mul = pow5_inv + 2 * q;
        vr = mul_shift(4 * m2, mul, i);
        vp = mul_shift(4 * m2 + 2, mul, i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, i);
        if (q <= 21) {
            /* at most one of mp, mv and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        *e10 = (int32_t)q + e2;
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5bits(i) - 125);
        const uint64_t *mul = pow5 + 2 * i;
        vr = mul_shift(4 * m2, mul, j);
        vp = mul_shift(4 * m2 + 2, mul, j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv = 4 m2 has at least two trailing zero bits */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_trailing_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    /* Drop digits while the interval [vm, vp] still holds a shorter number. */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        /* rare: the bounds or the value may be exact decimals */
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4;   /* exactly halfway: round to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                       || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {   /* most often two digits go at once */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        output = vr + (vr == vm || round_up);
    }
    *e10 += removed;
    while (output % 10 == 0) {
        output /= 10;
        *e10 += 1;
    }
    return output;
}

static const char DIGIT_PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The four digits of c < 10000 into p[0..3]. */
static inline void write4(char *p, uint32_t c)
{
    memcpy(p, DIGIT_PAIRS + 2 * (c / 100), 2);
    memcpy(p + 2, DIGIT_PAIRS + 2 * (c % 100), 2);
}

/* The len decimal digits of v (len = decimal_length(v)) into out[0..len),
 * last digit first, as Ryu's d2s writes them: 8 at once with one 64-bit
 * division while v needs more than 32 bits, then 4 and 2 at a time in
 * 32-bit arithmetic. */
static inline void write_digits(char *out, uint64_t v, int len)
{
    char *p = out + len;
    if (v >> 32) {
        const uint64_t q = v / 100000000;
        const uint32_t low = (uint32_t)(v - 100000000 * q);
        v = q;
        write4(p - 4, low % 10000);
        write4(p - 8, low / 10000);
        p -= 8;
    }
    uint32_t u = (uint32_t)v;
    while (u >= 10000) {
        write4(p - 4, u % 10000);
        u /= 10000;
        p -= 4;
    }
    if (u >= 100) {
        memcpy(p - 2, DIGIT_PAIRS + 2 * (u % 100), 2);
        u /= 100;
        p -= 2;
    }
    if (u >= 10)
        memcpy(p - 2, DIGIT_PAIRS + 2 * u, 2);
    else
        p[-1] = (char)('0' + u);
}

/* x as repr(x) writes it, into out (24 bytes at most, and nothing is
 * written past the returned length); returns the length.  Plain notation
 * when the decimal exponent lies in [-4, 16), with ".0" on an integral
 * value; otherwise d[.ddd]e+XX, with at least two exponent digits.  The
 * digits go straight to their place; where a '.' splits them they are
 * written one place right and the part before the '.' moved back. */
static int format_double(char *out, double x, const uint64_t *pow5_inv, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t exponent = (uint32_t)(bits >> 52) & 0x7ff;
    char *p = out;
    if (exponent == 0x7ff && mantissa != 0) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (exponent == 0x7ff) {
        memcpy(p, "inf", 3);
        return (int)(p - out) + 3;
    }
    if (exponent == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p - out) + 3;
    }
    int32_t e10;
    const uint64_t v = shortest(exponent, mantissa, pow5_inv, pow5, &e10);
    const int len = decimal_length(v);
    const int decpt = e10 + len;   /* x = 0.digits * 10^decpt */
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            *p++ = '0';
            *p++ = '.';
            for (int i = 0; i < -decpt; i++)
                *p++ = '0';
            write_digits(p, v, len);
            p += len;
        } else if (decpt < len) {
            write_digits(p + 1, v, len);
            memmove(p, p + 1, decpt);
            p[decpt] = '.';
            p += len + 1;
        } else {
            write_digits(p, v, len);
            p += len;
            for (int i = len; i < decpt; i++)
                *p++ = '0';
            *p++ = '.';
            *p++ = '0';
        }
    } else {
        write_digits(p + 1, v, len);
        p[0] = p[1];
        if (len > 1)
            p[1] = '.';
        p += len > 1 ? len + 1 : 1;
        *p++ = 'e';
        int e = decpt - 1;
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(p, DIGIT_PAIRS + 2 * e, 2);
        p += 2;
    }
    return (int)(p - out);
}

/* format_rows: rows start..stop of the ncols columns as CSV text, cells
 * joined by ',' and each row ended by '\n', into buf.  Returns the number of
 * bytes written, or -1, having written nothing past buf + cap, when the text
 * does not fit.  A cell is formatted in place while a whole cell fits in
 * what is left, and through cell, then copied if it fits, near cap. */
int64_t format_rows(const double *const *cols, int64_t ncols, int64_t start, int64_t stop,
                    const uint64_t *pow5_inv, const uint64_t *pow5, char *buf, int64_t cap)
{
    char cell[32];
    int64_t pos = 0;
    for (int64_t i = start; i < stop; i++) {
        for (int64_t j = 0; j < ncols; j++) {
            int len;
            if (cap - pos >= (int64_t)sizeof cell) {
                len = format_double(buf + pos, cols[j][i], pow5_inv, pow5);
            } else {
                len = format_double(cell, cols[j][i], pow5_inv, pow5);
                if (len + 1 > cap - pos)
                    return -1;
                memcpy(buf + pos, cell, len);
            }
            pos += len;
            buf[pos++] = j + 1 < ncols ? ',' : '\n';
        }
    }
    return pos;
}
