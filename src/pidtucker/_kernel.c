/* Per-entry kernels of the biased Tucker model.
 *
 * pt_value is the model value at one cell and pt_step applies one entry's
 * SGD update in place; model.predict, model.predict_unbiased and
 * solver.sgd_step call them through ctypes (see _kernel.py).  The numpy code
 * in model.py and solver.py is the reference: these functions agree with it
 * within 1e-12.  They are compiled without floating-point contraction, so
 * results do not depend on whether the CPU has fused multiply-add.
 *
 * The caller validates indices, passes only C-contiguous float64 arrays
 * whose shapes match the ranks, and sizes the scratch buffer from the ranks
 * (r1*r2 + r1 + r2 + 2*r3 doubles).  There are no fixed-size buffers here.
 */

typedef struct {
    double *factor[3];  /* (dims[m], rank[m]), row-major */
    double *bias[3];    /* (dims[m],) */
    double *core;       /* (rank[0], rank[1], rank[2]), row-major */
    double *scratch;    /* written by pt_step */
    long rank[3];
} pt_model;

/* mean + multilinear term + the three biases when biased is nonzero, else the
 * multilinear term alone.  The term is contracted in predict_batch's order:
 * the mode-1 row with the core, then the mode-3 row, then the mode-2 row. */
double pt_value(const pt_model *h, long i, long j, long k, double mean, int biased)
{
    const long r1 = h->rank[0], r2 = h->rank[1], r3 = h->rank[2];
    const double *u = h->factor[0] + i * r1;
    const double *d = h->factor[1] + j * r2;
    const double *t = h->factor[2] + k * r3;
    double multi = 0.0;

    for (long n = 0; n < r2; n++) {
        double dn = 0.0;
        for (long l = 0; l < r3; l++) {
            double g = 0.0;
            for (long m = 0; m < r1; m++)
                g += u[m] * h->core[(m * r2 + n) * r3 + l];
            dn += g * t[l];
        }
        multi += dn * d[n];
    }
    if (!biased)
        return multi;
    return mean + multi + h->bias[0][i] + h->bias[1][j] + h->bias[2][k];
}

/* One entry's update, as model.instance_gradient followed by a step of size
 * eta: every gradient is formed from pre-update values, then the three
 * factor rows, the core and the three biases move against it. */
void pt_step(const pt_model *h, long i, long j, long k, double err, double eta,
             double lambda1, double lambda2, double lambda3)
{
    const long r1 = h->rank[0], r2 = h->rank[1], r3 = h->rank[2];
    double *u = h->factor[0] + i * r1;
    double *d = h->factor[1] + j * r2;
    double *t = h->factor[2] + k * r3;
    double *core = h->core;
    double *gt = h->scratch;    /* (r1, r2): core contracted with t */
    double *g1 = gt + r1 * r2;  /* row gradients */
    double *g2 = g1 + r1;
    double *g3 = g2 + r2;
    double *w = g3 + r3;        /* (r3): u contracted with one core slice */

    for (long m = 0; m < r1; m++)
        for (long n = 0; n < r2; n++) {
            double s = 0.0;
            for (long l = 0; l < r3; l++)
                s += core[(m * r2 + n) * r3 + l] * t[l];
            gt[m * r2 + n] = s;
        }
    for (long m = 0; m < r1; m++) {
        double phi = 0.0;
        for (long n = 0; n < r2; n++)
            phi += gt[m * r2 + n] * d[n];
        g1[m] = lambda2 * u[m] - err * phi;
    }
    for (long n = 0; n < r2; n++) {
        double psi = 0.0;
        for (long m = 0; m < r1; m++)
            psi += u[m] * gt[m * r2 + n];
        g2[n] = lambda2 * d[n] - err * psi;
    }
    for (long l = 0; l < r3; l++)
        g3[l] = 0.0;
    for (long n = 0; n < r2; n++) {
        for (long l = 0; l < r3; l++)
            w[l] = 0.0;
        for (long m = 0; m < r1; m++)
            for (long l = 0; l < r3; l++)
                w[l] += u[m] * core[(m * r2 + n) * r3 + l];
        for (long l = 0; l < r3; l++)
            g3[l] += d[n] * w[l];
    }
    for (long l = 0; l < r3; l++)
        g3[l] = lambda2 * t[l] - err * g3[l];

    /* The core step reads the rows, so it goes before they move. */
    for (long m = 0; m < r1; m++)
        for (long n = 0; n < r2; n++) {
            double ud = u[m] * d[n];
            double *c = core + (m * r2 + n) * r3;
            for (long l = 0; l < r3; l++)
                c[l] -= eta * (lambda1 * c[l] - err * (ud * t[l]));
        }
    for (long m = 0; m < r1; m++)
        u[m] -= eta * g1[m];
    for (long n = 0; n < r2; n++)
        d[n] -= eta * g2[n];
    for (long l = 0; l < r3; l++)
        t[l] -= eta * g3[l];
    h->bias[0][i] -= eta * (lambda3 * h->bias[0][i] - err);
    h->bias[1][j] -= eta * (lambda3 * h->bias[1][j] - err);
    h->bias[2][k] -= eta * (lambda3 * h->bias[2][k] - err);
}
