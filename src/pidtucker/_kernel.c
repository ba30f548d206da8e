/* Per-entry kernels of the biased Tucker model, as a CPython extension module.
 *
 * pt_value is the model value at one cell and pt_step applies one entry's
 * SGD update in place; model.predict and solver.sgd_step call them through
 * the module functions `value` and `step` at the end of this file (built and
 * loaded by _kernel.py).  The numpy code in model.py and solver.py is the
 * reference: these functions agree with it within 1e-12.  They are compiled
 * without floating-point contraction, so results do not depend on whether
 * the CPU has fused multiply-add.
 *
 * Where each check lives:
 *  - _kernel.py (_Handle) packs a pt_model only for C-contiguous, aligned,
 *    writeable float64 arrays whose shapes match dims and the ranks, and
 *    sizes the scratch buffer from the ranks (r1*r2 + r1 + r2 + 2*r3
 *    doubles).  There are no fixed-size buffers here.
 *  - The bindings below check the argument count and the handle, convert
 *    every argument, reject a non-finite err (FloatingPointError, before
 *    the index) and an index outside dims (IndexError) before any memory
 *    is touched.
 *  - model.predict and solver.sgd_step turn those exceptions into the
 *    library's DataError and DivergenceError.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

typedef struct {
    double *factor[3];  /* (dims[m], rank[m]), row-major */
    double *bias[3];    /* (dims[m],) */
    double *core;       /* (rank[0], rank[1], rank[2]), row-major */
    double *scratch;    /* written by pt_step */
    long rank[3];
    long dims[3];
} pt_model;

/* mean + multilinear term + the three biases.  The term is contracted in
 * predict_batch's order: the mode-1 row with the core, then the mode-3 row,
 * then the mode-2 row. */
static double pt_value(const pt_model *h, long i, long j, long k, double mean)
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
    return mean + multi + h->bias[0][i] + h->bias[1][j] + h->bias[2][k];
}

/* One entry's update, as model.instance_gradient followed by a step of size
 * eta: every gradient is formed from pre-update values, then the three
 * factor rows, the core and the three biases move against it. */
static void pt_step(const pt_model *h, long i, long j, long k, double err, double eta,
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

/* Python bindings, called with the GIL held.  args[0] is the handle, a bytes
 * object holding one pt_model (_Handle in _kernel.py); args[1] is the index,
 * a sequence of three integers; then come the double arguments in C order.
 * A wrong argument count, handle or type, or an index outside dims, raises
 * instead of reaching the kernels. */
static int unpack_model(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want, pt_model *h)
{
    if (nargs != want || !PyBytes_Check(args[0])
        || PyBytes_GET_SIZE(args[0]) != (Py_ssize_t)sizeof *h) {
        PyErr_Format(PyExc_TypeError, "expected a packed pt_model and %zd more arguments",
                     want - 1);
        return -1;
    }
    memcpy(h, PyBytes_AS_STRING(args[0]), sizeof *h);
    return 0;
}

static int unpack_index(const pt_model *h, PyObject *arg, long *idx)
{
    PyObject *seq = PySequence_Fast(arg, "the index must be a sequence of three integers");
    if (seq == NULL)
        return -1;
    int rc = 0;
    if (PySequence_Fast_GET_SIZE(seq) != 3) {
        PyErr_SetString(PyExc_ValueError, "the index must have three entries");
        rc = -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int m = 0; m < 3 && rc == 0; m++) {
        if ((idx[m] = PyLong_AsLong(items[m])) == -1 && PyErr_Occurred())
            rc = -1;
        else if (idx[m] < 0 || idx[m] >= h->dims[m]) {
            PyErr_Format(PyExc_IndexError, "index %ld out of range [0, %ld) in mode %d",
                         idx[m], h->dims[m], m + 1);
            rc = -1;
        }
    }
    Py_DECREF(seq);
    return rc;
}

static int unpack_doubles(PyObject *const *args, Py_ssize_t n, double *x)
{
    for (Py_ssize_t a = 0; a < n; a++)
        if ((x[a] = PyFloat_AsDouble(args[a])) == -1.0 && PyErr_Occurred())
            return -1;
    return 0;
}

static PyObject *value(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; long idx[3]; double mean;
    if (unpack_model(args, nargs, 3, &h) < 0 || unpack_index(&h, args[1], idx) < 0
        || unpack_doubles(args + 2, 1, &mean) < 0)
        return NULL;
    return PyFloat_FromDouble(pt_value(&h, idx[0], idx[1], idx[2], mean));
}

static PyObject *step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; long idx[3]; double x[5];
    if (unpack_model(args, nargs, 7, &h) < 0 || unpack_doubles(args + 2, 1, x) < 0)
        return NULL;
    if (!isfinite(x[0])) {
        PyErr_SetString(PyExc_FloatingPointError, "non-finite err");
        return NULL;
    }
    if (unpack_index(&h, args[1], idx) < 0 || unpack_doubles(args + 3, 4, x + 1) < 0)
        return NULL;
    pt_step(&h, idx[0], idx[1], idx[2], x[0], x[1], x[2], x[3], x[4]);
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"value", (PyCFunction)(void (*)(void))value, METH_FASTCALL,
     "value(handle, (i, j, k), mean): the model value at cell (i, j, k)."},
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(handle, (i, j, k), err, eta, lambda1, lambda2, lambda3): one entry's update."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_pt_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__pt_kernel(void)
{
    return PyModule_Create(&module);
}
