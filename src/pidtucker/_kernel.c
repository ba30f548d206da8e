/* Compiled kernels of the biased Tucker model and its CSV export, as a
 * CPython extension module, built and loaded by _kernel.py.  Which library
 * function calls each module function, the reference it matches and how its
 * errors reach the user is stated once, in _kernel.py's docstring.
 *
 * A model value is formed in two parts: pt_form_g contracts the core with
 * the mode-1 row, g[n,l] = sum over m of u[m] core[m,n,l], which depends on
 * the cell's i alone, and pt_finish completes the value at (i, j, k) from
 * g.  pt_cell owns the reuse of g: it forms g again unless the cell valued
 * before has the same i, so `value` (one cell), `values` (each row of an
 * (n, 3) cell array) and `sums` reach g only through it, and cells sorted
 * by i (as missing cells are) form g once per segment.  `sums` returns in
 * one pass the sums of squared residuals, of the core's squares, of the
 * touched factor rows' squares and of the touched biases' squares.
 * pt_step applies one entry's SGD update in place, reading g for the mode-3
 * row's gradient; `step` forms g and calls it for one cell.  Everything is
 * compiled without floating-point contraction, so results do not depend on
 * whether the CPU has fused multiply-add.
 *
 * The contraction-order contract: every sum in pt_form_g, pt_finish,
 * pt_step and `sums` starts from 0.0 and adds its terms in increasing index
 * order, as the comments at each sum state; model.py's numpy reference
 * replays that order, so both backends give the same bits.  dots and dot1
 * form every contraction and square sum, dots four independent sums at once
 * (dot4), then one at a time (dot1) for the remainder; only that scheduling
 * is free, and no sum is split or reordered.  `sums` accumulates its
 * per-entry terms with += in row order.  So a g kept from an earlier row
 * holds the bits a fresh one would.  pt_step's row, core and scratch
 * pointers are restrict, which holds because the arrays are disjoint views
 * of one parameter block and the scratch is a buffer of its own.  `sums`
 * passes one array as both of dot1's pointers, which restrict allows, as
 * neither is written through.
 *
 * `records` formats one block of CSV rows "<segment><day><slot>,<value>\n"
 * from prefix tuples the caller has already quoted, writing each value as
 * Python's format(v, ".6f") writes it, with fixed6:
 *  - fixed6 takes a finite |v| < 1e12 when the compiler has 128-bit
 *    integers.  The double is |v| = m / 2^s exactly, with the integer
 *    m < 2^53 and, as |v| < 2^40, s >= 13.  So |v| * 10^6 = N / 2^s with
 *    N = m * 10^6 < 2^73, which unsigned __int128 holds exactly.
 *    q = N >> s and the remainder r = N - q * 2^s are exact, and q is rounded
 *    up when r > 2^(s-1), or when r == 2^(s-1) and q is odd.  That is the
 *    correctly rounded, half-to-even count of millionths, which format
 *    prints: its rounding is correct, and a tie is exact, so it goes to
 *    even.  The ties are the odd multiples of 1/128.  When s >= 74,
 *    N < 2^73 <= 2^(s-1) and q is 0.  q <= 10^18 < 2^64, and it is printed
 *    as q / 10^6, a point and six digits of q % 10^6, after a '-' whenever
 *    signbit(v) is set (format writes -0.0 and -1e-9 as -0.000000).
 *  - A block holding a value fixed6 refuses (nan, the infinities,
 *    |v| >= 1e12, or any value when the compiler has no 128-bit integers)
 *    is not written here: `records` returns None, and the caller writes that
 *    block with its Python reference.
 * So the bytes equal the Python reference's for every block `records` writes.
 *
 * Where each check lives:
 *  - model.TuckerFactors checks every parameter array's shape against dims
 *    and the ranks, copies them into one C-contiguous, writeable float64
 *    block and keeps mean as a float; pt_model's seven arrays (_Handle in
 *    _kernel.py) are disjoint views of that block in checkpoint order, and
 *    _Handle sizes the scratch buffer from the ranks as pt_model states.
 *    Every call writes the scratch, and holds the GIL throughout, so no two
 *    calls on one handle overlap.  There are no fixed-size buffers here.
 *  - The bindings below check the argument count and the handle, and
 *    convert every argument (TypeError, ValueError, OverflowError); `step`
 *    rejects a non-finite err (FloatingPointError) before it reads the index.
 *  - `values`, `sums` and `records` take their arrays through get_array,
 *    which checks each buffer's format, item size, dimensions, shape and
 *    C-contiguity, that `out` is writable with one slot a cell, and that `y`
 *    or `values` holds one double a cell (ValueError).  `records` also checks
 *    that both prefix tuples hold only bytes (TypeError); its output buffer
 *    grows as needed.
 *  - check_rows is the one bounds check: every index, from unpack_index or
 *    get_cells, lies within pt_model.dims or the prefix tuples and slot
 *    count (IndexError).  All of this runs before any memory is touched.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    double *factor[3];  /* (dims[m], rank[m]), row-major */
    double *core;       /* (rank[0], rank[1], rank[2]), row-major */
    double *bias[3];    /* (dims[m],) */
    double *scratch;    /* g (r2*r3), pt_step's gt or pt_finish's dn (r1*r2), row gradients */
    long rank[3];
    int64_t dims[3];
    double mean;        /* fixed in training */
} pt_model;

/* w[a] = sum over m < n of x[m] * c[m * sm + a * sa], for a = 0..3: four
 * independent sums, each starting from 0.0 and adding its terms in m order,
 * so each equals the one-at-a-time sum (dot1) bit for bit. */
static inline void dot4(const double *restrict x, const double *restrict c, long n, long sm,
                        long sa, double *restrict w)
{
    double w0 = 0.0, w1 = 0.0, w2 = 0.0, w3 = 0.0;
    for (long m = 0; m < n; m++, c += sm) {
        const double xm = x[m];
        w0 += xm * c[0];
        w1 += xm * c[sa];
        w2 += xm * c[2 * sa];
        w3 += xm * c[3 * sa];
    }
    w[0] = w0;
    w[1] = w1;
    w[2] = w2;
    w[3] = w3;
}

static inline double dot1(const double *restrict x, const double *restrict c, long n, long sm)
{
    double w = 0.0;
    for (long m = 0; m < n; m++, c += sm)
        w += x[m] * c[0];
    return w;
}

/* w[a] = sum over m < n of x[m] * c[m * sm + a * sa], for every a < count:
 * four sums at a time, then the rest one at a time. */
static inline void dots(const double *restrict x, const double *restrict c, long n, long sm,
                        long sa, long count, double *restrict w)
{
    long a = 0;
    for (; a + 4 <= count; a += 4)
        dot4(x, c + a * sa, n, sm, sa, w + a);
    for (; a < count; a++)
        w[a] = dot1(x, c + a * sa, n, sm);
}

/* g[n,l] = sum over m of u[m] core[m,n,l], for u the mode-1 row i, into
 * the scratch's first r2*r3 doubles. */
static inline void pt_form_g(const pt_model *h, long i)
{
    const long r1 = h->rank[0], s = h->rank[1] * h->rank[2];
    dots(h->factor[0] + i * r1, h->core, r1, s, 1, s, h->scratch);
}

/* mean + multilinear term + the three biases at (i, j, k), from the g of
 * row i.  The term is contracted in predict_batch's order: dn[n] = sum over
 * l of g[n,l] t[l], into pt_step's gt slot (r1*r2 >= r2 doubles, unused
 * outside pt_step), then the sum over n of dn[n] d[n]. */
static inline double pt_finish(const pt_model *h, long i, long j, long k)
{
    const long r2 = h->rank[1], r3 = h->rank[2];
    const double *g = h->scratch;
    double *dn = h->scratch + r2 * r3;
    dots(h->factor[2] + k * r3, g, r3, 1, r3, r2, dn);
    return h->mean + dot1(dn, h->factor[1] + j * r2, r2, 1) + h->bias[0][i] + h->bias[1][j]
           + h->bias[2][k];
}

/* The model value at cell c = (i, j, k).  prev is the cell valued before
 * it on this handle, or NULL; g is formed again unless prev has c's i. */
static inline double pt_cell(const pt_model *h, const int64_t *c, const int64_t *prev)
{
    if (prev == NULL || prev[0] != c[0])
        pt_form_g(h, c[0]);
    return pt_finish(h, c[0], c[1], c[2]);
}

/* w[a] = lambda2 row[a] - err w[a]: a row's gradient from its sums. */
static inline void row_gradient(const double *restrict row, long count, double lambda2,
                                double err, double *restrict w)
{
    for (long a = 0; a < count; a++)
        w[a] = lambda2 * row[a] - err * w[a];
}

/* One entry's update, as model.instance_gradient followed by a step of size
 * eta: every gradient is formed from pre-update values, then the three
 * factor rows, the core and the three biases move against it.  g is
 * pt_form_g's for row i, formed before the call. */
static inline void pt_step(const pt_model *h, long i, long j, long k, double err, double eta,
                           double lambda1, double lambda2, double lambda3)
{
    const long r1 = h->rank[0], r2 = h->rank[1], r3 = h->rank[2];
    double *restrict u = h->factor[0] + i * r1;
    double *restrict d = h->factor[1] + j * r2;
    double *restrict t = h->factor[2] + k * r3;
    double *restrict core = h->core;
    const double *g = h->scratch;        /* (r2, r3): pt_form_g's */
    double *restrict gt = h->scratch + r2 * r3;  /* (r1, r2): core contracted with t */
    double *restrict g1 = gt + r1 * r2;  /* row gradients */
    double *restrict g2 = g1 + r1;
    double *restrict g3 = g2 + r2;
    long m, n, l;

    /* gt[m, n] = sum over l of t[l] core[m, n, l]. */
    dots(t, core, r3, 1, r3, r1 * r2, gt);
    /* phi[m] = sum over n of d[n] gt[m, n]. */
    dots(d, gt, r2, 1, r2, r1, g1);
    row_gradient(u, r1, lambda2, err, g1);
    /* psi[n] = sum over m of u[m] gt[m, n]. */
    dots(u, gt, r1, r2, 1, r2, g2);
    row_gradient(d, r2, lambda2, err, g2);
    /* chi[l] = sum over n of d[n] g[n, l]. */
    dots(d, g, r2, r3, 1, r3, g3);
    row_gradient(t, r3, lambda2, err, g3);

    /* The core step reads the rows, so it goes before they move. */
    for (m = 0; m < r1; m++)
        for (n = 0; n < r2; n++) {
            const double ud = u[m] * d[n];
            double *c = core + (m * r2 + n) * r3;
            for (l = 0; l < r3; l++)
                c[l] -= eta * (lambda1 * c[l] - err * (ud * t[l]));
        }
    for (m = 0; m < r1; m++)
        u[m] -= eta * g1[m];
    for (n = 0; n < r2; n++)
        d[n] -= eta * g2[n];
    for (l = 0; l < r3; l++)
        t[l] -= eta * g3[l];
    h->bias[0][i] -= eta * (lambda3 * h->bias[0][i] - err);
    h->bias[1][j] -= eta * (lambda3 * h->bias[1][j] - err);
    h->bias[2][k] -= eta * (lambda3 * h->bias[2][k] - err);
}

/* Python bindings, called with the GIL held.  args[0] is the handle, a bytes
 * object holding one pt_model (_Handle in _kernel.py); args[1] is the index,
 * a sequence of three integers, or an (n, 3) cell array; then come the
 * other arguments in C order.  A wrong argument count, handle or type, or
 * an index outside dims, raises instead of reaching the kernels. */
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

/* 0 when every entry of the n cells lies in [0, dims[m]), else -1 with
 * IndexError naming the first row outside.  The one bounds check here. */
static int check_rows(const int64_t *idx, Py_ssize_t n, const int64_t *dims)
{
    for (Py_ssize_t r = 0; r < n; r++)
        for (int m = 0; m < 3; m++)
            if (idx[3 * r + m] < 0 || idx[3 * r + m] >= dims[m]) {
                PyErr_Format(PyExc_IndexError,
                             "row %zd: index %lld out of range [0, %lld) in mode %d",
                             r, (long long)idx[3 * r + m], (long long)dims[m], m + 1);
                return -1;
            }
    return 0;
}

static int unpack_index(const pt_model *h, PyObject *arg, int64_t *idx)
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
    for (int m = 0; m < 3 && rc == 0; m++)
        if ((idx[m] = PyLong_AsLongLong(items[m])) == -1 && PyErr_Occurred())
            rc = -1;
    Py_DECREF(seq);
    return rc < 0 ? rc : check_rows(idx, 1, h->dims);
}

static int unpack_doubles(PyObject *const *args, Py_ssize_t n, double *x)
{
    for (Py_ssize_t a = 0; a < n; a++)
        if ((x[a] = PyFloat_AsDouble(args[a])) == -1.0 && PyErr_Occurred())
            return -1;
    return 0;
}

static PyObject *value(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; int64_t idx[3];
    if (unpack_model(args, nargs, 2, &h) < 0 || unpack_index(&h, args[1], idx) < 0)
        return NULL;
    return PyFloat_FromDouble(pt_cell(&h, idx, NULL));
}

static PyObject *step(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; int64_t idx[3]; double x[5];
    if (unpack_model(args, nargs, 7, &h) < 0 || unpack_doubles(args + 2, 1, x) < 0)
        return NULL;
    if (!isfinite(x[0])) {
        PyErr_SetString(PyExc_FloatingPointError, "non-finite err");
        return NULL;
    }
    if (unpack_index(&h, args[1], idx) < 0 || unpack_doubles(args + 3, 4, x + 1) < 0)
        return NULL;
    pt_form_g(&h, idx[0]);
    pt_step(&h, idx[0], idx[1], idx[2], x[0], x[1], x[2], x[3], x[4]);
    Py_RETURN_NONE;
}

/* True when b holds 8-byte items of one native type whose struct code is in
 * codes (numpy's int64 is "l" on LP64 platforms, "q" elsewhere). */
static int native_items(const Py_buffer *b, const char *codes)
{
    const char *f = b->format;
    if (*f == '@' || *f == '=')
        f++;
    return b->itemsize == 8 && f[0] != '\0' && f[1] == '\0' && strchr(codes, f[0]) != NULL;
}

/* The length of a tuple whose items are all bytes, or -1 with TypeError. */
static Py_ssize_t prefix_count(PyObject *arg, const char *what)
{
    if (PyTuple_Check(arg)) {
        Py_ssize_t n = PyTuple_GET_SIZE(arg), a = 0;
        while (a < n && PyBytes_Check(PyTuple_GET_ITEM(arg, a)))
            a++;
        if (a == n)
            return n;
    }
    PyErr_Format(PyExc_TypeError, "%s must be a tuple of bytes", what);
    return -1;
}

/* format(v, ".6f") into out (at least 24 bytes) for a finite |v| < 1e12,
 * by the exact integer rounding the header proves; returns the length, or 0
 * when v is outside that domain. */
static size_t fixed6(double v, char *out)
{
#ifdef __SIZEOF_INT128__
    if (!(fabs(v) < 1e12))  /* also nan */
        return 0;
    uint64_t bits, m, q = 0;
    memcpy(&bits, &v, sizeof bits);
    const int e = (int)(bits >> 52 & 0x7ff);
    const int s = e ? 1075 - e : 1074;  /* |v| = m / 2^s */
    m = bits & ((UINT64_C(1) << 52) - 1);
    if (e)
        m |= UINT64_C(1) << 52;
    if (s < 74) {
        const unsigned __int128 n = (unsigned __int128)m * 1000000u;
        const unsigned __int128 half = (unsigned __int128)1 << (s - 1);
        const unsigned __int128 r = n & (2 * half - 1);
        q = (uint64_t)(n >> s);
        q += r > half || (r == half && (q & 1));
    }
    char digits[20], *p = out, *k = digits + sizeof digits;
    uint64_t whole = q / 1000000;
    unsigned frac = (unsigned)(q % 1000000);
    if (signbit(v))
        *p++ = '-';
    do
        *--k = (char)('0' + whole % 10);
    while ((whole /= 10) > 0);
    const size_t lw = (size_t)(digits + sizeof digits - k);
    memcpy(p, k, lw);
    p += lw;
    *p++ = '.';
    for (int a = 5; a >= 0; a--, frac /= 10)
        p[a] = (char)('0' + frac % 10);
    return (size_t)(p + 6 - out);
#else
    (void)v;
    (void)out;
    return 0;
#endif
}

/* The rows of n checked cells, as bytes, or None, with no exception set, at
 * the first value fixed6 refuses. */
static PyObject *format_rows(PyObject *segments, PyObject *days, const int64_t *idx,
                             const double *values, Py_ssize_t n)
{
    size_t len = 0, cap = (size_t)n * 40 + 64;
    char *buf = PyMem_Malloc(cap);
    if (buf == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t r = 0; r < n; r++) {
        char v[24];
        size_t lv = fixed6(values[r], v);
        if (lv == 0) {
            PyMem_Free(buf);
            Py_RETURN_NONE;
        }
        PyObject *s = PyTuple_GET_ITEM(segments, idx[3 * r]);
        PyObject *d = PyTuple_GET_ITEM(days, idx[3 * r + 1]);
        size_t ls = (size_t)PyBytes_GET_SIZE(s), ld = (size_t)PyBytes_GET_SIZE(d);
        char slot[24], *k = slot + sizeof slot;
        int64_t rest = idx[3 * r + 2];
        *--k = ',';
        do
            *--k = (char)('0' + rest % 10);
        while ((rest /= 10) > 0);
        size_t lk = (size_t)(slot + sizeof slot - k);
        size_t need = len + ls + ld + lk + lv + 1;
        if (need > cap) {
            char *grown = PyMem_Realloc(buf, cap = 2 * need);
            if (grown == NULL) {
                PyMem_Free(buf);
                return PyErr_NoMemory();
            }
            buf = grown;
        }
        char *out = buf + len;
        memcpy(out, PyBytes_AS_STRING(s), ls);
        memcpy(out += ls, PyBytes_AS_STRING(d), ld);
        memcpy(out += ld, k, lk);
        memcpy(out += lk, v, lv);
        out[lv] = '\n';
        len = need;
    }
    PyObject *rows = PyBytes_FromStringAndSize(buf, (Py_ssize_t)len);
    PyMem_Free(buf);
    return rows;
}

/* Acquire arg as a C-contiguous buffer of native 8-byte items: (n, 3) int64
 * cells when n < 0, and then the row count is returned, else (n,) float64
 * values, writable when flags holds PyBUF_WRITABLE.  On a mismatch the
 * buffer is released and -1 returned with ValueError, or with the buffer
 * protocol's own exception. */
static Py_ssize_t get_array(PyObject *arg, Py_buffer *b, Py_ssize_t n, int flags,
                            const char *name)
{
    if (PyObject_GetBuffer(arg, b, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    if (n < 0 ? b->ndim == 2 && b->shape[1] == 3 && native_items(b, "lq")
              : b->ndim == 1 && b->shape[0] == n && native_items(b, "d"))
        return b->shape[0];
    if (n < 0)
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous (n, 3) int64 buffer", name);
    else
        PyErr_Format(PyExc_ValueError, "%s must be a C-contiguous (%zd,) float64 buffer",
                     name, n);
    PyBuffer_Release(b);
    return -1;
}

/* The cells in arg, checked against dims, and the (n,) float64 buffer in
 * data (flags as in get_array).  Returns n, or -1 with an exception and
 * neither buffer held. */
static Py_ssize_t get_cells(const int64_t *dims, PyObject *arg, Py_buffer *ib, PyObject *data,
                            Py_buffer *db, int flags, const char *name)
{
    Py_ssize_t n = get_array(arg, ib, -1, 0, "idx");
    if (n < 0)
        return -1;
    if (get_array(data, db, n, flags, name) < 0) {
        PyBuffer_Release(ib);
        return -1;
    }
    if (check_rows(ib->buf, n, dims) < 0) {
        PyBuffer_Release(db);
        PyBuffer_Release(ib);
        return -1;
    }
    return n;
}

static PyObject *values(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; Py_buffer ib, ob; Py_ssize_t n;
    if (unpack_model(args, nargs, 3, &h) < 0
        || (n = get_cells(h.dims, args[1], &ib, args[2], &ob, PyBUF_WRITABLE, "out")) < 0)
        return NULL;
    const int64_t *idx = ib.buf;
    double *out = ob.buf;
    for (Py_ssize_t r = 0; r < n; r++)
        out[r] = pt_cell(&h, idx + 3 * r, r ? idx + 3 * (r - 1) : NULL);
    PyBuffer_Release(&ob);
    PyBuffer_Release(&ib);
    Py_RETURN_NONE;
}

static PyObject *sums(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    pt_model h; Py_buffer ib, yb; Py_ssize_t n;
    if (unpack_model(args, nargs, 3, &h) < 0
        || (n = get_cells(h.dims, args[1], &ib, args[2], &yb, 0, "y")) < 0)
        return NULL;
    const int64_t *idx = ib.buf;
    const double *y = yb.buf;
    double resid = 0.0, rows = 0.0, biases = 0.0;
    for (Py_ssize_t r = 0; r < n; r++) {
        const int64_t *c = idx + 3 * r;
        double e = y[r] - pt_cell(&h, c, r ? c - 3 : NULL);
        resid += e * e;
        for (int m = 0; m < 3; m++) {
            const double *row = h.factor[m] + c[m] * h.rank[m];
            rows += dot1(row, row, h.rank[m], 1);
            biases += h.bias[m][c[m]] * h.bias[m][c[m]];
        }
    }
    PyBuffer_Release(&yb);
    PyBuffer_Release(&ib);
    double core = dot1(h.core, h.core, h.rank[0] * h.rank[1] * h.rank[2], 1);
    return Py_BuildValue("(dddd)", resid, core, rows, biases);
}

static PyObject *records(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "records expects (segments, days, slots_per_day, idx, values)");
        return NULL;
    }
    int64_t dims[3]; Py_buffer ib, vb; Py_ssize_t n;
    if ((dims[0] = prefix_count(args[0], "segments")) < 0
        || (dims[1] = prefix_count(args[1], "days")) < 0
        || ((dims[2] = PyLong_AsLongLong(args[2])) == -1 && PyErr_Occurred())
        || (n = get_cells(dims, args[3], &ib, args[4], &vb, 0, "values")) < 0)
        return NULL;
    PyObject *out = format_rows(args[0], args[1], ib.buf, vb.buf, n);
    PyBuffer_Release(&vb);
    PyBuffer_Release(&ib);
    return out;
}

static PyMethodDef methods[] = {
    {"value", (PyCFunction)(void (*)(void))value, METH_FASTCALL,
     "value(handle, (i, j, k)): the model value at cell (i, j, k)."},
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL,
     "step(handle, (i, j, k), err, eta, lambda1, lambda2, lambda3): one entry's update."},
    {"values", (PyCFunction)(void (*)(void))values, METH_FASTCALL,
     "values(handle, idx, out): the model value at each (n, 3) int64 cell, into out."},
    {"sums", (PyCFunction)(void (*)(void))sums, METH_FASTCALL,
     "sums(handle, idx, y): the sums of squared residuals, core, touched factor rows "
     "and touched biases."},
    {"records", (PyCFunction)(void (*)(void))records, METH_FASTCALL,
     "records(segments, days, slots_per_day, idx, values): one block of CSV rows as bytes, "
     "or None when a value is outside fixed6's domain."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_pt_kernel", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC PyInit__pt_kernel(void)
{
    return PyModule_Create(&module);
}
