/*
 * Compiled kernels for advsamp: the training steps of advsamp.training and
 * the svmlight reader of advsamp.data_io (at the end of this file).
 *
 * Training steps.
 * One call runs steps t0 .. t1-1 of an epoch: step t trains on example
 * order[t] and applies Adagrad to the cells it touches. The arithmetic is
 * that of the reference loop ``training._steps_python``; only the order of
 * summation may differ.
 *
 * Arrays are C-contiguous. W and AW are (C, K), B and AB are (C,); the
 * training features are CSR (indptr, indices, data) with sorted, duplicate-
 * free column indices per row. Each function stores the chunk's loss sum
 * in *loss_out and returns -1, or the first step whose scores or loss are
 * not finite; that step's update is not applied and *loss_out holds the
 * sum of the steps before it.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* log(1 + exp(s)), as numpy.logaddexp(0, s) */
static double softplus(double s)
{
    return s > 0.0 ? s + log1p(exp(-s)) : log1p(exp(s));
}

/* acc += g^2; param -= rho * g / (sqrt(acc) + eps) */
static void adagrad(double *param, double *acc, double g, double rho, double eps)
{
    double a = *acc + g * g;
    *acc = a;
    *param -= rho * g / (sqrt(a) + eps);
}

/* x . w over the nonzeros lo .. hi-1 of one CSR row */
static double sparse_dot(const double *w, const int64_t *indices, const double *data,
                         int64_t lo, int64_t hi)
{
    double s = 0.0;
    for (int64_t k = lo; k < hi; k++)
        s += w[indices[k]] * data[k];
    return s;
}

/*
 * Negative sampling. step_labels is (m1, n): row 0 holds each step's
 * positive label, rows 1 .. m1-1 its negatives; step_lp is the matching
 * log p_n, read only when lam > 0. A label drawn more than once is scored
 * once and updated once with the sum of its entries' gradients.
 * Scratch: xi and g of m1 doubles, first of m1 int64.
 */
int64_t advsamp_neg_steps(const int64_t *indptr, const int64_t *indices, const double *data,
                          const int64_t *order, const int64_t *step_labels,
                          const double *step_lp, int64_t n, int64_t m1, int64_t t0, int64_t t1,
                          double *W, double *B, double *AW, double *AB, int64_t K,
                          double rho, double lam, double eps,
                          double *xi, double *g, int64_t *first, double *loss_out)
{
    double total = 0.0;
    for (int64_t t = t0; t < t1; t++) {
        int64_t i = order[t], lo = indptr[i], hi = indptr[i + 1];
        for (int64_t j = 0; j < m1; j++) {
            int64_t y = step_labels[j * n + t], f = 0;
            while (step_labels[f * n + t] != y)
                f++;
            first[j] = f;
            xi[j] = f < j ? xi[f] : sparse_dot(W + y * K, indices, data, lo, hi) + B[y];
            g[j] = 0.0;
        }
        double loss = 0.0;
        int finite = 1;
        for (int64_t j = 0; j < m1; j++) {
            double s = j == 0 ? -xi[j] : xi[j];
            double term = softplus(s), gj = 1.0 / (1.0 + exp(-s));
            if (j == 0)
                gj = -gj;
            if (lam > 0.0) {
                double resid = xi[j] + step_lp[j * n + t];
                term += lam * resid * resid;
                gj += 2.0 * lam * resid;
            }
            finite &= isfinite(xi[j]) != 0;
            loss += term;
            g[first[j]] += gj;
        }
        if (!finite || !isfinite(loss)) {
            *loss_out = total;
            return t;
        }
        for (int64_t j = 0; j < m1; j++) {
            if (first[j] != j)
                continue;
            int64_t y = step_labels[j * n + t];
            double *w = W + y * K, *aw = AW + y * K;
            for (int64_t k = lo; k < hi; k++)
                adagrad(w + indices[k], aw + indices[k], g[j] * data[k], rho, eps);
            adagrad(B + y, AB + y, g[j], rho, eps);
        }
        total += loss;
    }
    *loss_out = total;
    return -1;
}

/*
 * Full softmax over all C labels, plus lam * (|W[:, idx]|^2 + |B|^2) on
 * the touched parameters when lam > 0. Scratch: p of C doubles.
 */
int64_t advsamp_softmax_steps(const int64_t *indptr, const int64_t *indices, const double *data,
                              const int64_t *order, const int64_t *labels, int64_t t0, int64_t t1,
                              double *W, double *B, double *AW, double *AB, int64_t C, int64_t K,
                              double rho, double lam, double eps,
                              double *p, double *loss_out)
{
    double total = 0.0;
    for (int64_t t = t0; t < t1; t++) {
        int64_t i = order[t], lo = indptr[i], hi = indptr[i + 1], y = labels[i];
        double top = -INFINITY, l2w = 0.0, l2b = 0.0;
        int finite = 1;
        for (int64_t c = 0; c < C; c++) {
            const double *w = W + c * K;
            p[c] = sparse_dot(w, indices, data, lo, hi) + B[c];
            finite &= isfinite(p[c]) != 0;
            if (p[c] > top)
                top = p[c];
            if (lam > 0.0) {
                for (int64_t k = lo; k < hi; k++)
                    l2w += w[indices[k]] * w[indices[k]];
                l2b += B[c] * B[c];
            }
        }
        if (!finite) {
            *loss_out = total;
            return t;
        }
        double xi_y = p[y], sum = 0.0;
        for (int64_t c = 0; c < C; c++) {
            p[c] = exp(p[c] - top);
            sum += p[c];
        }
        double loss = -xi_y + top + log(sum);
        if (lam > 0.0)
            loss += lam * (l2w + l2b);
        if (!isfinite(loss)) {
            *loss_out = total;
            return t;
        }
        for (int64_t c = 0; c < C; c++) {
            double gc = p[c] / sum - (c == y ? 1.0 : 0.0);
            double *w = W + c * K, *aw = AW + c * K;
            for (int64_t k = lo; k < hi; k++) {
                double gw = gc * data[k];
                if (lam > 0.0)
                    gw += 2.0 * lam * w[indices[k]];
                adagrad(w + indices[k], aw + indices[k], gw, rho, eps);
            }
            adagrad(B + c, AB + c, lam > 0.0 ? gc + 2.0 * lam * B[c] : gc, rho, eps);
        }
        total += loss;
    }
    *loss_out = total;
    return -1;
}

/*
 * svmlight parsing. advsamp_parse_svmlight reads a whole file,
 * buf[0 .. len-1] with buf[len] == 0 (as in a Python bytes object), in one
 * pass. It accepts a strict ASCII subset of the format that
 * ``data_io._load_svmlight_python`` parses to the same result: lines end in
 * '\n' and hold only printable ASCII, the only blank is ' ', labels and
 * feature indices are plain decimal digits, and values are decimal floats
 * [+-]digits[.digits][(e|E)[+-]digits] (a mantissa digit on either side of
 * the point). Anything else -- a tab, '\r', a non-ASCII byte, a sign or '_'
 * in an integer, "nan" or "inf", a non-finite value, an int64 overflow, a
 * decreasing or negative index, an index past the header's K -- makes it
 * return the 1-based number of the line it stopped at, and the caller reads
 * the file with the Python reader, which then decides it.
 *
 * Output: row r has labels labels[label_ptr[r] .. label_ptr[r+1]-1] in
 * file order and the CSR feature row indptr[r] .. indptr[r+1]-1 of
 * (indices, data). The arrays hold max_rows + 1, max_labels and max_nnz
 * entries; a file that needs more is declined. On success it stores rows,
 * label count, nnz and K in sizes[0 .. 3] and returns -1.
 */

#define MAX_INDEX (INT64_MAX - 1) /* so that index + 1 is an int64 too */

static const double POW10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
                               1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
                               1e20, 1e21, 1e22};

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* the digits at p as an int64 <= MAX_INDEX; NULL when there are none or too many */
static const char *parse_count(const char *p, const char *end, int64_t *out)
{
    const char *start = p;
    int64_t v = 0;
    for (; p < end && is_digit(*p); p++) {
        int d = *p - '0';
        if (v > (MAX_INDEX - d) / 10)
            return NULL;
        v = v * 10 + d;
    }
    *out = v;
    return p == start ? NULL : p;
}

/*
 * The value of the decimal float [p, end), rounded as Python's float()
 * rounds it, into *out; 0 when the text is outside the grammar above or
 * the value is not finite. Short mantissas with small exponents take
 * Clinger's exact path (an integer below 2^53 times or divided by an exact
 * power of ten is one correctly rounded operation); the rest go through
 * strtod, which is correctly rounded too.
 */
static int parse_value(const char *p, const char *end, double *out)
{
    const char *start = p;
    int neg = 0, exact = 1;
    int64_t digits = 0, exp10 = 0, e = 0;
    uint64_t mant = 0;
    if (p < end && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    for (int frac = 0; p < end; p++) {
        if (*p == '.' && !frac) {
            frac = 1;
            continue;
        }
        if (!is_digit(*p))
            break;
        digits++;
        if (mant < (UINT64_C(1) << 53) / 10)
            mant = mant * 10 + (uint64_t)(*p - '0');
        else
            exact = 0;
        exp10 -= frac;
    }
    if (digits == 0)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            eneg = *p++ == '-';
        if (p == end || !is_digit(*p))
            return 0;
        for (; p < end && is_digit(*p); p++)
            if (e < 100000)
                e = e * 10 + (*p - '0');
        exp10 += eneg ? -e : e;
    }
    if (p != end)
        return 0;
    double v;
    if (exact && exp10 >= -22 && exp10 <= 22) {
        v = exp10 < 0 ? (double)mant / POW10[-exp10] : (double)mant * POW10[exp10];
        v = neg ? -v : v;
    } else {
        char *stop;
        v = strtod(start, &stop);
        if (stop != end)
            return 0;
    }
    *out = v;
    return isfinite(v) != 0;
}

/* a first line of exactly three digit fields "N K C": K into *k */
static int parse_header(const char *p, const char *end, int64_t *k)
{
    int64_t field[3];
    for (int i = 0; i < 3; i++) {
        while (p < end && *p == ' ')
            p++;
        p = parse_count(p, end, &field[i]);
        if (p == NULL || (p < end && *p != ' '))
            return 0;
    }
    while (p < end && *p == ' ')
        p++;
    if (p != end)
        return 0;
    *k = field[1];
    return 1;
}

int64_t advsamp_parse_svmlight(const char *buf, int64_t len, int64_t offset,
                               int64_t max_rows, int64_t max_labels, int64_t max_nnz,
                               int64_t *label_ptr, int64_t *labels, int64_t *indptr,
                               int64_t *indices, double *data, int64_t *sizes)
{
    const char *p = buf, *stop = buf + len;
    int64_t line = 0, rows = 0, nlab = 0, nnz = 0, num_features = 0, header_k = -1;
    label_ptr[0] = indptr[0] = 0;
    for (const char *next; p < stop; p = next) {
        const char *eol = p, *q = p;
        line++;
        for (; eol < stop && *eol != '\n'; eol++)
            if ((unsigned char)*eol < ' ' || (unsigned char)*eol > '~')
                return line;
        next = eol + (eol < stop);
        while (q < eol && *q == ' ')
            q++;
        if (q == eol)
            continue;
        if (line == 1 && !memchr(q, ':', eol - q) && !memchr(q, ',', eol - q)
            && parse_header(q, eol, &header_k))
            continue;
        if (rows == max_rows)
            return line;
        const char *te = q;
        while (te < eol && *te != ' ')
            te++;
        if (q == p && !memchr(q, ':', te - q)) {
            /* the label field: ids separated by commas, empty ids skipped */
            while (q < te) {
                if (*q == ',') {
                    q++;
                    continue;
                }
                if (nlab == max_labels)
                    return line;
                q = parse_count(q, te, &labels[nlab++]);
                if (q == NULL || (q < te && *q != ','))
                    return line;
            }
        }
        int64_t prev = -1;
        for (;;) {
            while (q < eol && *q == ' ')
                q++;
            if (q == eol)
                break;
            int64_t idx;
            te = q;
            while (te < eol && *te != ' ')
                te++;
            q = parse_count(q, te, &idx);
            if (q == NULL || q == te || *q != ':' || nnz == max_nnz)
                return line;
            idx -= offset;
            if (idx <= prev || !parse_value(q + 1, te, &data[nnz]))
                return line;
            indices[nnz++] = prev = idx;
            q = te;
        }
        if (prev + 1 > num_features)
            num_features = prev + 1;
        rows++;
        label_ptr[rows] = nlab;
        indptr[rows] = nnz;
    }
    if (header_k >= 0) {
        if (num_features > header_k)
            return line;
        num_features = header_k;
    }
    sizes[0] = rows;
    sizes[1] = nlab;
    sizes[2] = nnz;
    sizes[3] = num_features;
    return -1;
}
