/*
 * Compiled training steps for advsamp.training.
 *
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
