/*
 * Compiled kernels for advsamp: the training steps of advsamp.training,
 * the auxiliary-tree level fit, log-probability walk and path walk of
 * advsamp.aux_tree and the svmlight reader of advsamp.data_io (at the end
 * of this file).
 *
 * Training steps.
 * One call runs steps t0 .. t1-1 of an epoch: step t trains on example
 * order[t] and applies Adagrad to the cells it touches. The arithmetic is
 * that of the numpy reference loop ``steps`` in tests/numpy_oracle.py; only
 * the order of summation may differ.
 *
 * Arrays are C-contiguous. W and AW are (C, K), B and AB are (C,); the
 * training features are CSR (indptr, indices, data) with sorted, duplicate-
 * free column indices per row. Each function stores the chunk's loss sum
 * in *loss_out and returns -1, or the first step whose scores or loss are
 * not finite; that step's update is not applied and *loss_out holds the
 * sum of the steps before it.
 */

#include <float.h>
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
 * Auxiliary-tree fit, one tree level per call. advsamp_fit_level runs the
 * alternation of ``alternate`` in tests/numpy_oracle.py for each of the
 * level's nodes from its initial (w, b): Newton ascent on theta = (w, b) for
 * the current split, then the balanced re-split, until the split is a fixed
 * point or `guard` rounds have run. Its arithmetic is that of that module's
 * ``newton_fit`` and ``split_labels``; the order of summation differs, and
 * the Newton system is solved by Cholesky (numpy uses LU), which is safe
 * because the negated Hessian plus 2 lam I is positive definite for
 * lam > 0.
 *
 * The level has `nodes` nodes of L labels each. Node i has the rows
 * rows[row_ptr[i] .. row_ptr[i+1]-1] (rows is (m, k)); row r belongs to the
 * label in slot slots[r] (in [0, L)) of the node's label_ids (nodes, L),
 * and that label has counts (nodes, L) rows that sum to aggregates
 * (nodes, L, k). Labels with ids >= num_real are padding and rank below
 * every real label. Node i's theta row (nodes, k + 1) holds its (w, b) on
 * entry and the fitted (w, b) on return; its zeta row (nodes, L) gets the
 * split, +1 for the right half. Its counters row (nodes, 4) gets Newton
 * steps, alternation rounds, Newton runs stopped at max_iter, and 1 when
 * the guard stopped the alternation; its cap_grad row (nodes, guard) the
 * gradient norm at which each stopped run ended. Returns -1; -2 when
 * scratch cannot be allocated, -3 when k + 1 exceeds MAX_THETA, and the
 * index of the first node whose Newton system is not positive definite (a
 * non-finite fit).
 */

#define MAX_THETA 65 /* aux_tree.MAX_REDUCED_DIM + 1 */

typedef struct {
    double key; /* the label's delta; -inf for padding */
    int64_t id, slot;
} ranked;

/* descending key (NaN last, as numpy sorts it), then ascending id */
static int by_delta_then_id(const void *pa, const void *pb)
{
    const ranked *a = pa, *b = pb;
    int na = isnan(a->key) != 0, nb = isnan(b->key) != 0;
    if (na != nb)
        return na - nb;
    if (a->key != b->key && !na)
        return a->key > b->key ? -1 : 1;
    if (a->id != b->id)
        return a->id < b->id ? -1 : 1;
    return (a->slot > b->slot) - (a->slot < b->slot);
}

/* split_labels: +1 for the half of the labels with the largest
   delta = aggregates[l] . w + counts[l] b */
static void split_labels(const double *aggregates, const int64_t *counts,
                         const int64_t *label_ids, int64_t L, int64_t k, int64_t num_real,
                         const double *theta, ranked *order, int64_t *zeta)
{
    for (int64_t l = 0; l < L; l++) {
        double delta = -INFINITY;
        if (label_ids[l] < num_real) {
            delta = 0.0;
            for (int64_t j = 0; j < k; j++)
                delta += aggregates[l * k + j] * theta[j];
            delta += (double)counts[l] * theta[k];
        }
        order[l].key = delta;
        order[l].id = label_ids[l];
        order[l].slot = l;
        zeta[l] = -1;
    }
    qsort(order, (size_t)L, sizeof *order, by_delta_then_id);
    for (int64_t l = 0; l < L / 2; l++)
        zeta[order[l].slot] = 1;
}

/* The loops below go two columns at a time: that is what lets the
   compiler pair them in vector registers at -O2. */

/* a . b with two partial sums */
static double dot2(const double *a, const double *b, int64_t n)
{
    double s0 = 0.0, s1 = 0.0;
    int64_t j = 0;
    for (; j + 2 <= n; j += 2) {
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
    }
    if (j < n)
        s0 += a[j] * b[j];
    return s0 + s1;
}

/* y += a x */
static void axpy2(double *y, double a, const double *x, int64_t n)
{
    int64_t j = 0;
    for (; j + 2 <= n; j += 2) {
        y[j] += a * x[j];
        y[j + 1] += a * x[j + 1];
    }
    if (j < n)
        y[j] += a * x[j];
}

/* the regularized node objective at theta for split zeta, the sum of
   log sigma(z_i) over the rows' margins z_i = s_i (x_i . w + b) less
   lam |theta|^2; its gradient into grad and each row's curvature
   sigma(z_i) sigma(-z_i) into curv */
static double node_objective(const double *rows, const int64_t *slots, int64_t m, int64_t k,
                             const int64_t *zeta, double lam, const double *theta,
                             double *curv, double *grad)
{
    double obj = 0.0;
    for (int64_t j = 0; j <= k; j++)
        grad[j] = 0.0;
    for (int64_t i = 0; i < m; i++) {
        const double *x = rows + i * k;
        double s = (double)zeta[slots[i]];
        double z = s * (dot2(x, theta, k) + theta[k]);
        /* one exp serves log sigma(z), sigma(-z) and the curvature */
        double e = exp(-fabs(z)), tail = 1.0 / (1.0 + e);
        obj -= (z < 0.0 ? -z : 0.0) + log1p(e);
        double r = s * (z < 0.0 ? tail : e * tail); /* s sigma(-z) */
        curv[i] = e * tail * tail;
        axpy2(grad, r, x, k);
        grad[k] += r;
    }
    axpy2(grad, -2.0 * lam, theta, k + 1);
    return obj - lam * dot2(theta, theta, k + 1);
}

/* adds sum_i curv[i] xt_i xt_i^T, with xt_i = (rows[i], 1), to the lower
   triangle of H (k + 1, k + 1). It takes four rows at a time (a short last
   block gets zero weights), so that each cell is loaded and stored once
   per four rows. */
static void add_gram(double *H, int64_t k, const double *rows, const double *curv, int64_t m)
{
    int64_t d = k + 1;
    for (int64_t i = 0; i < m; i += 4) {
        const double *x0 = rows + i * k;
        const double *x1 = i + 1 < m ? x0 + k : x0, *x2 = i + 2 < m ? x0 + 2 * k : x0;
        const double *x3 = i + 3 < m ? x0 + 3 * k : x0;
        double w0 = curv[i], w1 = i + 1 < m ? curv[i + 1] : 0.0;
        double w2 = i + 2 < m ? curv[i + 2] : 0.0, w3 = i + 3 < m ? curv[i + 3] : 0.0;
        for (int64_t a = 0; a < d; a++) {
            /* row a of the triangle: columns 0 .. min(a, k - 1) of x, and
               for the bias row a == k the constant 1 */
            double c0 = a < k ? w0 * x0[a] : w0, c1 = a < k ? w1 * x1[a] : w1;
            double c2 = a < k ? w2 * x2[a] : w2, c3 = a < k ? w3 * x3[a] : w3;
            double *h = H + a * d;
            int64_t top = a < k ? a + 1 : k, c = 0;
            for (; c + 2 <= top; c += 2) {
                h[c] += c0 * x0[c] + c1 * x1[c] + c2 * x2[c] + c3 * x3[c];
                h[c + 1] += c0 * x0[c + 1] + c1 * x1[c + 1] + c2 * x2[c + 1] + c3 * x3[c + 1];
            }
            if (c < top)
                h[c] += c0 * x0[c] + c1 * x1[c] + c2 * x2[c] + c3 * x3[c];
            if (a == k)
                h[k] += c0 + c1 + c2 + c3;
        }
    }
}

/* solves H x = g for the symmetric positive definite H (d, d), of which
   the lower triangle is read and overwritten by its Cholesky factor; 0
   when H is not positive definite */
static int cholesky_solve(double *H, int64_t d, const double *g, double *x)
{
    for (int64_t j = 0; j < d; j++) {
        double s = H[j * d + j];
        for (int64_t p = 0; p < j; p++)
            s -= H[j * d + p] * H[j * d + p];
        if (!(s > 0.0))
            return 0;
        H[j * d + j] = sqrt(s);
        for (int64_t i = j + 1; i < d; i++) {
            double t = H[i * d + j];
            for (int64_t p = 0; p < j; p++)
                t -= H[i * d + p] * H[j * d + p];
            H[i * d + j] = t / H[j * d + j];
        }
    }
    for (int64_t i = 0; i < d; i++) {
        double t = g[i];
        for (int64_t p = 0; p < i; p++)
            t -= H[i * d + p] * x[p];
        x[i] = t / H[i * d + i];
    }
    for (int64_t i = d - 1; i >= 0; i--) {
        double t = x[i];
        for (int64_t p = i + 1; p < d; p++)
            t -= H[p * d + i] * x[p];
        x[i] = t / H[i * d + i];
    }
    return 1;
}

/*
 * The ascent of the oracle's newton_fit from theta for split zeta, with curv
 * and curv_new of m doubles as scratch. Returns the Newton steps taken, or
 * -1 when a system is not positive definite; a run stopped at max_iter adds
 * one to *capped and its gradient norm to cap_grad.
 */
static int64_t newton(const double *rows, const int64_t *slots, int64_t m, int64_t k,
                      const int64_t *zeta, double lam, double grad_tol, double gain_ulps,
                      int64_t max_iter, int64_t halvings, double *theta, double *curv,
                      double *curv_new, int64_t *capped, double *cap_grad)
{
    int64_t d = k + 1;
    double grad[MAX_THETA], grad_new[MAX_THETA], cand[MAX_THETA], step[MAX_THETA];
    double H[MAX_THETA * MAX_THETA], gnorm = 0.0;
    if (m == 0) {
        for (int64_t j = 0; j < d; j++)
            theta[j] = 0.0;
        return 0;
    }
    double obj = node_objective(rows, slots, m, k, zeta, lam, theta, curv, grad);
    for (int64_t it = 0; it < max_iter; it++) {
        gnorm = sqrt(dot2(grad, grad, d));
        if (gnorm < grad_tol)
            return it;
        for (int64_t a = 0; a < d; a++)
            for (int64_t c = 0; c <= a; c++)
                H[a * d + c] = a == c ? 2.0 * lam : 0.0;
        add_gram(H, k, rows, curv, m);
        if (!cholesky_solve(H, d, grad, step))
            return -1;
        if (dot2(grad, step, d) <= gain_ulps * DBL_EPSILON * fabs(obj)) {
            /* below the objective's roundoff no line search sees an ascent */
            for (int64_t j = 0; j < d; j++)
                theta[j] += step[j];
            return it + 1;
        }
        /* backtracking line search: halve until ascent */
        double t = 1.0, obj_new = obj;
        int64_t h;
        for (h = 0; h < halvings; h++) {
            for (int64_t j = 0; j < d; j++)
                cand[j] = theta[j] + t * step[j];
            obj_new = node_objective(rows, slots, m, k, zeta, lam, cand, curv_new, grad_new);
            if (obj_new > obj)
                break;
            t *= 0.5;
        }
        if (h == halvings)
            return it + 1;
        double *swap = curv;
        curv = curv_new;
        curv_new = swap;
        memcpy(theta, cand, (size_t)d * sizeof *theta);
        memcpy(grad, grad_new, (size_t)d * sizeof *grad);
        obj = obj_new;
    }
    cap_grad[(*capped)++] = gnorm;
    return max_iter;
}

/* one node's alternation; scratch curv and curv_new of m doubles, order and
   next of L entries. Returns 0, or 1 when a Newton system is not positive
   definite. */
static int alternate(const double *rows, const int64_t *slots, int64_t m, int64_t k,
                     const int64_t *label_ids, const int64_t *counts, const double *aggregates,
                     int64_t L, int64_t num_real, double lam, double grad_tol, double gain_ulps,
                     int64_t max_iter, int64_t halvings, int64_t guard, double *theta,
                     int64_t *zeta, int64_t *counters, double *cap_grad, double *curv,
                     double *curv_new, ranked *order, int64_t *next)
{
    int64_t round;
    counters[0] = counters[1] = counters[2] = counters[3] = 0;
    split_labels(aggregates, counts, label_ids, L, k, num_real, theta, order, zeta);
    for (round = 0; round < guard; round++) {
        int64_t steps = newton(rows, slots, m, k, zeta, lam, grad_tol, gain_ulps, max_iter,
                               halvings, theta, curv, curv_new, &counters[2], cap_grad);
        if (steps < 0)
            return 1;
        counters[0] += steps;
        counters[1]++;
        split_labels(aggregates, counts, label_ids, L, k, num_real, theta, order, next);
        int same = memcmp(next, zeta, (size_t)L * sizeof *zeta) == 0;
        memcpy(zeta, next, (size_t)L * sizeof *zeta);
        if (same)
            break;
    }
    counters[3] = round == guard;
    return 0;
}

int64_t advsamp_fit_level(const double *rows, const int64_t *slots, const int64_t *row_ptr,
                          int64_t k, const int64_t *label_ids, const int64_t *counts,
                          const double *aggregates, int64_t nodes, int64_t L, int64_t num_real,
                          double lam, double grad_tol, double gain_ulps, int64_t max_iter,
                          int64_t halvings, int64_t guard, double *theta, int64_t *zeta,
                          int64_t *counters, double *cap_grad)
{
    if (k + 1 > MAX_THETA)
        return -3;
    int64_t max_m = 0;
    for (int64_t i = 0; i < nodes; i++)
        if (row_ptr[i + 1] - row_ptr[i] > max_m)
            max_m = row_ptr[i + 1] - row_ptr[i];
    /* two curvature arrays, then the ranking and the next split, shared by
       the nodes in turn */
    char *scratch = malloc((size_t)(2 * max_m) * sizeof(double)
                           + (size_t)L * (sizeof(ranked) + sizeof(int64_t)));
    if (scratch == NULL)
        return -2;
    double *curv = (double *)scratch, *curv_new = curv + max_m;
    ranked *order = (ranked *)(curv_new + max_m);
    int64_t *next = (int64_t *)(order + L), status = -1;
    for (int64_t i = 0; i < nodes; i++) {
        int64_t lo = row_ptr[i];
        if (alternate(rows + lo * k, slots + lo, row_ptr[i + 1] - lo, k, label_ids + i * L,
                      counts + i * L, aggregates + i * L * k, L, num_real, lam, grad_tol,
                      gain_ulps, max_iter, halvings, guard, theta + i * (k + 1), zeta + i * L,
                      counters + 4 * i, cap_grad + i * guard, curv, curv_new, order, next)) {
            status = i;
            break;
        }
    }
    free(scratch);
    return status;
}

/*
 * Tree log-probabilities: adds log p(c | x_i) of every label c into out
 * (n, C), for a tree in heap order. z and tail are (n, Cp - 1),
 * Cp = 2^depth: each node's logit at row i and log1p(exp(-|z|)), so that
 * log sigma(z) = min(z, 0) - tail and log sigma(-z) = -max(z, 0) - tail.
 * acc (2 Cp doubles) is scratch, two buffers of Cp that take turns: after
 * level l, position j of the current one holds the log-probability of
 * reaching node 2^l - 1 + j, whose right child 2j + 1 adds log sigma(z) and
 * left child 2j adds log sigma(-z) in the other buffer. label_leaf (C)
 * holds values in [0, Cp). Returns 0.
 */
int64_t advsamp_tree_add_log_probs(const double *z, const double *tail, int64_t n,
                                   int64_t depth, const int64_t *label_leaf, int64_t C,
                                   double *acc, double *out)
{
    int64_t nodes = ((int64_t)1 << depth) - 1;
    for (int64_t i = 0; i < n; i++) {
        const double *zi = z + i * nodes, *ti = tail + i * nodes;
        double *cur = acc, *next = acc + nodes + 1;
        cur[0] = 0.0;
        for (int64_t width = 1; width <= nodes; width *= 2) {
            const double *zl = zi + width - 1, *tl = ti + width - 1;
            for (int64_t j = 0; j < width; j++) {
                /* in this order gcc 12 -O2 compiles both selects without a
                   branch; a branch on the sign of z is mispredicted often */
                double p = cur[j], zj = zl[j], t = tl[j];
                double right = p + ((zj < 0.0 ? zj : 0.0) - t);
                double left = p + (-(zj > 0.0 ? zj : 0.0) - t);
                next[2 * j] = left;
                next[2 * j + 1] = right;
            }
            double *swap = cur;
            cur = next;
            next = swap;
        }
        double *oi = out + i * C;
        for (int64_t c = 0; c < C; c++)
            oi[c] += cur[label_leaf[c]];
    }
    return 0;
}

/*
 * Tree path walk, one root-to-leaf path per row of x (n, k), for a tree in
 * heap order of depth `depth` with node parameters node_w (2^depth - 1, k)
 * and node_b. At level l the row is at position pos of the level, node
 * 2^l - 1 + pos, whose logit is z = x_i . w + b, and goes on to position
 * 2 pos + bit of the next level. Two modes:
 * - pairs (thresholds NULL): bit is the level's bit of leaves[i], most
 *   significant first, and logits (depth, n) gets z for a right branch and
 *   -z for a left one, so that log p(leaf | x_i) is the sum over the
 *   levels of their log sigma;
 * - sampling: bit is thresholds[l n + i] < z (thresholds (depth, n)), which
 *   with the threshold logit(u) = log u - log1p(-u) of a uniform u goes
 *   right with probability sigma(z); leaves[i] gets the leaf position.
 * Only the low `depth` bits of a leaf are read. The levels are the outer
 * loop, so that the rows' paths, each a chain of dependent loads, overlap.
 * Returns 0.
 */
int64_t advsamp_tree_walk(const double *x, int64_t n, int64_t k, const double *node_w,
                          const double *node_b, int64_t depth, const double *thresholds,
                          int64_t *leaves, double *logits)
{
    if (thresholds != NULL)
        memset(leaves, 0, (size_t)n * sizeof *leaves);
    for (int64_t l = 0; l < depth; l++) {
        int64_t first = ((int64_t)1 << l) - 1, shift = depth - 1 - l;
        for (int64_t i = 0; i < n; i++) {
            int64_t pos = thresholds == NULL ? (leaves[i] >> (shift + 1)) & first : leaves[i];
            double z = dot2(x + i * k, node_w + (first + pos) * k, k) + node_b[first + pos];
            if (thresholds == NULL) {
                int64_t bit = (leaves[i] >> shift) & 1;
                logits[l * n + i] = bit ? z : -z;
            } else {
                leaves[i] = 2 * pos + (thresholds[l * n + i] < z);
            }
        }
    }
    return 0;
}

/*
 * svmlight parsing. advsamp_parse_svmlight reads a whole file,
 * buf[0 .. len-1] with buf[len] == 0 (as in a Python bytes object), in one
 * pass, in the grammar of the ``advsamp.data_io`` docstring, to the outcome
 * of the line-by-line oracle ``load_svmlight`` in tests/numpy_oracle.py:
 * the same arrays bit for bit, or the same first error. Indices are
 * shifted down by offset (0 or 1); K may not exceed max_features.
 *
 * Row r has labels labels[label_ptr[r] .. label_ptr[r+1]-1] in file order
 * and the CSR feature row indptr[r] .. indptr[r+1]-1 of (indices, data).
 * It returns 0 and stores rows, label count, nnz and K in sizes[0 .. 3],
 * or returns an error code (below) and stores the error's 1-based line (0
 * for none), the byte span [start, end) of the offending token and the
 * shift from that token's integer to the feature count it gives.
 *
 * advsamp_count_svmlight sizes the arrays: it stores the counts of line
 * ends ('\n' and '\r'), ',' and ':' in buf[0 .. len-1] into counts[0 .. 2]
 * and returns 0. A file has at most line ends + 1 rows, commas + rows
 * labels and colons nonzeros.
 */

/* the error codes, in the order of their messages in data_io._PARSE_ERRORS */
enum { SVM_NON_ASCII = 1, SVM_BAD_LABEL, SVM_BAD_FEATURE, SVM_INDEX_RANGE, SVM_NON_FINITE,
       SVM_UNORDERED, SVM_NEGATIVE, SVM_TOO_MANY_FEATURES, SVM_PAST_HEADER_K };

static const double POW10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
                               1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
                               1e20, 1e21, 1e22};

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Python's ASCII whitespace, on which str.split() splits (c is ASCII) */
static int is_blank(char c)
{
    return c <= ' ' && (c == ' ' || (c >= '\t' && c <= '\r') || c >= 0x1c);
}

static const char *skip_blanks(const char *p, const char *end)
{
    while (p < end && is_blank(*p))
        p++;
    return p;
}

static const char *token_end(const char *p, const char *end)
{
    while (p < end && !is_blank(*p))
        p++;
    return p;
}

/*
 * The integer [+-]digits at p, as Python's int() reads it: its sign into
 * *neg and its magnitude into *mag, saturated at UINT64_MAX. Returns the
 * end of its digits, or NULL when there are none.
 */
static inline const char *parse_int(const char *p, const char *end, int *neg, uint64_t *mag)
{
    const char *digits;
    uint64_t m = 0;
    *neg = 0;
    if (p < end && (*p == '+' || *p == '-'))
        *neg = *p++ == '-';
    for (digits = p; p < end && is_digit(*p); p++) {
        unsigned d = (unsigned)(*p - '0');
        m = m > (UINT64_MAX - d) / 10 ? UINT64_MAX : m * 10 + d;
    }
    *mag = m;
    return p == digits ? NULL : p;
}

/* the signed integer (neg, mag) minus sub (0 or 1) into *out; 0 when that lies outside int64 */
static int to_int64(int neg, uint64_t mag, int64_t sub, int64_t *out)
{
    uint64_t limit = neg ? (UINT64_C(1) << 63) - (uint64_t)sub : (uint64_t)INT64_MAX + (uint64_t)sub;
    if (mag > limit)
        return 0;
    *out = (int64_t)(neg ? 0 - mag - (uint64_t)sub : mag - (uint64_t)sub);
    return 1;
}

/* whether [p, end) spells the lower-case word w, in any case */
static int is_word(const char *p, const char *end, const char *w)
{
    for (; p < end && *w; p++, w++)
        if ((*p | 0x20) != *w)
            return 0;
    return p == end && !*w;
}

/*
 * The float [p, end) as Python's float() reads it, rounded as it rounds
 * it, into *out: 1 when it is finite, -1 when it is not (nan, inf or
 * infinity in any case, or beyond the double range), 0 when [p, end) is
 * no float. Short mantissas with small exponents take Clinger's exact path
 * (an integer below 2^53 times or divided by an exact power of ten is one
 * correctly rounded operation); the rest go through strtod, which is
 * correctly rounded too.
 */
static int parse_value(const char *p, const char *end, double *out)
{
    const char *start = p;
    int neg = 0, exact = 1;
    int64_t digits = 0, exp10 = 0, e = 0;
    uint64_t mant = 0;
    if (p < end && (*p == '+' || *p == '-'))
        neg = *p++ == '-';
    if (p < end && !is_digit(*p) && *p != '.')
        return is_word(p, end, "nan") || is_word(p, end, "inf") || is_word(p, end, "infinity")
                   ? -1 : 0;
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
    return isfinite(v) ? 1 : -1;
}

/* whether [p, end), a line without its leading blanks, is a header of exactly three integers */
static int is_header(const char *p, const char *end)
{
    int neg;
    uint64_t mag;
    for (int i = 0; i < 3; i++) {
        p = parse_int(p, end, &neg, &mag);
        if (p == NULL || (p < end && !is_blank(*p)))
            return 0;
        p = skip_blanks(p, end);
    }
    return p == end;
}

/* the error code, with its line, the span [t0, t1) of buf and the count shift into sizes */
static int64_t fail(int64_t code, int64_t *sizes, int64_t line, const char *buf,
                    const char *t0, const char *t1, int64_t shift)
{
    sizes[0] = line;
    sizes[1] = t0 - buf;
    sizes[2] = t1 - buf;
    sizes[3] = shift;
    return code;
}

#define ONES UINT64_C(0x0101010101010101)

/* the number of bytes of the word w equal to the byte c */
static int64_t count_byte(uint64_t w, unsigned char c)
{
    const uint64_t low7 = 0x7F * ONES;
    uint64_t x = w ^ (c * ONES);
    /* 0x80 in each zero byte of x, 0 in the others; no carry crosses bytes */
    uint64_t zero = ~(((x & low7) + low7) | x | low7);
    return (int64_t)(((zero >> 7) * ONES) >> 56);
}

int64_t advsamp_count_svmlight(const char *buf, int64_t len, int64_t *counts)
{
    int64_t lines = 0, commas = 0, colons = 0, i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t w;
        memcpy(&w, buf + i, sizeof w);
        lines += count_byte(w, '\n') + count_byte(w, '\r');
        commas += count_byte(w, ',');
        colons += count_byte(w, ':');
    }
    for (; i < len; i++) {
        lines += buf[i] == '\n' || buf[i] == '\r';
        commas += buf[i] == ',';
        colons += buf[i] == ':';
    }
    counts[0] = lines;
    counts[1] = commas;
    counts[2] = colons;
    return 0;
}

int64_t advsamp_parse_svmlight(const char *buf, int64_t len, int64_t offset,
                               int64_t max_features, int64_t *label_ptr, int64_t *labels,
                               int64_t *indptr, int64_t *indices, double *data,
                               int64_t *sizes)
{
    const char *p = buf, *stop = buf + len, *k0 = NULL, *k1 = NULL;
    int64_t line = 0, rows = 0, nlab = 0, nnz = 0, num_features = 0, header_k = 0;
    int neg;
    uint64_t mag;
    label_ptr[0] = indptr[0] = 0;
    for (const char *next; p < stop; p = next) {
        const char *eol = p;
        line++;
        for (; eol < stop && *eol != '\n' && *eol != '\r'; eol++)
            if ((unsigned char)*eol > 0x7f)
                return fail(SVM_NON_ASCII, sizes, line, buf, eol, eol + 1, 0);
        /* "\r\n", a lone '\r' and '\n' each end a line */
        next = eol + (eol < stop) + (eol + 1 < stop && eol[0] == '\r' && eol[1] == '\n');
        const char *q = skip_blanks(p, eol), *te = token_end(q, eol);
        if (q == eol)
            continue;
        if (line == 1 && is_header(q, eol)) {
            /* "N K C": K is the second integer */
            k0 = skip_blanks(te, eol);
            k1 = parse_int(k0, eol, &neg, &mag);
            if (!neg && mag > (uint64_t)max_features)
                return fail(SVM_TOO_MANY_FEATURES, sizes, line, buf, k0, k1, 0);
            header_k = neg && mag ? -1 : (int64_t)mag; /* a negative K fails at the end */
            continue;
        }
        /* the label field: the first token, unless the line starts with ' '
           or '\t' or the token holds a colon; empty entries are skipped */
        if (*p != ' ' && *p != '\t' && !memchr(q, ':', (size_t)(te - q))) {
            for (const char *a = q; a < te;) {
                if (*a == ',') {
                    a++;
                    continue;
                }
                a = parse_int(a, te, &neg, &mag);
                if (a == NULL || (a < te && *a != ',') || !to_int64(neg, mag, 0, &labels[nlab]))
                    return fail(SVM_BAD_LABEL, sizes, line, buf, q, te, 0);
                nlab++;
            }
            q = skip_blanks(te, eol);
        }
        /* the feature tokens; the last one's index digits are [head, colon) */
        int64_t row_start = nnz;
        int unordered = 0;
        const char *head = q, *colon = q;
        for (; q < eol; q = skip_blanks(te, eol)) {
            int64_t idx;
            te = token_end(q, eol);
            colon = parse_int(q, te, &neg, &mag);
            if (colon == NULL || colon == te || *colon != ':')
                return fail(SVM_BAD_FEATURE, sizes, line, buf, q, te, 0);
            if (!to_int64(neg, mag, offset, &idx))
                return fail(SVM_INDEX_RANGE, sizes, line, buf, q, te, 0);
            int value = parse_value(colon + 1, te, &data[nnz]);
            if (value <= 0)
                return fail(value ? SVM_NON_FINITE : SVM_BAD_FEATURE, sizes, line, buf, q, te, 0);
            unordered |= nnz > row_start && idx <= indices[nnz - 1];
            indices[nnz++] = idx;
            head = q;
        }
        if (nnz > row_start) {
            int64_t last = indices[nnz - 1];
            if (unordered)
                return fail(SVM_UNORDERED, sizes, line, buf, buf, buf, 0);
            if (indices[row_start] < 0)
                return fail(SVM_NEGATIVE, sizes, line, buf, buf, buf, 0);
            if (last >= max_features)
                return fail(SVM_TOO_MANY_FEATURES, sizes, line, buf, head, colon, 1 - offset);
            if (last >= num_features)
                num_features = last + 1;
        }
        rows++;
        label_ptr[rows] = nlab;
        indptr[rows] = nnz;
    }
    if (k0 != NULL) {
        if (num_features > header_k)
            return fail(SVM_PAST_HEADER_K, sizes, 0, buf, k0, k1, 0);
        num_features = header_k;
    }
    sizes[0] = rows;
    sizes[1] = nlab;
    sizes[2] = nnz;
    sizes[3] = num_features;
    return 0;
}
