/* The community move pass of kernels.local_move_pass, compiled.
 *
 * The pass is written in two forms, so that each checks the other: this one
 * keeps each module's old code terms and updates them only on a move, where
 * kernels._python_move_pass recomputes every term of every candidate. Both
 * run the same FIFO queue, the same mark/candidate bookkeeping and the same
 * tie rule, and compute every term with the same binary64 operations in the
 * same order, so every label, the move count and the summed delta equal the
 * Python pass's bit for bit. That needs plain IEEE double
 * arithmetic: kernels.py builds this file with -ffp-contract=off (no fused
 * multiply-add), a platform that evaluates doubles in wider registers fails
 * the check below and so falls back to the Python pass, and log2 is libm's,
 * the function CPython's math.log2 calls for a finite positive argument.
 *
 * The caller checks every index and size before calling; the module arrays
 * are the caller's working copies and end in the state the moves leave. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if FLT_EVAL_METHOD != 0
#error "doubles must be evaluated as binary64 for results equal to the Python pass"
#endif

static double plogp(double x)
{
    return x > 0.0 ? x * log2(x) : 0.0;
}

/* Returns the number of moves and sets *delta_sum, or returns -1 when the
 * scratch arrays cannot be allocated. */
int64_t local_move_pass(
    int64_t n_units, int64_t n_order, const int64_t *order, int64_t *labels,
    const double *visit, const double *tele, const double *size,
    const int64_t *nbr_ptr, const int64_t *nbr_idx, const double *nbr_out, const double *nbr_in,
    int64_t n_modules, double *mod_visit, double *mod_tele, double *mod_size,
    double *mod_cross, double *mod_exit, double exit_sum, double n_orig, double eps,
    double *delta_sum)
{
    /* the queue never holds more than n_order + n_units entries: an appended
     * unit is queued again only after one of its entries from order is popped */
    int64_t cap = n_order + n_units;
    double *conn_out = malloc(sizeof(double) * (size_t)(n_units + 1));
    double *conn_in = malloc(sizeof(double) * (size_t)(n_units + 1));
    double *mod_pq = malloc(sizeof(double) * (size_t)(n_modules + 1));
    double *mod_pqv = malloc(sizeof(double) * (size_t)(n_modules + 1));
    int64_t *mark = calloc((size_t)(n_units + 1), sizeof(int64_t));
    int64_t *cand = malloc(sizeof(int64_t) * (size_t)(n_units + 1));
    int64_t *queue = malloc(sizeof(int64_t) * (size_t)(cap + 1));
    unsigned char *queued = calloc((size_t)(n_units + 1), 1);
    int64_t moves = -1;
    if (!conn_out || !conn_in || !mod_pq || !mod_pqv || !mark || !cand || !queue || !queued)
        goto done;

    /* each module's old code terms, kept up to date by every move */
    for (int64_t m = 0; m < n_modules; m++) {
        mod_pq[m] = plogp(mod_exit[m]);
        mod_pqv[m] = plogp(mod_exit[m] + mod_visit[m]);
    }
    double plogp_exit = plogp(exit_sum);
    for (int64_t i = 0; i < n_order; i++) {
        queue[i] = order[i];
        queued[order[i]] = 1;
    }
    int64_t head = 0, count = n_order;
    double delta = 0.0;
    int64_t visits = 0;
    moves = 0;
    while (count > 0) {
        int64_t u = queue[head];
        head = head + 1 == cap ? 0 : head + 1;
        count--;
        queued[u] = 0;
        visits++;
        int64_t a = labels[u];
        int64_t ncand = 0;
        double sout = 0.0; /* the unit's own exit flow */
        for (int64_t e = nbr_ptr[u]; e < nbr_ptr[u + 1]; e++) {
            int64_t m = labels[nbr_idx[e]];
            if (mark[m] != visits) {
                mark[m] = visits;
                conn_out[m] = 0.0;
                conn_in[m] = 0.0;
                cand[ncand++] = m;
            }
            double w_out = nbr_out[e];
            conn_out[m] += w_out;
            conn_in[m] += nbr_in[e];
            sout += w_out;
        }
        if (ncand == 0)
            continue;
        double tele_u = tele[u], size_u = size[u], visit_u = visit[u];
        double ca_out = mark[a] == visits ? conn_out[a] : 0.0;
        double ca_in = mark[a] == visits ? conn_in[a] : 0.0;
        double t_a = mod_tele[a] - tele_u;
        double s_a = mod_size[a] - size_u;
        double v_a = mod_visit[a] - visit_u;
        double x_a = mod_cross[a] - (sout - ca_out) + ca_in;
        double q_a_new = t_a * (n_orig - s_a) / n_orig + x_a;
        double q_a_old = mod_exit[a];
        double pq_a = plogp(q_a_new);
        double pqv_a = plogp(q_a_new + v_a);
        double base_a = (pq_a - mod_pq[a]) * -2.0 + (pqv_a - mod_pqv[a]);
        double best_dl = -eps;
        int64_t best = -1;
        double best_q_b = 0.0, best_x_b = 0.0, best_exit = 0.0;
        double best_pq_exit = 0.0, best_pq_b = 0.0, best_pqv_b = 0.0;
        for (int64_t ci = 0; ci < ncand; ci++) {
            int64_t b = cand[ci];
            if (b == a)
                continue;
            double q_b_old = mod_exit[b];
            double t_b = mod_tele[b] + tele_u;
            double s_b = mod_size[b] + size_u;
            double v_b = mod_visit[b] + visit_u;
            double x_b = mod_cross[b] - conn_in[b] + (sout - conn_out[b]);
            double q_b_new = t_b * (n_orig - s_b) / n_orig + x_b;
            double exit_new = exit_sum - q_a_old - q_b_old + q_a_new + q_b_new;
            double pq_exit = plogp(exit_new);
            double pq_b = plogp(q_b_new);
            double pqv_b = plogp(q_b_new + v_b);
            double dl = (pq_exit - plogp_exit - 2.0 * (pq_b - mod_pq[b])
                         + (pqv_b - mod_pqv[b]) + base_a);
            /* equal gains resolve to the lowest module id */
            if (dl < best_dl || (dl == best_dl && b < best)) {
                best_dl = dl;
                best = b;
                best_q_b = q_b_new;
                best_x_b = x_b;
                best_exit = exit_new;
                best_pq_exit = pq_exit;
                best_pq_b = pq_b;
                best_pqv_b = pqv_b;
            }
        }
        if (best >= 0) {
            labels[u] = best;
            mod_tele[a] = t_a;
            mod_size[a] = s_a;
            mod_visit[a] = v_a;
            mod_cross[a] = x_a;
            mod_exit[a] = q_a_new;
            mod_pq[a] = pq_a;
            mod_pqv[a] = pqv_a;
            mod_tele[best] += tele_u;
            mod_size[best] += size_u;
            mod_visit[best] += visit_u;
            mod_cross[best] = best_x_b;
            mod_exit[best] = best_q_b;
            plogp_exit = best_pq_exit;
            mod_pq[best] = best_pq_b;
            mod_pqv[best] = best_pqv_b;
            exit_sum = best_exit;
            moves++;
            delta += best_dl;
            for (int64_t e = nbr_ptr[u]; e < nbr_ptr[u + 1]; e++) {
                int64_t v = nbr_idx[e];
                if (!queued[v] && labels[v] != best) {
                    int64_t tail = head + count;
                    queued[v] = 1;
                    queue[tail >= cap ? tail - cap : tail] = v;
                    count++;
                }
            }
        }
    }
    *delta_sum = delta;
done:
    free(conn_out);
    free(conn_in);
    free(mod_pq);
    free(mod_pqv);
    free(mark);
    free(cand);
    free(queue);
    free(queued);
    return moves;
}
