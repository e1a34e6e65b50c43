/* Graph-based segmentation of Felzenszwalb & Huttenlocher (IJCV 2004) and
 * its greedy region merge, called from seedloop.superpixel as two functions.
 *
 * felz_segment builds the 8-connected grid graph of an image, sorts its
 * edges by (weight, generation index) and runs the two union-find passes
 * over the sorted edges; it needs h * w <= 2^30. It allocates its own
 * buffers and frees them before it returns; it returns nonzero when an
 * allocation fails. On success
 * root[p], for each of the h * w pixels, is the root of pixel p's component.
 * Which root names a component does not matter: the caller renumbers
 * components by first pixel in scan order.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

int felz_segment(int64_t h, int64_t w, const double *img, double k,
                 double min_size, int64_t *root);
void rag_merge_loop(int64_t n, int64_t n_edges, int64_t *ea, int64_t *eb,
                    double *sums, double *counts, int64_t *final, double *dist,
                    double merge_thresh, int64_t max_regions);

#define DIGIT_BITS 11
#define N_BUCKETS (1 << DIGIT_BITS)
#define N_PASSES 3 /* 3 * 11 bits cover the top 32 bits of a record */
/* fix_run sorts a run of up to SHORT_RUN records by merge sort and a longer
 * one by radix_sort_hi: a radix sort's 3 * N_BUCKETS bucket sums cost more
 * than a merge sort's log m levels on short runs and less on long ones, with
 * the two about even near 256 records. Benchmark scenes have no run over 4
 * records out of order; a blurred 256x256 ramp has out-of-order runs of
 * 20k-190k records, on which felz_segment with a merge-sort-only fix-up
 * took up to 1.3x the time of a plain 6-pass radix sort of the full 64-bit
 * keys, and with this split 0.65-0.9x. */
#define SHORT_RUN 256
#define LOW32 UINT64_C(0xffffffff)

/* The Euclidean distance of two RGB colors, the squares summed left to
 * right: both the edge weights and the merge distances are this one. */
static double color_dist(const double *pa, const double *pb)
{
    double d0 = pa[0] - pb[0], d1 = pa[1] - pb[1], d2 = pa[2] - pb[2];
    return sqrt((d0 * d0 + d1 * d1) + d2 * d2);
}

/* The IEEE-754 bits of x: for +0.0 and positive finite x, their order as
 * integers is the numeric order of the doubles. */
static uint64_t key_of(double x)
{
    uint64_t key;
    memcpy(&key, &x, sizeof key);
    return key;
}

/* Stable LSD radix sort of the n records of src on their top 32 bits; dst
 * is scratch of n records. Returns whichever of src and dst holds the sorted
 * records. */
static uint64_t *radix_sort_hi(uint64_t *src, uint64_t *dst, int64_t n)
{
    int64_t hist[N_PASSES][N_BUCKETS], r;
    int pass;
    memset(hist, 0, sizeof hist);
    for (r = 0; r < n; r++)
        for (pass = 0; pass < N_PASSES; pass++)
            hist[pass][(src[r] >> (32 + pass * DIGIT_BITS)) & (N_BUCKETS - 1)]++;
    for (pass = 0; pass < N_PASSES && n > 0; pass++) {
        int shift = 32 + pass * DIGIT_BITS;
        int64_t *count = hist[pass], total = 0, b, i;
        uint64_t *tmp;
        if (count[(src[0] >> shift) & (N_BUCKETS - 1)] == n)
            continue; /* every record shares this digit: the pass moves nothing */
        for (b = 0; b < N_BUCKETS; b++) { /* counts -> first slot of each bucket */
            int64_t c = count[b];
            count[b] = total;
            total += c;
        }
        /* forward scatter: equal digits keep their order, so the sort is stable */
        for (i = 0; i < n; i++)
            dst[count[(src[i] >> shift) & (N_BUCKETS - 1)]++] = src[i];
        tmp = src;
        src = dst;
        dst = tmp;
    }
    return src;
}

/* Sorts the n values of v ascending; tmp is scratch of n / 2 values. */
static void merge_sort(uint64_t *v, uint64_t *tmp, int64_t n)
{
    int64_t half = n / 2, i, j, o;
    if (n <= 16) { /* insertion sort */
        for (i = 1; i < n; i++) {
            uint64_t x = v[i];
            for (j = i; j > 0 && v[j - 1] > x; j--)
                v[j] = v[j - 1];
            v[j] = x;
        }
        return;
    }
    merge_sort(v, tmp, half);
    merge_sort(v + half, tmp, n - half);
    memcpy(tmp, v, (size_t)half * sizeof *v);
    /* once tmp runs out, the rest of the right half is in place */
    for (i = 0, j = half, o = 0; i < half; o++)
        v[o] = j < n && v[j] < tmp[i] ? v[j++] : tmp[i++];
}

/* Puts the m records of run, which share their top 32 bits and are in
 * generation order, in (weight, generation index) order; tmp is scratch of
 * m records. Only the low 32 key bits can differ, so a run whose low bits
 * never fall is left as it is. Otherwise each record becomes (low 32 key
 * bits, generation index), a value unique to it whose integer order is the
 * wanted order, sorted in O(m log SHORT_RUN) at worst (see SHORT_RUN). The
 * top bits go back on at the end. */
static void fix_run(uint64_t *run, int64_t m, uint64_t *tmp, const double *wgt)
{
    uint64_t hi = run[0] & ~LOW32, *sorted = run;
    int64_t i;
    for (i = 1; i < m; i++)
        if ((key_of(wgt[run[i - 1] & LOW32]) & LOW32) > (key_of(wgt[run[i] & LOW32]) & LOW32))
            break;
    if (i == m)
        return;
    for (i = 0; i < m; i++) {
        uint64_t gen = run[i] & LOW32;
        run[i] = key_of(wgt[gen]) << 32 | gen;
    }
    if (m <= SHORT_RUN)
        merge_sort(run, tmp, m);
    else
        sorted = radix_sort_hi(run, tmp, m);
    for (i = 0; i < m; i++)
        run[i] = hi | (sorted[i] & LOW32);
}

/* The n_edges edges of an (h, w, 3) row-major image in (weight, generation
 * index) order, the generation index 4 * a + d of the edge from pixel a to
 * its neighbor right, down, down-right or down-left, d = 0..3, at step[d]
 * from it. Each weight goes to wgt[4 * a + d]; slots of edges that leave the
 * image stay unset. Returns a malloc'd buffer of records the caller frees,
 * or NULL when an allocation fails (and, allowed by malloc(0), possibly
 * when n_edges is 0).
 *
 * A record is the top 32 bits of the weight's IEEE-754 bits over the
 * generation index: h * w <= 2^30, so the index fits in the low 32 bits.
 * Every weight is +0.0 or a positive finite number, so bit order is numeric
 * order. Three stable 11-bit LSD radix passes order the records by their
 * top bits and, within equal top bits, by generation index; fix_run then
 * orders each run of equal top bits by the weight's full bits. */
static uint64_t *sorted_edges(int64_t h, int64_t w, const double *img,
                              const int64_t step[4], int64_t n_edges, double *wgt)
{
    uint64_t *src = malloc((size_t)n_edges * sizeof *src);
    uint64_t *dst = malloc((size_t)n_edges * sizeof *dst), *out;
    int64_t n = 0, y, x, i, j, d;

    if (n_edges > 0 && (src == NULL || dst == NULL)) {
        free(src);
        free(dst);
        return NULL;
    }
    for (y = 0; y < h; y++) {
        for (x = 0; x < w; x++) {
            int64_t a = y * w + x;
            int has[4] = {x + 1 < w, y + 1 < h, y + 1 < h && x + 1 < w, y + 1 < h && x > 0};
            for (d = 0; d < 4; d++) {
                uint64_t gen = (uint64_t)(4 * a + d);
                if (!has[d])
                    continue;
                wgt[gen] = color_dist(img + 3 * a, img + 3 * (a + step[d]));
                src[n] = (key_of(wgt[gen]) & ~LOW32) | gen;
                n++;
            }
        }
    }
    out = radix_sort_hi(src, dst, n_edges);
    dst = out == src ? dst : src; /* the other buffer is the fix-up's scratch */
    for (i = 0; i < n_edges; i = j) {
        for (j = i + 1; j < n_edges && out[j] >> 32 == out[i] >> 32; j++)
            ;
        if (j - i > 1)
            fix_run(out + i, j - i, dst, wgt);
    }
    free(dst);
    return out;
}

static int64_t find(int64_t *parent, int64_t x)
{
    while (parent[x] != x) { /* path halving */
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

/* Links the smaller of two roots under the larger; returns the new root. */
static int64_t link(int64_t *parent, int64_t *size, int64_t a, int64_t b)
{
    if (size[a] < size[b]) {
        int64_t t = a;
        a = b;
        b = t;
    }
    parent[b] = a;
    size[a] += size[b];
    return a;
}

static void union_find(int64_t n_pixels, int64_t n_edges, const uint64_t *edges,
                       const double *wgt, const int64_t step[4], double k,
                       double min_size, int64_t *root, int64_t *size, double *thresh)
{
    int64_t p, e;
    for (p = 0; p < n_pixels; p++) {
        root[p] = p;
        size[p] = 1;
        thresh[p] = k; /* Int(C) + k/|C|, Int(C) = largest merging weight in C */
    }
    /* merge when w <= min(Int(Ca) + k/|Ca|, Int(Cb) + k/|Cb|) */
    for (e = 0; e < n_edges; e++) {
        uint64_t gen = edges[e] & LOW32;
        int64_t a = (int64_t)(gen >> 2), b = a + step[gen & 3];
        a = find(root, a);
        b = find(root, b);
        double we = wgt[gen];
        if (a == b || we > thresh[a] || we > thresh[b])
            continue;
        a = link(root, size, a, b);
        thresh[a] = we + k / (double)size[a];
    }
    /* absorb small components; ascending edge order reaches the
     * lowest-weight neighbor of each small component first */
    for (e = 0; e < n_edges; e++) {
        uint64_t gen = edges[e] & LOW32;
        int64_t a = (int64_t)(gen >> 2), b = a + step[gen & 3];
        a = find(root, a);
        b = find(root, b);
        if (a == b || ((double)size[a] >= min_size && (double)size[b] >= min_size))
            continue;
        link(root, size, a, b);
    }
    for (p = 0; p < n_pixels; p++)
        root[p] = find(root, p);
}

int felz_segment(int64_t h, int64_t w, const double *img, double k,
                 double min_size, int64_t *root)
{
    const int64_t step[4] = {1, w, w + 1, w - 1};
    int64_t n_pixels = h * w;
    int64_t n_edges = h * (w - 1) + (h - 1) * w + 2 * (h - 1) * (w - 1);
    double *wgt = malloc((size_t)(4 * n_pixels) * sizeof *wgt);
    uint64_t *edges = wgt == NULL ? NULL : sorted_edges(h, w, img, step, n_edges, wgt);
    int64_t *size = malloc((size_t)n_pixels * sizeof *size);
    double *thresh = malloc((size_t)n_pixels * sizeof *thresh);
    /* a 1x1 image has no edges: a NULL from malloc(0) is no failure */
    int failed = wgt == NULL || (edges == NULL && n_edges > 0) || size == NULL || thresh == NULL;

    if (!failed)
        union_find(n_pixels, n_edges, edges, wgt, step, k, min_size, root, size, thresh);
    free(wgt);
    free(edges);
    free(size);
    free(thresh);
    return failed;
}

/* Mean-color distance of regions a and b, means sums[3r + c] / counts[r]. */
static double mean_dist(const double *sums, const double *counts, int64_t a, int64_t b)
{
    const double *sa = sums + 3 * a, *sb = sums + 3 * b;
    double ma[3] = {sa[0] / counts[a], sa[1] / counts[a], sa[2] / counts[a]};
    double mb[3] = {sb[0] / counts[b], sb[1] / counts[b], sb[2] / counts[b]};
    return color_dist(ma, mb);
}

/* Greedy merge of the n regions over the n_edges adjacent pairs
 * (ea[e], eb[e]), ea[e] < eb[e], rows in any order. Each step merges the
 * pair of smallest key ea * n + eb among those whose distance lies within
 * 1e-12 of the minimum; the first row wins a duplicate key. It stops when
 * that pair's distance is not below merge_thresh, unless more than
 * max_regions regions are alive. A merge of (i, j) keeps i: sums and counts
 * of j are added into i, final[r] == j becomes i, and the rows are rewritten
 * with j as i, self-loops dropped and each pair reordered to a < b. Only
 * rows that touch i get a new distance. All arrays are the caller's: ea,
 * eb and dist (scratch, n_edges long) are compacted in place, sums (n x 3),
 * counts and final (n long) are updated in place. */
void rag_merge_loop(int64_t n, int64_t n_edges, int64_t *ea, int64_t *eb,
                    double *sums, double *counts, int64_t *final, double *dist,
                    double merge_thresh, int64_t max_regions)
{
    int64_t n_alive = n, e, r, m;
    for (e = 0; e < n_edges; e++)
        dist[e] = mean_dist(sums, counts, ea[e], eb[e]);
    while (n_edges > 0) {
        double lo = dist[0];
        int64_t best = -1, best_key = 0, i, j;
        for (e = 1; e < n_edges; e++)
            lo = dist[e] < lo ? dist[e] : lo;
        for (e = 0; e < n_edges; e++) {
            int64_t key = ea[e] * n + eb[e];
            if (dist[e] <= lo + 1e-12 && (best < 0 || key < best_key)) {
                best = e;
                best_key = key;
            }
        }
        if (dist[best] >= merge_thresh && n_alive <= max_regions)
            break;
        i = ea[best];
        j = eb[best];
        sums[3 * i] += sums[3 * j];
        sums[3 * i + 1] += sums[3 * j + 1];
        sums[3 * i + 2] += sums[3 * j + 2];
        counts[i] += counts[j];
        for (r = 0; r < n; r++)
            final[r] = final[r] == j ? i : final[r];
        n_alive--;
        for (e = 0, m = 0; e < n_edges; e++) {
            int64_t a = ea[e] == j ? i : ea[e], b = eb[e] == j ? i : eb[e];
            if (a == b)
                continue;
            ea[m] = a < b ? a : b;
            eb[m] = a < b ? b : a;
            dist[m] = a == i || b == i ? mean_dist(sums, counts, ea[m], eb[m]) : dist[e];
            m++;
        }
        n_edges = m;
    }
}
