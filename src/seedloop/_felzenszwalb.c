/* Graph-based segmentation of Felzenszwalb & Huttenlocher (IJCV 2004) and
 * its greedy region merge, called from seedloop.superpixel as two functions.
 *
 * felz_segment builds the 8-connected grid graph of an image, sorts its
 * edges by (weight, generation index) and runs the two union-find passes
 * over the sorted edges. It allocates its own buffers and frees them before
 * it returns; it returns nonzero when an allocation fails. On success
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
#define N_PASSES 6 /* 6 * 11 bits cover the 64-bit key */

/* One sort entry: the weight, sorted on as its IEEE-754 bits, and the
 * generation index 4 * a + direction, from which both end pixels follow. */
typedef struct {
    union {
        double wgt;
        uint64_t key;
    };
    uint64_t gen;
} entry;

/* The Euclidean distance of two RGB colors, the squares summed left to
 * right: both the edge weights and the merge distances are this one. */
static double color_dist(const double *pa, const double *pb)
{
    double d0 = pa[0] - pb[0], d1 = pa[1] - pb[1], d2 = pa[2] - pb[2];
    return sqrt((d0 * d0 + d1 * d1) + d2 * d2);
}

/* The n_edges edges of an (h, w, 3) row-major image, sorted by weight;
 * equal weights keep generation order: per pixel in row-major order the
 * neighbors right, down, down-right, down-left, at step[0..3] from it.
 * Returns a malloc'd buffer the caller frees, or NULL when an allocation
 * fails (and, allowed by malloc(0), possibly when n_edges is 0).
 *
 * Every weight is +0.0 or a positive finite number, so the order of the
 * weights' bit patterns is their numeric order, and a stable LSD radix sort
 * on the bits reproduces the sort by (weight, generation index). */
static entry *sorted_edges(int64_t h, int64_t w, const double *img,
                           const int64_t step[4], int64_t n_edges)
{
    entry *src = malloc((size_t)n_edges * sizeof *src);
    entry *dst = malloc((size_t)n_edges * sizeof *dst), *tmp;
    int64_t n = 0, y, x, i, d, pass;
    int64_t hist[N_PASSES][N_BUCKETS];

    if (n_edges > 0 && (src == NULL || dst == NULL)) {
        free(src);
        free(dst);
        return NULL;
    }
    memset(hist, 0, sizeof hist);
    for (y = 0; y < h; y++) {
        for (x = 0; x < w; x++) {
            int64_t a = y * w + x;
            int has[4] = {x + 1 < w, y + 1 < h, y + 1 < h && x + 1 < w, y + 1 < h && x > 0};
            for (d = 0; d < 4; d++) {
                if (!has[d])
                    continue;
                src[n].wgt = color_dist(img + 3 * a, img + 3 * (a + step[d]));
                src[n].gen = (uint64_t)(4 * a + d);
                for (pass = 0; pass < N_PASSES; pass++)
                    hist[pass][(src[n].key >> (pass * DIGIT_BITS)) & (N_BUCKETS - 1)]++;
                n++;
            }
        }
    }
    for (pass = 0; pass < N_PASSES && n_edges > 0; pass++) {
        int shift = (int)(pass * DIGIT_BITS);
        int64_t *count = hist[pass], total = 0, b;
        if (count[(src[0].key >> shift) & (N_BUCKETS - 1)] == n_edges)
            continue; /* every key shares this digit: the pass moves nothing */
        for (b = 0; b < N_BUCKETS; b++) { /* counts -> first slot of each bucket */
            int64_t c = count[b];
            count[b] = total;
            total += c;
        }
        /* forward scatter: equal digits keep their order, so the sort is stable */
        for (i = 0; i < n_edges; i++)
            dst[count[(src[i].key >> shift) & (N_BUCKETS - 1)]++] = src[i];
        tmp = src;
        src = dst;
        dst = tmp;
    }
    free(dst);
    return src;
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

static void union_find(int64_t n_pixels, int64_t n_edges, const entry *edges,
                       const int64_t step[4], double k, double min_size,
                       int64_t *root, int64_t *size, double *thresh)
{
    int64_t p, e;
    for (p = 0; p < n_pixels; p++) {
        root[p] = p;
        size[p] = 1;
        thresh[p] = k; /* Int(C) + k/|C|, Int(C) = largest merging weight in C */
    }
    /* merge when w <= min(Int(Ca) + k/|Ca|, Int(Cb) + k/|Cb|) */
    for (e = 0; e < n_edges; e++) {
        int64_t a = (int64_t)(edges[e].gen >> 2), b = a + step[edges[e].gen & 3];
        a = find(root, a);
        b = find(root, b);
        double wgt = edges[e].wgt;
        if (a == b || wgt > thresh[a] || wgt > thresh[b])
            continue;
        a = link(root, size, a, b);
        thresh[a] = wgt + k / (double)size[a];
    }
    /* absorb small components; ascending edge order reaches the
     * lowest-weight neighbor of each small component first */
    for (e = 0; e < n_edges; e++) {
        int64_t a = (int64_t)(edges[e].gen >> 2), b = a + step[edges[e].gen & 3];
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
    entry *edges = sorted_edges(h, w, img, step, n_edges);
    int64_t *size = malloc((size_t)n_pixels * sizeof *size);
    double *thresh = malloc((size_t)n_pixels * sizeof *thresh);
    /* a 1x1 image has no edges: a NULL from malloc(0) is no failure */
    int failed = (edges == NULL && n_edges > 0) || size == NULL || thresh == NULL;

    if (!failed)
        union_find(n_pixels, n_edges, edges, step, k, min_size, root, size, thresh);
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
