/* Graph-based segmentation of Felzenszwalb & Huttenlocher (IJCV 2004),
 * called from seedloop.superpixel.felzenszwalb in two steps.
 *
 * felz_edges builds the 8-connected grid graph of an image and sorts its
 * edges by (weight, generation index). felz_segment runs the two union-find
 * passes over the sorted edges. root, size and thresh each hold n_pixels
 * entries; on return root[p] is the root of pixel p's component. Which root
 * names a component does not matter: the caller renumbers components by
 * first pixel in scan order.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

void felz_edges(int64_t h, int64_t w, const double *img, int64_t *ea,
                int64_t *eb, double *ew, uint64_t *scratch);
void felz_segment(int64_t n_pixels, int64_t n_edges, const int64_t *ea,
                  const int64_t *eb, const double *ew, double k,
                  double min_size, int64_t *root, int64_t *size,
                  double *thresh);

#define DIGIT_BITS 11
#define N_BUCKETS (1 << DIGIT_BITS)
#define N_PASSES 6 /* 6 * 11 bits cover the 64-bit key */

/* One sort entry: the weight's IEEE-754 bits and the generation index
 * 4 * a + direction, from which both end pixels follow. */
typedef struct {
    uint64_t key;
    uint64_t gen;
} entry;

static uint64_t weight_bits(const double *pa, const double *pb)
{
    double d0 = pa[0] - pb[0], d1 = pa[1] - pb[1], d2 = pa[2] - pb[2];
    /* summed left to right, as numpy sums the three squares */
    double wgt = sqrt((d0 * d0 + d1 * d1) + d2 * d2);
    uint64_t bits;
    memcpy(&bits, &wgt, sizeof bits);
    return bits;
}

/* Edges of an (h, w, 3) row-major image, each as (a, b, weight) with a the
 * earlier pixel in scan order, sorted by weight; equal weights keep
 * generation order: per pixel in row-major order the neighbors right,
 * down, down-right, down-left. ea, eb and ew hold
 * h(w-1) + (h-1)w + 2(h-1)(w-1) entries; scratch holds four times as many.
 *
 * Every weight is +0.0 or a positive finite number, so the order of the
 * weights' bit patterns is their numeric order, and a stable LSD radix sort
 * on the bits reproduces the sort by (weight, generation index). */
void felz_edges(int64_t h, int64_t w, const double *img, int64_t *ea,
                int64_t *eb, double *ew, uint64_t *scratch)
{
    const int64_t step[4] = {1, w, w + 1, w - 1};
    int64_t n_edges = 0, y, x, i, d, pass;
    entry *src = (entry *)scratch, *dst, *tmp;
    int64_t hist[N_PASSES][N_BUCKETS];

    memset(hist, 0, sizeof hist);
    for (y = 0; y < h; y++) {
        for (x = 0; x < w; x++) {
            int64_t a = y * w + x;
            int has[4] = {x + 1 < w, y + 1 < h, y + 1 < h && x + 1 < w, y + 1 < h && x > 0};
            for (d = 0; d < 4; d++) {
                if (!has[d])
                    continue;
                uint64_t key = weight_bits(img + 3 * a, img + 3 * (a + step[d]));
                src[n_edges].key = key;
                src[n_edges].gen = (uint64_t)(4 * a + d);
                n_edges++;
                for (pass = 0; pass < N_PASSES; pass++)
                    hist[pass][(key >> (pass * DIGIT_BITS)) & (N_BUCKETS - 1)]++;
            }
        }
    }
    dst = src + n_edges;
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
    for (i = 0; i < n_edges; i++) {
        int64_t a = (int64_t)(src[i].gen >> 2);
        ea[i] = a;
        eb[i] = a + step[src[i].gen & 3];
        memcpy(&ew[i], &src[i].key, sizeof ew[i]);
    }
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

void felz_segment(int64_t n_pixels, int64_t n_edges, const int64_t *ea,
                  const int64_t *eb, const double *ew, double k,
                  double min_size, int64_t *root, int64_t *size,
                  double *thresh)
{
    int64_t p, e;
    for (p = 0; p < n_pixels; p++) {
        root[p] = p;
        size[p] = 1;
        thresh[p] = k; /* Int(C) + k/|C|, Int(C) = largest merging weight in C */
    }
    /* merge when w <= min(Int(Ca) + k/|Ca|, Int(Cb) + k/|Cb|) */
    for (e = 0; e < n_edges; e++) {
        int64_t a = find(root, ea[e]), b = find(root, eb[e]);
        double w = ew[e];
        if (a == b || w > thresh[a] || w > thresh[b])
            continue;
        a = link(root, size, a, b);
        thresh[a] = w + k / (double)size[a];
    }
    /* absorb small components; ascending edge order reaches the
     * lowest-weight neighbor of each small component first */
    for (e = 0; e < n_edges; e++) {
        int64_t a = find(root, ea[e]), b = find(root, eb[e]);
        if (a == b || ((double)size[a] >= min_size && (double)size[b] >= min_size))
            continue;
        link(root, size, a, b);
    }
    for (p = 0; p < n_pixels; p++)
        root[p] = find(root, p);
}
