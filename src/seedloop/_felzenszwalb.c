/* Union-find passes of the graph-based segmentation of Felzenszwalb &
 * Huttenlocher (IJCV 2004), called from seedloop.superpixel.felzenszwalb.
 *
 * Edges come sorted by (weight, generation index). root, size and thresh
 * each hold n_pixels entries; on return root[p] is the root of pixel p's
 * component. Which root names a component does not matter: the caller
 * renumbers components by first pixel in scan order.
 */
#include <stdint.h>

void felz_segment(int64_t n_pixels, int64_t n_edges, const int64_t *ea,
                  const int64_t *eb, const double *ew, double k,
                  double min_size, int64_t *root, int64_t *size,
                  double *thresh);

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
