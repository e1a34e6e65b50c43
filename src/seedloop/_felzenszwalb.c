/* Graph-based segmentation of Felzenszwalb & Huttenlocher (IJCV 2004), its
 * greedy region merge and the per-pixel passes around them, called from
 * seedloop.superpixel as five functions.
 *
 * gauss_blur smooths an image before its segmentation, bit for bit as
 * scipy.ndimage.gaussian_filter does. felz_segment builds the 8-connected
 * grid graph of the smoothed image, sorts its edges by (weight, generation
 * index), runs the two union-find passes over the sorted edges and numbers
 * the 4-connected components of the result; it needs h * w <= 2^30.
 *
 * label_components splits a label map into 4-connected components,
 * region_sums adds up per-region pixel statistics in scan order, and
 * rag_merge_loop merges adjacent regions greedily and numbers the
 * survivors. All five take every buffer from the caller and cannot fail.
 *
 * gauss_blur, felz_segment and region_sums take a thread count: at 2 they
 * run part of their work on a second thread, with every value computed and
 * added in the same order as on one thread, so every output is the same.
 * When the second thread cannot start, the call runs on one thread.
 */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

void gauss_blur(int64_t h, int64_t w, const uint8_t *restrict rgb, int64_t r,
                const double *restrict fw, double *restrict tmp, double *restrict out,
                int64_t n_threads);
void felz_segment(int64_t h, int64_t w, const double *img, double k, double min_size,
                  double *wgt, uint64_t *rec, int64_t *size, double *thresh, int64_t *root,
                  int32_t *id, int64_t n_threads);
void rag_merge_loop(int64_t n, int64_t n_edges, int64_t *ea, int64_t *eb,
                    double *sums, double *counts, int64_t *final, double *dist,
                    double merge_thresh, int64_t max_regions);
void label_components(int64_t h, int64_t w, const int64_t *label, int64_t *parent,
                      int32_t *id);
void region_sums(int64_t n_pixels, const int64_t *region, const uint8_t *rgb,
                 double *counts, double *sums, double *squares, const double *gx,
                 const double *gy, const int64_t *bin, int64_t n_bins, double *mag,
                 double *hist, double *scratch, int64_t n_threads);

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
/* felz_segment on two threads scatters the records into SORT_BUCKETS
 * buckets in weight order, which one thread sorts in turn while the other
 * merges along the sorted front (see struct felz_job) */
#define SORT_BUCKETS 256
/* a waiting thread polls this many times, then gives up the CPU each time */
#define SPINS 1000
/* for the loops that one- and two-thread calls share: inlined, a one-thread
 * call folds its constant bounds and null pointers into them and runs as
 * fast as the plain loops */
#define SHARED_LOOP __attribute__((always_inline)) static inline

/* Waits until *v >= want, polling, then yielding; returns *v. The acquire
 * load makes what the writer did before its release store visible. */
static int64_t wait_for(_Atomic int64_t *v, int64_t want)
{
    int64_t got;
    int spins = 0;
    while ((got = atomic_load_explicit(v, memory_order_acquire)) < want)
        if (++spins > SPINS)
            sched_yield();
    return got;
}

/* The Euclidean distance of two RGB colors, the squares summed left to
 * right: both the edge weights and the merge distances are this one. */
static double color_dist(const double *pa, const double *pb)
{
    double d0 = pa[0] - pb[0], d1 = pa[1] - pb[1], d2 = pa[2] - pb[2];
    return sqrt((d0 * d0 + d1 * d1) + d2 * d2);
}

/* Index i of a line of n values under scipy.ndimage's 'reflect' extension,
 * ...cba|abc...xyz|zyx...: the symmetric extension of period 2n, which
 * covers any i, so a kernel may be longer than the line. */
static int64_t reflect(int64_t i, int64_t n)
{
    if (i >= 0 && i < n)
        return i;
    i %= 2 * n;
    if (i < 0)
        i += 2 * n;
    return i < n ? i : 2 * n - 1 - i;
}

/* o[3x + c] += (t[3x' + c] + t[3x'' + c]) * f for x in [x0, x1) and c in
 * 0..2, x' and x'' the reflected indices of x - j and x + j in a row of w. */
static void add_reflected(const double *restrict t, double *restrict o, int64_t w, int64_t j,
                          double f, int64_t x0, int64_t x1)
{
    int64_t x;
    int c;
    for (x = x0; x < x1; x++) {
        const double *lo = t + 3 * reflect(x - j, w), *hi = t + 3 * reflect(x + j, w);
        for (c = 0; c < 3; c++)
            o[3 * x + c] += (lo[c] + hi[c]) * f;
    }
}

/* Blurs rows y0..y1-1 of the (h, w, 3) row-major image rgb into out, (h, w,
 * 3) values, as scipy.ndimage.gaussian_filter(rgb.astype(float64),
 * (s, s, 0)) does with the kernel fw[-r..r], fw[-j] = fw[j], of which fw
 * holds fw[0..r]: correlate1d's symmetric path, acc = x[0] * fw[0], then
 * acc += (x[-j] + x[j]) * fw[j] for j = r down to 1, under the 'reflect'
 * extension, along axis 0 into the same rows of tmp (at least 3 * h * w
 * values), then along axis 1 from tmp into out. A row of out needs only its
 * row of tmp, so bands of rows blur independently. Each pass adds one j at
 * a time to a whole row, which keeps that order for every value. r = 0 and
 * fw = {1.0} copy rgb, as scipy does when it skips an axis. */
SHARED_LOOP void blur_rows(int64_t h, int64_t w, const uint8_t *restrict rgb, int64_t r,
                          const double *restrict fw, double *restrict tmp,
                          double *restrict out, int64_t y0, int64_t y1)
{
    int64_t row = 3 * w, y, i, j;
    for (y = y0; y < y1; y++) { /* axis 0 */
        double *o = tmp + y * row;
        const uint8_t *mid = rgb + y * row;
        for (i = 0; i < row; i++)
            o[i] = mid[i] * fw[0];
        for (j = r; j > 0; j--) {
            const uint8_t *lo = rgb + reflect(y - j, h) * row, *hi = rgb + reflect(y + j, h) * row;
            double f = fw[j];
            for (i = 0; i < row; i++)
                o[i] += ((double)lo[i] + (double)hi[i]) * f;
        }
    }
    for (y = y0; y < y1; y++) { /* axis 1 */
        const double *t = tmp + y * row;
        double *o = out + y * row;
        for (i = 0; i < row; i++)
            o[i] = t[i] * fw[0];
        for (j = r; j > 0; j--) {
            /* x - j and x + j lie in the row for x in [a, b) */
            int64_t a = j < w ? j : w, b = w - j > a ? w - j : a;
            double f = fw[j];
            for (i = 3 * a; i < 3 * b; i++)
                o[i] += (t[i - 3 * j] + t[i + 3 * j]) * f;
            add_reflected(t, o, w, j, f, 0, a);
            add_reflected(t, o, w, j, f, b, w);
        }
    }
}

/* blur_rows' arguments, for a second thread */
struct blur_band {
    int64_t h, w, r, y0, y1;
    const uint8_t *rgb;
    const double *fw;
    double *tmp, *out;
};

static void *blur_lower(void *arg)
{
    const struct blur_band *b = arg;
    blur_rows(b->h, b->w, b->rgb, b->r, b->fw, b->tmp, b->out, b->y0, b->y1);
    return NULL;
}

/* blur_rows over all h rows; on two threads the second blurs the lower
 * half of the rows. */
void gauss_blur(int64_t h, int64_t w, const uint8_t *restrict rgb, int64_t r,
                const double *restrict fw, double *restrict tmp, double *restrict out,
                int64_t n_threads)
{
    struct blur_band lower = {h, w, r, h / 2, h, rgb, fw, tmp, out};
    pthread_t helper;
    if (n_threads > 1 && pthread_create(&helper, NULL, blur_lower, &lower) == 0) {
        blur_rows(h, w, rgb, r, fw, tmp, out, 0, h / 2);
        pthread_join(helper, NULL);
    } else {
        blur_rows(h, w, rgb, r, fw, tmp, out, 0, h);
    }
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

/* Puts each run of records with equal top 32 bits among the n sorted
 * records of out in (weight, generation index) order; tmp is scratch of n
 * records. */
static void fix_runs(uint64_t *out, int64_t n, uint64_t *tmp, const double *wgt)
{
    int64_t i, j;
    for (i = 0; i < n; i = j) {
        for (j = i + 1; j < n && out[j] >> 32 == out[i] >> 32; j++)
            ;
        if (j - i > 1)
            fix_run(out + i, j - i, tmp, wgt);
    }
}

/* Writes the records of the edges that leave rows y0..y1-1 of an (h, w, 3)
 * row-major image to rec, in generation order from row y0's first record,
 * y0 * (4w - 3): a row above the last has 4w - 3 edges. The generation
 * index 4 * a + d is that of the edge from pixel a to its neighbor right,
 * down, down-right or down-left, d = 0..3, at step[d] from it; its weight
 * goes to wgt[4 * a + d], and slots of edges that leave the image stay
 * unset. A record is the top 32 bits of the weight's IEEE-754 bits over
 * the generation index: h * w <= 2^30, so the index fits in the low 32
 * bits. Every weight is +0.0 or a positive finite number, so bit order is
 * numeric order. range gets the smallest and the largest top 32 bits
 * written, or stays as it is if the rows have no edge. */
SHARED_LOOP void build_edges(int64_t h, int64_t w, const double *img, const int64_t step[4],
                             int64_t y0, int64_t y1, double *wgt, uint64_t *rec,
                             uint64_t range[2])
{
    int64_t n = y0 * (4 * w - 3), y, x, d;
    uint64_t lo = range[0], top = range[1]; /* locals: a store to rec may alias range */
    for (y = y0; y < y1; y++) {
        for (x = 0; x < w; x++) {
            int64_t a = y * w + x;
            int has[4] = {x + 1 < w, y + 1 < h, y + 1 < h && x + 1 < w, y + 1 < h && x > 0};
            for (d = 0; d < 4; d++) {
                uint64_t gen = (uint64_t)(4 * a + d), hi;
                if (!has[d])
                    continue;
                wgt[gen] = color_dist(img + 3 * a, img + 3 * (a + step[d]));
                hi = key_of(wgt[gen]) >> 32;
                lo = hi < lo ? hi : lo;
                top = hi > top ? hi : top;
                rec[n++] = hi << 32 | gen;
            }
        }
    }
    range[0] = lo;
    range[1] = top;
}

/* The n_edges edges of an (h, w, 3) row-major image, as build_edges makes
 * them, in (weight, generation index) order. src and dst hold n_edges
 * records each; returns whichever holds the sorted records. Three stable
 * 11-bit LSD radix passes order the records by their top bits and, within
 * equal top bits, by generation index; fix_runs then orders each run of
 * equal top bits by the weight's full bits. */
static uint64_t *sorted_edges(int64_t h, int64_t w, const double *img,
                              const int64_t step[4], int64_t n_edges, double *wgt,
                              uint64_t *src, uint64_t *dst)
{
    uint64_t range[2] = {UINT64_MAX, 0}, *out;
    build_edges(h, w, img, step, 0, h, wgt, src, range);
    out = radix_sort_hi(src, dst, n_edges);
    fix_runs(out, n_edges, out == src ? dst : src, wgt); /* the other buffer is scratch */
    return out;
}

/* The sort of felz_segment on two threads, t = 0 and 1. Thread t builds the
 * edges of its half of the rows into src, rows y_mid.. for t = 1. Both then
 * scatter their records stably into SORT_BUCKETS buckets of dst, keyed on
 * the top 8 significant bits of a record's top 32 bits less the smallest
 * of them, so bucket order is weight order. Thread 0's records come first
 * in each bucket, so a bucket holds its records in generation order.
 * Thread 1 then sorts the buckets in turn, each as sorted_edges sorts all
 * records, and after each one stores in ready the count of records at the
 * front of dst that are in their final place, while thread 0 merges along
 * them. */
struct felz_job {
    int64_t h, w, y_mid, n_edges;
    const double *img;
    const int64_t *step;
    double *wgt;
    uint64_t *src, *dst;
    uint64_t range[2][2];              /* each half's smallest and largest top bits */
    int64_t count[2][SORT_BUCKETS];    /* each half's records per bucket */
    _Atomic int64_t phase[2], ready;   /* each thread's last phase done; sorted records */
};

/* Marks this thread's phase done, then waits for the other thread's. */
static void sync_phase(struct felz_job *job, int t, int64_t phase)
{
    atomic_store_explicit(&job->phase[t], phase, memory_order_release);
    wait_for(&job->phase[1 - t], phase);
}

/* Thread t's build and scatter; start[b] is where bucket b begins in dst,
 * and start[SORT_BUCKETS] is n_edges. */
static void scatter_half(struct felz_job *job, int t, int64_t start[SORT_BUCKETS + 1])
{
    int64_t y0 = t ? job->y_mid : 0, first = y0 * (4 * job->w - 3);
    int64_t end = t ? job->n_edges : job->y_mid * (4 * job->w - 3), *count = job->count[t];
    uint64_t lo, hi;
    int64_t at[SORT_BUCKETS], b, i;
    int shift = 0;

    build_edges(job->h, job->w, job->img, job->step, y0, t ? job->h : job->y_mid, job->wgt,
                job->src, job->range[t]);
    sync_phase(job, t, 1);
    lo = job->range[0][0] < job->range[1][0] ? job->range[0][0] : job->range[1][0];
    hi = job->range[0][1] > job->range[1][1] ? job->range[0][1] : job->range[1][1];
    while ((hi - lo) >> shift >= SORT_BUCKETS)
        shift++;
    memset(count, 0, SORT_BUCKETS * sizeof *count);
    for (i = first; i < end; i++)
        count[((job->src[i] >> 32) - lo) >> shift]++;
    sync_phase(job, t, 2);
    start[0] = 0;
    for (b = 0; b < SORT_BUCKETS; b++) {
        start[b + 1] = start[b] + job->count[0][b] + job->count[1][b];
        at[b] = start[b] + (t ? job->count[0][b] : 0);
    }
    for (i = first; i < end; i++)
        job->dst[at[((job->src[i] >> 32) - lo) >> shift]++] = job->src[i];
    sync_phase(job, t, 3);
}

static void *sort_buckets(void *arg)
{
    struct felz_job *job = arg;
    int64_t start[SORT_BUCKETS + 1], b;
    scatter_half(job, 1, start);
    for (b = 0; b < SORT_BUCKETS; b++) {
        int64_t m = start[b + 1] - start[b];
        uint64_t *v = job->dst + start[b], *tmp = job->src + start[b];
        if (m <= SHORT_RUN) {
            merge_sort(v, tmp, m); /* by value: (top bits, generation index) */
        } else if (radix_sort_hi(v, tmp, m) != v) {
            memcpy(v, tmp, (size_t)m * sizeof *v);
        }
        fix_runs(v, m, tmp, job->wgt);
        atomic_store_explicit(&job->ready, start[b + 1], memory_order_release);
    }
    return NULL;
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

/* The two union-find passes over the n_edges sorted edges, then each
 * pixel's root into root. With ready set, only the first *ready edges are
 * in place so far: the merge pass waits for each edge to be. */
SHARED_LOOP void union_find(int64_t n_pixels, int64_t n_edges, const uint64_t *edges,
                            const double *wgt, const int64_t step[4], double k,
                            double min_size, int64_t *root, int64_t *size, double *thresh,
                            _Atomic int64_t *ready)
{
    int64_t p, e, in_place = ready ? 0 : n_edges;
    for (p = 0; p < n_pixels; p++) {
        root[p] = p;
        size[p] = 1;
        thresh[p] = k; /* Int(C) + k/|C|, Int(C) = largest merging weight in C */
    }
    /* merge when w <= min(Int(Ca) + k/|Ca|, Int(Cb) + k/|Cb|) */
    for (e = 0; e < n_edges; e++) {
        if (e == in_place)
            in_place = wait_for(ready, e + 1);
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

/* root[p], for each of the h * w pixels, is the root of pixel p's
 * component, and id[p] its 4-connected region: 8-connected merging can
 * leave a component whose pixels touch only diagonally, so label_components
 * splits each root's pixels into 4-connected regions, numbered 0.. by first
 * pixel in scan order. Which root names a component therefore does not
 * matter. The rest is scratch: wgt of 4 * h * w weights, one per generation
 * index, rec of 8 * h * w records, the sort's two buffers of 4 * h * w each,
 * and size and thresh of h * w values each. On two threads the second
 * sorts the edges bucket by bucket while this one merges along them (see
 * struct felz_job); the edges come in the same order either way. */
void felz_segment(int64_t h, int64_t w, const double *img, double k, double min_size,
                  double *wgt, uint64_t *rec, int64_t *size, double *thresh, int64_t *root,
                  int32_t *id, int64_t n_threads)
{
    const int64_t step[4] = {1, w, w + 1, w - 1};
    int64_t n_edges = h * (w - 1) + (h - 1) * w + 2 * (h - 1) * (w - 1);
    struct felz_job job = {
        .h = h, .w = w, .y_mid = h / 2, .n_edges = n_edges, .img = img, .step = step,
        .wgt = wgt, .src = rec, .dst = rec + 4 * h * w,
        .range = {{UINT64_MAX, 0}, {UINT64_MAX, 0}},
    };
    pthread_t helper;

    if (n_threads > 1 && n_edges > 0 && pthread_create(&helper, NULL, sort_buckets, &job) == 0) {
        int64_t start[SORT_BUCKETS + 1];
        scatter_half(&job, 0, start);
        union_find(h * w, n_edges, job.dst, wgt, step, k, min_size, root, size, thresh,
                   &job.ready);
        pthread_join(helper, NULL);
    } else {
        uint64_t *edges = sorted_edges(h, w, img, step, n_edges, wgt, rec, rec + 4 * h * w);
        union_find(h * w, n_edges, edges, wgt, step, k, min_size, root, size, thresh, NULL);
    }
    label_components(h, w, root, size, id); /* size is scratch by now */
}

/* Links the root of b under the root of a, or the other way, so that the
 * smaller pixel index stays the root. */
static void link_first(int64_t *parent, int64_t a, int64_t b)
{
    a = find(parent, a);
    b = find(parent, b);
    if (a < b)
        parent[b] = a;
    else
        parent[a] = b;
}

/* Numbers the 4-connected components of equal labels in the h x w map
 * label: id[p] is the component of pixel p, 0.. by first pixel in scan
 * order; parent is scratch of h * w values. Every link keeps the smaller
 * pixel index as the root, so a component's root is its first pixel,
 * numbered before any pixel after it. */
void label_components(int64_t h, int64_t w, const int64_t *label, int64_t *parent,
                      int32_t *id)
{
    int64_t n = 0, y, x, p;
    for (y = 0, p = 0; y < h; y++) {
        for (x = 0; x < w; x++, p++) {
            parent[p] = p;
            if (x > 0 && label[p - 1] == label[p])
                link_first(parent, p - 1, p);
            if (y > 0 && label[p - w] == label[p])
                link_first(parent, p - w, p);
        }
    }
    for (p = 0; p < h * w; p++) {
        int64_t r = find(parent, p);
        id[p] = r == p ? (int32_t)n++ : id[r];
    }
}

/* hypot(gx[p], gy[p]) into out[p - p0] for p in p0..p1-1, on a second thread */
struct hypot_job {
    int64_t p0, p1;
    const double *gx, *gy;
    double *out;
};

static void *hypot_range(void *arg)
{
    const struct hypot_job *job = arg;
    int64_t p;
    for (p = job->p0; p < job->p1; p++)
        job->out[p - job->p0] = hypot(job->gx[p], job->gy[p]);
    return NULL;
}

/* region_sums over pixels p0..p1-1; hyp, when set, holds the hypot of
 * pixel p at hyp[p - p0]. */
SHARED_LOOP void add_pixels(int64_t p0, int64_t p1, const int64_t *region, const uint8_t *rgb,
                            double *counts, double *sums, double *squares, const double *gx,
                            const double *gy, const double *hyp, const int64_t *bin,
                            int64_t n_bins, double *mag, double *hist)
{
    int64_t p;
    int c;
    for (p = p0; p < p1; p++) {
        int64_t r = region[p];
        counts[r] += 1.0;
        for (c = 0; c < 3; c++) {
            int v = rgb[3 * p + c];
            sums[3 * r + c] += v;
            squares[3 * r + c] += v * v;
        }
        if (n_bins > 0) {
            mag[r] += hyp ? hyp[p - p0] : hypot(gx[p], gy[p]);
            hist[n_bins * r + bin[p]] += 1.0;
        }
    }
}

/* Per-region sums over n_pixels pixels in scan order; pixel p lies in
 * region[p] and has color rgb[3p..3p+2]. Adds to counts[r] each pixel of
 * region r, to sums[3r + c] its color and to squares[3r + c] the color's
 * square. These are integers below 2^53, so they are exact in any order.
 * When n_bins > 0, also adds hypot(gx[p], gy[p]) to mag[r], pixel by pixel
 * in scan order as np.bincount adds its weights, and 1 to
 * hist[n_bins * r + bin[p]], bin[p] in 0..n_bins-1; otherwise gx, gy, bin,
 * mag and hist are not touched. The caller zeroes every output. On two
 * threads with n_bins > 0, the second computes the hypots of the last
 * n_pixels - n_pixels / 2 pixels into scratch, which holds that many
 * values, while this one adds up the pixels before them. */
void region_sums(int64_t n_pixels, const int64_t *region, const uint8_t *rgb,
                 double *counts, double *sums, double *squares, const double *gx,
                 const double *gy, const int64_t *bin, int64_t n_bins, double *mag,
                 double *hist, double *scratch, int64_t n_threads)
{
    struct hypot_job job = {n_pixels / 2, n_pixels, gx, gy, scratch};
    pthread_t helper;
    if (n_bins > 0 && n_threads > 1 && pthread_create(&helper, NULL, hypot_range, &job) == 0) {
        add_pixels(0, job.p0, region, rgb, counts, sums, squares, gx, gy, NULL, bin, n_bins,
                   mag, hist);
        pthread_join(helper, NULL);
        add_pixels(job.p0, n_pixels, region, rgb, counts, sums, squares, gx, gy, scratch, bin,
                   n_bins, mag, hist);
    } else {
        add_pixels(0, n_pixels, region, rgb, counts, sums, squares, gx, gy, NULL, bin, n_bins,
                   mag, hist);
    }
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
 * of j are added into i, final[j] becomes i, and the rows are rewritten
 * with j as i, self-loops dropped and each pair reordered to a < b. Only
 * rows that touch i get a new distance. All arrays are the caller's: ea,
 * eb and dist (scratch, n_edges long) are compacted in place, sums (n x 3)
 * and counts are updated in place, and final (n long) comes in as 0..n-1.
 * On return final[r] is the number of the survivor that holds region r,
 * survivors numbered 0.. in id order: each merge keeps the smaller id, so
 * one ascending pass numbers a region's parent before the region. */
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
        final[j] = i;
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
    for (r = 0, m = 0; r < n; r++)
        final[r] = final[r] == r ? m++ : final[final[r]];
}
