/* Graph-based segmentation of Felzenszwalb & Huttenlocher (IJCV 2004), its
 * greedy region merge and the per-pixel passes around them, called from
 * seedloop.superpixel and seedloop.pipeline as seven functions.
 *
 * gauss_blur smooths an image before its segmentation, bit for bit as
 * scipy.ndimage.gaussian_filter does. felz_segment builds the 8-connected
 * grid graph of the smoothed image, sorts its edges by (weight, generation
 * index), runs the two union-find passes over the sorted edges and numbers
 * the 4-connected components of the result; it needs h * w <= 2^30.
 *
 * label_components splits a label map into 4-connected components and,
 * for felz_segment, gives each component its pixel count and color sums,
 * 4 int64 values a component, and lists the borders between components as
 * it numbers them. gray_gradients gives an image's gray level and its
 * np.gradient arrays, region_sums adds up per-region pixel statistics in
 * scan order, label_counts counts each region's pixels per label, and
 * rag_merge_loop merges adjacent regions greedily and numbers the
 * survivors. All seven take every buffer from the caller and cannot fail.
 *
 * gauss_blur and felz_segment take a thread count: at 2 they run part of
 * their work on a second thread, with every value computed and added in the
 * same order as on one thread, so every output is the same. When the second
 * thread cannot start, the call runs on one thread. region_sums runs on one.
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
int64_t felz_segment(int64_t h, int64_t w, const double *img, const uint8_t *rgb, double k,
                     double min_size, double *wgt, uint64_t *rec, int64_t *size,
                     double *thresh, int64_t *root, int32_t *id, int64_t *n_pairs,
                     int64_t n_threads);
int64_t rag_merge_loop(int64_t n, int64_t n_edges, int64_t *ea, int64_t *eb,
                       double *sums, double *counts, int64_t *final, double *dist,
                       double merge_thresh);
int64_t label_components(int64_t h, int64_t w, const int64_t *label, int64_t *parent,
                         int32_t *id, const uint8_t *rgb, int64_t *stats, int64_t *pairs,
                         int64_t *n_pairs);
void gray_gradients(int64_t h, int64_t w, const uint8_t *rgb, double *gray, double *gx,
                    double *gy);
void region_sums(int64_t n_pixels, const int32_t *region, const uint8_t *rgb,
                 double *counts, double *sums, double *squares, const double *gx,
                 const double *gy, const double *theta, int64_t n_bins, double *mag,
                 double *hist, double *scratch);
int64_t label_counts(int64_t n_pixels, const int32_t *region, const uint8_t *label,
                     int64_t ignore, int64_t n_categories, int64_t *counts);

/* radix_sort's digit: 256-entry histograms stay in L1, and the top bits of
 * a benchmark scene's edge weights span 24 bits, three passes */
#define DIGIT_BITS 8
#define N_DIGITS (1 << DIGIT_BITS)
/* fix_run sorts a run of up to SHORT_RUN records by merge sort and a longer
 * one by radix_sort, whose fixed cost, zeroing and summing its histograms, a
 * short run does not repay. 256 records was the even point against a radix
 * sort of 3 x 2048 counters; radix_sort's smaller fixed cost has not been
 * weighed against it. Benchmark scenes have no run over 4 records out of
 * order; a blurred 256x256 ramp has out-of-order runs of 20k-190k records,
 * on which felz_segment with a merge-sort-only fix-up took up to 1.3x the
 * time of a plain 6-pass radix sort of the full 64-bit keys. */
#define SHORT_RUN 256
#define LOW32 UINT64_C(0xffffffff)
/* felz_segment on two threads scatters the records into SORT_BUCKETS
 * buckets in weight order, which one thread sorts in turn while the other
 * merges along the sorted front (see struct felz_job) */
#define SORT_BUCKETS 256
/* a waiting thread polls this many times, then gives up the CPU each time */
#define SPINS 1000
/* the union-find's merge pass prefetches the weight and both end pixels of
 * the edge this many edges ahead: at 256x256 the weights (2 MB) and the
 * parents miss the caches, and the call ran about 4% faster on one thread
 * and on two; at 64x64 and 128x128 it made no difference */
#define PREFETCH_AHEAD 32
/* for the loops that one- and two-thread calls share: inlined, a one-thread
 * call folds its constant bounds and null pointers into them and runs as
 * fast as the plain loops */
#define SHARED_LOOP __attribute__((always_inline)) static inline
/* the double nearest pi, numpy's np.pi */
#define PI 3.14159265358979323846

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

/* The number of significant bits of v, 0 for v = 0. */
static int bit_width(uint64_t v)
{
    return v ? 64 - __builtin_clzll(v) : 0;
}

/* Digit pass of record rec's top 32 bits less lo. */
static unsigned digit(uint64_t rec, uint64_t lo, int pass)
{
    return (unsigned)(((rec >> 32) - lo) >> (pass * DIGIT_BITS)) & (N_DIGITS - 1);
}

/* Stable LSD radix sort of the n records of src on their top 32 bits less
 * lo, which all lie below 2^bits, bits <= 32: one pass per 8-bit digit, none
 * for a digit every record shares. dst is scratch of n records. Returns
 * whichever of src and dst holds the sorted records. */
static uint64_t *radix_sort(uint64_t *src, uint64_t *dst, int64_t n, uint64_t lo, int bits)
{
    int64_t hist[32 / DIGIT_BITS][N_DIGITS], i;
    int n_passes = (bits + DIGIT_BITS - 1) / DIGIT_BITS, pass;
    memset(hist, 0, (size_t)n_passes * sizeof *hist);
    for (i = 0; i < n; i++)
        for (pass = 0; pass < n_passes; pass++)
            hist[pass][digit(src[i], lo, pass)]++;
    for (pass = 0; pass < n_passes && n > 0; pass++) {
        int64_t *count = hist[pass], total = 0, b;
        uint64_t *tmp;
        if (count[digit(src[0], lo, pass)] == n)
            continue; /* every record shares this digit: the pass moves nothing */
        for (b = 0; b < N_DIGITS; b++) { /* counts -> first slot of each digit */
            int64_t c = count[b];
            count[b] = total;
            total += c;
        }
        /* forward scatter: equal digits keep their order, so the sort is stable */
        for (i = 0; i < n; i++)
            dst[count[digit(src[i], lo, pass)]++] = src[i];
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
    uint64_t hi = run[0] & ~LOW32, *sorted = run, lo = LOW32, top = 0;
    int64_t i;
    for (i = 1; i < m; i++)
        if ((key_of(wgt[run[i - 1] & LOW32]) & LOW32) > (key_of(wgt[run[i] & LOW32]) & LOW32))
            break;
    if (i == m)
        return;
    for (i = 0; i < m; i++) {
        uint64_t gen = run[i] & LOW32, low = key_of(wgt[gen]) & LOW32;
        lo = low < lo ? low : lo;
        top = low > top ? low : top;
        run[i] = low << 32 | gen;
    }
    if (m <= SHORT_RUN)
        merge_sort(run, tmp, m);
    else
        sorted = radix_sort(run, tmp, m, lo, bit_width(top - lo));
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
 * records each; returns whichever holds the sorted records. A stable radix
 * sort orders the records by their top bits and, within equal top bits, by
 * generation index; fix_runs then orders each run of equal top bits by the
 * weight's full bits. */
static uint64_t *sorted_edges(int64_t h, int64_t w, const double *img,
                              const int64_t step[4], int64_t n_edges, double *wgt,
                              uint64_t *src, uint64_t *dst)
{
    uint64_t range[2] = {UINT64_MAX, 0}, *out;
    build_edges(h, w, img, step, 0, h, wgt, src, range);
    out = radix_sort(src, dst, n_edges, range[0], bit_width(range[1] - range[0]));
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
 * and start[SORT_BUCKETS] is n_edges. Bucket b holds the records whose top
 * bits less *lo, the smallest of them, are b << shift up to (b + 1) <<
 * shift; returns shift. */
static int scatter_half(struct felz_job *job, int t, int64_t start[SORT_BUCKETS + 1],
                        uint64_t *lo)
{
    int64_t y0 = t ? job->y_mid : 0, first = y0 * (4 * job->w - 3);
    int64_t end = t ? job->n_edges : job->y_mid * (4 * job->w - 3), *count = job->count[t];
    uint64_t hi;
    int64_t at[SORT_BUCKETS], b, i;
    int shift = 0;

    build_edges(job->h, job->w, job->img, job->step, y0, t ? job->h : job->y_mid, job->wgt,
                job->src, job->range[t]);
    sync_phase(job, t, 1);
    *lo = job->range[0][0] < job->range[1][0] ? job->range[0][0] : job->range[1][0];
    hi = job->range[0][1] > job->range[1][1] ? job->range[0][1] : job->range[1][1];
    while ((hi - *lo) >> shift >= SORT_BUCKETS)
        shift++;
    memset(count, 0, SORT_BUCKETS * sizeof *count);
    for (i = first; i < end; i++)
        count[((job->src[i] >> 32) - *lo) >> shift]++;
    sync_phase(job, t, 2);
    start[0] = 0;
    for (b = 0; b < SORT_BUCKETS; b++) {
        start[b + 1] = start[b] + job->count[0][b] + job->count[1][b];
        at[b] = start[b] + (t ? job->count[0][b] : 0);
    }
    for (i = first; i < end; i++)
        job->dst[at[((job->src[i] >> 32) - *lo) >> shift]++] = job->src[i];
    sync_phase(job, t, 3);
    return shift;
}

static void *sort_buckets(void *arg)
{
    struct felz_job *job = arg;
    int64_t start[SORT_BUCKETS + 1], b;
    uint64_t lo;
    int shift = scatter_half(job, 1, start, &lo);
    for (b = 0; b < SORT_BUCKETS; b++) {
        int64_t m = start[b + 1] - start[b];
        uint64_t *v = job->dst + start[b], *tmp = job->src + start[b];
        if (m <= SHORT_RUN) {
            merge_sort(v, tmp, m); /* by value: (top bits, generation index) */
        } else if (radix_sort(v, tmp, m, lo + ((uint64_t)b << shift), shift) != v) {
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
 * in place so far: the merge pass waits for each edge to be, and prefetches
 * only for edges in place. */
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
        if (e + PREFETCH_AHEAD < in_place) {
            uint64_t ahead = edges[e + PREFETCH_AHEAD] & LOW32;
            int64_t pa = (int64_t)(ahead >> 2);
            __builtin_prefetch(&wgt[ahead]);
            __builtin_prefetch(&root[pa]);
            __builtin_prefetch(&root[pa + step[ahead & 3]]);
        }
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
     * lowest-weight neighbor of each small component first. Components only
     * grow, so an edge between two pixels whose components already held
     * min_size pixels before this pass never links, and is skipped without
     * its finds; big[p] flags those pixels, in thresh, which this pass does
     * not read. Pointing each pixel at its root first moves no root. */
    uint8_t *big = (uint8_t *)thresh;
    for (p = 0; p < n_pixels; p++) {
        root[p] = find(root, p);
        big[p] = (double)size[root[p]] >= min_size;
    }
    for (e = 0; e < n_edges; e++) {
        uint64_t gen = edges[e] & LOW32;
        int64_t a = (int64_t)(gen >> 2), b = a + step[gen & 3];
        if (big[a] && big[b])
            continue;
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
 * matter. Returns the region count n; the numbering also writes each
 * region's pixel count and color sums over the (h, w, 3) u8 image rgb into
 * rec, 4 int64 values a region, and *n_pairs border pairs into wgt, 2 int64
 * values a pair, as label_components describes. The rest is scratch: wgt
 * of 4 * h * w weights, one per generation index, rec of 8 * h * w records,
 * the sort's two buffers of 4 * h * w each, and size and thresh of h * w
 * values each. On two threads the second sorts the edges bucket by bucket
 * while this one merges along them (see struct felz_job); the edges come in
 * the same order either way. */
int64_t felz_segment(int64_t h, int64_t w, const double *img, const uint8_t *rgb, double k,
                     double min_size, double *wgt, uint64_t *rec, int64_t *size,
                     double *thresh, int64_t *root, int32_t *id, int64_t *n_pairs,
                     int64_t n_threads)
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
        uint64_t lo;
        scatter_half(&job, 0, start, &lo);
        union_find(h * w, n_edges, job.dst, wgt, step, k, min_size, root, size, thresh,
                   &job.ready);
        pthread_join(helper, NULL);
    } else {
        uint64_t *edges = sorted_edges(h, w, img, step, n_edges, wgt, rec, rec + 4 * h * w);
        union_find(h * w, n_edges, edges, wgt, step, k, min_size, root, size, thresh, NULL);
    }
    /* size is scratch by now, and the edges in wgt and rec are spent */
    return label_components(h, w, root, size, id, rgb, (int64_t *)rec, (int64_t *)wgt, n_pairs);
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

/* Adds pixels p0..p1-1 of the u8 image rgb, a run of one region, to that
 * region's 4 slots: their count and their sums of each channel, added up in
 * registers. */
static void add_run(int64_t *slot, const uint8_t *rgb, int64_t p0, int64_t p1)
{
    int64_t s0 = 0, s1 = 0, s2 = 0, p;
    for (p = p0; p < p1; p++)
        s0 += rgb[3 * p], s1 += rgb[3 * p + 1], s2 += rgb[3 * p + 2];
    slot[0] += p1 - p0;
    slot[1] += s0, slot[2] += s1, slot[3] += s2;
}

/* Appends (a, b) as pair m of pairs, 2 values a pair, unless a == b or it
 * equals pair m - 1; returns the new pair count. */
static int64_t add_pair(int64_t *pairs, int64_t m, int64_t a, int64_t b)
{
    if (a == b || (m > 0 && pairs[2 * m - 2] == a && pairs[2 * m - 1] == b))
        return m;
    pairs[2 * m] = a;
    pairs[2 * m + 1] = b;
    return m + 1;
}

/* add_pair of (id[q - w], v) for each pixel q of p0..p1-1, a run of region
 * v, that has an upper neighbor. */
static int64_t add_up_pairs(int64_t *pairs, int64_t m, const int32_t *id, int64_t w, int64_t p0,
                            int64_t p1, int64_t v)
{
    int64_t q;
    for (q = p0 > w ? p0 : w; q < p1; q++)
        if (id[q - w] != v)
            m = add_pair(pairs, m, id[q - w], v);
    return m;
}

/* Numbers the 4-connected components of equal labels in the h x w map
 * label: id[p] is the component of pixel p, 0.. by first pixel in scan
 * order; parent is scratch of h * w values. Returns the component count.
 * A pixel equal to its left or upper neighbor takes that neighbor's parent;
 * equal to both, it also links their roots, unless the upper-left pixel is
 * equal as well and has joined them already. Every link keeps the smaller
 * pixel index as the root, and path halving only points a pixel further
 * back, so a component's root is its first pixel and any other pixel's
 * parent comes before it: the numbering pass gives a root the next number
 * and another pixel its parent's, with no find, and meets each pixel's left
 * and upper neighbors numbered.
 *
 * The numbering pass also works run by run, a run being pixels of equal
 * ids in scan order. When stats is set, it gives component r its pixel
 * count at stats[4r] and the sums of rgb's three channels at
 * stats[4r + 1..3], rgb being an (h, w, 3) u8 image:
 * a component's slots are zeroed when it gets its number, and a run is
 * added up in registers (add_run) where it ends. When pairs is set, it gets
 * each (id[p - 1], id[p]) and (id[p - w], id[p]) whose ids differ, the
 * first where a run starts and the second where it ends, 2 values a pair,
 * but not a pair equal to the one written just before it; *n_pairs gets
 * their count, less than 2 * h * w.
 * label_components(h, w, label, parent, id, NULL, NULL, NULL, NULL) only
 * numbers. */
int64_t label_components(int64_t h, int64_t w, const int64_t *label, int64_t *parent,
                         int32_t *id, const uint8_t *rgb, int64_t *stats, int64_t *pairs,
                         int64_t *n_pairs)
{
    int64_t n = 0, m = 0, y, x, p, cur = -1, start = 0;
    for (y = 0, p = 0; y < h; y++) {
        for (x = 0; x < w; x++, p++) {
            int64_t l = label[p];
            int left = x > 0 && label[p - 1] == l, up = y > 0 && label[p - w] == l;
            parent[p] = left ? parent[p - 1] : up ? parent[p - w] : p;
            if (left && up && label[p - w - 1] != l)
                link_first(parent, p - w, p);
        }
    }
    for (y = 0, p = 0; y < h; y++) {
        for (x = 0; x < w; x++, p++) {
            int64_t first = parent[p] == p, v = first ? n++ : id[parent[p]];
            id[p] = (int32_t)v;
            if (v != cur) { /* a run starts: p is the first pixel, or id[p - 1] is cur */
                if (stats && cur >= 0)
                    add_run(stats + 4 * cur, rgb, start, p);
                if (pairs && cur >= 0)
                    m = add_up_pairs(pairs, m, id, w, start, p, cur);
                if (stats && first)
                    memset(stats + 4 * v, 0, 4 * sizeof *stats);
                if (pairs && x > 0)
                    m = add_pair(pairs, m, cur, v);
                cur = v;
                start = p;
            }
        }
    }
    if (stats)
        add_run(stats + 4 * cur, rgb, start, p);
    if (pairs)
        *n_pairs = add_up_pairs(pairs, m, id, w, start, p, cur);
    return n;
}

/* np.gradient at unit spacing along a line of n steps of s values each,
 * v[i * s + x] for i in 0..n-1, x in 0..s-1, into out at the same places:
 * (v[(i + 1) s + x] - v[(i - 1) s + x]) / 2.0 inside, the one-sided
 * difference at i = 0 and at i = n - 1 (numpy divides it by the spacing
 * 1.0, which changes no bit), and zero for n = 1, where np.gradient has no
 * value. A row of w pixels is w steps of 1, the columns h steps of w. */
static void gradient_line(int64_t n, int64_t s, const double *v, double *out)
{
    int64_t x;
    if (n == 1) {
        memset(out, 0, (size_t)s * sizeof *out);
        return;
    }
    for (x = 0; x < s; x++) {
        out[x] = v[s + x] - v[x];
        out[(n - 1) * s + x] = v[(n - 1) * s + x] - v[(n - 2) * s + x];
    }
    for (x = 0; x < (n - 2) * s; x++)
        out[s + x] = (v[2 * s + x] - v[x]) / 2.0;
}

/* The gray level (r + g + b) / 3.0 of each pixel of an (h, w, 3) row-major
 * image into gray, then its np.gradient along the rows into gx and down the
 * columns into gy, zero along a side of one pixel: each value as numpy's
 * (rgb.sum(axis=2) / 3.0) and np.gradient(gray) round it. */
void gray_gradients(int64_t h, int64_t w, const uint8_t *rgb, double *gray, double *gx,
                    double *gy)
{
    int64_t p, y;
    for (p = 0; p < h * w; p++)
        gray[p] = (double)(rgb[3 * p] + rgb[3 * p + 1] + rgb[3 * p + 2]) / 3.0;
    for (y = 0; y < h; y++)
        gradient_line(w, 1, gray + y * w, gx + y * w);
    gradient_line(h, w, gray, gy);
}

/* The bin of orientation theta in [-pi, pi] among n_bins: (theta + pi) /
 * (2 pi) * n_bins truncated, clamped to 0..n_bins-1, in numpy's float64
 * order. */
static int64_t orient_bin(double theta, int64_t n_bins)
{
    int64_t b = (int64_t)((theta + PI) / (2.0 * PI) * (double)n_bins);
    return b < 0 ? 0 : b < n_bins ? b : n_bins - 1;
}

/* Borges' corrected kernel without fma ("An Improved Algorithm for hypot(a,
 * b)", 2019) as glibc 2.36's hypot runs it, on ax >= ay >= 0 whose squares
 * neither overflow nor underflow: h = sqrt(ax^2 + ay^2) less a correction,
 * taken from ay where h <= 2 ay and else from ax. Both corrections are
 * computed and one selected, with no branch. */
static inline double hypot_kernel(double ax, double ay)
{
    double h = sqrt(ax * ax + ay * ay), dy = h - ay, dx = h - ax;
    double t1 = h <= 2.0 * ay ? ax * (2.0 * dy - ax) : 2.0 * dx * (ax - 2.0 * ay);
    double t2 = h <= 2.0 * ay ? (dy - 2.0 * (ax - ay)) * dy : (4.0 * dx - ay) * ay + dx * dx;
    return h - (t1 + t2) / (2.0 * h);
}

/* hypot(gx[p], gy[p]) into mag[p] for p in 0..n-1, as glibc 2.36's hypot,
 * the function np.hypot calls, computes it on its unscaled path: with ax
 * and ay the larger and the smaller of |gx[p]| and |gy[p]|, ax + ay where
 * ay is 2^-54 ax or less, and otherwise the kernel. The loop has no
 * branch, so it vectorises: glibc's own branches mispredict on scene
 * gradients. There ay * 2^54 <= ax is exact, as glibc's ay <= ax * 2^-54
 * is on that path, and a zero ay, which glibc's tiny-value branch takes,
 * gives ax + ay as it does there. Every |gx| and |gy| that gray_gradients
 * gives from a u8 image is 0 or lies in [1/6, 255], all on that path.
 * glibc's scaled branches, for a value past 2^511 or a nonzero ay below
 * 2^-511 within 2^54 of ax, and its inf and NaN branches are not copied. */
static void magnitudes(int64_t n, const double *restrict gx, const double *restrict gy,
                       double *restrict mag)
{
    int64_t p;
    for (p = 0; p < n; p++) {
        double x = fabs(gx[p]), y = fabs(gy[p]);
        double ax = x < y ? y : x, ay = x < y ? x : y;
        mag[p] = ay * 0x1p54 <= ax ? ax + ay : hypot_kernel(ax, ay);
    }
}

/* Per-region sums over n_pixels pixels in scan order; pixel p lies in
 * region[p] and has color rgb[3p..3p+2]. Adds to counts[r] each pixel of
 * region r, to sums[3r + c] its color and to squares[3r + c] the color's
 * square. These are integers below 2^53 (a region's squares are at most
 * 2^30 * 255^2), so they are exact in any order: a run of equal region ids
 * adds them up in int64 registers and adds them to the region's slots where
 * it ends.
 * When n_bins > 0, also adds hypot(gx[p], gy[p]) to mag[r], pixel by pixel
 * in scan order as np.bincount adds its weights, and 1 to
 * hist[n_bins * r + b], b the orient_bin of theta[p] = np.arctan2(gy[p],
 * gx[p]), which the caller computes, as C cannot round it as numpy does;
 * otherwise gx, gy, theta, mag, hist and scratch are not touched. The hypots
 * go into scratch, n_pixels values, in one pass first; mag[r] is read where
 * a run starts and stored where it ends, so they are still added one by one
 * in scan order. The caller zeroes every output. */
void region_sums(int64_t n_pixels, const int32_t *region, const uint8_t *rgb,
                 double *counts, double *sums, double *squares, const double *gx,
                 const double *gy, const double *theta, int64_t n_bins, double *mag,
                 double *hist, double *scratch)
{
    int64_t p, q;
    int c;
    if (n_bins > 0)
        magnitudes(n_pixels, gx, gy, scratch);
    for (p = 0; p < n_pixels; p = q) {
        int64_t r = region[p], sum[3] = {0, 0, 0}, square[3] = {0, 0, 0};
        double m = n_bins > 0 ? mag[r] : 0.0;
        for (q = p; q < n_pixels && region[q] == r; q++) {
            for (c = 0; c < 3; c++) {
                int64_t v = rgb[3 * q + c];
                sum[c] += v;
                square[c] += v * v;
            }
            if (n_bins > 0) {
                m += scratch[q];
                hist[n_bins * r + orient_bin(theta[q], n_bins)] += 1.0;
            }
        }
        counts[r] += (double)(q - p);
        for (c = 0; c < 3; c++) {
            sums[3 * r + c] += (double)sum[c];
            squares[3 * r + c] += (double)square[c];
        }
        if (n_bins > 0)
            mag[r] = m;
    }
}

/* Adds to counts[n_categories * r + l] the pixels of region r labeled l, for
 * the n_pixels pixels of the region ids region and the u8 labels label,
 * skipping the label ignore; a run of pixels of equal region and label is
 * counted in a register. Returns how many labels other than ignore are
 * n_categories or more; those are not counted. */
int64_t label_counts(int64_t n_pixels, const int32_t *region, const uint8_t *label,
                     int64_t ignore, int64_t n_categories, int64_t *counts)
{
    int64_t p, over = 0, slot = -1, run = 0;
    for (p = 0; p < n_pixels; p++) {
        int64_t l = label[p], s;
        if (l == ignore)
            continue;
        if (l >= n_categories) {
            over++;
            continue;
        }
        s = n_categories * region[p] + l;
        if (s != slot) {
            if (slot >= 0)
                counts[slot] += run;
            slot = s;
            run = 0;
        }
        run++;
    }
    if (slot >= 0)
        counts[slot] += run;
    return over;
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
 * that pair's distance is not below merge_thresh. A merge of (i, j) keeps
 * i: sums and counts of j are added into i, final[j] becomes i, and the
 * rows are rewritten with j as i, self-loops dropped and each pair
 * reordered to a < b. Only rows that touch i get a new distance. All
 * arrays are the caller's: ea, eb and dist (scratch, n_edges long) are
 * compacted in place, sums (n x 3) and counts are updated in place, and
 * final (n long) comes in as 0..n-1. On return final[r] is the number of
 * the survivor that holds region r, survivors numbered 0.. in id order:
 * each merge keeps the smaller id, so one ascending pass numbers a region's
 * parent before the region. Returns the survivor count. */
int64_t rag_merge_loop(int64_t n, int64_t n_edges, int64_t *ea, int64_t *eb,
                       double *sums, double *counts, int64_t *final, double *dist,
                       double merge_thresh)
{
    int64_t e, r, m;
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
        if (dist[best] >= merge_thresh)
            break;
        i = ea[best];
        j = eb[best];
        sums[3 * i] += sums[3 * j];
        sums[3 * i + 1] += sums[3 * j + 1];
        sums[3 * i + 2] += sums[3 * j + 2];
        counts[i] += counts[j];
        final[j] = i;
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
    return m;
}
