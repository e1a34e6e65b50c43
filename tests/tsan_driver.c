/* Runs gauss_blur and felz_segment of _felzenszwalb.c on one and on two
 * threads over a 256x256 image, then region_sums (one thread) on the
 * result, and exits nonzero unless both runs give the same bytes,
 * felz_segment's region sums and border pairs among them, or unless
 * MIN_SIZE lies between the smallest and the largest component the first
 * union-find pass leaves, so that the min-size pass both skips edges and
 * links components. Built with -fsanitize=thread
 * together with _felzenszwalb.c by tests/test_superpixel.py, which also
 * fails on any report of the sanitizer:
 *
 *     gcc -fsanitize=thread -g -O1 -pthread src/seedloop/_felzenszwalb.c \
 *         tests/tsan_driver.c -lm -o tsan_driver && ./tsan_driver
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

void gauss_blur(int64_t h, int64_t w, const uint8_t *rgb, int64_t r, const double *fw,
                double *tmp, double *out, int64_t n_threads);
int64_t felz_segment(int64_t h, int64_t w, const double *img, const uint8_t *rgb, double k,
                     double min_size, double *wgt, uint64_t *rec, int64_t *size,
                     double *thresh, int64_t *root, int32_t *id, int64_t *n_pairs,
                     int64_t n_threads);
void gray_gradients(int64_t h, int64_t w, const uint8_t *rgb, double *gray, double *gx,
                    double *gy);
void region_sums(int64_t n_pixels, const int32_t *region, const uint8_t *rgb, double *counts,
                 double *sums, double *squares, const double *gx, const double *gy,
                 const double *theta, int64_t n_bins, double *mag, double *hist,
                 double *scratch);

#define H 256
#define W 256
#define N (H * W)
#define BINS 8
#define RADIUS 3 /* sigma 0.8 */
#define K 100.0
#define MIN_SIZE 20.0

struct result {
    double blurred[3 * N], counts[N], sums[3 * N], squares[3 * N], mag[N], hist[BINS * N];
    int64_t root[N], n_regions, n_pairs, stats[7 * N], pairs[4 * N];
    int32_t id[N];
};

/* A few rectangles of flat color over low noise, as a synthetic scene has,
 * and its gradients and their orientations. */
static void make_image(uint8_t *rgb, double *gray, double *gx, double *gy, double *theta)
{
    uint32_t state = 7;
    int64_t p;
    int c;
    for (p = 0; p < N; p++) {
        int64_t y = p / W, x = p % W, block = (y / 64) * 4 + x / 48;
        for (c = 0; c < 3; c++) {
            state = state * 1664525u + 1013904223u;
            rgb[3 * p + c] = (uint8_t)((block * 37 + c * 91) % 200 + (state >> 29));
        }
    }
    gray_gradients(H, W, rgb, gray, gx, gy);
    for (p = 0; p < N; p++)
        theta[p] = atan2(gy[p], gx[p]);
}

static void run(int64_t n_threads, double min_size, const uint8_t *rgb, const double *gx,
                const double *gy, const double *theta, double *wgt, uint64_t *rec,
                int64_t *size, double *thresh, struct result *out)
{
    double fw[RADIUS + 1], total = 0.0;
    int j;
    for (j = 0; j <= RADIUS; j++)
        total += (j ? 2.0 : 1.0) * (fw[j] = exp(-0.5 * j * j / (0.8 * 0.8)));
    for (j = 0; j <= RADIUS; j++)
        fw[j] /= total;
    memset(out, 0, sizeof *out);
    gauss_blur(H, W, rgb, RADIUS, fw, wgt, out->blurred, n_threads);
    out->n_regions = felz_segment(H, W, out->blurred, rgb, K, min_size, wgt, rec, size, thresh,
                                  out->root, out->id, &out->n_pairs, n_threads);
    /* the region sums and the border pairs, before region_sums takes wgt */
    memcpy(out->stats, rec, 7 * out->n_regions * sizeof *out->stats);
    memcpy(out->pairs, wgt, 2 * out->n_pairs * sizeof *out->pairs);
    region_sums(N, out->id, rgb, out->counts, out->sums, out->squares, gx, gy, theta, BINS,
                out->mag, out->hist, wgt);
}

/* Whether MIN_SIZE lies above the smallest and at most the largest
 * component of the first pass, whose roots root holds; size is scratch. */
static int straddled(const int64_t *root, int64_t *size)
{
    int64_t p, smallest = N, largest = 0;
    memset(size, 0, N * sizeof *size);
    for (p = 0; p < N; p++)
        size[root[p]]++;
    for (p = 0; p < N; p++) {
        if (size[p] > 0 && size[p] < smallest)
            smallest = size[p];
        if (size[p] > largest)
            largest = size[p];
    }
    return (double)smallest < MIN_SIZE && MIN_SIZE <= (double)largest;
}

int main(void)
{
    uint8_t *rgb = malloc(3 * N);
    double *gray = malloc(N * sizeof *gray), *gx = malloc(N * sizeof *gx);
    double *gy = malloc(N * sizeof *gy), *theta = malloc(N * sizeof *theta);
    double *wgt = malloc(4 * N * sizeof *wgt), *thresh = malloc(N * sizeof *thresh);
    int64_t *size = malloc(N * sizeof *size);
    uint64_t *rec = malloc(8 * N * sizeof *rec);
    struct result *one = malloc(sizeof *one), *two = malloc(sizeof *two);
    int round;
    if (!rgb || !gray || !gx || !gy || !theta || !wgt || !thresh || !size || !rec || !one ||
        !two) {
        fputs("out of memory\n", stderr);
        return 2;
    }
    make_image(rgb, gray, gx, gy, theta);
    run(1, 1.0, rgb, gx, gy, theta, wgt, rec, size, thresh, one); /* the first pass alone */
    if (!straddled(one->root, size)) {
        fputs("no first-pass component lies on each side of MIN_SIZE\n", stderr);
        return 3;
    }
    run(1, MIN_SIZE, rgb, gx, gy, theta, wgt, rec, size, thresh, one);
    for (round = 0; round < 3; round++) {
        run(2, MIN_SIZE, rgb, gx, gy, theta, wgt, rec, size, thresh, two);
        if (memcmp(one, two, sizeof *one) != 0) {
            fputs("one and two threads differ\n", stderr);
            return 1;
        }
    }
    puts("same");
    free(rgb), free(gray), free(gx), free(gy), free(theta), free(wgt), free(thresh);
    free(size), free(rec), free(one), free(two);
    return 0;
}
