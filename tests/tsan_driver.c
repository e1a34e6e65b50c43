/* Runs gauss_blur, felz_segment and region_sums of _felzenszwalb.c on one
 * and on two threads over a 256x256 image and exits nonzero unless both
 * give the same bytes. Built with -fsanitize=thread together with
 * _felzenszwalb.c by tests/test_superpixel.py, which also fails on any
 * report of the sanitizer:
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
void felz_segment(int64_t h, int64_t w, const double *img, double k, double min_size,
                  double *wgt, uint64_t *rec, int64_t *size, double *thresh, int64_t *root,
                  int32_t *id, int64_t n_threads);
void region_sums(int64_t n_pixels, const int64_t *region, const uint8_t *rgb, double *counts,
                 double *sums, double *squares, const double *gx, const double *gy,
                 const int64_t *bin, int64_t n_bins, double *mag, double *hist, double *scratch,
                 int64_t n_threads);

#define H 256
#define W 256
#define N (H * W)
#define BINS 8
#define RADIUS 3 /* sigma 0.8 */

struct result {
    double blurred[3 * N], counts[N], sums[3 * N], squares[3 * N], mag[N], hist[BINS * N];
    int64_t root[N];
    int32_t id[N];
};

/* A few rectangles of flat color over low noise, as a synthetic scene has. */
static void make_image(uint8_t *rgb, double *gx, double *gy, int64_t *bin)
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
        gx[p] = (double)(rgb[3 * p] - rgb[3 * (p - (x > 0))]);
        gy[p] = (double)(rgb[3 * p + 1] - rgb[3 * (p - W * (y > 0)) + 1]);
        bin[p] = (int64_t)(x + y) % BINS;
    }
}

static void run(int64_t n_threads, const uint8_t *rgb, const double *gx, const double *gy,
                const int64_t *bin, double *wgt, uint64_t *rec, int64_t *size, double *thresh,
                struct result *out)
{
    double fw[RADIUS + 1], total = 0.0;
    int64_t region[N], p;
    int j;
    for (j = 0; j <= RADIUS; j++)
        total += (j ? 2.0 : 1.0) * (fw[j] = exp(-0.5 * j * j / (0.8 * 0.8)));
    for (j = 0; j <= RADIUS; j++)
        fw[j] /= total;
    memset(out, 0, sizeof *out);
    gauss_blur(H, W, rgb, RADIUS, fw, wgt, out->blurred, n_threads);
    felz_segment(H, W, out->blurred, 100.0, 20.0, wgt, rec, size, thresh, out->root, out->id,
                 n_threads);
    for (p = 0; p < N; p++)
        region[p] = out->id[p];
    region_sums(N, region, rgb, out->counts, out->sums, out->squares, gx, gy, bin, BINS,
                out->mag, out->hist, wgt, n_threads);
}

int main(void)
{
    uint8_t *rgb = malloc(3 * N);
    double *gx = malloc(N * sizeof *gx), *gy = malloc(N * sizeof *gy);
    double *wgt = malloc(4 * N * sizeof *wgt), *thresh = malloc(N * sizeof *thresh);
    int64_t *bin = malloc(N * sizeof *bin), *size = malloc(N * sizeof *size);
    uint64_t *rec = malloc(8 * N * sizeof *rec);
    struct result *one = malloc(sizeof *one), *two = malloc(sizeof *two);
    int round;
    if (!rgb || !gx || !gy || !wgt || !thresh || !bin || !size || !rec || !one || !two) {
        fputs("out of memory\n", stderr);
        return 2;
    }
    make_image(rgb, gx, gy, bin);
    run(1, rgb, gx, gy, bin, wgt, rec, size, thresh, one);
    for (round = 0; round < 3; round++) {
        run(2, rgb, gx, gy, bin, wgt, rec, size, thresh, two);
        if (memcmp(one, two, sizeof *one) != 0) {
            fputs("one and two threads differ\n", stderr);
            return 1;
        }
    }
    puts("same");
    free(rgb), free(gx), free(gy), free(wgt), free(thresh), free(bin), free(size), free(rec);
    free(one), free(two);
    return 0;
}
