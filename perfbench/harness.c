/* Check and timing harness for generated vecperm kernels.
 *
 * Linked with the kernels' objects and a generated job table (jobs.c).
 *
 *   harness check JOB IN OUT   run job JOB once on the bytes of IN and write
 *                              the destination, with its slack on both
 *                              sides, to OUT
 *   harness time SECONDS MINREPS
 *                              alternate one kernel call and one memcpy of
 *                              the same bytes, each timed with
 *                              clock_gettime, for about SECONDS in all;
 *                              print "job kernel_ns memcpy_ns kernel_min_ns
 *                              memcpy_min_ns pairs" per job: the medians and
 *                              minima over its pairs
 *
 * Timing runs in ROUNDS rounds that visit every job for an equal slice
 * (at least MINREPS / ROUNDS pairs, after two untimed pairs), so each
 * job's pairs are spread over the whole run and a slow spell on a shared
 * host lands on all jobs alike instead of on one.
 *
 * Buffers are 64-byte aligned and carry SLACK bytes on each side, as the
 * kernel contract asks.  Slack and the untouched destination hold
 * SLACK_BYTE so the checker can see stray writes.
 */
#define _POSIX_C_SOURCE 200809L
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef void (*vp_kernel)(const void *src, void *dst);

struct vp_job {
    const char *name;
    vp_kernel fn;
    size_t nbytes;
    size_t slack;
};

extern const struct vp_job vp_jobs[];
extern const int vp_njobs;

#define SLACK_BYTE 0xA5
#define ROUNDS 10
#define MAX_REPS (1 << 17)

/* called through a volatile pointer so the copy cannot be elided */
static void *(*volatile vp_copy)(void *, const void *, size_t) = memcpy;

static unsigned char *alloc_buf(size_t nbytes, size_t slack) {
    size_t total = (nbytes + 2 * slack + 63) / 64 * 64;
    unsigned char *p = aligned_alloc(64, total);
    if (!p) {
        fprintf(stderr, "out of memory\n");
        exit(3);
    }
    memset(p, SLACK_BYTE, total);
    return p;
}

static double now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

static int cmp_double(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static void sort(double *v, long n) { qsort(v, (size_t)n, sizeof *v, cmp_double); }

static double median(const double *sorted, long n) {
    return n % 2 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}



static int check(int j, const char *in_path, const char *out_path) {
    const struct vp_job *job = &vp_jobs[j];
    unsigned char *src = alloc_buf(job->nbytes, job->slack);
    unsigned char *dst = alloc_buf(job->nbytes, job->slack);
    FILE *f = fopen(in_path, "rb");
    if (!f || fread(src + job->slack, 1, job->nbytes, f) != job->nbytes) return 4;
    fclose(f);
    job->fn(src + job->slack, dst + job->slack);
    FILE *g = fopen(out_path, "wb");
    if (!g || fwrite(dst, 1, job->nbytes + 2 * job->slack, g) != job->nbytes + 2 * job->slack)
        return 5;
    fclose(g);
    free(src);
    free(dst);
    return 0;
}

static int time_jobs(double seconds, long min_reps) {
    unsigned char *src[vp_njobs], *dst[vp_njobs], *cpy[vp_njobs];
    double *kt[vp_njobs], *mt[vp_njobs];
    long n[vp_njobs];
    for (int j = 0; j < vp_njobs; ++j) {
        const struct vp_job *job = &vp_jobs[j];
        src[j] = alloc_buf(job->nbytes, job->slack);
        dst[j] = alloc_buf(job->nbytes, job->slack);
        cpy[j] = alloc_buf(job->nbytes, job->slack);
        for (size_t i = 0; i < job->nbytes; ++i)
            src[j][job->slack + i] = (unsigned char)(i * 131u + 7u);
        kt[j] = malloc(sizeof(double) * MAX_REPS);
        mt[j] = malloc(sizeof(double) * MAX_REPS);
        if (!kt[j] || !mt[j]) return 3;
        n[j] = 0;
    }
    double slice = seconds * 1e9 / ROUNDS / vp_njobs;
    long min_slice = (min_reps + ROUNDS - 1) / ROUNDS;
    for (int r = 0; r < ROUNDS; ++r) {
        for (int j = 0; j < vp_njobs; ++j) {
            const struct vp_job *job = &vp_jobs[j];
            const unsigned char *s = src[j] + job->slack;
            unsigned char *d = dst[j] + job->slack, *c = cpy[j] + job->slack;
            for (int w = 0; w < 2; ++w) {
                job->fn(s, d);
                vp_copy(c, s, job->nbytes);
            }
            double end = now_ns() + slice;
            for (long k = 0; n[j] < MAX_REPS && (k < min_slice || now_ns() < end); ++k) {
                double t0 = now_ns();
                job->fn(s, d);
                double t1 = now_ns();
                vp_copy(c, s, job->nbytes);
                double t2 = now_ns();
                kt[j][n[j]] = t1 - t0;
                mt[j][n[j]] = t2 - t1;
                ++n[j];
            }
        }
    }
    for (int j = 0; j < vp_njobs; ++j) {
        sort(kt[j], n[j]);
        sort(mt[j], n[j]);
        printf("%s %.1f %.1f %.1f %.1f %ld\n", vp_jobs[j].name, median(kt[j], n[j]),
               median(mt[j], n[j]), kt[j][0], mt[j][0], n[j]);
        free(src[j]);
        free(dst[j]);
        free(cpy[j]);
        free(kt[j]);
        free(mt[j]);
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc == 5 && strcmp(argv[1], "check") == 0) {
        int j = atoi(argv[2]);
        if (j < 0 || j >= vp_njobs) return 2;
        return check(j, argv[3], argv[4]);
    }
    if (argc == 4 && strcmp(argv[1], "time") == 0)
        return time_jobs(atof(argv[2]), atol(argv[3]));
    fprintf(stderr, "usage: %s check JOB IN OUT | time SECONDS MINREPS\n", argv[0]);
    return 2;
}
