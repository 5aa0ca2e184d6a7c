/* Native kernels: the CPA window scan, the PPA 9-candidate evaluation,
 * the fused fixed-point RGB->Lab conversion and code->Lab decode, the
 * sigma-register accumulation, the two-pass union-find
 * connected-components pass, the small-component merge walk, and the
 * BR/USE metric inner loops (joint histogram, 3-4 chamfer) as plain C
 * loops.
 *
 * Compiled on demand by repro.kernels.native with
 *
 *     cc -O3 -fPIC -shared -ffp-contract=off -pthread
 *     (no -ffast-math, no -march)
 *
 * so every float64 operation rounds exactly like the numpy reference:
 * contraction into FMA is disabled and the summation orders below mirror
 * numpy's add.reduce over the last axis ((x0 + x1) + x2). That is what
 * makes the native labels bit-identical to repro.core.assignment — the
 * property tests and benchmarks/bench_kernels.py assert it.
 *
 * Integer (FixedDatapath) variants take the code-domain image/centers and
 * replicate the shift/saturate pipeline of FixedDatapath.pairwise_d2 and
 * the fixed branch of assign_cpa.
 *
 * Every data-parallel kernel is exported once, as a `_mt` entry taking
 * an `n_threads` argument (the `native-mt` backend); n_threads = 1 runs
 * the kernel inline on the calling thread, which is the serial case.
 * Parallelism is by *ownership partitioning*: each thread owns a
 * contiguous slice of the output (row bands for CPA, index ranges for
 * PPA / lab_from_codes, a private histogram for contingency, cluster
 * ranges for the sigma accumulation) and visits its slice in exactly the
 * serial order, so every output element is written by exactly one thread
 * with the serial operation order — no boundary ties can ever arise and
 * the results stay bit-identical to the one-thread run at any thread
 * count. The only cross-tile combines (the contingency histogram stitch
 * and the connected-components band seams + renumber) run sequentially,
 * in ascending tile id; union-by-minimal-root makes the component roots
 * independent of union order (see the CCL section). merge_small,
 * ccl_resolve and chamfer_i64 are inherently sequential and have no
 * `_mt` form.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* A tiny persistent pthread pool. mt_run(fn, ctx, n) runs              */
/* fn(ctx, tid, width) on `width` participants: the calling thread is   */
/* tid 0, parked workers are tids 1..width-1. A width of 1 runs inline  */
/* and never touches the pool, so one-thread calls from concurrent      */
/* callers overlap. Wider jobs take a dispatch mutex that serializes    */
/* concurrent callers (two engines in one process simply take turns),   */
/* workers park on a condvar keyed by a job sequence                    */
/* number, and pthread_atfork handlers keep fork()d children (the       */
/* multiprocessing pool) consistent: the child reinitializes the        */
/* primitives and respawns lazily. If pthread_create fails the job      */
/* degrades gracefully — fn sees the width that actually exists, and    */
/* mt_run returns that width so callers whose combine step depends on   */
/* the partitioning (the CCL seams) can use the real value.             */
/* ------------------------------------------------------------------ */

#define MT_MAX_THREADS 64

typedef void (*mt_fn)(void *ctx, int64_t tid, int64_t width);

static pthread_mutex_t mt_dispatch = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t mt_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t mt_go = PTHREAD_COND_INITIALIZER;
static pthread_cond_t mt_done = PTHREAD_COND_INITIALIZER;
static int64_t mt_spawned = 0;   /* live workers (excluding the caller) */
static int64_t mt_ready = 0;     /* workers parked and seq-synchronized */
static uint64_t mt_job_seq = 0;
static mt_fn mt_job_fn = 0;
static void *mt_job_ctx = 0;
static int64_t mt_job_width = 0;
static int64_t mt_remaining = 0;

static void *mt_worker(void *arg)
{
    int64_t tid = (int64_t)(intptr_t)arg;
    pthread_mutex_lock(&mt_lock);
    uint64_t seen = mt_job_seq;  /* spawned pre-job, under mt_dispatch */
    mt_ready++;
    pthread_cond_broadcast(&mt_done);
    for (;;) {
        while (mt_job_seq == seen)
            pthread_cond_wait(&mt_go, &mt_lock);
        seen = mt_job_seq;
        if (tid < mt_job_width) {
            mt_fn fn = mt_job_fn;
            void *ctx = mt_job_ctx;
            int64_t width = mt_job_width;
            pthread_mutex_unlock(&mt_lock);
            fn(ctx, tid, width);
            pthread_mutex_lock(&mt_lock);
            if (--mt_remaining == 0)
                pthread_cond_broadcast(&mt_done);
        }
    }
    return 0;
}

static void mt_atfork_prepare(void)
{
    /* Block forks out of mid-job states: wait for any running job. */
    pthread_mutex_lock(&mt_dispatch);
    pthread_mutex_lock(&mt_lock);
}

static void mt_atfork_parent(void)
{
    pthread_mutex_unlock(&mt_lock);
    pthread_mutex_unlock(&mt_dispatch);
}

static void mt_atfork_child(void)
{
    /* Worker threads do not survive fork(); start from a clean pool. */
    pthread_mutex_init(&mt_dispatch, 0);
    pthread_mutex_init(&mt_lock, 0);
    pthread_cond_init(&mt_go, 0);
    pthread_cond_init(&mt_done, 0);
    mt_spawned = 0;
    mt_ready = 0;
    mt_job_seq = 0;
    mt_remaining = 0;
}

__attribute__((constructor)) static void mt_init(void)
{
    pthread_atfork(mt_atfork_prepare, mt_atfork_parent, mt_atfork_child);
}

static int64_t mt_run(mt_fn fn, void *ctx, int64_t n_threads)
{
    if (n_threads > MT_MAX_THREADS) n_threads = MT_MAX_THREADS;
    if (n_threads <= 1) {
        fn(ctx, 0, 1);
        return 1;
    }
    pthread_mutex_lock(&mt_dispatch);
    while (mt_spawned + 1 < n_threads) {
        pthread_t th;
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        int rc = pthread_create(
            &th, &attr, mt_worker, (void *)(intptr_t)(mt_spawned + 1));
        pthread_attr_destroy(&attr);
        if (rc != 0) break;  /* degrade: run with the workers we have */
        mt_spawned++;
    }
    pthread_mutex_lock(&mt_lock);
    while (mt_ready < mt_spawned)  /* new workers must capture job_seq */
        pthread_cond_wait(&mt_done, &mt_lock);
    int64_t width =
        mt_spawned + 1 < n_threads ? mt_spawned + 1 : n_threads;
    if (width <= 1) {
        pthread_mutex_unlock(&mt_lock);
        fn(ctx, 0, 1);
        pthread_mutex_unlock(&mt_dispatch);
        return 1;
    }
    mt_job_fn = fn;
    mt_job_ctx = ctx;
    mt_job_width = width;
    mt_remaining = width - 1;
    mt_job_seq++;
    pthread_cond_broadcast(&mt_go);
    pthread_mutex_unlock(&mt_lock);
    fn(ctx, 0, width);
    pthread_mutex_lock(&mt_lock);
    while (mt_remaining > 0)
        pthread_cond_wait(&mt_done, &mt_lock);
    pthread_mutex_unlock(&mt_lock);
    pthread_mutex_unlock(&mt_dispatch);
    return width;
}

/* Contiguous [lo, hi) share for participant `tid` of `width`. */
static int64_t mt_slice_lo(int64_t n, int64_t tid, int64_t width)
{
    return n * tid / width;
}

static int64_t mt_slice_hi(int64_t n, int64_t tid, int64_t width)
{
    return n * (tid + 1) / width;
}

/* ------------------------------------------------------------------ */
/* CPA: for each listed center, scan the clipped (2*half+1)^2 window,
 * keeping running minima in the image-sized dist/labels buffers.
 * `touched` is an h*w byte mask marking every pixel scanned at least
 * once (the deduplicated pixels_assigned telemetry counter).
 *
 * The row-bounded helpers restrict every window to [row0, row1): the
 * _mt entries give each thread a row band, so each pixel is updated by
 * exactly one thread, which visits centers in the same ks order as the
 * one-thread scan — per-pixel update order, and therefore the strict-<
 * running-minimum result, is identical.                                */
/* ------------------------------------------------------------------ */

static void cpa_f64_rows(
    const double *lab,        /* h*w*3, row-major Lab image             */
    const double *centers,    /* k*5 rows [L, a, b, x, y]               */
    const int64_t *ks,        /* center indices to scan, in order       */
    int64_t n_ks,
    double weight,            /* m^2 / S^2                              */
    int64_t half,             /* window half-extent, ceil(S)            */
    int64_t h, int64_t w,
    int64_t row0, int64_t row1,
    double *dist,             /* h*w running minimum distances          */
    int32_t *labels,          /* h*w running argmin labels              */
    uint8_t *touched)         /* h*w scanned-pixel mask                 */
{
    (void)h;
    for (int64_t i = 0; i < n_ks; i++) {
        int64_t k = ks[i];
        const double *c = centers + 5 * k;
        double cl = c[0], ca = c[1], cb = c[2], cx = c[3], cy = c[4];
        int64_t fx = (int64_t)floor(cx);
        int64_t fy = (int64_t)floor(cy);
        int64_t x0 = fx - half < 0 ? 0 : fx - half;
        int64_t x1 = fx + half + 1 > w ? w : fx + half + 1;
        int64_t y0 = fy - half < row0 ? row0 : fy - half;
        int64_t y1 = fy + half + 1 > row1 ? row1 : fy + half + 1;
        for (int64_t y = y0; y < y1; y++) {
            double dy = (double)y - cy;
            double dy2 = dy * dy;
            const double *px = lab + (y * w + x0) * 3;
            double *drow = dist + y * w;
            int32_t *lrow = labels + y * w;
            uint8_t *trow = touched + y * w;
            for (int64_t x = x0; x < x1; x++, px += 3) {
                double dl = px[0] - cl;
                double da = px[1] - ca;
                double db = px[2] - cb;
                double dc2 = (dl * dl + da * da) + db * db;
                double dx = (double)x - cx;
                double d2 = dc2 + weight * (dx * dx + dy2);
                trow[x] = 1;
                if (d2 < drow[x]) {
                    drow[x] = d2;
                    lrow[x] = (int32_t)k;
                }
            }
        }
    }
}

typedef struct {
    const double *lab;
    const double *centers;
    const int64_t *ks;
    int64_t n_ks;
    double weight;
    int64_t half, h, w;
    double *dist;
    int32_t *labels;
    uint8_t *touched;
} cpa_f64_ctx;

static void cpa_f64_band(void *vctx, int64_t tid, int64_t width)
{
    cpa_f64_ctx *c = (cpa_f64_ctx *)vctx;
    cpa_f64_rows(c->lab, c->centers, c->ks, c->n_ks, c->weight, c->half,
                 c->h, c->w, mt_slice_lo(c->h, tid, width),
                 mt_slice_hi(c->h, tid, width), c->dist, c->labels,
                 c->touched);
}

void cpa_assign_f64_mt(
    const double *lab, const double *centers, const int64_t *ks,
    int64_t n_ks, double weight, int64_t half, int64_t h, int64_t w,
    double *dist, int32_t *labels, uint8_t *touched, int64_t n_threads)
{
    cpa_f64_ctx ctx = {lab, centers, ks, n_ks, weight, half, h, w,
                       dist, labels, touched};
    mt_run(cpa_f64_band, &ctx, n_threads < h ? n_threads : h);
}

static void cpa_fixed_rows(
    const int64_t *codes,     /* h*w*3 Lab channel codes                */
    const int64_t *c_codes,   /* k*5 encoded centers (codes + raw xy)   */
    const double *centers,    /* k*5 float centers (window placement)   */
    const int64_t *ks,
    int64_t n_ks,
    int64_t weight_raw,       /* fixed-point spatial weight             */
    int64_t wfrac,            /* WEIGHT_FRAC_BITS                       */
    int64_t sf,               /* spatial_frac_bits                      */
    int64_t quantize,         /* nonzero: shift + saturate the distance */
    int64_t dshift,           /* effective_distance_shift               */
    int64_t dmax,             /* distance_max_code                      */
    int64_t half,
    int64_t h, int64_t w,
    int64_t row0, int64_t row1,
    double *dist,             /* float64 running minima (engine buffer) */
    int32_t *labels,
    uint8_t *touched)
{
    (void)h;
    for (int64_t i = 0; i < n_ks; i++) {
        int64_t k = ks[i];
        const int64_t *cc = c_codes + 5 * k;
        int64_t cl = cc[0], ca = cc[1], cb = cc[2], cxr = cc[3], cyr = cc[4];
        double cx = centers[5 * k + 3];
        double cy = centers[5 * k + 4];
        int64_t fx = (int64_t)floor(cx);
        int64_t fy = (int64_t)floor(cy);
        int64_t x0 = fx - half < 0 ? 0 : fx - half;
        int64_t x1 = fx + half + 1 > w ? w : fx + half + 1;
        int64_t y0 = fy - half < row0 ? row0 : fy - half;
        int64_t y1 = fy + half + 1 > row1 ? row1 : fy + half + 1;
        for (int64_t y = y0; y < y1; y++) {
            int64_t dyv = (y << sf) - cyr;
            int64_t dy2 = dyv * dyv;
            const int64_t *px = codes + (y * w + x0) * 3;
            double *drow = dist + y * w;
            int32_t *lrow = labels + y * w;
            uint8_t *trow = touched + y * w;
            for (int64_t x = x0; x < x1; x++, px += 3) {
                int64_t dl = px[0] - cl;
                int64_t da = px[1] - ca;
                int64_t db = px[2] - cb;
                int64_t dc2 = (dl * dl + da * da) + db * db;
                int64_t dxv = (x << sf) - cxr;
                int64_t ds2 = (dxv * dxv + dy2) >> (2 * sf);
                int64_t d2 = dc2 + ((weight_raw * ds2) >> wfrac);
                if (quantize) {
                    d2 >>= dshift;
                    if (d2 > dmax) d2 = dmax;
                }
                trow[x] = 1;
                double d2f = (double)d2;
                if (d2f < drow[x]) {
                    drow[x] = d2f;
                    lrow[x] = (int32_t)k;
                }
            }
        }
    }
}

typedef struct {
    const int64_t *codes;
    const int64_t *c_codes;
    const double *centers;
    const int64_t *ks;
    int64_t n_ks;
    int64_t weight_raw, wfrac, sf, quantize, dshift, dmax, half, h, w;
    double *dist;
    int32_t *labels;
    uint8_t *touched;
} cpa_fixed_ctx;

static void cpa_fixed_band(void *vctx, int64_t tid, int64_t width)
{
    cpa_fixed_ctx *c = (cpa_fixed_ctx *)vctx;
    cpa_fixed_rows(c->codes, c->c_codes, c->centers, c->ks, c->n_ks,
                   c->weight_raw, c->wfrac, c->sf, c->quantize, c->dshift,
                   c->dmax, c->half, c->h, c->w,
                   mt_slice_lo(c->h, tid, width),
                   mt_slice_hi(c->h, tid, width),
                   c->dist, c->labels, c->touched);
}

void cpa_assign_fixed_mt(
    const int64_t *codes, const int64_t *c_codes, const double *centers,
    const int64_t *ks, int64_t n_ks, int64_t weight_raw, int64_t wfrac,
    int64_t sf, int64_t quantize, int64_t dshift, int64_t dmax,
    int64_t half, int64_t h, int64_t w,
    double *dist, int32_t *labels, uint8_t *touched, int64_t n_threads)
{
    cpa_fixed_ctx ctx = {codes, c_codes, centers, ks, n_ks, weight_raw,
                         wfrac, sf, quantize, dshift, dmax, half, h, w,
                         dist, labels, touched};
    mt_run(cpa_fixed_band, &ctx, n_threads < h ? n_threads : h);
}

/* ------------------------------------------------------------------ */
/* PPA: 9-candidate argmin per subset pixel, fully fused — no (M, 9, 3)
 * temporaries, one running minimum per pixel. Ties resolve to the
 * lowest candidate slot via the strict <, like the hardware 9:1 tree.
 *
 * Each subset pixel is independent, so the _mt entries split the
 * subset into contiguous [j0, j1) ranges — single-writer per output
 * element, serial evaluation order within each element.                */
/* ------------------------------------------------------------------ */

static void ppa_f64_range(
    const double *lab_flat,   /* n*3 flat Lab                           */
    const int64_t *xs,        /* n flat pixel x                         */
    const int64_t *ys,        /* n flat pixel y                         */
    const int64_t *tiles,     /* n tile index per pixel                 */
    const int64_t *subset,    /* m flat indices to assign               */
    int64_t j0, int64_t j1,
    const int32_t *cands,     /* t*9 candidate clusters per tile        */
    const double *centers,    /* k*5                                    */
    double weight,
    int32_t *out)             /* m chosen clusters                      */
{
    for (int64_t j = j0; j < j1; j++) {
        int64_t i = subset[j];
        const int32_t *cnd = cands + 9 * tiles[i];
        const double *px = lab_flat + 3 * i;
        double x = (double)xs[i];
        double y = (double)ys[i];
        double best = INFINITY;
        int32_t bk = cnd[0];
        for (int s = 0; s < 9; s++) {
            const double *c = centers + 5 * cnd[s];
            double dl = px[0] - c[0];
            double da = px[1] - c[1];
            double db = px[2] - c[2];
            double dc2 = (dl * dl + da * da) + db * db;
            double dx = x - c[3];
            double dyv = y - c[4];
            double d2 = dc2 + weight * (dx * dx + dyv * dyv);
            if (d2 < best) {
                best = d2;
                bk = cnd[s];
            }
        }
        out[j] = bk;
    }
}

typedef struct {
    const double *lab_flat;
    const int64_t *xs, *ys, *tiles, *subset;
    int64_t m;
    const int32_t *cands;
    const double *centers;
    double weight;
    int32_t *out;
} ppa_f64_ctx;

static void ppa_f64_chunk(void *vctx, int64_t tid, int64_t width)
{
    ppa_f64_ctx *c = (ppa_f64_ctx *)vctx;
    ppa_f64_range(c->lab_flat, c->xs, c->ys, c->tiles, c->subset,
                  mt_slice_lo(c->m, tid, width),
                  mt_slice_hi(c->m, tid, width),
                  c->cands, c->centers, c->weight, c->out);
}

void ppa_assign_f64_mt(
    const double *lab_flat, const int64_t *xs, const int64_t *ys,
    const int64_t *tiles, const int64_t *subset, int64_t m,
    const int32_t *cands, const double *centers, double weight,
    int32_t *out, int64_t n_threads)
{
    ppa_f64_ctx ctx = {lab_flat, xs, ys, tiles, subset, m, cands,
                       centers, weight, out};
    mt_run(ppa_f64_chunk, &ctx, n_threads < m ? n_threads : m);
}

/* ------------------------------------------------------------------ */
/* Fixed-point RGB -> Lab channel codes: gamma LUT, folded 3x3 integer
 * matrix, piecewise-linear cube root, scale-and-offset encode — one
 * pixel at a time, replicating convert_codes_reference exactly, with
 * the code->Lab decode fused into the same traversal.
 *
 * Bit-identity notes: rounding shifts on possibly-negative values use
 * the same arithmetic >> numpy does (gcc/clang on the targets we build
 * for); the intercept alignment multiplies by 1<<shift instead of
 * left-shifting, because shifting a negative signed value is UB in C
 * while numpy's << is well-defined; the final scale rounding is
 * sign-symmetric, mirroring _scale_round's np.where.                   */
/* ------------------------------------------------------------------ */

static int64_t scale_round_i64(int64_t raw, int64_t scale_raw,
                               int64_t shift, int64_t half)
{
    int64_t wide = raw * scale_raw;
    return wide >= 0 ? (wide + half) >> shift : -((-wide + half) >> shift);
}

static void lab_from_codes_range(
    const uint8_t *rgb,        /* n*3 flat RGB                          */
    int64_t i0, int64_t i1,    /* pixel range                           */
    const int64_t *gamma_lut,  /* 256 entries, gamma_frac fraction bits */
    const int64_t *matrix_raw, /* 3*3 row-major folded matrix           */
    int64_t mat_shift,         /* (gamma_frac + mat_frac) - in_frac     */
    int64_t in_raw_min, int64_t in_raw_max,   /* PWL in_fmt raw range   */
    const int64_t *breaks_raw, /* n_seg + 1 breakpoints, in_fmt raw     */
    int64_t n_seg,
    const int64_t *slopes_raw, /* n_seg, coeff_fmt raw                  */
    const int64_t *intercepts_raw,
    int64_t in_frac,           /* in_fmt fraction bits (b alignment)    */
    int64_t out_shift,         /* (coeff_frac + in_frac) - out_frac, >0 */
    int64_t out_raw_min, int64_t out_raw_max, /* PWL out_fmt raw range  */
    int64_t f_frac,            /* out_fmt fraction bits                 */
    int64_t l_scale_raw,       /* round(l_scale * 2^14)                 */
    int64_t ab_scale_raw,      /* round(ab_scale * 2^14)                */
    int64_t ab_offset,
    int64_t code_max,
    int64_t *codes,            /* n*3 output channel codes              */
    double l_scale_d,          /* real decode scales                    */
    double ab_scale_d,
    double ab_offset_d,
    double *lab_out)           /* n*3 decoded Lab                       */
{
    int64_t mat_half = (int64_t)1 << (mat_shift - 1);
    int64_t b_align = (int64_t)1 << in_frac;
    int64_t out_half = (int64_t)1 << (out_shift - 1);
    int64_t one = (int64_t)1 << f_frac;
    int64_t s_shift = f_frac + 14;
    int64_t s_half = (int64_t)1 << (s_shift - 1);
    for (int64_t i = i0; i < i1; i++) {
        const uint8_t *px = rgb + 3 * i;
        int64_t lin0 = gamma_lut[px[0]];
        int64_t lin1 = gamma_lut[px[1]];
        int64_t lin2 = gamma_lut[px[2]];
        int64_t f[3];
        for (int k = 0; k < 3; k++) {
            const int64_t *m = matrix_raw + 3 * k;
            int64_t t = lin0 * m[0] + lin1 * m[1] + lin2 * m[2];
            t = (t + mat_half) >> mat_shift;   /* arithmetic, like numpy */
            if (t < 0) t = 0;
            if (t < in_raw_min) t = in_raw_min;
            if (t > in_raw_max) t = in_raw_max;
            /* Segment select: count of interior breakpoints <= t.      */
            int64_t seg = 0;
            while (seg < n_seg - 1 && t >= breaks_raw[seg + 1]) seg++;
            int64_t y = slopes_raw[seg] * t + intercepts_raw[seg] * b_align;
            y = y >= 0 ? (y + out_half) >> out_shift
                       : -((-y + out_half) >> out_shift);
            if (y < out_raw_min) y = out_raw_min;
            if (y > out_raw_max) y = out_raw_max;
            f[k] = y;
        }
        int64_t l_raw = 116 * f[1] - 16 * one;
        int64_t a_raw = 500 * (f[0] - f[1]);
        int64_t b_raw = 200 * (f[1] - f[2]);
        int64_t cl = scale_round_i64(l_raw, l_scale_raw, s_shift, s_half);
        int64_t ca = scale_round_i64(a_raw, ab_scale_raw, s_shift, s_half)
                     + ab_offset;
        int64_t cb = scale_round_i64(b_raw, ab_scale_raw, s_shift, s_half)
                     + ab_offset;
        int64_t *out = codes + 3 * i;
        out[0] = cl < 0 ? 0 : (cl > code_max ? code_max : cl);
        out[1] = ca < 0 ? 0 : (ca > code_max ? code_max : ca);
        out[2] = cb < 0 ? 0 : (cb > code_max ? code_max : cb);
        /* Inline LabEncoding.decode: float64 cast, then the same
         * divide / subtract-divide expressions numpy evaluates —
         * identical IEEE operations, so the fused Lab plane is
         * bit-identical to decode(convert_codes_reference(...)).       */
        double *lo = lab_out + 3 * i;
        lo[0] = (double)out[0] / l_scale_d;
        lo[1] = ((double)out[1] - ab_offset_d) / ab_scale_d;
        lo[2] = ((double)out[2] - ab_offset_d) / ab_scale_d;
    }
}

typedef struct {
    const uint8_t *rgb;
    int64_t n;
    const int64_t *gamma_lut;
    const int64_t *matrix_raw;
    int64_t mat_shift;
    int64_t in_raw_min, in_raw_max;
    const int64_t *breaks_raw;
    int64_t n_seg;
    const int64_t *slopes_raw;
    const int64_t *intercepts_raw;
    int64_t in_frac, out_shift;
    int64_t out_raw_min, out_raw_max, f_frac;
    int64_t l_scale_raw, ab_scale_raw, ab_offset, code_max;
    int64_t *codes;
    double l_scale_d, ab_scale_d, ab_offset_d;
    double *lab_out;
} lab_ctx;

static void lab_chunk(void *vctx, int64_t tid, int64_t width)
{
    lab_ctx *c = (lab_ctx *)vctx;
    lab_from_codes_range(c->rgb, mt_slice_lo(c->n, tid, width),
                         mt_slice_hi(c->n, tid, width), c->gamma_lut,
                         c->matrix_raw, c->mat_shift, c->in_raw_min,
                         c->in_raw_max, c->breaks_raw, c->n_seg,
                         c->slopes_raw, c->intercepts_raw, c->in_frac,
                         c->out_shift, c->out_raw_min, c->out_raw_max,
                         c->f_frac, c->l_scale_raw, c->ab_scale_raw,
                         c->ab_offset, c->code_max, c->codes,
                         c->l_scale_d, c->ab_scale_d, c->ab_offset_d,
                         c->lab_out);
}

/* The conversion entry: one pixel pass producing both the channel codes
 * and the decoded float64 Lab plane.                                    */
void lab_from_codes_u8_mt(
    const uint8_t *rgb, int64_t n, const int64_t *gamma_lut,
    const int64_t *matrix_raw, int64_t mat_shift,
    int64_t in_raw_min, int64_t in_raw_max, const int64_t *breaks_raw,
    int64_t n_seg, const int64_t *slopes_raw,
    const int64_t *intercepts_raw, int64_t in_frac, int64_t out_shift,
    int64_t out_raw_min, int64_t out_raw_max, int64_t f_frac,
    int64_t l_scale_raw, int64_t ab_scale_raw, int64_t ab_offset,
    int64_t code_max, int64_t *codes,
    double l_scale_d, double ab_scale_d, double ab_offset_d,
    double *lab_out, int64_t n_threads)
{
    lab_ctx ctx = {rgb, n, gamma_lut, matrix_raw, mat_shift,
                   in_raw_min, in_raw_max, breaks_raw, n_seg,
                   slopes_raw, intercepts_raw, in_frac, out_shift,
                   out_raw_min, out_raw_max, f_frac, l_scale_raw,
                   ab_scale_raw, ab_offset, code_max, codes,
                   l_scale_d, ab_scale_d, ab_offset_d, lab_out};
    mt_run(lab_chunk, &ctx, n_threads < n ? n_threads : n);
}

/* ------------------------------------------------------------------ */
/* Connectivity: the greedy small-component merge walk over the CSR
 * adjacency graph. Semantics and tie rule match merge_small_reference
 * exactly: longest shared border wins, ties to the lowest neighbor
 * component id; chained merges follow union-find roots.                */
/* ------------------------------------------------------------------ */

static int64_t uf_find(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {        /* path halving */
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

void merge_small(
    const int64_t *starts,     /* n_comps CSR slice starts              */
    const int64_t *ends,       /* n_comps CSR slice ends                */
    const int64_t *dst,        /* edge target component ids             */
    const int64_t *border_len, /* edge shared-border weights            */
    int64_t min_size,
    const int64_t *order,      /* small components, increasing size     */
    int64_t n_order,
    int64_t n_comps,
    int64_t *parent,           /* n_comps, pre-set to identity          */
    int64_t *merged_size,      /* n_comps, pre-set to sizes             */
    int64_t *final_root)       /* n_comps output roots                  */
{
    for (int64_t i = 0; i < n_order; i++) {
        int64_t c = order[i];
        int64_t root_c = uf_find(parent, c);
        if (merged_size[root_c] >= min_size) continue;
        int64_t lo = starts[c], hi = ends[c];
        if (lo == hi) continue;   /* isolated: whole image is one label */
        int64_t best_w = -1, best_nb = -1, best_root = -1;
        for (int64_t e = lo; e < hi; e++) {
            int64_t nb = dst[e];
            int64_t root_nb = uf_find(parent, nb);
            if (root_nb == root_c) continue;
            int64_t wgt = border_len[e];
            if (wgt > best_w || (wgt == best_w && nb < best_nb)) {
                best_w = wgt;
                best_nb = nb;
                best_root = root_nb;
            }
        }
        if (best_root < 0) continue;
        parent[root_c] = best_root;
        int64_t new_root = uf_find(parent, best_root);
        merged_size[new_root] = merged_size[root_c] + merged_size[best_root];
    }
    for (int64_t i = 0; i < n_comps; i++)
        final_root[i] = uf_find(parent, i);
}

/* ------------------------------------------------------------------ */
/* Connected components: two-pass union-find over row runs.
 *
 * Pass 1 decomposes the label map into maximal horizontal runs (runs
 * never cross a row boundary, matching _run_ids in core.connectivity);
 * pass 2 unions vertically adjacent same-label runs *by minimal root*:
 * the larger root is always attached under the smaller, so each
 * component's final root is its minimal run id — its first appearance
 * in raster order. An ascending renumber of the roots then reproduces
 * the reference's canonical first-appearance component ids exactly.
 *
 * ccl_i32_mt gives each thread a contiguous row band. Runs are
 * counted per band, offset by a serial prefix sum (band-local run
 * decomposition + offsets equals the global decomposition because runs
 * break at row boundaries anyway), and intra-band unions touch only the
 * band's own disjoint parent range — race-free by ownership. The
 * cross-band seams and the final renumber run serially. Union-by-min
 * makes every component's root independent of union order, so the
 * result is bit-identical to the one-band pass (ccl_i32, the width-1
 * fallback) at any thread count.                                       */
/* ------------------------------------------------------------------ */

/* Attach the larger of the two roots under the smaller. */
static void uf_union_min(int64_t *parent, int64_t a, int64_t b)
{
    int64_t ra = uf_find(parent, a);
    int64_t rb = uf_find(parent, b);
    if (ra < rb)
        parent[rb] = ra;
    else if (rb < ra)
        parent[ra] = rb;
}

/* Decompose rows [y0, y1) into runs. Run ids start at `base` and are
 * written into comps (int32: the caller guarantees h*w < 2^31). When
 * `parent` is non-null each new run is initialized to identity. Unions
 * start at row max(y0, union_y0) so the mt variant can defer seams.
 * Returns the number of runs emitted.                                  */
static int64_t ccl_rows(
    const int32_t *labels, int64_t w, int64_t y0, int64_t y1,
    int64_t union_y0, int64_t base, int32_t *comps, int64_t *parent)
{
    int64_t next = base;
    for (int64_t y = y0; y < y1; y++) {
        const int32_t *row = labels + y * w;
        int32_t *crow = comps + y * w;
        for (int64_t x = 0; x < w; x++) {
            if (x == 0 || row[x] != row[x - 1]) {
                if (parent) parent[next] = next;
                next++;
            }
            crow[x] = (int32_t)(next - 1);
            if (parent && y > union_y0 && row[x] == labels[(y - 1) * w + x])
                uf_union_min(parent, crow[x], comps[(y - 1) * w + x]);
        }
    }
    return next - base;
}

/* Compress every run to its root, then renumber roots in ascending run
 * id order — in place, valid because each root is the minimum of its
 * component, so parent[root] is rewritten before any child reads it.   */
static int64_t ccl_renumber(int64_t *parent, int64_t n_runs)
{
    for (int64_t r = 0; r < n_runs; r++)
        parent[r] = uf_find(parent, r);
    int64_t next = 0;
    for (int64_t r = 0; r < n_runs; r++) {
        int64_t root = parent[r];
        parent[r] = (root == r) ? next++ : parent[root];
    }
    return next;
}

static int64_t ccl_i32(
    const int32_t *labels,     /* h*w label map                         */
    int64_t h, int64_t w,
    int32_t *comps,            /* h*w output component map              */
    int64_t *parent)           /* h*w scratch (>= n_runs)               */
{
    int64_t n_runs = ccl_rows(labels, w, 0, h, 0, 0, comps, parent);
    int64_t n_comps = ccl_renumber(parent, n_runs);
    for (int64_t i = 0; i < h * w; i++)
        comps[i] = (int32_t)parent[comps[i]];
    return n_comps;
}

typedef struct {
    const int32_t *labels;
    int64_t h, w;
    int32_t *comps;
    int64_t *parent;
    int64_t counts[MT_MAX_THREADS];   /* runs per band                  */
    int64_t offsets[MT_MAX_THREADS];  /* band run-id bases              */
    int64_t done;                     /* 0: count pass, 1: fill pass    */
} ccl_ctx;

static void ccl_band(void *vctx, int64_t tid, int64_t width)
{
    ccl_ctx *c = (ccl_ctx *)vctx;
    int64_t y0 = mt_slice_lo(c->h, tid, width);
    int64_t y1 = mt_slice_hi(c->h, tid, width);
    if (!c->done)
        c->counts[tid] = ccl_rows(c->labels, c->w, y0, y1, y0,
                                  0, c->comps, 0);
    else
        ccl_rows(c->labels, c->w, y0, y1, y0,
                 c->offsets[tid], c->comps, c->parent);
}

static void ccl_relabel_band(void *vctx, int64_t tid, int64_t width)
{
    ccl_ctx *c = (ccl_ctx *)vctx;
    int64_t lo = mt_slice_lo(c->h * c->w, tid, width);
    int64_t hi = mt_slice_hi(c->h * c->w, tid, width);
    for (int64_t i = lo; i < hi; i++)
        c->comps[i] = (int32_t)c->parent[c->comps[i]];
}

int64_t ccl_i32_mt(
    const int32_t *labels, int64_t h, int64_t w,
    int32_t *comps, int64_t *parent, int64_t n_threads)
{
    if (n_threads > h) n_threads = h;
    if (n_threads > MT_MAX_THREADS) n_threads = MT_MAX_THREADS;
    if (n_threads < 2)
        return ccl_i32(labels, h, w, comps, parent);
    ccl_ctx ctx;
    ctx.labels = labels;
    ctx.h = h;
    ctx.w = w;
    ctx.comps = comps;
    ctx.parent = parent;
    ctx.done = 0;
    for (int64_t t = 0; t < MT_MAX_THREADS; t++)
        ctx.counts[t] = ctx.offsets[t] = 0;
    /* The pool may degrade to fewer participants than requested (a
     * failed pthread_create). The band partition, the prefix sum, and
     * the seam loop must all use the width that actually ran, and both
     * passes must run at the *same* width — otherwise seams land on the
     * wrong rows and components silently split. mt_spawned never
     * shrinks in a process, so re-requesting `width` is guaranteed to
     * run at exactly `width`; the serial fallbacks cover width 1 and
     * the cannot-happen mismatch (a full recompute, so comps/parent
     * being partially written is harmless).                             */
    int64_t width = mt_run(ccl_band, &ctx, n_threads); /* count runs    */
    if (width < 2)
        return ccl_i32(labels, h, w, comps, parent);
    int64_t n_runs = 0;
    for (int64_t t = 0; t < width; t++) {
        ctx.offsets[t] = n_runs;
        n_runs += ctx.counts[t];
    }
    ctx.done = 1;
    if (mt_run(ccl_band, &ctx, width) != width)   /* fill + band unions */
        return ccl_i32(labels, h, w, comps, parent);
    for (int64_t t = 1; t < width; t++) {         /* serial seams       */
        int64_t y = mt_slice_lo(h, t, width);
        if (y == 0 || y >= h) continue;
        const int32_t *row = labels + y * w;
        const int32_t *up = row - w;
        for (int64_t x = 0; x < w; x++)
            if (row[x] == up[x])
                uf_union_min(parent, comps[y * w + x],
                             comps[(y - 1) * w + x]);
    }
    int64_t n_comps = ccl_renumber(parent, n_runs);
    mt_run(ccl_relabel_band, &ctx, width);
    return n_comps;
}

/* Resolve pre-decomposed runs against an explicit union pair list into
 * canonical dense component ids (the incremental-connectivity path:
 * Python rebuilds run structures only for dirty row bands and ships the
 * vertical adjacencies here). parent[r] holds run r's dense id on
 * return; the return value is the component count.                     */
int64_t ccl_resolve(
    const int64_t *pair_a,     /* n_pairs union endpoints               */
    const int64_t *pair_b,
    int64_t n_pairs,
    int64_t n_runs,
    int64_t *parent)           /* n_runs, overwritten                   */
{
    for (int64_t r = 0; r < n_runs; r++)
        parent[r] = r;
    for (int64_t i = 0; i < n_pairs; i++)
        uf_union_min(parent, pair_a[i], pair_b[i]);
    return ccl_renumber(parent, n_runs);
}

/* ------------------------------------------------------------------ */
/* Metrics: the USE/ASA joint histogram and the 3-4 chamfer transform.
 * The chamfer sweeps are the sequential raster form of the reference's
 * per-row prefix-min formulation; on the integer grid the two are
 * exactly equal (d[x] = min(pre[x], d[x-1]+3) unrolls to the same
 * prefix minimum), so results stay bit-identical.                      */
/* ------------------------------------------------------------------ */

typedef struct {
    const int64_t *a, *b;
    int64_t n, n_b, n_cells;
    int64_t *scratch;          /* n_threads private tables, zeroed      */
} contingency_ctx;

static void contingency_chunk(void *vctx, int64_t tid, int64_t width)
{
    contingency_ctx *c = (contingency_ctx *)vctx;
    int64_t *table = c->scratch + tid * c->n_cells;
    int64_t hi = mt_slice_hi(c->n, tid, width);
    for (int64_t i = mt_slice_lo(c->n, tid, width); i < hi; i++)
        table[c->a[i] * c->n_b + c->b[i]] += 1;
}

void contingency_i64_mt(
    const int64_t *a, const int64_t *b, int64_t n, int64_t n_b,
    int64_t n_threads,
    int64_t *scratch,          /* n_threads * n_cells, zero-initialized */
    int64_t n_cells,           /* n_a * n_b                             */
    int64_t *table)            /* n_a * n_b, zero-initialized           */
{
    contingency_ctx ctx = {a, b, n, n_b, n_cells, scratch};
    mt_run(contingency_chunk, &ctx, n_threads < n ? n_threads : n);
    /* Deterministic stitch: private tables fold in ascending tile id.
     * Slices beyond the width that actually ran stayed all-zero.       */
    for (int64_t t = 0; t < n_threads; t++) {
        const int64_t *part = scratch + t * n_cells;
        for (int64_t i = 0; i < n_cells; i++)
            table[i] += part[i];
    }
}

void chamfer_i64(
    int64_t *dist,             /* h*w grid: 0 on mask, BIG elsewhere    */
    int64_t h, int64_t w)
{
    /* Forward pass: top-left to bottom-right. */
    for (int64_t y = 0; y < h; y++) {
        int64_t *row = dist + y * w;
        const int64_t *up = row - w;
        for (int64_t x = 0; x < w; x++) {
            int64_t d = row[x], v;
            if (y > 0) {
                v = up[x] + 3; if (v < d) d = v;
                if (x > 0)     { v = up[x - 1] + 4; if (v < d) d = v; }
                if (x < w - 1) { v = up[x + 1] + 4; if (v < d) d = v; }
            }
            if (x > 0) { v = row[x - 1] + 3; if (v < d) d = v; }
            row[x] = d;
        }
    }
    /* Backward pass: bottom-right to top-left. */
    for (int64_t y = h - 1; y >= 0; y--) {
        int64_t *row = dist + y * w;
        const int64_t *down = row + w;
        for (int64_t x = w - 1; x >= 0; x--) {
            int64_t d = row[x], v;
            if (y < h - 1) {
                v = down[x] + 3; if (v < d) d = v;
                if (x > 0)     { v = down[x - 1] + 4; if (v < d) d = v; }
                if (x < w - 1) { v = down[x + 1] + 4; if (v < d) d = v; }
            }
            if (x < w - 1) { v = row[x + 1] + 3; if (v < d) d = v; }
            row[x] = d;
        }
    }
}

static void ppa_fixed_range(
    const int64_t *codes_flat, /* n*3 flat channel codes                */
    const int64_t *xs,
    const int64_t *ys,
    const int64_t *tiles,
    const int64_t *subset,
    int64_t j0, int64_t j1,
    const int32_t *cands,
    const int64_t *c_codes,    /* k*5 encoded centers                   */
    int64_t weight_raw,
    int64_t wfrac,
    int64_t sf,
    int64_t quantize,
    int64_t dshift,
    int64_t dmax,
    int32_t *out)
{
    for (int64_t j = j0; j < j1; j++) {
        int64_t i = subset[j];
        const int32_t *cnd = cands + 9 * tiles[i];
        const int64_t *px = codes_flat + 3 * i;
        int64_t xr = xs[i] << sf;
        int64_t yr = ys[i] << sf;
        int64_t best = INT64_MAX;
        int32_t bk = cnd[0];
        for (int s = 0; s < 9; s++) {
            const int64_t *c = c_codes + 5 * cnd[s];
            int64_t dl = px[0] - c[0];
            int64_t da = px[1] - c[1];
            int64_t db = px[2] - c[2];
            int64_t dc2 = (dl * dl + da * da) + db * db;
            int64_t dxv = xr - c[3];
            int64_t dyv = yr - c[4];
            int64_t ds2 = (dxv * dxv + dyv * dyv) >> (2 * sf);
            int64_t d2 = dc2 + ((weight_raw * ds2) >> wfrac);
            if (quantize) {
                d2 >>= dshift;
                if (d2 > dmax) d2 = dmax;
            }
            if (d2 < best) {
                best = d2;
                bk = cnd[s];
            }
        }
        out[j] = bk;
    }
}

typedef struct {
    const int64_t *codes_flat;
    const int64_t *xs, *ys, *tiles, *subset;
    int64_t m;
    const int32_t *cands;
    const int64_t *c_codes;
    int64_t weight_raw, wfrac, sf, quantize, dshift, dmax;
    int32_t *out;
} ppa_fixed_ctx;

static void ppa_fixed_chunk(void *vctx, int64_t tid, int64_t width)
{
    ppa_fixed_ctx *c = (ppa_fixed_ctx *)vctx;
    ppa_fixed_range(c->codes_flat, c->xs, c->ys, c->tiles, c->subset,
                    mt_slice_lo(c->m, tid, width),
                    mt_slice_hi(c->m, tid, width),
                    c->cands, c->c_codes, c->weight_raw, c->wfrac,
                    c->sf, c->quantize, c->dshift, c->dmax, c->out);
}

void ppa_assign_fixed_mt(
    const int64_t *codes_flat, const int64_t *xs, const int64_t *ys,
    const int64_t *tiles, const int64_t *subset, int64_t m,
    const int32_t *cands, const int64_t *c_codes, int64_t weight_raw,
    int64_t wfrac, int64_t sf, int64_t quantize, int64_t dshift,
    int64_t dmax, int32_t *out, int64_t n_threads)
{
    ppa_fixed_ctx ctx = {codes_flat, xs, ys, tiles, subset, m, cands,
                         c_codes, weight_raw, wfrac, sf, quantize,
                         dshift, dmax, out};
    mt_run(ppa_fixed_chunk, &ctx, n_threads < m ? n_threads : m);
}

/* ------------------------------------------------------------------ */
/* Sigma accumulation: per-cluster [L, a, b, x, y] sums plus member
 * counts in one pass over the assigned entries — the software model of
 * the Cluster Update Unit's sigma registers (Section 4.3), without
 * materializing the (M, 5) values matrix the numpy path builds. x and y
 * come from the flat pixel index (x = i % w, y = i / w, row-major).
 *
 * Bit-identity: every (cluster, field) accumulator receives its
 * contributions in ascending entry order j — exactly the order
 * np.bincount(labels, weights=...) folds them — so the partial sums
 * equal the reference's bincount outputs bit for bit. The five fields
 * are independent accumulators, so fusing them into one loop changes
 * nothing. The _mt entries partition by *cluster ownership*, not entry
 * ranges: thread t owns clusters [mt_slice_lo(K, t, width),
 * mt_slice_hi(K, t, width)), scans every entry, and accumulates only
 * labels it owns. Each accumulator is written by exactly one thread in
 * the full serial entry order, so float64 summation order is preserved
 * and results are bit-identical at any thread count. (A per-thread
 * entry-range fold — the contingency_table pattern — would reorder
 * float additions and is NOT exact for float weights; it is only valid
 * for integer histograms.) Labels outside [k_lo, k_hi) are skipped, so
 * a label outside [0, K) is never written.                             */
/* ------------------------------------------------------------------ */

static void sigma_f64_rows(
    const double *lab_flat,   /* n*3 float Lab rows                     */
    const int64_t *idx,       /* m flat pixel indices, NULL: j itself   */
    const int32_t *labels,    /* m assigned clusters                    */
    int64_t m,
    int64_t k_lo, int64_t k_hi,
    int64_t w,
    double *sums,             /* n_clusters*5, zero-initialized         */
    int64_t *counts)          /* n_clusters, zero-initialized           */
{
    for (int64_t j = 0; j < m; j++) {
        int64_t k = labels[j];
        if (k < k_lo || k >= k_hi) continue;
        int64_t i = idx ? idx[j] : j;
        const double *px = lab_flat + 3 * i;
        double *s = sums + 5 * k;
        s[0] += px[0];
        s[1] += px[1];
        s[2] += px[2];
        s[3] += (double)(i % w);
        s[4] += (double)(i / w);
        counts[k]++;
    }
}

static void sigma_codes_rows(
    const int64_t *codes_flat, /* n*3 Lab channel codes                 */
    const int64_t *idx,
    const int32_t *labels,
    int64_t m,
    int64_t k_lo, int64_t k_hi,
    int64_t w,
    double l_scale,            /* real decode constants                 */
    double ab_scale,
    double ab_offset,
    double *sums,
    int64_t *counts)
{
    /* Decode inline per entry — the same float64 cast and
     * divide / subtract-divide expressions as LabEncoding.decode, so
     * the accumulated values match the reference's decoded rows.       */
    for (int64_t j = 0; j < m; j++) {
        int64_t k = labels[j];
        if (k < k_lo || k >= k_hi) continue;
        int64_t i = idx ? idx[j] : j;
        const int64_t *px = codes_flat + 3 * i;
        double *s = sums + 5 * k;
        s[0] += (double)px[0] / l_scale;
        s[1] += ((double)px[1] - ab_offset) / ab_scale;
        s[2] += ((double)px[2] - ab_offset) / ab_scale;
        s[3] += (double)(i % w);
        s[4] += (double)(i / w);
        counts[k]++;
    }
}

typedef struct {
    const double *lab_flat;
    const int64_t *codes_flat;
    const int64_t *idx;
    const int32_t *labels;
    int64_t m, n_clusters, w;
    double l_scale, ab_scale, ab_offset;
    double *sums;
    int64_t *counts;
} sigma_ctx;

static void sigma_f64_chunk(void *vctx, int64_t tid, int64_t width)
{
    sigma_ctx *c = (sigma_ctx *)vctx;
    sigma_f64_rows(c->lab_flat, c->idx, c->labels, c->m,
                   mt_slice_lo(c->n_clusters, tid, width),
                   mt_slice_hi(c->n_clusters, tid, width),
                   c->w, c->sums, c->counts);
}

static void sigma_codes_chunk(void *vctx, int64_t tid, int64_t width)
{
    sigma_ctx *c = (sigma_ctx *)vctx;
    sigma_codes_rows(c->codes_flat, c->idx, c->labels, c->m,
                     mt_slice_lo(c->n_clusters, tid, width),
                     mt_slice_hi(c->n_clusters, tid, width),
                     c->w, c->l_scale, c->ab_scale, c->ab_offset,
                     c->sums, c->counts);
}

void sigma_acc_f64_mt(
    const double *lab_flat, const int64_t *idx, const int32_t *labels,
    int64_t m, int64_t w, int64_t n_clusters, double *sums,
    int64_t *counts, int64_t n_threads)
{
    sigma_ctx ctx = {lab_flat, 0, idx, labels, m, n_clusters, w,
                     0.0, 1.0, 0.0, sums, counts};
    mt_run(sigma_f64_chunk, &ctx,
           n_threads < n_clusters ? n_threads : n_clusters);
}

void sigma_acc_codes_mt(
    const int64_t *codes_flat, const int64_t *idx, const int32_t *labels,
    int64_t m, int64_t w, double l_scale, double ab_scale,
    double ab_offset, int64_t n_clusters, double *sums, int64_t *counts,
    int64_t n_threads)
{
    sigma_ctx ctx = {0, codes_flat, idx, labels, m, n_clusters, w,
                     l_scale, ab_scale, ab_offset, sums, counts};
    mt_run(sigma_codes_chunk, &ctx,
           n_threads < n_clusters ? n_threads : n_clusters);
}
