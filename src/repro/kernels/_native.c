/* Native kernels: the per-frame passes the engine runs on a clock — the
 * float CPA window scan, the fused PPA pass (9-candidate evaluation,
 * label write and sigma accumulation in one call, float and
 * fixed-point), the fused fixed-point RGB->Lab conversion and code->Lab
 * decode, the float sigma-register accumulation, the fused
 * connectivity pass (two-pass union-find components, border adjacency,
 * the small-component merge walk and the relabel in one call), and the
 * IEEE basic-arithmetic steps of the float RGB->Lab conversion — as
 * plain C loops. Nothing else is compiled: the fixed-point CPA scan, the
 * codes-domain sigma accumulation and the BR/USE metrics run in numpy,
 * and so do the float conversion's two host-dependent steps (the 3x3
 * BLAS product and np.cbrt).
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
 * property tests and benchmarks/bench_kernels.py assert it. The library
 * targets the baseline ISA, except for the two lane-parallel bodies of
 * the PPA pass: they carry a per-function AVX-512 target attribute and
 * run only when the CPU has AVX-512 (picked once, at library load; see
 * the PPA section). -ffp-contract=off holds lane-wise there too, so each
 * lane performs the scalar loop's IEEE operations in the scalar order.
 *
 * The fixed-point (FixedDatapath) PPA pass takes the code-domain
 * image/centers and replicates the shift/saturate pipeline of
 * FixedDatapath.pairwise_d2.
 *
 * Ten exports. Every pooled kernel is exported once, as a `_mt` entry
 * taking an `n_threads` argument (the `native-mt` backend); n_threads =
 * 1 runs the kernel inline on the calling thread, which is the serial
 * case. ppa_lanes reports which PPA body the library picked. The three
 * float color band loops (gamma_gather_u8, xyz_over_white_f64,
 * lab_assemble_f64) are single-threaded: the Python band walk calls
 * them from its own threads, one band each (see their section).
 * Parallelism is by *ownership partitioning*: each thread owns a
 * contiguous slice of the output (row bands for CPA, index ranges for
 * the PPA pass / lab_from_codes, cluster ranges for the sigma
 * accumulation) and visits its slice in exactly the serial order, so
 * every output element is written by exactly one thread with the serial
 * operation order — no boundary ties can ever arise and the results
 * stay bit-identical to the one-thread run at any thread count. The
 * only cross-tile combines (the connected-components band seams +
 * renumber, and the PPA pass's clusters that straddle two index ranges)
 * run sequentially, in ascending tile id or entry order;
 * union-by-minimal-root makes the component roots independent of union
 * order (see the CCL section). The fused connectivity entry threads only
 * its CCL and its final relabel; its adjacency build and merge walk run
 * serially.
 */

#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

/* The PPA lane bodies need x86-64-v4 (AVX-512 F/BW/CD/DQ/VL) and a gcc or
 * clang that takes per-function target attributes. Elsewhere, and when
 * built with -DPPA_SCALAR_ONLY (the scalar-path seam test), only the
 * scalar loops exist.                                                  */
#if !defined(PPA_SCALAR_ONLY) && defined(__x86_64__) &&                 \
    ((defined(__clang__) && __clang_major__ >= 7) ||                    \
     (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 7))
#define PPA_LANES 1
#include <immintrin.h>
#define PPA_LANES_TARGET                                                \
    __attribute__((target("avx512f,avx512bw,avx512cd,avx512dq,avx512vl")))
#endif

/* ------------------------------------------------------------------ */
/* A tiny persistent pthread pool. mt_run(fn, ctx, width) runs           */
/* fn(ctx, tid, width) once for every tid in [0, width): the request    */
/* fixes the split, and only which thread runs a slice can change. The  */
/* calling thread runs tid 0, parked workers run tids 1..live-1 (the    */
/* ones that exist), and the caller then runs every slice whose worker  */
/* could not be spawned. So a failed pthread_create never changes a     */
/* partition or a combine step. A width of 1 runs inline and never      */
/* touches the pool, so one-thread calls from concurrent callers        */
/* overlap. Wider jobs take a dispatch mutex that serializes concurrent */
/* callers (two engines in one process simply take turns). Each worker  */
/* parks on its own condvar and is signalled only by the jobs that use  */
/* it, so a narrow call never wakes the idle workers a wide one left.   */
/* pthread_atfork handlers keep fork()d children (the multiprocessing   */
/* pool) consistent: the child reinitializes the primitives and         */
/* respawns lazily.                                                     */
/* ------------------------------------------------------------------ */

#define MT_MAX_THREADS 64

typedef void (*mt_fn)(void *ctx, int64_t tid, int64_t width);

static pthread_mutex_t mt_dispatch = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t mt_lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t mt_go[MT_MAX_THREADS];  /* one per worker tid    */
static pthread_cond_t mt_done = PTHREAD_COND_INITIALIZER;
static int64_t mt_spawned = 0;   /* live workers (excluding the caller) */
static int64_t mt_ready = 0;     /* workers parked and seq-synchronized */
static uint64_t mt_job_seq = 0;
static mt_fn mt_job_fn = 0;
static void *mt_job_ctx = 0;
static int64_t mt_job_width = 0;
static int64_t mt_job_live = 0;  /* tids below this run on a worker    */
static int64_t mt_remaining = 0;

static void *mt_worker(void *arg)
{
    int64_t tid = (int64_t)(intptr_t)arg;
    pthread_mutex_lock(&mt_lock);
    uint64_t seen = mt_job_seq;  /* spawned pre-job, under mt_dispatch */
    mt_ready++;
    pthread_cond_broadcast(&mt_done);
    for (;;) {
        /* A job that skipped this worker leaves `seen` behind, so the
         * next job that includes it still runs.                        */
        while (mt_job_seq == seen || tid >= mt_job_live)
            pthread_cond_wait(&mt_go[tid], &mt_lock);
        seen = mt_job_seq;
        mt_fn fn = mt_job_fn;
        void *ctx = mt_job_ctx;
        int64_t width = mt_job_width;
        pthread_mutex_unlock(&mt_lock);
        fn(ctx, tid, width);
        pthread_mutex_lock(&mt_lock);
        if (--mt_remaining == 0)
            pthread_cond_broadcast(&mt_done);
    }
    return 0;
}

static void mt_init_go(void)
{
    for (int t = 0; t < MT_MAX_THREADS; t++)
        pthread_cond_init(&mt_go[t], 0);
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
    mt_init_go();
    pthread_cond_init(&mt_done, 0);
    mt_spawned = 0;
    mt_ready = 0;
    mt_job_seq = 0;
    mt_job_live = 0;
    mt_remaining = 0;
}

__attribute__((constructor)) static void mt_init(void)
{
    mt_init_go();
    pthread_atfork(mt_atfork_prepare, mt_atfork_parent, mt_atfork_child);
}

static void mt_run(mt_fn fn, void *ctx, int64_t width)
{
    if (width > MT_MAX_THREADS) width = MT_MAX_THREADS;
    if (width <= 1) {
        fn(ctx, 0, 1);
        return;
    }
    pthread_mutex_lock(&mt_dispatch);
    while (mt_spawned + 1 < width) {
        pthread_t th;
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        int rc = pthread_create(
            &th, &attr, mt_worker, (void *)(intptr_t)(mt_spawned + 1));
        pthread_attr_destroy(&attr);
        if (rc != 0) break;  /* the caller runs the missing slices */
        mt_spawned++;
    }
    int64_t live = mt_spawned + 1 < width ? mt_spawned + 1 : width;
    pthread_mutex_lock(&mt_lock);
    while (mt_ready < mt_spawned)  /* new workers must capture job_seq */
        pthread_cond_wait(&mt_done, &mt_lock);
    mt_job_fn = fn;
    mt_job_ctx = ctx;
    mt_job_width = width;
    mt_job_live = live;
    mt_remaining = live - 1;
    mt_job_seq++;
    for (int64_t t = 1; t < live; t++)
        pthread_cond_signal(&mt_go[t]);
    pthread_mutex_unlock(&mt_lock);
    fn(ctx, 0, width);
    for (int64_t t = live; t < width; t++)
        fn(ctx, t, width);
    pthread_mutex_lock(&mt_lock);
    while (mt_remaining > 0)
        pthread_cond_wait(&mt_done, &mt_lock);
    pthread_mutex_unlock(&mt_lock);
    pthread_mutex_unlock(&mt_dispatch);
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
/* CPA (float datapath): for each listed center, scan the clipped
 * (2*half+1)^2 window, keeping running minima in the image-sized
 * dist/labels buffers. `touched` is an h*w byte mask marking every pixel
 * scanned at least once (the deduplicated pixels_assigned telemetry
 * counter).
 *
 * The row-bounded helper restricts every window to [row0, row1): the
 * _mt entry gives each thread a row band, so each pixel is updated by
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
/* Float RGB -> Lab, one row band of n pixels at a time: the steps of
 * repro.color.rgb_to_lab's numpy chain that are IEEE basic arithmetic.
 * The band walk (repro.color.reference.band_walk) calls them around
 * the chain's two host-dependent numpy calls, which stay numpy:
 *
 *     gamma_gather_u8     uint8 codes -> linear RGB (256-entry table)
 *     numpy               linear @ SRGB_TO_XYZ.T, one BLAS call per row
 *     xyz_over_white_f64  XYZ / white, in place
 *     numpy               np.cbrt of the band
 *     lab_assemble_f64    f's linear branch, then Equation 3's Lab
 *
 * Each loop performs numpy's IEEE operations in numpy's order (a true
 * division, not a multiply by the reciprocal; no FMA under
 * -ffp-contract=off), so a band equals the numpy chain bit for bit on
 * any host. They are not _mt entries: the walk already runs one band
 * per thread, and mt_run's dispatch mutex would serialize those
 * concurrent callers. Arrays are C-contiguous, 3 values per pixel.    */
/* ------------------------------------------------------------------ */

void gamma_gather_u8(const uint8_t *rgb, int64_t n, const double *lut,
                     double *linear)
{
    for (int64_t i = 0; i < 3 * n; i++)
        linear[i] = lut[rgb[i]];
}

void xyz_over_white_f64(double *xyz, int64_t n, const double *white)
{
    for (int64_t i = 0; i < n; i++) {
        double *p = xyz + 3 * i;
        p[0] = p[0] / white[0];
        p[1] = p[1] / white[1];
        p[2] = p[2] / white[2];
    }
}

/* t = XYZ / white and f = cbrt(t); f's linear branch replaces f where
 * !(t > eps), as _f's mask does (NaN included).                      */
void lab_assemble_f64(const double *t, const double *f, int64_t n,
                      double eps, double kappa, double *lab)
{
    for (int64_t i = 0; i < n; i++) {
        double g[3];
        for (int k = 0; k < 3; k++) {
            double tk = t[3 * i + k];
            g[k] = tk > eps ? f[3 * i + k] : (kappa * tk + 16.0) / 116.0;
        }
        double *o = lab + 3 * i;
        o[0] = 116.0 * g[1] - 16.0;
        o[1] = 500.0 * (g[0] - g[1]);
        o[2] = 200.0 * (g[1] - g[2]);
    }
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
 * A pixel is unioned with the one above it only where the run pair
 * changes (x == 0, or the run or the run above starts at x): elsewhere
 * both runs continue from x - 1, so the pair was unioned already, and
 * union-by-minimum makes the roots a function of the pair set alone.
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

static int64_t uf_find(int64_t *parent, int64_t i)
{
    while (parent[i] != i) {        /* path halving */
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    return i;
}

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
        int unions = parent && y > union_y0;
        const int32_t *up = unions ? row - w : row;
        int32_t *crow = comps + y * w;
        for (int64_t x = 0; x < w; x++) {
            int new_run = x == 0 || row[x] != row[x - 1];
            if (new_run) {
                if (parent) parent[next] = next;
                next++;
            }
            crow[x] = (int32_t)(next - 1);
            if (unions && row[x] == up[x] && (new_run || up[x] != up[x - 1]))
                uf_union_min(parent, crow[x], crow[x - w]);
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

static int64_t ccl_i32_mt(
    const int32_t *labels, int64_t h, int64_t w,
    int32_t *comps, int64_t *parent, int64_t n_threads)
{
    int64_t width = n_threads < h ? n_threads : h;
    if (width > MT_MAX_THREADS) width = MT_MAX_THREADS;
    if (width < 2)
        return ccl_i32(labels, h, w, comps, parent);
    ccl_ctx ctx;
    ctx.labels = labels;
    ctx.h = h;
    ctx.w = w;
    ctx.comps = comps;
    ctx.parent = parent;
    ctx.done = 0;
    mt_run(ccl_band, &ctx, width);                /* count runs         */
    int64_t n_runs = 0;
    for (int64_t t = 0; t < width; t++) {
        ctx.offsets[t] = n_runs;
        n_runs += ctx.counts[t];
    }
    ctx.done = 1;
    mt_run(ccl_band, &ctx, width);                /* fill + band unions */
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

/* ------------------------------------------------------------------ */
/* The greedy small-component merge walk over the CSR adjacency graph.
 * Semantics and tie rule match merge_small_reference exactly: longest
 * shared border wins, ties to the lowest neighbor component id; chained
 * merges follow union-find roots. The choice for a component depends
 * only on the *set* of (neighbor, border length) pairs in its row, so
 * the order of entries inside a row is free.                           */
/* ------------------------------------------------------------------ */

static void merge_small(
    const int64_t *starts,     /* n_comps CSR row starts                */
    const int64_t *ends,       /* n_comps CSR row ends                  */
    const int32_t *dst,        /* edge target component ids             */
    const int64_t *border_len, /* edge shared-border weights            */
    int64_t min_size,
    const int64_t *order,      /* small components, increasing size     */
    int64_t n_order,
    int64_t *parent,           /* n_comps, pre-set to identity          */
    int64_t *merged_size)      /* n_comps, pre-set to sizes             */
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
}

/* ------------------------------------------------------------------ */
/* The fused connectivity entry: enforce_connectivity in one call.
 *
 *   1. ccl_i32_mt: dense first-appearance component ids in `comps`;
 *   2. one pass over the runs of every row: each component's size, its
 *      superpixel label (the label at its first pixel — components are
 *      label-pure), and the number of its adjacency entries;
 *   3. the border-weighted adjacency in CSR form: the counts are
 *      prefix-summed, a second pass over the runs fills the rows, and
 *      each row is deduplicated in place with a marker array that also
 *      adds up the shared-border lengths. An entry is one differing
 *      right neighbour pair (a run boundary) or one stretch of differing
 *      down neighbour pairs between the same two components, weighted
 *      by its length. Only the rows of small components (size <
 *      min_size) are filled: the walk reads no other row;
 *   4. a counting sort of the small components by size, stable by id —
 *      np.argsort(sizes, kind="stable") filtered to size < min_size;
 *   5. merge_small;
 *   6. lut[c] = label of root(c), then out[i] = lut[comps[i]], row-banded
 *      over the pool.
 *
 * Bit-identity with the numpy spec: the walk's choice depends only on
 * each row's set of (neighbor, border length) pairs, the processing
 * order is (size, id) ascending as in the spec, and the relabel reads
 * the same first-pixel label the spec gathers. With no small component
 * the output is the input (an identity merge relabels each component
 * with its own label), so that case copies `labels` and stops after 2.
 *
 * `comps` and `parent` are h*w scratch from the caller; the
 * per-component and per-edge arrays, whose sizes are known only after
 * the CCL and the count, are allocated here. Returns 0, or -1 when an
 * allocation fails (`out` is then unspecified).                        */
/* ------------------------------------------------------------------ */

/* The runs of one row of the component map: run r covers columns
 * [x0[r], x0[r + 1]) and belongs to component comp[r]. x0 has room for
 * w + 1 entries, the last being w. Returns the number of runs.        */
static int64_t conn_row_runs(const int32_t *row, int64_t w, int64_t *x0,
                             int32_t *comp)
{
    int64_t r = 0;
    for (int64_t x = 0; x < w;) {
        int32_t c = row[x];
        x0[r] = x;
        comp[r++] = c;
        while (++x < w && row[x] == c) {}
    }
    x0[r] = w;
    return r;
}

typedef struct {
    int64_t *size;             /* n: component sizes                    */
    int32_t *label_of;         /* n: label at each first pixel          */
    int64_t min_size;
    int64_t *slot;             /* count: entries per component; fill:
                                  each row's next free entry            */
    int32_t *dst;              /* entry neighbour ids; NULL: count pass */
    int64_t *border;           /* entry border lengths                  */
} conn_adj;

/* One adjacency entry between components c and d, of border length
 * len: counted at both ends in the count pass, written into the row of
 * each small end in the fill pass.                                     */
static void conn_entry(conn_adj *a, int32_t c, int32_t d, int64_t len)
{
    if (!a->dst) {
        a->slot[c]++;
        a->slot[d]++;
        return;
    }
    if (a->size[c] < a->min_size) {
        a->dst[a->slot[c]] = d;
        a->border[a->slot[c]++] = len;
    }
    if (a->size[d] < a->min_size) {
        a->dst[a->slot[d]] = c;
        a->border[a->slot[d]++] = len;
    }
}

/* One raster pass over the runs of the component map. Each run
 * boundary is a differing right neighbour pair, and each maximal
 * segment where the components of two consecutive rows differ is a
 * stretch of differing down neighbour pairs between the same two
 * components; both become one weighted entry. `runs` is scratch for
 * two rows of runs (3 * (w + 1) int64). The count pass also takes each
 * component's size and the label at its first pixel.                  */
static void conn_adjacency(
    const int32_t *comps, const int32_t *labels, int64_t h, int64_t w,
    int64_t *runs, conn_adj *a)
{
    int64_t *px = runs, *cx = runs + (w + 1);
    int32_t *pc = (int32_t *)(runs + 2 * (w + 1)), *cc = pc + (w + 1);
    for (int64_t y = 0; y < h; y++) {
        int64_t nc = conn_row_runs(comps + y * w, w, cx, cc);
        for (int64_t r = 0; r < nc; r++) {
            int32_t c = cc[r];
            if (!a->dst) {
                if (a->size[c] == 0) a->label_of[c] = labels[y * w + cx[r]];
                a->size[c] += cx[r + 1] - cx[r];
            }
            if (r > 0) conn_entry(a, cc[r - 1], c, 1);
        }
        if (y > 0) {              /* merge this row's runs with the above */
            int64_t i = 0, j = 0;
            for (int64_t x = 0; x < w;) {
                int64_t end = px[i + 1] < cx[j + 1] ? px[i + 1] : cx[j + 1];
                if (pc[i] != cc[j]) conn_entry(a, pc[i], cc[j], end - x);
                x = end;
                if (px[i + 1] == end) i++;
                if (cx[j + 1] == end) j++;
            }
        }
        int64_t *tx = px; px = cx; cx = tx;
        int32_t *tc = pc; pc = cc; cc = tc;
    }
}

typedef struct {
    const int32_t *comps;
    const int32_t *lut;
    int32_t *out;
    int64_t h, w;
} conn_relabel_ctx;

static void conn_relabel_band(void *vctx, int64_t tid, int64_t width)
{
    conn_relabel_ctx *c = (conn_relabel_ctx *)vctx;
    int64_t lo = mt_slice_lo(c->h, tid, width) * c->w;
    int64_t hi = mt_slice_hi(c->h, tid, width) * c->w;
    for (int64_t i = lo; i < hi; i++)
        c->out[i] = c->lut[c->comps[i]];
}

int64_t enforce_connectivity_i32_mt(
    const int32_t *labels,     /* h*w label map                         */
    int64_t h, int64_t w,
    int64_t min_size,          /* 2 <= min_size <= h*w + 1              */
    int32_t *out,              /* h*w output label map                  */
    int32_t *comps,            /* h*w scratch: component ids            */
    int64_t *parent,           /* h*w scratch: CCL runs, then the walk  */
    int64_t n_threads)
{
    int64_t n_pix = h * w;
    int64_t n = ccl_i32_mt(labels, h, w, comps, parent, n_threads);
    int64_t status = -1;
    int64_t *size = 0, *runs = 0, *border = 0, *bucket = 0;
    int32_t *lut = 0, *dst = 0;

    /* Per-component arrays: size, starts (n + 1), ends, marker, order;
     * label and lut (int32). Two rows of runs: 3 * (w + 1) int64.     */
    size = malloc((size_t)(5 * n + 1) * sizeof(int64_t));
    lut = malloc((size_t)(2 * n) * sizeof(int32_t));
    runs = malloc((size_t)(3 * (w + 1)) * sizeof(int64_t));
    if (!size || !lut || !runs) goto done;
    int64_t *starts = size + n, *ends = starts + n + 1, *mark = ends + n;
    int64_t *order = mark + n;
    int32_t *label_of = lut + n;

    /* 2 and the count half of 3: sizes, first-pixel labels, and each
     * component's entry count in starts[c + 1].                        */
    for (int64_t c = 0; c < n; c++) size[c] = 0;
    for (int64_t c = 0; c <= n; c++) starts[c] = 0;
    conn_adj adj = {size, label_of, min_size, starts + 1, 0, 0};
    conn_adjacency(comps, labels, h, w, runs, &adj);
    int64_t n_small = 0, top = 0;
    for (int64_t c = 0; c < n; c++) {
        if (size[c] < min_size) {
            n_small++;
            if (size[c] > top) top = size[c];
        }
    }
    if (n_small == 0 || n == 1) {
        for (int64_t i = 0; i < n_pix; i++) out[i] = labels[i];
        status = 0;
        goto done;
    }

    /* 3. Prefix-sum the counts into row offsets, fill the rows of the
     * small components only (the walk reads no other row), then dedupe
     * each row in place: mark[d] is d's slot in the row being compacted,
     * or an index below the row start when d is new to it. The border
     * lengths of repeated entries add up.                              */
    for (int64_t c = 0; c < n; c++) starts[c + 1] += starts[c];
    int64_t n_edges = starts[n] ? starts[n] : 1;
    dst = malloc((size_t)n_edges * sizeof(int32_t));
    border = malloc((size_t)n_edges * sizeof(int64_t));
    if (!dst || !border) goto done;
    for (int64_t c = 0; c < n; c++) ends[c] = starts[c];
    adj.slot = ends;
    adj.dst = dst;
    adj.border = border;
    conn_adjacency(comps, labels, h, w, runs, &adj);
    for (int64_t c = 0; c < n; c++) mark[c] = -1;
    for (int64_t c = 0; c < n; c++) {
        int64_t lo = starts[c], k = lo;
        for (int64_t e = lo; e < ends[c]; e++) {
            int32_t d = dst[e];
            if (mark[d] >= lo) {
                border[mark[d]] += border[e];
            } else {
                mark[d] = k;
                dst[k] = d;
                border[k++] = border[e];
            }
        }
        ends[c] = k;
    }

    /* 4. Counting sort of the small components by size, stable by id. */
    bucket = malloc((size_t)(top + 1) * sizeof(int64_t));
    if (!bucket) goto done;
    for (int64_t s = 0; s <= top; s++) bucket[s] = 0;
    for (int64_t c = 0; c < n; c++)
        if (size[c] < min_size) bucket[size[c]]++;
    for (int64_t s = 0, pos = 0; s <= top; s++) {
        int64_t cnt = bucket[s];
        bucket[s] = pos;
        pos += cnt;
    }
    for (int64_t c = 0; c < n; c++)
        if (size[c] < min_size) order[bucket[size[c]]++] = c;

    /* 5. The walk, on the CCL's parent scratch (n <= h*w) and on the
     * sizes, which it updates as merged sizes.                         */
    for (int64_t c = 0; c < n; c++) parent[c] = c;
    merge_small(starts, ends, dst, border, min_size, order, n_small,
                parent, size);

    /* 6. Relabel through the per-component label table. */
    for (int64_t c = 0; c < n; c++)
        lut[c] = label_of[uf_find(parent, c)];
    conn_relabel_ctx ctx = {comps, lut, out, h, w};
    mt_run(conn_relabel_band, &ctx, n_threads < h ? n_threads : h);
    status = 0;
done:
    free(size);
    free(lut);
    free(runs);
    free(dst);
    free(border);
    free(bucket);
    return status;
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
 * nothing. sigma_acc_f64_mt partitions by *cluster ownership*, not entry
 * ranges: thread t owns clusters [mt_slice_lo(K, t, width),
 * mt_slice_hi(K, t, width)), scans every entry, and accumulates only
 * labels it owns. Each accumulator is written by exactly one thread in
 * the full serial entry order, so float64 summation order is preserved
 * and results are bit-identical at any thread count. (A per-thread
 * entry-range fold would reorder float additions and is NOT exact for
 * float weights.) Labels outside [k_lo, k_hi) are skipped, so
 * a label outside [0, K) would be silently dropped: the Python entry
 * points reject such labels, and out-of-range indices, before calling. */
/* ------------------------------------------------------------------ */

/* One sigma-register update: entry at flat pixel i joins cluster k.  */
static inline void sigma_add_f64(
    const double *lab_flat, int64_t i, int64_t k, int64_t w,
    double *sums, int64_t *counts)
{
    const double *px = lab_flat + 3 * i;
    double *s = sums + 5 * k;
    s[0] += px[0];
    s[1] += px[1];
    s[2] += px[2];
    s[3] += (double)(i % w);
    s[4] += (double)(i / w);
    counts[k]++;
}

/* The fixed-point PPA pass's update decodes inline — the same float64
 * cast and divide / subtract-divide expressions as LabEncoding.decode,
 * so the accumulated values match the reference's decoded rows.        */
static inline void sigma_add_codes(
    const int64_t *codes_flat, int64_t i, int64_t k, int64_t w,
    double l_scale, double ab_scale, double ab_offset,
    double *sums, int64_t *counts)
{
    const int64_t *px = codes_flat + 3 * i;
    double *s = sums + 5 * k;
    s[0] += (double)px[0] / l_scale;
    s[1] += ((double)px[1] - ab_offset) / ab_scale;
    s[2] += ((double)px[2] - ab_offset) / ab_scale;
    s[3] += (double)(i % w);
    s[4] += (double)(i / w);
    counts[k]++;
}

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
        sigma_add_f64(lab_flat, idx ? idx[j] : j, k, w, sums, counts);
    }
}

typedef struct {
    const double *lab_flat;
    const int64_t *idx;
    const int32_t *labels;
    int64_t m, n_clusters, w;
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

void sigma_acc_f64_mt(
    const double *lab_flat, const int64_t *idx, const int32_t *labels,
    int64_t m, int64_t w, int64_t n_clusters, double *sums,
    int64_t *counts, int64_t n_threads)
{
    sigma_ctx ctx = {lab_flat, idx, labels, m, n_clusters, w, sums, counts};
    mt_run(sigma_f64_chunk, &ctx,
           n_threads < n_clusters ? n_threads : n_clusters);
}

/* ------------------------------------------------------------------ */
/* PPA: one fused pass per subiteration — the Cluster Update Unit's
 * distance -> 9:1 minimum -> sigma accumulate (Section 4.3), each entry
 * read once.
 *
 * The subset is split into contiguous [j0, j1) ranges, one per
 * participant. Each entry evaluates its tile's 9 candidates with one
 * running minimum (ties go to the lowest slot via the strict <, like
 * the hardware 9:1 tree), writes chosen[j] and, when a label map is
 * given, labels[subset[j]], and adds the pixel to the chosen cluster's
 * sigma registers. x/y come from the flat index (x = i % w, y = i / w)
 * and the tile from the frame's int32 tile map, so no per-pixel
 * coordinate array crosses the ctypes boundary. A duplicated subset
 * index is written by both of its entries with the same value. Each
 * range runs the scalar loops below or, on CPUs with AVX-512, the lane
 * bodies, which evaluate up to 8 same-tile entries at once with the
 * same per-entry results and add them to the sigma registers in the
 * same order (see ppa_pick).
 *
 * Bit-identity of the partials: every register must receive its
 * contributions in ascending entry order, starting from zero — the
 * order of the reference's bincount folds. At width 1 the single loop
 * does exactly that. At width >= 2 each participant adds into private
 * registers. A cluster's head — the first participant that saw it —
 * holds the exact serial fold of the cluster's entries up to the end of
 * its range, because ranges are ordered and its registers started from
 * zero; those registers are copied out. One serial scan of the later
 * ranges, in entry order, then continues every cluster over its entries
 * past its head's range. The private counts say how many entries of
 * each range belong to such straddling clusters, so each range's scan
 * stops at its last one; a range that holds none is not scanned.
 * Nothing here depends on subset order or on the candidate map (dynamic
 * neighbors included); an ascending subset only makes the clusters that
 * straddle a range boundary few. The private registers take 48 bytes
 * per cluster and participant; the width is capped to keep them under
 * PPA_SCRATCH_MAX, and width 1 (or a failed allocation) runs the single
 * loop.                                                                */
/* ------------------------------------------------------------------ */

#define PPA_SCRATCH_MAX ((int64_t)64 << 20)

static void ppa_f64_range(
    const double *lab_flat,   /* n*3 flat Lab                           */
    const int32_t *tiles,     /* n tile index per pixel                 */
    const int64_t *subset,    /* m flat indices to assign               */
    int64_t j0, int64_t j1,
    int64_t w,
    const int32_t *cands,     /* t*9 candidate clusters per tile        */
    const double *centers,    /* k*5                                    */
    double weight,
    int32_t *chosen,          /* m chosen clusters                      */
    int32_t *labels,          /* n frame label map, or NULL             */
    double *sums,             /* k*5 sigma registers (zeroed)           */
    int64_t *counts)          /* k member counts (zeroed)               */
{
    for (int64_t j = j0; j < j1; j++) {
        int64_t i = subset[j];
        const int32_t *cnd = cands + 9 * (int64_t)tiles[i];
        const double *px = lab_flat + 3 * i;
        double x = (double)(i % w);
        double y = (double)(i / w);
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
        chosen[j] = bk;
        if (labels) labels[i] = bk;
        sigma_add_f64(lab_flat, i, bk, w, sums, counts);
    }
}

static void ppa_fixed_range(
    const int64_t *codes_flat, /* n*3 flat channel codes                */
    const int32_t *tiles,
    const int64_t *subset,
    int64_t j0, int64_t j1,
    int64_t w,
    const int32_t *cands,
    const int64_t *c_codes,    /* k*5 encoded centers                   */
    int64_t weight_raw,
    int64_t wfrac,
    int64_t sf,
    int64_t quantize,
    int64_t dshift,
    int64_t dmax,
    double l_scale, double ab_scale, double ab_offset,
    int32_t *chosen,
    int32_t *labels,
    double *sums,
    int64_t *counts)
{
    for (int64_t j = j0; j < j1; j++) {
        int64_t i = subset[j];
        const int32_t *cnd = cands + 9 * (int64_t)tiles[i];
        const int64_t *px = codes_flat + 3 * i;
        int64_t xr = (i % w) << sf;
        int64_t yr = (i / w) << sf;
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
        chosen[j] = bk;
        if (labels) labels[i] = bk;
        sigma_add_codes(codes_flat, i, bk, w, l_scale, ab_scale, ab_offset,
                        sums, counts);
    }
}

typedef struct {
    const double *lab_flat;    /* float path, or NULL                   */
    const int64_t *codes_flat; /* fixed path, or NULL                   */
    const int32_t *tiles;
    const int64_t *subset;
    int64_t m, w, k;
    const int32_t *cands;
    const double *centers;
    double weight;
    const int64_t *c_codes;
    int64_t weight_raw, wfrac, sf, quantize, dshift, dmax;
    double l_scale, ab_scale, ab_offset;
    int32_t *chosen;
    int32_t *labels;
    /* Private registers, k per participant (width >= 2).              */
    double *psums;
    int64_t *pcounts;
} ppa_ctx;

static void ppa_scalar(const ppa_ctx *c, int64_t j0, int64_t j1,
                       double *sums, int64_t *counts)
{
    if (c->lab_flat)
        ppa_f64_range(c->lab_flat, c->tiles, c->subset, j0, j1, c->w,
                      c->cands, c->centers, c->weight, c->chosen,
                      c->labels, sums, counts);
    else
        ppa_fixed_range(c->codes_flat, c->tiles, c->subset, j0, j1, c->w,
                        c->cands, c->c_codes, c->weight_raw, c->wfrac,
                        c->sf, c->quantize, c->dshift, c->dmax, c->l_scale,
                        c->ab_scale, c->ab_offset, c->chosen, c->labels,
                        sums, counts);
}

/* Set once, at library load: nonzero when the CPU runs the lane bodies. */
static int ppa_use_lanes = 0;

/* The body ppa_range runs: 8 (the lane bodies) or 1 (the scalar loops). */
int64_t ppa_lanes(void)
{
    return ppa_use_lanes ? 8 : 1;
}

#ifdef PPA_LANES
/* The lane bodies (ppa_f64_lanes, ppa_fixed_lanes) evaluate runs of up
 * to 8 consecutive entries whose pixels share a tile at once, one entry
 * per 64-bit lane, against the tile's 9 broadcast candidates. Each lane
 * performs the scalar loop's operations in the scalar order, as
 * separately rounded vector operations, and keeps the first strict
 * minimum by a masked blend — ties stay with the lower slot, a NaN never
 * wins — so every lane's choice equals the scalar loop's.
 *
 * A group's lanes are built in registers: one masked load of its subset
 * indices, x and y derived from them in lanes (ppa_xy), and each channel
 * from eight scalar loads inserted into a register (ppa_channel_*). There
 * are no gathers: they are microcoded and slow under the Downfall (GDS)
 * mitigation on Skylake-SP through Ice Lake, CPUs that also run these
 * bodies, and register inserts timed level with them where gathers are
 * fast. ppa_group_out then writes the group: chosen with one masked
 * store, the label map with scalar stores, and the sigma registers once
 * per stretch of entries that chose the same cluster.
 *
 * ppa_pick chooses the lane bodies over the scalar loops once, at
 * library load, when the CPU has AVX-512 F/BW/CD/DQ/VL (the runtime's
 * check includes OS support for the AVX-512 register state).          */
__attribute__((constructor)) static void ppa_pick(void)
{
    __builtin_cpu_init();
    ppa_use_lanes = __builtin_cpu_supports("avx512f")
                    && __builtin_cpu_supports("avx512bw")
                    && __builtin_cpu_supports("avx512cd")
                    && __builtin_cpu_supports("avx512dq")
                    && __builtin_cpu_supports("avx512vl");
}

/* Length of the run of entries from j on (at most 8, within j1) whose
 * pixels share the tile of entry j.                                    */
static inline int64_t ppa_run_len(const ppa_ctx *c, int64_t j, int64_t j1)
{
    int32_t t = c->tiles[c->subset[j]];
    int64_t n = 1;
    while (n < 8 && j + n < j1 && c->tiles[c->subset[j + n]] == t) n++;
    return n;
}

/* Runs of one take the scalar loop: the stretch of them from j on runs
 * in one call, with the vector registers' upper halves cleared first —
 * the scalar loop is baseline SSE code, which stalls on dirty AVX-512
 * state. Returns the stretch length.                                   */
PPA_LANES_TARGET static int64_t ppa_scalar_stretch(
    const ppa_ctx *c, int64_t j, int64_t j1, double *sums, int64_t *counts)
{
    int64_t e = j + 1;
    while (e < j1 && ppa_run_len(c, e, j1) == 1) e++;
    _mm256_zeroupper();
    ppa_scalar(c, j, e, sums, counts);
    return e - j;
}

/* The subset indices of entries j .. j + n - 1 in lanes 0 .. n - 1, and
 * in ix; the lanes past the run hold pixel 0, are computed on like the
 * others and are never written back.                                   */
PPA_LANES_TARGET static inline __m512i ppa_indices(
    const ppa_ctx *c, int64_t j, int64_t n, int64_t *ix)
{
    __m512i vi = _mm512_maskz_loadu_epi64((__mmask8)((1u << n) - 1),
                                          c->subset + j);
    _mm512_storeu_si512(ix, vi);
    return vi;
}

/* x = i % w and y = i / w for the lanes' indices i, as doubles, with no
 * integer division: y truncates the correctly rounded quotient
 * (double)i / (double)w, which is floor(i / w) whenever i + w < 2^53 (so
 * for every frame that fits in memory), and x = i - y * w, whose product
 * and difference are exact integers.                                   */
PPA_LANES_TARGET static inline void ppa_xy(__m512i vi, __m512d w,
                                           __m512d *x, __m512d *y)
{
    __m512d i = _mm512_cvtepi64_pd(vi);
    *y = _mm512_roundscale_pd(_mm512_div_pd(i, w),
                              _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    *x = _mm512_sub_pd(i, _mm512_mul_pd(*y, w));
}

/* Channel ch of the pixels ix[0..8) of a 3-channel plane, lane l from
 * pixel ix[l], by scalar loads inserted into a register.               */
PPA_LANES_TARGET static inline __m512d ppa_channel_pd(
    const double *p, const int64_t *ix, int ch)
{
    return _mm512_set_pd(p[3 * ix[7] + ch], p[3 * ix[6] + ch],
                         p[3 * ix[5] + ch], p[3 * ix[4] + ch],
                         p[3 * ix[3] + ch], p[3 * ix[2] + ch],
                         p[3 * ix[1] + ch], p[3 * ix[0] + ch]);
}

PPA_LANES_TARGET static inline __m512i ppa_channel_epi64(
    const int64_t *p, const int64_t *ix, int ch)
{
    return _mm512_set_epi64(p[3 * ix[7] + ch], p[3 * ix[6] + ch],
                            p[3 * ix[5] + ch], p[3 * ix[4] + ch],
                            p[3 * ix[3] + ch], p[3 * ix[2] + ch],
                            p[3 * ix[1] + ch], p[3 * ix[0] + ch]);
}

/* Write the group of entries j .. j + n - 1 (subset indices ix, chosen
 * clusters bk): chosen, the label map, and the sigma registers from the
 * lanes' [L, a, b, x, y] values. Each stretch of consecutive entries that
 * chose the same cluster adds its values into that cluster's five
 * registers held in variables, in entry order, and stores them once:
 * the same IEEE additions in the same order as one sigma_add_* call per
 * entry. The labels are stored in that loop, one entry at a time: its
 * data-dependent exit keeps gcc from turning the stores into a scatter. */
PPA_LANES_TARGET static inline void ppa_group_out(
    const ppa_ctx *c, int64_t j, int64_t n, const int64_t *ix, __m256i bk,
    __m512d vl, __m512d va, __m512d vb, __m512d vx, __m512d vy,
    double *sums, int64_t *counts)
{
    int32_t k[8];
    double v[5][8];
    _mm256_storeu_si256((__m256i *)k, bk);
    _mm256_mask_storeu_epi32(c->chosen + j, (__mmask8)((1u << n) - 1), bk);
    _mm512_storeu_pd(v[0], vl);
    _mm512_storeu_pd(v[1], va);
    _mm512_storeu_pd(v[2], vb);
    _mm512_storeu_pd(v[3], vx);
    _mm512_storeu_pd(v[4], vy);
    for (int64_t l = 0, e; l < n; l = e) {
        int64_t q = k[l];
        double *s = sums + 5 * q;
        double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3], s4 = s[4];
        for (e = l; e < n && k[e] == q; e++) {
            if (c->labels) c->labels[ix[e]] = k[e];
            s0 += v[0][e];
            s1 += v[1][e];
            s2 += v[2][e];
            s3 += v[3][e];
            s4 += v[4][e];
        }
        s[0] = s0;
        s[1] = s1;
        s[2] = s2;
        s[3] = s3;
        s[4] = s4;
        counts[q] += e - l;
    }
}

PPA_LANES_TARGET static void ppa_f64_lanes(
    const ppa_ctx *c, int64_t j0, int64_t j1, double *sums, int64_t *counts)
{
    const double *lab_flat = c->lab_flat;
    const __m512d w = _mm512_set1_pd((double)c->w);
    const __m512d weight = _mm512_set1_pd(c->weight);
    int64_t n;
    for (int64_t j = j0; j < j1; j += n) {
        n = ppa_run_len(c, j, j1);
        if (n == 1) {
            n = ppa_scalar_stretch(c, j, j1, sums, counts);
            continue;
        }
        int64_t ix[8];
        __m512i vi = ppa_indices(c, j, n, ix);
        __m512d vl = ppa_channel_pd(lab_flat, ix, 0);
        __m512d va = ppa_channel_pd(lab_flat, ix, 1);
        __m512d vb = ppa_channel_pd(lab_flat, ix, 2);
        __m512d vx, vy;
        ppa_xy(vi, w, &vx, &vy);
        const int32_t *cnd = c->cands + 9 * (int64_t)c->tiles[ix[0]];
        __m512d best = _mm512_set1_pd(INFINITY);
        __m256i bk = _mm256_set1_epi32(cnd[0]);
        for (int s = 0; s < 9; s++) {
            const double *cc = c->centers + 5 * cnd[s];
            __m512d dl = _mm512_sub_pd(vl, _mm512_set1_pd(cc[0]));
            __m512d da = _mm512_sub_pd(va, _mm512_set1_pd(cc[1]));
            __m512d db = _mm512_sub_pd(vb, _mm512_set1_pd(cc[2]));
            __m512d dc2 = _mm512_add_pd(
                _mm512_add_pd(_mm512_mul_pd(dl, dl), _mm512_mul_pd(da, da)),
                _mm512_mul_pd(db, db));
            __m512d dx = _mm512_sub_pd(vx, _mm512_set1_pd(cc[3]));
            __m512d dy = _mm512_sub_pd(vy, _mm512_set1_pd(cc[4]));
            __m512d d2 = _mm512_add_pd(
                dc2, _mm512_mul_pd(weight, _mm512_add_pd(
                         _mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy))));
            __mmask8 lt = _mm512_cmp_pd_mask(d2, best, _CMP_LT_OQ);
            best = _mm512_mask_mov_pd(best, lt, d2);
            bk = _mm256_mask_mov_epi32(bk, lt, _mm256_set1_epi32(cnd[s]));
        }
        ppa_group_out(c, j, n, ix, bk, vl, va, vb, vx, vy, sums, counts);
    }
}

PPA_LANES_TARGET static void ppa_fixed_lanes(
    const ppa_ctx *c, int64_t j0, int64_t j1, double *sums, int64_t *counts)
{
    const int64_t *codes_flat = c->codes_flat;
    const __m512d w = _mm512_set1_pd((double)c->w);
    const __m128i sh_f = _mm_cvtsi64_si128(c->sf);
    const __m128i sh_s = _mm_cvtsi64_si128(2 * c->sf);
    const __m128i sh_w = _mm_cvtsi64_si128(c->wfrac);
    const __m128i sh_d = _mm_cvtsi64_si128(c->dshift);
    const __m512i weight_raw = _mm512_set1_epi64(c->weight_raw);
    const __m512i dmax = _mm512_set1_epi64(c->dmax);
    const __m512d l_scale = _mm512_set1_pd(c->l_scale);
    const __m512d ab_scale = _mm512_set1_pd(c->ab_scale);
    const __m512d ab_offset = _mm512_set1_pd(c->ab_offset);
    int64_t quantize = c->quantize;
    int64_t n;
    for (int64_t j = j0; j < j1; j += n) {
        n = ppa_run_len(c, j, j1);
        if (n == 1) {
            n = ppa_scalar_stretch(c, j, j1, sums, counts);
            continue;
        }
        int64_t ix[8];
        __m512i vi = ppa_indices(c, j, n, ix);
        __m512i vl = ppa_channel_epi64(codes_flat, ix, 0);
        __m512i va = ppa_channel_epi64(codes_flat, ix, 1);
        __m512i vb = ppa_channel_epi64(codes_flat, ix, 2);
        __m512d x, y;
        ppa_xy(vi, w, &x, &y);
        __m512i vx = _mm512_sll_epi64(_mm512_cvttpd_epi64(x), sh_f);
        __m512i vy = _mm512_sll_epi64(_mm512_cvttpd_epi64(y), sh_f);
        const int32_t *cnd = c->cands + 9 * (int64_t)c->tiles[ix[0]];
        __m512i best = _mm512_set1_epi64(INT64_MAX);
        __m256i bk = _mm256_set1_epi32(cnd[0]);
        for (int s = 0; s < 9; s++) {
            const int64_t *cc = c->c_codes + 5 * cnd[s];
            __m512i dl = _mm512_sub_epi64(vl, _mm512_set1_epi64(cc[0]));
            __m512i da = _mm512_sub_epi64(va, _mm512_set1_epi64(cc[1]));
            __m512i db = _mm512_sub_epi64(vb, _mm512_set1_epi64(cc[2]));
            __m512i dc2 = _mm512_add_epi64(
                _mm512_add_epi64(_mm512_mullo_epi64(dl, dl),
                                 _mm512_mullo_epi64(da, da)),
                _mm512_mullo_epi64(db, db));
            __m512i dx = _mm512_sub_epi64(vx, _mm512_set1_epi64(cc[3]));
            __m512i dy = _mm512_sub_epi64(vy, _mm512_set1_epi64(cc[4]));
            __m512i ds2 = _mm512_sra_epi64(
                _mm512_add_epi64(_mm512_mullo_epi64(dx, dx),
                                 _mm512_mullo_epi64(dy, dy)), sh_s);
            __m512i d2 = _mm512_add_epi64(
                dc2, _mm512_sra_epi64(_mm512_mullo_epi64(weight_raw, ds2),
                                      sh_w));
            if (quantize)
                d2 = _mm512_min_epi64(_mm512_sra_epi64(d2, sh_d), dmax);
            __mmask8 lt = _mm512_cmplt_epi64_mask(d2, best);
            best = _mm512_mask_mov_epi64(best, lt, d2);
            bk = _mm256_mask_mov_epi32(bk, lt, _mm256_set1_epi32(cnd[s]));
        }
        /* The codes decoded in lanes by LabEncoding.decode's cast,
         * subtract and divide, as in sigma_add_codes.                   */
        ppa_group_out(
            c, j, n, ix, bk,
            _mm512_div_pd(_mm512_cvtepi64_pd(vl), l_scale),
            _mm512_div_pd(_mm512_sub_pd(_mm512_cvtepi64_pd(va), ab_offset),
                          ab_scale),
            _mm512_div_pd(_mm512_sub_pd(_mm512_cvtepi64_pd(vb), ab_offset),
                          ab_scale),
            x, y, sums, counts);
    }
}
#endif

/* The pass over entries [j0, j1) into the given registers, by the body
 * picked at load.                                                      */
static void ppa_range(const ppa_ctx *c, int64_t j0, int64_t j1,
                      double *sums, int64_t *counts)
{
#ifdef PPA_LANES
    if (ppa_use_lanes) {
        if (c->lab_flat)
            ppa_f64_lanes(c, j0, j1, sums, counts);
        else
            ppa_fixed_lanes(c, j0, j1, sums, counts);
        return;
    }
#endif
    ppa_scalar(c, j0, j1, sums, counts);
}

static void ppa_chunk(void *vctx, int64_t tid, int64_t width)
{
    ppa_ctx *c = (ppa_ctx *)vctx;
    int64_t off = tid * c->k;
    ppa_range(c, mt_slice_lo(c->m, tid, width),
              mt_slice_hi(c->m, tid, width), c->psums + 5 * off,
              c->pcounts + off);
}

/* Run the pass into the zeroed sums / counts: the single loop at width
 * 1, else the private-register ranges, the copy-out of each cluster's
 * head registers, and the serial continuation past the head's range,
 * which ends each range's scan at its last straddling entry.          */
static void ppa_run(ppa_ctx *c, double *sums, int64_t *counts,
                    int64_t n_threads)
{
    int64_t k = c->k;
    int64_t width = n_threads < c->m ? n_threads : c->m;
    if (width > MT_MAX_THREADS) width = MT_MAX_THREADS;
    if (k > 0 && width > PPA_SCRATCH_MAX / (48 * k))
        width = PPA_SCRATCH_MAX / (48 * k);
    /* Per participant and cluster: 5 sums and a count (48 B); per
     * cluster: its head participant.                                   */
    char *block = width > 1 ? calloc(1, (size_t)((48 * width + 8) * k))
                            : 0;
    if (!block) {
        ppa_range(c, 0, c->m, sums, counts);
        return;
    }
    c->psums = (double *)block;
    c->pcounts = (int64_t *)(block + 40 * width * k);
    int64_t *head = c->pcounts + width * k;
    mt_run(ppa_chunk, c, width);
    /* straddle[t]: how many of range t's entries chose a cluster headed
     * by an earlier range — the entries the continuation folds there.  */
    int64_t straddle[MT_MAX_THREADS] = {0};
    for (int64_t q = 0; q < k; q++) {
        int64_t t = 0;
        while (t < width && c->pcounts[t * k + q] == 0) t++;
        head[q] = t;
        if (t == width) continue;
        for (int f = 0; f < 5; f++)
            sums[5 * q + f] = c->psums[5 * (t * k + q) + f];
        counts[q] = c->pcounts[t * k + q];
        for (int64_t u = t + 1; u < width; u++)
            straddle[u] += c->pcounts[u * k + q];
    }
    /* Each range's scan stops at its last straddling entry. The range
     * end bounds it too, so counts that disagree with chosen (a defect
     * in a body) cannot send it past the range.                        */
    for (int64_t t = 1; t < width; t++) {
        int64_t left = straddle[t], hi = mt_slice_hi(c->m, t, width);
        for (int64_t j = mt_slice_lo(c->m, t, width); left > 0 && j < hi;
             j++) {
            int64_t q = c->chosen[j];
            if (head[q] >= t) continue;
            left--;
            if (c->lab_flat)
                sigma_add_f64(c->lab_flat, c->subset[j], q, c->w, sums,
                              counts);
            else
                sigma_add_codes(c->codes_flat, c->subset[j], q, c->w,
                                c->l_scale, c->ab_scale, c->ab_offset,
                                sums, counts);
        }
    }
    free(block);
}

void ppa_assign_f64_mt(
    const double *lab_flat, const int32_t *tiles, const int64_t *subset,
    int64_t m, int64_t w, const int32_t *cands, const double *centers,
    double weight, int64_t n_clusters, int32_t *chosen, int32_t *labels,
    double *sums, int64_t *counts, int64_t n_threads)
{
    ppa_ctx ctx = {lab_flat, 0, tiles, subset, m, w, n_clusters, cands,
                   centers, weight, 0, 0, 0, 0, 0, 0, 0, 0.0, 1.0, 0.0,
                   chosen, labels, 0, 0};
    ppa_run(&ctx, sums, counts, n_threads);
}

void ppa_assign_fixed_mt(
    const int64_t *codes_flat, const int32_t *tiles, const int64_t *subset,
    int64_t m, int64_t w, const int32_t *cands, const int64_t *c_codes,
    int64_t weight_raw, int64_t wfrac, int64_t sf, int64_t quantize,
    int64_t dshift, int64_t dmax, double l_scale, double ab_scale,
    double ab_offset, int64_t n_clusters, int32_t *chosen, int32_t *labels,
    double *sums, int64_t *counts, int64_t n_threads)
{
    ppa_ctx ctx = {0, codes_flat, tiles, subset, m, w, n_clusters, cands,
                   0, 0.0, c_codes, weight_raw, wfrac, sf, quantize, dshift,
                   dmax, l_scale, ab_scale, ab_offset, chosen, labels,
                   0, 0};
    ppa_run(&ctx, sums, counts, n_threads);
}
