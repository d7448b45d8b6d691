/*
 * EON's C kernels: integer-only C for the plan's int8 convolution,
 * depthwise, dense and global average pool steps, and the float32
 * depthwise step (docs/plan.md, "Native kernels").
 *
 * Every int8 kernel computes the bytes of its spec kernel in
 * repro/runtime/kernels.py (conv2d_i8, dwconv2d_i8, gap2d_i8; all see a
 * 1-D op or a dense layer through the same NHWC mapping as these
 * kernels), which plans bind instead where a layer fails the proof below:
 *
 *   - The input zero point is folded into the int32 bias at bind time, and
 *     padding is filled with that zero point, so a window contracts the
 *     padded int8 tensor directly.
 *   - The GEMM kernel reads each window byte x as the unsigned x ^ 0x80 =
 *     x + 128, in [0, 255], and the binder folds -128 * sum_k w[k][o] into
 *     the bias, so sum_k (x + 128) w + bias'' = sum_k x w + bias'.  That is
 *     the operand pair of the CPU's unsigned-by-signed byte dot product.
 *   - Accumulation is 32-bit and wraps.  The binder calls a kernel only
 *     after proving K*128*128 + max|bias'| < 2**31 for the layer, so the
 *     true total bias' + sum_k x w lies in int32 (and so does bias''), and
 *     a total computed modulo 2**32 is exact, whatever the order of the
 *     products and whatever a partial sum does on the way.  The VNNI
 *     instruction wraps by definition; the portable loop adds uint32 lanes
 *     (signed overflow is undefined in C).
 *   - A fused max pool takes the maximum of the biased accumulators, then
 *     requantizes once: bias and requantization are monotone and
 *     per-channel, so this equals pooling the requantized outputs.  A fused
 *     average pool and a global average pool sum int8 values, offset the
 *     sum by count/2 away from zero and floor-divide (round_div_i8), as
 *     _round_div_i8 does: halves round away from zero, other negative means
 *     round down.
 *   - Requantization is (p + h + (p >> 63)) >> s with p = acc * mantissa,
 *     h = 2**(s-1) and the total shift s = 31 - out_shift capped at 63;
 *     mantissas are in [0, 2**31), so |p| < 2**62 and p + h cannot
 *     overflow.  Right shifts of negative values are arithmetic and
 *     narrowing to int8 keeps the low byte, as GCC and Clang define them.
 *
 * The float32 depthwise kernel has no exactness proof to lean on, so it
 * follows its numpy twin (dwconv2d_f32) operation for operation: per
 * output element the accumulator starts at +0.0f, each tap (i, j) is added
 * in row-major tap order as acc = acc + x*t, then the bias, then the clamp
 * v < lo ? lo : v, v > hi ? hi : v (np.clip: -0.0 and NaN pass through).
 * The product and the sum are rounded separately: the library is built
 * with -ffp-contract=off, or a compiler may fuse them into one FMA.
 *
 * Shapes are NHWC.  A 1-D convolution is a 2-D one of height 1, and a dense
 * layer a 1x1 convolution over a 1x1 image.  The layer constants arrive in
 * one int64 array indexed by EON_P_*; ``rows`` is the batch size.  GEMM
 * weights are int8 quads, (coutp / EON_CO, kh, kq, EON_CO, 4) with kq =
 * ceil(kw * c / 4): byte j of quad q of channel o is tap 4q + j of a
 * window row, zero-filled past kw * c and past cout up to coutp, with bias
 * and requantization constants filled alike.  Where -march=native defines
 * __AVX512VNNI__, one vpdpbusd adds four taps of 16 channels per pixel;
 * elsewhere a GCC/Clang vector loop over the same quads runs (the MCU
 * reference).  Depthwise taps are (kh, kw, c), widened to int32, or
 * float32.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX512VNNI__)
#include <immintrin.h>
#endif

enum {
    EON_P_H, EON_P_W, EON_P_C,              /* unpadded input */
    EON_P_PT, EON_P_PB, EON_P_PL, EON_P_PR, /* padding, filled with in_zp */
    EON_P_KH, EON_P_KW, EON_P_STRIDE,
    EON_P_OH, EON_P_OW, EON_P_COUT,         /* convolution output, unpooled */
    EON_P_POOL_H, EON_P_POOL_W, EON_P_POOL_AVG,
    EON_P_IN_ZP, EON_P_OUT_ZP, EON_P_CLAMP_MIN, EON_P_CLAMP_MAX,
    EON_P_COUNT
};

/* Register tile of the GEMM kernel: EON_CO output channels of EON_PX
 * output pixels are accumulated together in vector registers.  Unpooled
 * layers are accumulated EON_CHUNK pixels at a time. */
#define EON_CO 16
#define EON_PX 8
#define EON_CHUNK 64

/* Channels the float32 depthwise kernel accumulates at a time. */
#define EON_VF 8

/* GCC and Clang vector types: one code path, compiled to the host's SIMD. */
typedef int32_t eon_v16i __attribute__((vector_size(EON_CO * sizeof(int32_t))));
typedef uint32_t eon_v16u __attribute__((vector_size(EON_CO * sizeof(uint32_t))));
typedef float eon_v8f __attribute__((vector_size(EON_VF * sizeof(float))));
typedef int32_t eon_v8i __attribute__((vector_size(EON_VF * sizeof(int32_t))));

int eon_param_count(void) { return EON_P_COUNT; }
int eon_channel_block(void) { return EON_CO; }

static int64_t padded_channels(const int64_t *p)
{
    return (p[EON_P_COUT] + EON_CO - 1) / EON_CO * EON_CO;
}

/* Output pixels accumulated at a time: a band of pool_h rows, or a chunk. */
static int64_t band_pixels(const int64_t *p)
{
    const int64_t ow = p[EON_P_OW], all = p[EON_P_OH] * ow;
    if (p[EON_P_POOL_H] * p[EON_P_POOL_W] > 1)
        return p[EON_P_POOL_H] * ow;
    return all < EON_CHUNK ? all : EON_CHUNK;
}

/* int32 scratch run_conv needs per image: a band of accumulators and, for
 * a pooled layer, a row of pooled values and one pixel's requantized
 * outputs, each pixel padded_channels() wide. */
int64_t eon_scratch_size(const int64_t *p)
{
    const int64_t pool_w = p[EON_P_POOL_W];
    const int64_t pooled = p[EON_P_POOL_H] * pool_w > 1 ? p[EON_P_OW] / pool_w + 1 : 0;
    return (band_pixels(p) + pooled) * padded_channels(p);
}

/* n accumulators of channels 0..n-1 -> int8.  ``rq`` holds coutp each of
 * mantissas, rounding halves 2**(s-1) and total shifts s. */
static void requant_row(const int32_t *restrict acc, int64_t n,
                        const int64_t *restrict rq, int64_t coutp,
                        int64_t out_zp, int64_t lo, int64_t hi,
                        int8_t *restrict dst)
{
    const int64_t *restrict mant = rq, *restrict half = rq + coutp;
    const int64_t *restrict shift = rq + 2 * coutp;
    for (int64_t o = 0; o < n; o++) {
        const int64_t p = (int64_t)acc[o] * mant[o];
        int64_t r = (p + half[o] + (p >> 63)) >> shift[o];
        r += out_zp;
        r = r < lo ? lo : r;
        r = r > hi ? hi : r;
        dst[o] = (int8_t)r;
    }
}

/* ``n`` accumulators, channel i % channels each -> int8 (for tests);
 * ``rq`` as for requant_row with coutp = channels. */
void eon_requant_i8(const int32_t *acc, int64_t n, int64_t channels,
                    const int64_t *rq, int64_t out_zp, int64_t lo, int64_t hi,
                    int8_t *out)
{
    for (int64_t i = 0; i < n; i += channels)
        requant_row(acc + i, channels, rq, channels, out_zp, lo, hi, out + i);
}

/* One image (h, w, c) of ``size``-byte values into its
 * (h + pt + pb, w + pl + pr, c) padding, every byte of which is ``fill``. */
static void pad_image(const int64_t *p, const void *x, void *xp, size_t size, int fill)
{
    const int64_t h = p[EON_P_H], w = p[EON_P_W], c = p[EON_P_C];
    const int64_t wp = w + p[EON_P_PL] + p[EON_P_PR];
    const int64_t hp = h + p[EON_P_PT] + p[EON_P_PB];
    memset(xp, fill, (size_t)(hp * wp * c) * size);
    for (int64_t y = 0; y < h; y++)
        memcpy((char *)xp + ((y + p[EON_P_PT]) * wp + p[EON_P_PL]) * c * size,
               (const char *)x + y * w * c * size, (size_t)(w * c) * size);
}

static int is_padded(const int64_t *p)
{
    return p[EON_P_PT] || p[EON_P_PB] || p[EON_P_PL] || p[EON_P_PR];
}

/* The window of output pixel n (row-major over oh x ow) in a padded image
 * whose rows are ``row`` values long. */
static const int8_t *window(const int64_t *p, const int8_t *img, int64_t n)
{
    const int64_t ow = p[EON_P_OW], stride = p[EON_P_STRIDE];
    const int64_t row = (p[EON_P_W] + p[EON_P_PL] + p[EON_P_PR]) * p[EON_P_C];
    return img + (n / ow) * stride * row + (n % ow) * stride * p[EON_P_C];
}

#if defined(__AVX512VNNI__)
/* The ``n`` <= 4 window bytes at ``x`` as x ^ 0x80 = x + 128 bytes in
 * memory order, in one 32-bit word; bytes past ``n`` are never read.  The
 * whole quad is its own branch so that it compiles to one 4-byte load:
 * with only the variable-size copy, GCC 12 ran the GEMM steps 1.6-1.9x
 * slower. */
static inline uint32_t window_quad(const int8_t *x, int64_t n)
{
    uint32_t quad = 0;
    if (n == 4)
        memcpy(&quad, x, 4);
    else
        memcpy(&quad, x, (size_t)n);
    return quad ^ 0x80808080u;
}
#endif

/* Adds window bytes k..k+n-1 (n <= 4) of each of the EON_PX windows, as
 * x + 128, times quad ``wq`` of the weights to the pixel's accumulators
 * a[j].  With VNNI that is one vpdpbusd per pixel.  The portable loop
 * sign-extends tap t of each channel out of its 32-bit lane (little-endian)
 * and multiplies it by each window's byte t in uint32 lanes. */
static inline void quad_mac(eon_v16u *restrict a, const int8_t *const *win,
                            int64_t k, const int8_t *restrict wq, int64_t n)
{
#if defined(__AVX512VNNI__)
    const __m512i wv = _mm512_loadu_si512(wq);
    for (int j = 0; j < EON_PX; j++) {
        const __m512i xv = _mm512_set1_epi32((int)window_quad(win[j] + k, n));
        a[j] = (eon_v16u)_mm512_dpbusd_epi32((__m512i)a[j], xv, wv);
    }
#else
    eon_v16u wq32;
    memcpy(&wq32, wq, sizeof wq32);
    for (int64_t t = 0; t < n; t++) {
        const eon_v16u wt = (eon_v16u)((eon_v16i)(wq32 << (24 - 8 * t)) >> 24);
        for (int j = 0; j < EON_PX; j++)
            a[j] += (uint32_t)(win[j][k + t] + 128) * wt;
    }
#endif
}

/* acc[i][o] = bias[o] + the window of output pixel n0 + i times the
 * weights, for i < n, in wrapping 32-bit arithmetic.  ``w`` is the int8
 * (coutp / EON_CO, kh, kq, EON_CO, 4) quads of the header comment. */
static void gemm_pixels(const int64_t *p, const int8_t *img, int64_t n0,
                        int64_t n, const int8_t *restrict w,
                        const int32_t *restrict bias, int64_t coutp,
                        int32_t *restrict acc)
{
    const int64_t kh = p[EON_P_KH], kwc = p[EON_P_KW] * p[EON_P_C];
    const int64_t kq = (kwc + 3) / 4, whole = kwc / 4, tail = kwc % 4;
    const int64_t row = (p[EON_P_W] + p[EON_P_PL] + p[EON_P_PR]) * p[EON_P_C];
    for (int64_t t = 0; t < n; t += EON_PX) {
        const int8_t *win[EON_PX];
        for (int j = 0; j < EON_PX; j++) /* a short tile repeats its last pixel */
            win[j] = window(p, img, n0 + (t + j < n ? t + j : n - 1));
        for (int64_t o0 = 0; o0 < coutp; o0 += EON_CO) {
            const int8_t *restrict wb = w + o0 * kh * kq * 4;
            eon_v16u a[EON_PX];
            memcpy(&a[0], bias + o0, sizeof a[0]);
            for (int j = 1; j < EON_PX; j++)
                a[j] = a[0];
            for (int64_t i = 0; i < kh; i++) {
                const int8_t *restrict wr = wb + i * kq * EON_CO * 4;
                for (int64_t q = 0; q < whole; q++)
                    quad_mac(a, win, i * row + 4 * q, wr + q * EON_CO * 4, 4);
                if (tail)
                    quad_mac(a, win, i * row + 4 * whole, wr + whole * EON_CO * 4, tail);
            }
            for (int j = 0; j < EON_PX && t + j < n; j++)
                memcpy(acc + (t + j) * coutp + o0, &a[j], sizeof a[j]);
        }
    }
}

/* The depthwise twin of gemm_pixels: channel o alone, ``taps`` is
 * (kh, kw, c) int32. */
static void depthwise_pixels(const int64_t *p, const int8_t *img, int64_t n0,
                             int64_t n, const int32_t *restrict taps,
                             const int32_t *restrict bias, int64_t coutp,
                             int32_t *restrict acc)
{
    const int64_t kh = p[EON_P_KH], kw = p[EON_P_KW], c = p[EON_P_C];
    const int64_t row = (p[EON_P_W] + p[EON_P_PL] + p[EON_P_PR]) * c;
    for (int64_t i = 0; i < n; i++) {
        int32_t *restrict a = acc + i * coutp;
        const int8_t *win = window(p, img, n0 + i);
        for (int64_t o = 0; o < c; o++)
            a[o] = bias[o];
        for (int64_t y = 0; y < kh; y++)
            for (int64_t x = 0; x < kw; x++) {
                const int8_t *restrict xr = win + y * row + x * c;
                const int32_t *restrict tr = taps + (y * kw + x) * c;
                for (int64_t o = 0; o < c; o++)
                    a[o] += xr[o] * tr[o];
            }
    }
}

/* The mean of ``count`` int8 values whose sum is ``s``, as _round_div_i8
 * rounds it: offset by count / 2 away from zero, floor-divided and
 * saturated to int8. */
static int8_t round_div_i8(int64_t s, int64_t count)
{
    const int64_t half = count / 2;
    s += s >= 0 ? half : -half;
    const int64_t r = s / count - (s % count != 0 && s < 0); /* floor */
    return (int8_t)(r < -128 ? -128 : r > 127 ? 127 : r);
}

/* The body both kernels share.  Per image: pad it into ``xp`` (when padded), then
 * accumulate output pixels a band at a time and write them: an unpooled
 * layer requantizes EON_CHUNK pixels at a time; a pooled one accumulates
 * a band of pool_h output rows, pools it (the max of the accumulators, or
 * the sum of requantized outputs for an average pool) and writes one
 * pooled row.  ``scratch`` holds eon_scratch_size() int32. */
static void run_conv(const int64_t *p, int depthwise, const int8_t *x,
                     int8_t *xp, const void *w, const int32_t *bias,
                     const int64_t *rq, int32_t *scratch, int8_t *out,
                     int64_t rows)
{
    const int64_t cout = p[EON_P_COUT], coutp = padded_channels(p);
    const int64_t oh = p[EON_P_OH], ow = p[EON_P_OW];
    const int64_t ph = p[EON_P_POOL_H], pw = p[EON_P_POOL_W];
    const int64_t qh = oh / ph, qw = ow / pw;
    const int64_t out_zp = p[EON_P_OUT_ZP], lo = p[EON_P_CLAMP_MIN];
    const int64_t hi = p[EON_P_CLAMP_MAX];
    const int avg = p[EON_P_POOL_AVG] != 0, pooled = ph * pw > 1;
    const int64_t in_image = p[EON_P_H] * p[EON_P_W] * p[EON_P_C];
    const int64_t band = band_pixels(p);
    const int padded = is_padded(p);
    int32_t *acc = scratch, *pool = scratch + band * coutp;
    int8_t *q = (int8_t *)(pool + qw * coutp);

    for (int64_t b = 0; b < rows; b++) {
        const int8_t *img = x + b * in_image;
        int8_t *dst = out + b * qh * qw * cout;
        if (padded) {
            pad_image(p, img, xp, 1, (int)(int8_t)p[EON_P_IN_ZP]);
            img = xp;
        }
        const int64_t n_all = pooled ? qh * ph * ow : oh * ow;
        for (int64_t n0 = 0; n0 < n_all; n0 += band) {
            const int64_t n = n_all - n0 < band ? n_all - n0 : band;
            if (depthwise)
                depthwise_pixels(p, img, n0, n, w, bias, coutp, acc);
            else
                gemm_pixels(p, img, n0, n, w, bias, coutp, acc);
            if (!pooled) {
                for (int64_t i = 0; i < n; i++)
                    requant_row(acc + i * coutp, cout, rq, coutp, out_zp, lo, hi,
                                dst + (n0 + i) * cout);
                continue;
            }
            for (int64_t qx = 0; qx < qw; qx++) {
                int32_t *restrict v = pool + qx * coutp;
                for (int64_t d = 0; d < ph * pw; d++) {
                    const int32_t *restrict src =
                        acc + ((d / pw) * ow + qx * pw + d % pw) * coutp;
                    if (avg) {
                        requant_row(src, coutp, rq, coutp, out_zp, lo, hi, q);
                        for (int64_t o = 0; o < coutp; o++)
                            v[o] = d == 0 ? q[o] : v[o] + q[o];
                    } else {
                        for (int64_t o = 0; o < coutp; o++)
                            v[o] = d == 0 || src[o] > v[o] ? src[o] : v[o];
                    }
                }
                int8_t *px = dst + ((n0 / band) * qw + qx) * cout;
                if (!avg) {
                    requant_row(v, cout, rq, coutp, out_zp, lo, hi, px);
                    continue;
                }
                for (int64_t o = 0; o < cout; o++)
                    px[o] = round_div_i8(v[o], ph * pw);
            }
        }
    }
}

/* CONV_2D, CONV_1D and FULLY_CONNECTED; ``w`` is the int8 quads. */
void eon_conv_i8(const int64_t *p, const int8_t *x, int8_t *xp,
                 const int8_t *w, const int32_t *bias, const int64_t *rq,
                 int32_t *scratch, int8_t *out, int64_t rows)
{
    run_conv(p, 0, x, xp, w, bias, rq, scratch, out, rows);
}

/* DEPTHWISE_CONV_2D with depth multiplier 1. */
void eon_dwconv_i8(const int64_t *p, const int8_t *x, int8_t *xp,
                   const int32_t *taps, const int32_t *bias, const int64_t *rq,
                   int32_t *scratch, int8_t *out, int64_t rows)
{
    run_conv(p, 1, x, xp, taps, bias, rq, scratch, out, rows);
}

/* Channels eon_gap_i8 sums at a time. */
enum { EON_GAP_CO = 64 };

/* GLOBAL_AVG_POOL_2D and _1D: per image (h, w, c), each channel's
 * round_div_i8 mean over its h * w pixels.  The binder has checked
 * h * w < 2**24, so the int32 sums of int8 values cannot overflow. */
void eon_gap_i8(const int64_t *p, const int8_t *x, int8_t *out, int64_t rows)
{
    const int64_t hw = p[EON_P_H] * p[EON_P_W], c = p[EON_P_C];
    for (int64_t b = 0; b < rows; b++)
        for (int64_t o0 = 0; o0 < c; o0 += EON_GAP_CO) {
            const int64_t n = c - o0 < EON_GAP_CO ? c - o0 : EON_GAP_CO;
            const int8_t *img = x + b * hw * c + o0;
            int32_t sum[EON_GAP_CO] = {0};
            for (int64_t i = 0; i < hw; i++)
                for (int64_t o = 0; o < n; o++)
                    sum[o] += img[i * c + o];
            for (int64_t o = 0; o < n; o++)
                out[b * c + o0 + o] = round_div_i8(sum[o], hw);
        }
}

/* v < lo ? lo : v, then v > hi ? hi : v (np.clip). */
static float clamp_f32(float v, float lo, float hi)
{
    v = v < lo ? lo : v;
    return v > hi ? hi : v;
}

/* Output pixels of one row the float32 depthwise kernel accumulates
 * together: each tap vector is loaded once for all of them. */
#define EON_PXF 8

/* The ordered-tap sums of ``n`` <= EON_PXF output pixels whose windows
 * start at win[k] = win + k * step, channels o..o+EON_VF-1, biased and
 * clamped, lane by lane as clamp_f32 does, into dst + k * c.  No vector
 * crosses a call by value: that ABI differs between hosts with and
 * without AVX (gcc's -Wpsabi). */
static void dw_f32_block(const float *win, int64_t step, int64_t n, int64_t row,
                         int64_t c, int64_t kh, int64_t kw, const float *taps,
                         const float *bias, float lo, float hi, float *dst)
{
    eon_v8f acc[EON_PXF], xv, tv, bv, lov, hiv;
    for (int k = 0; k < EON_VF; k++) {
        lov[k] = lo;
        hiv[k] = hi;
    }
    for (int k = 0; k < EON_PXF; k++)
        acc[k] = (eon_v8f){0};
    for (int64_t i = 0; i < kh; i++)
        for (int64_t j = 0; j < kw; j++) {
            const float *xr = win + i * row + j * c;
            memcpy(&tv, taps + (i * kw + j) * c, sizeof tv);
            for (int k = 0; k < EON_PXF; k++) {
                memcpy(&xv, xr + (k < n ? k : 0) * step, sizeof xv);
                acc[k] = acc[k] + xv * tv;
            }
        }
    memcpy(&bv, bias, sizeof bv);
    for (int k = 0; k < n; k++) {
        const eon_v8f v = acc[k] + bv;
        const eon_v8i below = v < lov, above = v > hiv;
        eon_v8i bits = ((eon_v8i)lov & below) | ((eon_v8i)v & ~below);
        bits = ((eon_v8i)hiv & above) | (bits & ~above);
        memcpy(dst + k * c, &bits, sizeof bits);
    }
}

/* DEPTHWISE_CONV_2D in float32, depth multiplier 1: the ordered-tap sum of
 * the header comment, EON_VF channels at a time and the tail one by one,
 * clamped to [lo, hi] (-inf and inf for no activation, 0 and inf for relu,
 * 0 and 6 for relu6).  The EON_P_* constants are those of the int8 kernels;
 * cout must equal c, the zero points and pool are ignored.  ``taps`` is
 * (kh, kw, c); a padded image is padded with +0.0f into ``xp``. */
void eon_dwconv_f32(const int64_t *p, const float *x, float *xp,
                    const float *taps, const float *bias, float lo, float hi,
                    float *out, int64_t rows)
{
    const int64_t c = p[EON_P_C], kh = p[EON_P_KH], kw = p[EON_P_KW];
    const int64_t oh = p[EON_P_OH], ow = p[EON_P_OW], stride = p[EON_P_STRIDE];
    const int64_t row = (p[EON_P_W] + p[EON_P_PL] + p[EON_P_PR]) * c;
    const int64_t in_image = p[EON_P_H] * p[EON_P_W] * c;
    const int64_t vec_end = c / EON_VF * EON_VF, step = stride * c;
    const int padded = is_padded(p);
    for (int64_t b = 0; b < rows; b++) {
        const float *img = x + b * in_image;
        if (padded) {
            pad_image(p, img, xp, sizeof(float), 0); /* all-zero bytes: +0.0f */
            img = xp;
        }
        for (int64_t y = 0; y < oh; y++)
            for (int64_t x0 = 0; x0 < ow; x0 += EON_PXF) {
                const int64_t n = ow - x0 < EON_PXF ? ow - x0 : EON_PXF;
                const float *win = img + y * stride * row + x0 * step;
                float *dst = out + ((b * oh + y) * ow + x0) * c;
                for (int64_t o = 0; o < vec_end; o += EON_VF)
                    dw_f32_block(win + o, step, n, row, c, kh, kw, taps + o,
                                 bias + o, lo, hi, dst + o);
                for (int64_t k = 0; k < n; k++)
                    for (int64_t o = vec_end; o < c; o++) {
                        float acc = 0.0f;
                        for (int64_t i = 0; i < kh; i++)
                            for (int64_t j = 0; j < kw; j++)
                                acc = acc + win[k * step + i * row + j * c + o]
                                                * taps[(i * kw + j) * c + o];
                        dst[k * c + o] = clamp_f32(acc + bias[o], lo, hi);
                    }
            }
    }
}
