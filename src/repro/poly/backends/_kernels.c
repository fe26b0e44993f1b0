/* Compiled backend tier: the four Table-3 butterfly stage-kernel
 * families (Barrett / Montgomery / Shoup / SMR), the NTT-domain
 * pointwise product, the key-switch inner-product MAC and its terminal
 * fold, and the CRT tensor pass of fast basis conversion, as plain C
 * over the same precomputed tables the numpy kernels use.
 *
 * Bit-exactness contract: every transform output is the *canonical
 * exact* negacyclic NTT (or inverse) over the same bit-reversed twiddle
 * tables as repro.poly.batch_ntt, and the converter output is the exact
 * residue X mod p_j — so outputs are bit-identical to the numpy tier by
 * construction, independent of how intermediates are scheduled.  The
 * stage invariants nevertheless mirror the numpy kernels exactly
 * (canonical [0, q) state for the Shoup / Montgomery / SMR families,
 * Harvey 2q-lazy [0, 2q) state for Barrett) so that checked mode
 * asserts the very same certified per-stage bounds.  The pointwise,
 * MAC and fold kernels go further: they evaluate the numpy reducers'
 * formulas step for step in the same wrapping 64-bit arithmetic, so
 * even the lazy accumulator contents match bit for bit.
 *
 * Checked mode: with `bound` non-NULL, each (limb, stage) pass scans
 * the live row against bound[limb] — the caller passes the engine's
 * live certified bound column, so tightened bounds (tests) and the
 * PR 7 certificates apply to this tier exactly as to numpy.  The first
 * violation stops the transform and reports {value, stage m (0 = the
 * n^-1 scale), limb, coefficient} through `err`, and the function
 * returns 1.  The Python wrapper raises SanitizerError from that
 * tuple.
 *
 * Range check: transforms and pointwise products read the caller's
 * uint64 limb matrix directly and return 2 as soon as a row holds a
 * coefficient >= q (the wrapper locates the offender and raises the
 * numpy tier's ParameterError).  A transform stages each limb row into
 * 32-bit state on load and widens it back on store, so `dst` may alias
 * `src`.
 *
 * Layout: data is one contiguous (L, n) row-major matrix; twiddle
 * tables are contiguous (L, n): 32-bit for the Shoup / Montgomery / SMR
 * transforms (the wrapper casts the backend-prepared tables once), the
 * backend-prepared 64-bit dtype elsewhere; per-limb constants are
 * length-L vectors.  Loops run limb-major (each limb completes all
 * stages before the next limb starts) — at n = 4096 a row is 16-32 KiB,
 * so the whole per-limb working set lives in L1/L2.
 *
 * Vectorization: the 32-bit transforms are written for the compiler's
 * loop vectorizer (32-bit lanes, branch-free folds, fixed-stride copies
 * of the short tail stages); the library is built with -march=native so
 * they use the host's widest vectors, and stay correct (and no slower
 * than scalar code) in a plain SSE2 build.
 */

#include <stdint.h>

#define EXPORT __attribute__((visibility("default")))
#define LO32 0xffffffffu

/* -- checked-mode row scans ---------------------------------------- */

/* Saturate a 64-bit bound into the uint32 state domain: any bound at or
 * above 2^32 - 1 can never trip on uint32 state, which matches numpy's
 * semantics of comparing the full-width value. */
static inline uint32_t b32(uint64_t b) {
    return b > 0xffffffffu ? 0xffffffffu : (uint32_t)b;
}

static int scan32(const uint32_t *row, int64_t n, uint32_t bound,
                  int64_t stage, int64_t limb, uint64_t *err) {
    for (int64_t k = 0; k < n; ++k) {
        if (row[k] > bound) {
            err[0] = row[k];
            err[1] = (uint64_t)stage;
            err[2] = (uint64_t)limb;
            err[3] = (uint64_t)k;
            return 1;
        }
    }
    return 0;
}

static int scan64(const uint64_t *row, int64_t n, uint64_t bound,
                  int64_t stage, int64_t limb, uint64_t *err) {
    for (int64_t k = 0; k < n; ++k) {
        if (row[k] > bound) {
            err[0] = row[k];
            err[1] = (uint64_t)stage;
            err[2] = (uint64_t)limb;
            err[3] = (uint64_t)k;
            return 1;
        }
    }
    return 0;
}

/* -- range-checked row staging --------------------------------------- */

/* Load one uint64 limb row into 32-bit transform state. */
static int load32(const uint64_t *src, uint32_t *row, int64_t n,
                  uint64_t q) {
    uint64_t over = 0;
    for (int64_t k = 0; k < n; ++k) {
        over |= (uint64_t)(src[k] >= q);
        row[k] = (uint32_t)src[k];
    }
    return over ? 2 : 0;
}

static void store32(const uint32_t *row, uint64_t *dst, int64_t n) {
    for (int64_t k = 0; k < n; ++k) dst[k] = row[k];
}

/* Barrett state is uint64 already: check, and copy unless in place. */
static int load64(const uint64_t *src, uint64_t *row, int64_t n,
                  uint64_t q) {
    uint64_t over = 0;
    for (int64_t k = 0; k < n; ++k) over |= (uint64_t)(src[k] >= q);
    if (over) return 2;
    if (src != row)
        for (int64_t k = 0; k < n; ++k) row[k] = src[k];
    return 0;
}

/* -- 32-bit families: Shoup / Montgomery / SMR -------------------------
 * One stage routine serves all three; only the twiddle multiply differs.
 * State is canonical uint32 in [0, q), q < 2^31, so the sum of two
 * residues never wraps and every fold is the branch-free min(x, x - q).
 * Every multiply runs on 32-bit lanes: low products plus unsigned high
 * products, which vectorize as even/odd widening multiplies (pmuludq)
 * from SSE2 up.  Tables are 32-bit:
 *   Shoup       w canonical, wsh = floor(w * 2^32 / q) (uint32 companion);
 *   Montgomery  w * 2^32 mod q (uint32);
 *   SMR         w * 2^32 mod q in signed form, (-q, q) (int32 bits).
 * Montgomery and SMR share one reduce (each SMR twiddle is first lifted
 * into [0, q)) with k = q^-1 mod 2^32, derived here: for mm = lo(p) * k
 * the low halves of p and mm * q agree, so (p - mm*q) / 2^32 = hi(p) -
 * hi(mm*q) exactly, in (-q, q).  Every multiply ends canonical, so the
 * output is the exact transform whatever intermediate representative
 * the numpy reducers carry. */

enum { FAM_SHOUP, FAM_MONT, FAM_SMR };

/* The routine's family, direction and stride arguments must be compile-
 * time constants at each instantiation for the loops to vectorize. */
#define INLINE static inline __attribute__((always_inline))

INLINE uint32_t fold_q(uint32_t x, uint32_t q) { /* [0, 2q) -> [0, q) */
    uint32_t y = x - q;
    return x < y ? x : y;
}

INLINE uint32_t mulhi_u32(uint32_t a, uint32_t b) {
    return (uint32_t)(((uint64_t)a * b) >> 32);
}

/* q^-1 mod 2^32 by Newton's iteration (q odd, so q * q = 1 mod 8; each
 * step doubles the correct low bits, 3 -> 48). */
static uint32_t inv32(uint32_t q) {
    uint32_t x = q;
    for (int i = 0; i < 4; ++i) x *= 2 - q * x;
    return x;
}

/* A twiddle as mul32 takes it: SMR's signed form lifted into [0, q), the
 * Montgomery form it is congruent to (once per twiddle, not per lane). */
INLINE uint32_t lift(int fam, uint32_t w, uint32_t q) {
    return fam == FAM_SMR ? w + (q & (uint32_t)((int32_t)w >> 31)) : w;
}

/* v * w (times 2^-32 for the Montgomery forms) mod q, canonical. */
INLINE uint32_t mul32(int fam, uint32_t v, uint32_t w, uint32_t wsh,
                      uint32_t q, uint32_t k) {
    if (fam == FAM_SHOUP) /* v*w - hi*q wraps into [0, 2q) */
        return fold_q(v * w - mulhi_u32(v, wsh) * q, q);
    uint32_t mm = v * (w * k); /* w * k: once per twiddle, not per lane */
    return fold_q(mulhi_u32(v, w) - mulhi_u32(mm, q) + q, q);
}

/* One limb's twiddle row, Shoup companion row (Shoup only), modulus and
 * Montgomery constant k. */
typedef struct {
    const uint32_t *w, *wsh;
    uint32_t q, k;
} tw32;

/* m Cooley-Tukey groups of stride t: (u, v) -> (u + v*w, u - v*w). */
INLINE void ct_groups(int fam, uint32_t *row, int64_t m, int64_t t,
                      const tw32 *c) {
    uint32_t q = c->q;
    for (int64_t g = 0; g < m; ++g) {
        uint32_t w = lift(fam, c->w[m + g], q);
        uint32_t wsh = fam == FAM_SHOUP ? c->wsh[m + g] : 0;
        uint32_t *restrict u = row + 2 * t * g;
        uint32_t *restrict v = u + t;
        for (int64_t j = 0; j < t; ++j) {
            uint32_t r = mul32(fam, v[j], w, wsh, q, c->k);
            uint32_t uj = u[j];
            u[j] = fold_q(uj + r, q);
            v[j] = fold_q(uj + q - r, q);
        }
    }
}

/* h Gentleman-Sande groups of stride t: (u, v) -> (u + v, (u - v)*w). */
INLINE void gs_groups(int fam, uint32_t *row, int64_t h, int64_t t,
                      const tw32 *c) {
    uint32_t q = c->q;
    for (int64_t g = 0; g < h; ++g) {
        uint32_t w = lift(fam, c->w[h + g], q);
        uint32_t wsh = fam == FAM_SHOUP ? c->wsh[h + g] : 0;
        uint32_t *restrict u = row + 2 * t * g;
        uint32_t *restrict v = u + t;
        for (int64_t j = 0; j < t; ++j) {
            uint32_t uj = u[j], vj = v[j];
            u[j] = fold_q(uj + vj, q);
            v[j] = mul32(fam, fold_q(uj + q - vj, q), w, wsh, q, c->k);
        }
    }
}

/* One stage of `groups` butterfly groups at stride t.  Strides below 16
 * are shorter than a vector, so each gets a fixed-t copy: its unrolled
 * group body vectorizes across groups with interleaved loads instead of
 * running one lane at a time. */
INLINE void stage32(int fam, int inverse, uint32_t *row, int64_t groups,
                    int64_t t, const tw32 *c) {
#define STAGE(T)                                                          \
    (inverse ? gs_groups(fam, row, groups, T, c)                          \
             : ct_groups(fam, row, groups, T, c))
    switch (t) {
    case 1: STAGE(1); break;
    case 2: STAGE(2); break;
    case 4: STAGE(4); break;
    case 8: STAGE(8); break;
    default: STAGE(t);
    }
#undef STAGE
}

/* Per limb: range-checked load, the log2(n) stages (each followed by its
 * checked-mode scan, tagged with the stage's group count m as in numpy),
 * the inverse's n^-1 scale (stage 0), and the widening store. */
INLINE int ntt32(int fam, int inverse, const uint64_t *src, uint64_t *dst,
                 uint32_t *row, const uint32_t *w, const uint32_t *wsh,
                 const uint32_t *ninv, const uint32_t *ninvsh,
                 const uint32_t *q, int64_t L, int64_t n,
                 const uint64_t *bound, uint64_t *err) {
    int shoup = fam == FAM_SHOUP;
    for (int64_t l = 0; l < L; ++l) {
        tw32 c = {w + l * n, shoup ? wsh + l * n : 0, q[l],
                  shoup ? 0 : inv32(q[l])};
        uint32_t bl = bound ? b32(bound[l]) : 0;
        if (load32(src + l * n, row, n, c.q)) return 2;
        for (int64_t s = 1; s < n; s <<= 1) {
            /* forward: s groups of stride n/2s; inverse: n/2s groups of
             * stride s.  The scan tags a stage m = its numpy stage index
             * (the forward group count, twice the inverse's). */
            int64_t groups = inverse ? n / (2 * s) : s;
            stage32(fam, inverse, row, groups, n / (2 * groups), &c);
            int64_t m = inverse ? 2 * groups : groups;
            if (bound && scan32(row, n, bl, m, l, err)) return 1;
        }
        if (inverse) {
            uint32_t nv = lift(fam, ninv[l], c.q);
            uint32_t nvsh = shoup ? ninvsh[l] : 0;
            for (int64_t j = 0; j < n; ++j)
                row[j] = mul32(fam, row[j], nv, nvsh, c.q, c.k);
            if (bound && scan32(row, n, bl, 0, l, err)) return 1;
        }
        store32(row, dst + l * n, n);
    }
    return 0;
}

/* `fam` selects the family (FAM_*) and `inverse` the direction; `wsh`
 * and `ninvsh` are read by the Shoup family only, `ninv` and `ninvsh` by
 * inverses only.  Returns 3 for an unknown family. */
EXPORT int ntt32_run(int64_t fam, int64_t inverse, const uint64_t *src,
                     uint64_t *dst, uint32_t *row, const uint32_t *w,
                     const uint32_t *wsh, const uint32_t *ninv,
                     const uint32_t *ninvsh, const uint32_t *q, int64_t L,
                     int64_t n, const uint64_t *bound, uint64_t *err) {
#define RUN(F, I)                                                         \
    ntt32(F, I, src, dst, row, w, wsh, ninv, ninvsh, q, L, n, bound, err)
    switch (fam) {
    case FAM_SHOUP: return inverse ? RUN(FAM_SHOUP, 1) : RUN(FAM_SHOUP, 0);
    case FAM_MONT: return inverse ? RUN(FAM_MONT, 1) : RUN(FAM_MONT, 0);
    case FAM_SMR: return inverse ? RUN(FAM_SMR, 1) : RUN(FAM_SMR, 0);
    }
#undef RUN
    return 3;
}

/* -- Barrett family --------------------------------------------------
 * Harvey-style 2q-lazy uint64 state, exactly the numpy kernel's
 * schedule: mu = floor(2^64 / q) split into 32-bit halves (same dropped
 * carries, so even the lazy intermediates match), one fold per
 * butterfly output into [0, 2q), exit fold to canonical.  The state is
 * the destination row itself (no staging buffer). */

static inline uint64_t barrett_mul(uint64_t v, uint64_t w, uint64_t q,
                                   uint64_t q2, uint64_t mu_hi,
                                   uint64_t mu_lo) {
    uint64_t x = v * w; /* exact: v < 2q, w < q, so x < 2q^2 < 2^63 */
    uint64_t x_hi = x >> 32;
    uint64_t x_lo = x & 0xffffffffu;
    uint64_t mid = x_lo * mu_hi + ((x_lo * mu_lo) >> 32) + x_hi * mu_lo;
    uint64_t qhat = x_hi * mu_hi + (mid >> 32);
    uint64_t r = x - qhat * q; /* in [0, 3q) */
    return r < q2 ? r : r - q2;
}

EXPORT int ntt_fwd_barrett(const uint64_t *src, uint64_t *dst,
                           const uint64_t *w, const uint64_t *q,
                           const uint64_t *mu, int64_t L, int64_t n,
                           const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & 0xffffffffu;
        uint64_t *row = dst + l * n;
        const uint64_t *wl = w + l * n;
        if (load64(src + l * n, row, n, ql)) return 2;
        for (int64_t m = 1, t = n >> 1; m < n; m <<= 1, t >>= 1) {
            for (int64_t g = 0; g < m; ++g) {
                uint64_t tw = wl[m + g];
                uint64_t *u = row + g * 2 * t;
                uint64_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint64_t r = barrett_mul(v[k], tw, ql, q2, mu_hi, mu_lo);
                    uint64_t uk = u[k];
                    uint64_t s = uk + r;
                    s = s < q2 ? s : s - q2;
                    uint64_t d = uk + q2 - r;
                    d = d < q2 ? d : d - q2;
                    u[k] = s;
                    v[k] = d;
                }
            }
            if (bound && scan64(row, n, bound[l], m, l, err)) return 1;
        }
        for (int64_t k = 0; k < n; ++k) { /* exit fold to canonical */
            uint64_t s = row[k];
            row[k] = s < ql ? s : s - ql;
        }
    }
    return 0;
}

EXPORT int ntt_inv_barrett(const uint64_t *src, uint64_t *dst,
                           const uint64_t *w, const uint64_t *ninv,
                           const uint64_t *q, const uint64_t *mu, int64_t L,
                           int64_t n, const uint64_t *bound, uint64_t *err) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & 0xffffffffu;
        uint64_t *row = dst + l * n;
        const uint64_t *wl = w + l * n;
        if (load64(src + l * n, row, n, ql)) return 2;
        for (int64_t m = n, t = 1; m > 1; m >>= 1, t <<= 1) {
            int64_t h = m >> 1;
            for (int64_t g = 0; g < h; ++g) {
                uint64_t tw = wl[h + g];
                uint64_t *u = row + g * 2 * t;
                uint64_t *v = u + t;
                for (int64_t k = 0; k < t; ++k) {
                    uint64_t uk = u[k], vk = v[k];
                    uint64_t s = uk + vk;
                    s = s < q2 ? s : s - q2;
                    uint64_t d = uk + q2 - vk;
                    d = d < q2 ? d : d - q2;
                    u[k] = s;
                    v[k] = barrett_mul(d, tw, ql, q2, mu_hi, mu_lo);
                }
            }
            if (bound && scan64(row, n, bound[l], m, l, err)) return 1;
        }
        uint64_t nv = ninv[l];
        for (int64_t k = 0; k < n; ++k)
            row[k] = barrett_mul(row[k], nv, ql, q2, mu_hi, mu_lo);
        if (bound && scan64(row, n, bound[l], 0, l, err)) return 1;
        for (int64_t k = 0; k < n; ++k) { /* exit fold to canonical */
            uint64_t s = row[k];
            row[k] = s < ql ? s : s - ql;
        }
    }
    return 0;
}

/* -- NTT-domain pointwise product --------------------------------------
 * out = a * b mod q, canonical, against a prepared operand b (the
 * backend's prepare_twiddles form: plain for Barrett, Montgomery form
 * for the two Montgomery reducers, value + companion for Shoup).  `a` is
 * range-checked row by row; each product is the numpy backend's
 * mul + strict fold, step for step. */

/* (p + mullo32(p, -q^-1) * q) >> 32, Montgomery's lazy [0, 2q) output
 * for p < q * 2^32 (the numpy reducer's formula, wrapping alike). */
static inline uint64_t mont_red(uint64_t p, uint64_t q, uint32_t qinv_neg) {
    uint32_t m = (uint32_t)p * qinv_neg; /* mullo32 */
    return (p + (uint64_t)m * q) >> 32;
}

/* Alg. 2 on a 64-bit product: x_hi - mulhi32(mullo32(x_lo, m), q), in
 * (-q, q) for |p| < q * 2^31.  Every step wraps like the numpy
 * reducer's int64 pipeline, so out-of-domain inputs agree bit for bit. */
static inline int64_t smr_red(int64_t p, int64_t q, uint32_t m) {
    int32_t z = (int32_t)((uint32_t)p * m); /* signed mullo32 wrap */
    return (p >> 32) - (((int64_t)z * q) >> 32);
}

/* Product of two int64 lanes with numpy's wrapping (no signed UB). */
static inline int64_t wrap_mul(int64_t a, int64_t b) {
    return (int64_t)((uint64_t)a * (uint64_t)b);
}

static inline uint64_t shoup_lazy(uint64_t a, uint64_t w, uint64_t wsh,
                                  uint64_t q) {
    uint64_t hi = ((a & LO32) * (wsh & LO32)) >> 32; /* mulhi32(a, w') */
    return (a * w - hi * q) & LO32;                   /* in [0, 2q) */
}

EXPORT int pw_barrett(const uint64_t *a, const uint64_t *b,
                      const uint64_t *q, const uint64_t *mu, int64_t L,
                      int64_t n, uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & LO32;
        const uint64_t *al = a + l * n, *bl = b + l * n;
        uint64_t *ol = out + l * n, over = 0;
        for (int64_t k = 0; k < n; ++k) {
            over |= (uint64_t)(al[k] >= ql);
            uint64_t r = barrett_mul(al[k], bl[k], ql, q2, mu_hi, mu_lo);
            ol[k] = r < ql ? r : r - ql;
        }
        if (over) return 2;
    }
    return 0;
}

EXPORT int pw_mont(const uint64_t *a, const uint64_t *b, const uint64_t *q,
                   const uint32_t *qinv, int64_t L, int64_t n, uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l];
        uint32_t qi = qinv[l];
        const uint64_t *al = a + l * n, *bl = b + l * n;
        uint64_t *ol = out + l * n, over = 0;
        for (int64_t k = 0; k < n; ++k) {
            over |= (uint64_t)(al[k] >= ql);
            uint64_t t = mont_red(al[k] * bl[k], ql, qi);
            ol[k] = t < ql ? t : t - ql;
        }
        if (over) return 2;
    }
    return 0;
}

EXPORT int pw_shoup(const uint64_t *a, const uint64_t *w, const uint64_t *wsh,
                    const uint64_t *q, int64_t L, int64_t n, uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l];
        const uint64_t *al = a + l * n, *wl = w + l * n, *sl = wsh + l * n;
        uint64_t *ol = out + l * n, over = 0;
        for (int64_t k = 0; k < n; ++k) {
            over |= (uint64_t)(al[k] >= ql);
            uint64_t r = shoup_lazy(al[k], wl[k], sl[k], ql);
            ol[k] = r < ql ? r : r - ql;
        }
        if (over) return 2;
    }
    return 0;
}

EXPORT int pw_smr(const uint64_t *a, const int64_t *b, const uint64_t *q,
                  const uint32_t *m, int64_t L, int64_t n, uint64_t *out) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l];
        uint32_t ml = m[l];
        const uint64_t *al = a + l * n;
        const int64_t *bl = b + l * n;
        uint64_t *ol = out + l * n, over = 0;
        for (int64_t k = 0; k < n; ++k) {
            over |= (uint64_t)(al[k] >= ql);
            int64_t t = smr_red(wrap_mul((int64_t)al[k], bl[k]), ql, ml);
            ol[k] = (uint64_t)(t < 0 ? t + (int64_t)ql : t);
        }
        if (over) return 2;
    }
    return 0;
}

/* -- key-switch inner product: fused MAC and terminal fold ------------
 * acc += a * b per lane, the LazyAccumulator `reduced` strategy (each
 * product reduced into the reducer's lazy range, the fold deferred) or
 * SMR `raw` (the plain 64-bit product, the reduction deferred).  `a` is
 * the uint64 digit as stored (read as int64 by the signed kernels, the
 * same bits numpy's astype gives), `b` the prepared key.  The caller
 * charges the worst-case bound first; the sums wrap exactly like numpy's
 * in-place adds, so the accumulator contents match bit for bit. */

EXPORT int mac_barrett(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                       const uint64_t *q, const uint64_t *mu, int64_t L,
                       int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], q2 = 2 * ql;
        uint64_t mu_hi = mu[l] >> 32, mu_lo = mu[l] & LO32;
        uint64_t *cl = acc + l * n;
        const uint64_t *al = a + l * n, *bl = b + l * n;
        for (int64_t k = 0; k < n; ++k)
            cl[k] += barrett_mul(al[k], bl[k], ql, q2, mu_hi, mu_lo);
    }
    return 0;
}

EXPORT int mac_mont(uint64_t *acc, const uint64_t *a, const uint64_t *b,
                    const uint64_t *q, const uint32_t *qinv, int64_t L,
                    int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l];
        uint32_t qi = qinv[l];
        uint64_t *cl = acc + l * n;
        const uint64_t *al = a + l * n, *bl = b + l * n;
        for (int64_t k = 0; k < n; ++k) cl[k] += mont_red(al[k] * bl[k], ql, qi);
    }
    return 0;
}

EXPORT int mac_shoup(uint64_t *acc, const uint64_t *a, const uint64_t *w,
                     const uint64_t *wsh, const uint64_t *q, int64_t L,
                     int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l];
        uint64_t *cl = acc + l * n;
        const uint64_t *al = a + l * n, *wl = w + l * n, *sl = wsh + l * n;
        for (int64_t k = 0; k < n; ++k)
            cl[k] += shoup_lazy(al[k], wl[k], sl[k], ql);
    }
    return 0;
}

EXPORT int mac_smr(int64_t *acc, const int64_t *a, const int64_t *b,
                   const uint64_t *q, const uint32_t *m, int64_t L,
                   int64_t n) {
    for (int64_t l = 0; l < L; ++l) {
        int64_t ql = (int64_t)q[l];
        uint32_t ml = m[l];
        uint64_t *cl = (uint64_t *)(acc + l * n);
        const int64_t *al = a + l * n, *bl = b + l * n;
        for (int64_t k = 0; k < n; ++k)
            cl[k] += (uint64_t)smr_red(wrap_mul(al[k], bl[k]), ql, ml);
    }
    return 0;
}

EXPORT int mac_smr_raw(int64_t *acc, const int64_t *a, const int64_t *b,
                       int64_t L, int64_t n) {
    uint64_t *c = (uint64_t *)acc;
    for (int64_t k = 0; k < L * n; ++k) c[k] += (uint64_t)wrap_mul(a[k], b[k]);
    return 0;
}

/* Exact x mod q via mu = floor(2^64 / q): x*mu / 2^64 > x/q - 1, so the
 * quotient estimate is at most one short and r < 2q before the fold. */
static inline uint64_t mod_u64(uint64_t x, uint64_t q, uint64_t mu) {
    uint64_t qh = (uint64_t)(((unsigned __int128)x * mu) >> 64);
    uint64_t r = x - qh * q;
    return r >= q ? r - q : r;
}

/* Floor-mod of a signed lane into [0, q), numpy's `%` for q > 0. */
static inline uint64_t floormod_i64(int64_t x, uint64_t q, uint64_t mu) {
    if (x >= 0) return mod_u64((uint64_t)x, q, mu);
    uint64_t r = mod_u64(0 - (uint64_t)x, q, mu);
    return r ? q - r : 0;
}

/* Terminal fold: out = acc mod q (canonical).  With `keep` the residues
 * are also written back into acc, the state numpy's in-place remainder
 * leaves behind (fold_into); without it acc is untouched (fold). */
EXPORT int fold_u64(uint64_t *acc, const uint64_t *q, const uint64_t *mu,
                    int64_t L, int64_t n, uint64_t *out, int64_t keep) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], mul = mu[l];
        uint64_t *cl = acc + l * n, *ol = out + l * n;
        for (int64_t k = 0; k < n; ++k) {
            uint64_t r = mod_u64(cl[k], ql, mul);
            ol[k] = r;
            if (keep) cl[k] = r;
        }
    }
    return 0;
}

/* Signed fold; `raw` first applies the one deferred Alg. 2 reduction. */
EXPORT int fold_i64(int64_t *acc, const uint64_t *q, const uint64_t *mu,
                    const uint32_t *m, int64_t raw, int64_t L, int64_t n,
                    uint64_t *out, int64_t keep) {
    for (int64_t l = 0; l < L; ++l) {
        uint64_t ql = q[l], mul = mu[l];
        uint32_t ml = m[l];
        int64_t *cl = acc + l * n;
        uint64_t *ol = out + l * n;
        for (int64_t k = 0; k < n; ++k) {
            int64_t x = raw ? smr_red(cl[k], (int64_t)ql, ml) : cl[k];
            uint64_t r = floormod_i64(x, ql, mul);
            ol[k] = r;
            if (keep) cl[k] = (int64_t)r;
        }
    }
    return 0;
}

/* -- CRT tensor pass --------------------------------------------------
 * out[j] = (sum_i x_hat[i] * M[j,i] + v * corr[j]) mod p_j, the
 * (L_out, L_in, N) pass of fast basis conversion collapsed row by row:
 * Shoup lazy products in [0, 2p_j) accumulate in uint64 (L_in <= a few
 * dozen, so sums stay far below 2^64 — the same §4.2 headroom the numpy
 * LazyAccumulator certifies), then one exact Barrett fold per output
 * element via mu_j = floor(2^64 / p_j) with a subtract-until-canonical
 * tail, so the result is the exact residue regardless of the one-off
 * approximation error.  x_hat and v are canonical (computed by the
 * main-process scale step / exact v guard). */

EXPORT int crt_convert(const uint64_t *x_hat, const uint64_t *m,
                       const uint64_t *msh, const uint64_t *v,
                       const uint64_t *corr, const uint64_t *corrsh,
                       const uint64_t *p, const uint64_t *mu, int64_t L_in,
                       int64_t L_out, int64_t n, uint64_t *out) {
    for (int64_t j = 0; j < L_out; ++j) {
        uint64_t pj = p[j];
        uint64_t *oj = out + j * n;
        const uint64_t *mj = m + j * L_in;
        const uint64_t *mshj = msh + j * L_in;
        for (int64_t k = 0; k < n; ++k) oj[k] = 0;
        for (int64_t i = 0; i < L_in; ++i) {
            uint64_t w = mj[i], wsh = mshj[i];
            const uint64_t *xi = x_hat + i * n;
            for (int64_t k = 0; k < n; ++k) {
                uint64_t a = xi[k]; /* < 2^31 */
                uint64_t hi = (a * wsh) >> 32;
                oj[k] += (a * w - hi * pj) & 0xffffffffu; /* + [0, 2p) */
            }
        }
        uint64_t cw = corr[j], cwsh = corrsh[j], muj = mu[j];
        for (int64_t k = 0; k < n; ++k) {
            uint64_t a = v[k];
            uint64_t hi = (a * cwsh) >> 32;
            uint64_t s = oj[k] + ((a * cw - hi * pj) & 0xffffffffu);
            uint64_t qh = (uint64_t)(((unsigned __int128)s * muj) >> 64);
            uint64_t r = s - qh * pj;
            while (r >= pj) r -= pj;
            oj[k] = r;
        }
    }
    return 0;
}

/* The converter's scale step: x_hat_i = x_i * q_i_hat^-1 mod q_i, one
 * scalar Shoup multiply per row.  Same 32-bit wrap + canonical fold the
 * numpy chain performs, so the output bits match exactly. */

EXPORT int crt_scale(const uint64_t *x, const uint64_t *w,
                     const uint64_t *wsh, const uint64_t *q, int64_t L,
                     int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < L; ++i) {
        uint64_t wi = w[i], wshi = wsh[i], qi = q[i];
        const uint64_t *xi = x + i * n;
        uint64_t *oi = out + i * n;
        for (int64_t k = 0; k < n; ++k) {
            uint64_t a = xi[k];
            uint64_t hi = (a * wshi) >> 32;
            uint64_t r = (a * wi - hi * qi) & 0xffffffffu;
            oi[k] = r >= qi ? r - qi : r;
        }
    }
    return 0;
}
