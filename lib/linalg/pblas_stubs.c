/* Packed-tile BLAS kernels over contiguous nb x nb tiles.
 *
 * Every kernel here operates on one (or a few) tiles of a tile-major packed
 * matrix: a single Bigarray buffer in which tile (i, j) occupies the
 * contiguous slice [off, off + nb*nb) in row-major order.  Contiguity is the
 * whole point — the inner loops below are unit-stride, so the compiler can
 * keep them in SIMD registers without gather/scatter.
 *
 * Bitwise contract (float64): each kernel performs exactly the same
 * floating-point operations in exactly the same order as its OCaml
 * counterpart in Blas/Lapack:
 *
 *   - gemm:  per element, a k-ascending accumulation into a fresh
 *            accumulator followed by ONE update c += alpha * acc
 *            (the order shared by Blas.gemm_unblocked and Kernel.micro);
 *   - syrk:  per element, k-ascending acc, then c = alpha*acc + beta*c;
 *   - trsm:  sequential axpy-style substitution in the same l-order as
 *            the corresponding Blas.trsm branch;
 *   - potrf / getrf_nopiv: literal transcriptions of Lapack.potrf and
 *            Lapack.getrf_nopiv.
 *
 * The compute kernels (gemm_nn / gemm_nt / syrk / trsm_rlt) are
 * PARAMETERISED over a small family of micro-tile shapes, selected at
 * runtime through a per-kernel, per-precision config record (set from
 * OCaml via xsc_pk_set_kcfg; searched by the autotuner in
 * lib/autotune/kernel_tune.ml).  A micro-tile of shape MR x NR keeps
 * MR*NR INDEPENDENT accumulator chains live (NR fills one or more
 * 256/512-bit vectors; MR rows reuse each loaded b-line and add
 * instruction-level parallelism that breaks the FP-add latency chain).
 * Vectorizing ACROSS chains never reassociates any single chain: every
 * output element accumulates k-ascending into its own scalar regardless
 * of the shape, so ALL variants produce bitwise-identical results — the
 * tuner searches over speed, never over rounding.  The j-remainder of a
 * row always cascades NR -> 8 -> scalar, and the i-remainder falls back
 * to the 1 x NR shape, so odd nb values keep wide-SIMD rates.  The
 * default shape is 8 x 16, whose NN bodies are register-blocked by hand
 * with GCC vector extensions (no intrinsics; same chains); syrk runs it
 * 32 wide and trsm ignores it.
 *
 * Two further tuning knobs:
 *   - pack: gemm_nt and syrk read their second operand along k.  pack=1
 *     transposes it once into per-thread scratch (O(nb^2)) so the inner
 *     loops go unit-stride; pack=0 skips the transpose and runs the
 *     micro-tile directly on rows of the untransposed operand (each
 *     accumulator chain is then a plain dot product of two contiguous
 *     rows — same chain, same bits, no scratch traffic).  For trsm_rlt,
 *     pack=0 is a row-sequential in-place substitution with no
 *     transpose round trip.
 *   - prefetch: optional software prefetch of the next row block.
 *
 * The build passes -ffp-contract=off so no multiply-add is contracted
 * into an FMA (an FMA rounds once where the OCaml code rounds twice).
 * No -ffast-math.
 *
 * The float32 kernels compute in genuine C `float` arithmetic — this is the
 * real reduced-precision path (half the bytes moved per element, twice the
 * SIMD lanes), not double arithmetic rounded on store.
 *
 * One data-movement stub rides along: xsc_pk_pack_tiles_d packs a
 * row-major OCaml float array into the tile-major buffer (one memcpy per
 * source row run, identity pad), optionally only the lower tiles.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>

/* Per-thread scratch for transposed operands (gemm_nt / syrk read their
 * second operand along k; transposing it once, O(nb^2), turns the O(nb^3)
 * inner loops unit-stride).  Domains are threads, so __thread gives each
 * worker its own buffer with no locking; the buffer only grows and is
 * reused across calls, so steady-state cost is zero allocation. */
static __thread double *tbuf_d = NULL;
static __thread long tbuf_d_len = 0;
static __thread float *tbuf_s = NULL;
static __thread long tbuf_s_len = 0;

static double *scratch_d(long n)
{
  if (tbuf_d_len < n) {
    free(tbuf_d);
    tbuf_d = (double *)malloc((size_t)n * sizeof(double));
    tbuf_d_len = tbuf_d ? n : 0;
  }
  return tbuf_d;
}

static float *scratch_s(long n)
{
  if (tbuf_s_len < n) {
    free(tbuf_s);
    tbuf_s = (float *)malloc((size_t)n * sizeof(float));
    tbuf_s_len = tbuf_s ? n : 0;
  }
  return tbuf_s;
}

/* ---------------- kernel configuration ---------------- */

/* Micro-tile shape family.  The first three entries MUST stay the
 * 1 x {8,16,32} shapes in that order: the i-remainder and row-tail paths
 * index them by width (see widx below).  Shape ids are persisted in tuning
 * caches, so new shapes are only ever appended.  8 x 16 is listed apart
 * because its NN bodies are register-blocked by hand (see
 * DEF_TILE_NN_8X16); every other body is macro-generated. */
#define GENERIC_SHAPES(X) \
  X(1, 8) X(1, 16) X(1, 32) X(2, 16) X(2, 32) X(4, 8) X(4, 16) X(6, 16) X(8, 8)
#define SHAPE_LIST(X) GENERIC_SHAPES(X) X(8, 16)

#define SHAPE_ENTRY(MR, NR) { MR, NR },
static const struct { int mr, nr; } shapes[] = { SHAPE_LIST(SHAPE_ENTRY) };
#define NSHAPES ((int)(sizeof(shapes) / sizeof(shapes[0])))

/* shape id of 8x16, the default (Pblas.default_cfg mirrors it). */
#define DEFAULT_SHAPE 9

typedef struct {
  int shape;    /* index into shapes[] */
  int pack;     /* 1 = transpose second operand into scratch (NT/syrk),
                   transposed column sweep (trsm); 0 = direct */
  int prefetch; /* 1 = software-prefetch the next row block */
} kcfg;

enum { K_NN = 0, K_NT = 1, K_SYRK = 2, K_TRSM = 3, K_NKERNELS = 4 };

#define DEFAULT_KCFG { DEFAULT_SHAPE, 1, 0 }
static kcfg cfg_d[K_NKERNELS] = { DEFAULT_KCFG, DEFAULT_KCFG, DEFAULT_KCFG,
                                  DEFAULT_KCFG };
static kcfg cfg_s[K_NKERNELS] = { DEFAULT_KCFG, DEFAULT_KCFG, DEFAULT_KCFG,
                                  DEFAULT_KCFG };

/* width index for the 1 x {8,16,32} shapes and the syrk width tables */
static inline int widx(int nr) { return nr == 8 ? 0 : nr == 16 ? 1 : 2; }

CAMLprim value xsc_pk_shape_count(value unit)
{
  (void)unit;
  return Val_long(NSHAPES);
}

/* mr * 1000 + nr for shape id, so OCaml can mirror the table. */
CAMLprim value xsc_pk_shape_dims(value vi)
{
  long i = Long_val(vi);
  if (i < 0 || i >= NSHAPES) return Val_long(-1);
  return Val_long((long)shapes[i].mr * 1000 + shapes[i].nr);
}

/* Set the config for (precision, kernel): 0 on success, -1 on a bad id.
 * Configs are plain ints read by the kernels without synchronisation;
 * they are set at startup (cache load) or by the single-threaded tuner. */
CAMLprim value xsc_pk_set_kcfg(value vprec, value vkernel, value vshape,
                               value vpack, value vprefetch)
{
  long prec = Long_val(vprec), k = Long_val(vkernel), s = Long_val(vshape);
  if (prec < 0 || prec > 1 || k < 0 || k >= K_NKERNELS || s < 0 || s >= NSHAPES)
    return Val_long(-1);
  {
    kcfg *t = (prec == 0) ? cfg_d : cfg_s;
    t[k].shape = (int)s;
    t[k].pack = Bool_val(vpack) ? 1 : 0;
    t[k].prefetch = Bool_val(vprefetch) ? 1 : 0;
  }
  return Val_long(0);
}

/* ---------------- micro-tile bodies (macro-generated) ----------------
 *
 * tile_nn_MRxNR:  c[i0..i0+MR)[j0..j0+NR) += alpha * a * b with b packed
 *                 row-major along j (gemm_nn, or gemm_nt/syrk after the
 *                 pack transpose).
 * tile_dot_MRxNR: same update but the second operand is read as ROWS
 *                 (b[j][k], contiguous in k) — the no-pack strategy for
 *                 gemm_nt.  Each accumulator is a dot product of two
 *                 contiguous rows; chains stay k-ascending.
 */

#define DEF_TILE_NN(T, SUF, MR, NR)                                          \
  static void tile_nn_##MR##x##NR##_##SUF(                                   \
      const T *restrict a, const T *restrict b, T *restrict c, long nb,      \
      long i0, long j0, T alpha)                                             \
  {                                                                          \
    T s[MR][NR];                                                             \
    const T *bj = b + j0;                                                    \
    for (int m = 0; m < MR; m++)                                             \
      for (int q = 0; q < NR; q++) s[m][q] = (T)0;                           \
    for (long k = 0; k < nb; k++) {                                          \
      const T *bk = bj + k * nb;                                             \
      for (int m = 0; m < MR; m++) {                                         \
        T av = a[(i0 + m) * nb + k];                                         \
        for (int q = 0; q < NR; q++) s[m][q] += av * bk[q];                  \
      }                                                                      \
    }                                                                        \
    for (int m = 0; m < MR; m++) {                                           \
      T *ci = c + (i0 + m) * nb + j0;                                        \
      for (int q = 0; q < NR; q++) ci[q] += alpha * s[m][q];                 \
    }                                                                        \
  }

#define DEF_TILE_DOT(T, SUF, MR, NR)                                         \
  static void tile_dot_##MR##x##NR##_##SUF(                                  \
      const T *restrict a, const T *restrict b, T *restrict c, long nb,      \
      long i0, long j0, T alpha)                                             \
  {                                                                          \
    T s[MR][NR];                                                             \
    for (int m = 0; m < MR; m++)                                             \
      for (int q = 0; q < NR; q++) s[m][q] = (T)0;                           \
    for (long k = 0; k < nb; k++) {                                          \
      for (int m = 0; m < MR; m++) {                                         \
        T av = a[(i0 + m) * nb + k];                                         \
        for (int q = 0; q < NR; q++) s[m][q] += av * b[(j0 + q) * nb + k];   \
      }                                                                      \
    }                                                                        \
    for (int m = 0; m < MR; m++) {                                           \
      T *ci = c + (i0 + m) * nb + j0;                                        \
      for (int q = 0; q < NR; q++) ci[q] += alpha * s[m][q];                 \
    }                                                                        \
  }

#define DEF_TILES(MR, NR)         \
  DEF_TILE_NN(double, d, MR, NR)  \
  DEF_TILE_DOT(double, d, MR, NR) \
  DEF_TILE_NN(float, s, MR, NR)   \
  DEF_TILE_DOT(float, s, MR, NR)

GENERIC_SHAPES(DEF_TILES)
DEF_TILE_DOT(double, d, 8, 16)
DEF_TILE_DOT(float, s, 8, 16)

/* The register-blocked NN micro-tile: 8 rows x 16 columns of accumulators
 * held in GCC vector-extension registers of 64 bytes (one 512-bit
 * register each where the target has them; the compiler splits them on
 * narrower targets): sixteen of 8 doubles, or eight of 16 floats.  Each
 * loaded b-line is reused by 8 rows, each broadcast a-element by the
 * whole line.  No intrinsics: the lanes are the same independent
 * per-element chains as the generic body (fresh zero, k-ascending
 * s += a*b, then one c += alpha*s, all in T), and -ffp-contract=off keeps
 * every multiply and add separately rounded, so the result is bitwise that
 * of every other shape. */
#define DEF_TILE_NN_8X16(T, SUF)                                             \
  typedef T v64_##SUF __attribute__((vector_size(64)));                      \
  enum { VL_##SUF = 64 / sizeof(T), NV_##SUF = 16 / VL_##SUF };              \
  static void tile_nn_8x16_##SUF(const T *restrict a, const T *restrict b,   \
                                 T *restrict c, long nb, long i0, long j0,   \
                                 T alpha)                                    \
  {                                                                          \
    v64_##SUF s[8][NV_##SUF];                                                \
    const T *bj = b + j0;                                                    \
    const T *ai = a + i0 * nb;                                               \
    for (int m = 0; m < 8; m++)                                              \
      for (int v = 0; v < NV_##SUF; v++) s[m][v] = (v64_##SUF){ 0 };         \
    for (long k = 0; k < nb; k++) {                                          \
      v64_##SUF bv[NV_##SUF];                                                \
      for (int v = 0; v < NV_##SUF; v++)                                     \
        memcpy(&bv[v], bj + k * nb + v * VL_##SUF, sizeof bv[v]);            \
      for (int m = 0; m < 8; m++) {                                          \
        T av = ai[m * nb + k];                                               \
        for (int v = 0; v < NV_##SUF; v++) s[m][v] += av * bv[v];            \
      }                                                                      \
    }                                                                        \
    for (int m = 0; m < 8; m++) {                                            \
      T *ci = c + (i0 + m) * nb + j0;                                        \
      for (int v = 0; v < NV_##SUF; v++) {                                   \
        v64_##SUF cv;                                                        \
        memcpy(&cv, ci + v * VL_##SUF, sizeof cv);                           \
        cv += alpha * s[m][v];                                               \
        memcpy(ci + v * VL_##SUF, &cv, sizeof cv);                           \
      }                                                                      \
    }                                                                        \
  }

DEF_TILE_NN_8X16(double, d)
DEF_TILE_NN_8X16(float, s)

typedef void (*tile_d_fn)(const double *restrict, const double *restrict,
                          double *restrict, long, long, long, double);
typedef void (*tile_s_fn)(const float *restrict, const float *restrict,
                          float *restrict, long, long, long, float);

#define NN_D_ENTRY(MR, NR) tile_nn_##MR##x##NR##_d,
#define DOT_D_ENTRY(MR, NR) tile_dot_##MR##x##NR##_d,
#define NN_S_ENTRY(MR, NR) tile_nn_##MR##x##NR##_s,
#define DOT_S_ENTRY(MR, NR) tile_dot_##MR##x##NR##_s,
static const tile_d_fn nn_tab_d[] = { SHAPE_LIST(NN_D_ENTRY) };
static const tile_d_fn dot_tab_d[] = { SHAPE_LIST(DOT_D_ENTRY) };
static const tile_s_fn nn_tab_s[] = { SHAPE_LIST(NN_S_ENTRY) };
static const tile_s_fn dot_tab_s[] = { SHAPE_LIST(DOT_S_ENTRY) };

/* Row tails: finish one row from column j with an 8-wide tier then scalar
 * (the cascade the historical kernel used), for both operand layouts. */
#define DEF_ROW_TAILS(T, SUF)                                                \
  static void row_tail_nn_##SUF(const T *restrict a, const T *restrict b,    \
                                T *restrict c, long nb, long i, long j,      \
                                T alpha)                                     \
  {                                                                          \
    const T *ai = a + i * nb;                                                \
    T *ci = c + i * nb;                                                      \
    for (; j + 8 <= nb; j += 8) {                                            \
      T s[8];                                                                \
      const T *bj = b + j;                                                   \
      for (int q = 0; q < 8; q++) s[q] = (T)0;                               \
      for (long k = 0; k < nb; k++) {                                        \
        T av = ai[k];                                                        \
        const T *bk = bj + k * nb;                                           \
        for (int q = 0; q < 8; q++) s[q] += av * bk[q];                      \
      }                                                                      \
      for (int q = 0; q < 8; q++) ci[j + q] += alpha * s[q];                 \
    }                                                                        \
    for (; j < nb; j++) {                                                    \
      T s = (T)0;                                                            \
      for (long k = 0; k < nb; k++) s += ai[k] * b[k * nb + j];              \
      ci[j] += alpha * s;                                                    \
    }                                                                        \
  }                                                                          \
  static void row_tail_dot_##SUF(const T *restrict a, const T *restrict b,   \
                                 T *restrict c, long nb, long i, long j,     \
                                 T alpha)                                    \
  {                                                                          \
    const T *ai = a + i * nb;                                                \
    T *ci = c + i * nb;                                                      \
    for (; j + 8 <= nb; j += 8) {                                            \
      T s[8];                                                                \
      for (int q = 0; q < 8; q++) s[q] = (T)0;                               \
      for (long k = 0; k < nb; k++) {                                        \
        T av = ai[k];                                                        \
        for (int q = 0; q < 8; q++) s[q] += av * b[(j + q) * nb + k];        \
      }                                                                      \
      for (int q = 0; q < 8; q++) ci[j + q] += alpha * s[q];                 \
    }                                                                        \
    for (; j < nb; j++) {                                                    \
      T s = (T)0;                                                            \
      for (long k = 0; k < nb; k++) s += ai[k] * b[j * nb + k];              \
      ci[j] += alpha * s;                                                    \
    }                                                                        \
  }

DEF_ROW_TAILS(double, d)
DEF_ROW_TAILS(float, s)

/* ---------------- gemm cores ---------------- */

#define DEF_GEMM_CORE(T, SUF, TILE_FN)                                       \
  static void gemm_core_##SUF(const T *restrict a, const T *restrict b,      \
                              T *restrict c, long nb, T alpha,               \
                              const kcfg *cf, int dot)                       \
  {                                                                          \
    const int mr = shapes[cf->shape].mr, nr = shapes[cf->shape].nr;          \
    TILE_FN fn = dot ? dot_tab_##SUF[cf->shape] : nn_tab_##SUF[cf->shape];   \
    TILE_FN fn1 = dot ? dot_tab_##SUF[widx(nr)] : nn_tab_##SUF[widx(nr)];    \
    long i = 0;                                                              \
    for (; i + mr <= nb; i += mr) {                                          \
      long j = 0;                                                            \
      if (cf->prefetch)                                                      \
        for (int m = 0; m < mr && i + mr + m < nb; m++)                      \
          __builtin_prefetch(a + (i + mr + m) * nb, 0, 3);                   \
      for (; j + nr <= nb; j += nr) fn(a, b, c, nb, i, j, alpha);            \
      if (j < nb)                                                            \
        for (int m = 0; m < mr; m++) {                                       \
          if (dot) row_tail_dot_##SUF(a, b, c, nb, i + m, j, alpha);         \
          else row_tail_nn_##SUF(a, b, c, nb, i + m, j, alpha);              \
        }                                                                    \
    }                                                                        \
    for (; i < nb; i++) {                                                    \
      long j = 0;                                                            \
      for (; j + nr <= nb; j += nr) fn1(a, b, c, nb, i, j, alpha);           \
      if (j < nb) {                                                          \
        if (dot) row_tail_dot_##SUF(a, b, c, nb, i, j, alpha);               \
        else row_tail_nn_##SUF(a, b, c, nb, i, j, alpha);                    \
      }                                                                      \
    }                                                                        \
  }

DEF_GEMM_CORE(double, d, tile_d_fn)
DEF_GEMM_CORE(float, s, tile_s_fn)

/* ---------------- syrk bodies and core ----------------
 *
 * Lower triangle of c: c = alpha * a a^T + beta * c (Blas.syrk NoTrans).
 * The triangular store boundary does not shrink the compute tier: a full
 * NR-wide block is accumulated whenever it fits in the row (reads stay
 * in-bounds), and only the j <= i columns are stored.  Stored elements
 * see exactly their own k-ascending chain; the discarded accumulators
 * are independent, so this wastes a few flops but keeps the wide-SIMD
 * rate on every row.  Row-group (MR > 1) tiling does not compose with
 * the per-row triangular bound, so syrk spends the configured shape's
 * accumulator budget along one row: min(32, MR*NR) chains.  The 1 x NR
 * shapes keep their width; the row-grouped ones (the 8 x 16 default
 * among them) run 32 wide. */

#define DEF_SYRK(T, SUF, NR)                                                 \
  static void syrk_pk_##NR##_##SUF(const T *restrict a, const T *restrict at,\
      T *restrict c, long nb, long i, long j0, T alpha, T beta)              \
  {                                                                          \
    const T *ai = a + i * nb;                                                \
    const T *atj = at + j0;                                                  \
    T *ci = c + i * nb;                                                      \
    T s[NR];                                                                 \
    long m;                                                                  \
    for (int q = 0; q < NR; q++) s[q] = (T)0;                                \
    for (long k = 0; k < nb; k++) {                                          \
      T av = ai[k];                                                          \
      const T *atk = atj + k * nb;                                           \
      for (int q = 0; q < NR; q++) s[q] += av * atk[q];                      \
    }                                                                        \
    m = i - j0 + 1;                                                          \
    if (m > NR) m = NR;                                                      \
    for (long q = 0; q < m; q++)                                             \
      ci[j0 + q] = alpha * s[q] + beta * ci[j0 + q];                         \
  }                                                                          \
  static void syrk_dot_##NR##_##SUF(const T *restrict a, const T *restrict b,\
      T *restrict c, long nb, long i, long j0, T alpha, T beta)              \
  {                                                                          \
    const T *ai = a + i * nb;                                                \
    T *ci = c + i * nb;                                                      \
    T s[NR];                                                                 \
    long m;                                                                  \
    for (int q = 0; q < NR; q++) s[q] = (T)0;                                \
    for (long k = 0; k < nb; k++) {                                          \
      T av = ai[k];                                                          \
      for (int q = 0; q < NR; q++) s[q] += av * b[(j0 + q) * nb + k];        \
    }                                                                        \
    m = i - j0 + 1;                                                          \
    if (m > NR) m = NR;                                                      \
    for (long q = 0; q < m; q++)                                             \
      ci[j0 + q] = alpha * s[q] + beta * ci[j0 + q];                         \
  }

DEF_SYRK(double, d, 8)
DEF_SYRK(double, d, 16)
DEF_SYRK(double, d, 32)
DEF_SYRK(float, s, 8)
DEF_SYRK(float, s, 16)
DEF_SYRK(float, s, 32)

typedef void (*syrk_d_fn)(const double *restrict, const double *restrict,
                          double *restrict, long, long, long, double, double);
typedef void (*syrk_s_fn)(const float *restrict, const float *restrict,
                          float *restrict, long, long, long, float, float);

static const syrk_d_fn syrk_pk_tab_d[] = { syrk_pk_8_d, syrk_pk_16_d,
                                           syrk_pk_32_d };
static const syrk_d_fn syrk_dot_tab_d[] = { syrk_dot_8_d, syrk_dot_16_d,
                                            syrk_dot_32_d };
static const syrk_s_fn syrk_pk_tab_s[] = { syrk_pk_8_s, syrk_pk_16_s,
                                           syrk_pk_32_s };
static const syrk_s_fn syrk_dot_tab_s[] = { syrk_dot_8_s, syrk_dot_16_s,
                                            syrk_dot_32_s };

static inline int syrk_width(int shape)
{
  int w = shapes[shape].mr * shapes[shape].nr;
  return w < 32 ? w : 32;
}

/* bsrc is the transposed scratch (pack=1) or a itself (pack=0). */
#define DEF_SYRK_CORE(T, SUF, FN)                                            \
  static void syrk_core_##SUF(const T *restrict a, const T *restrict bsrc,   \
                              T *restrict c, long nb, T alpha, T beta,       \
                              const kcfg *cf)                                \
  {                                                                          \
    const int nr = syrk_width(cf->shape);                                    \
    const int pk = cf->pack;                                                 \
    FN fw = pk ? syrk_pk_tab_##SUF[widx(nr)] : syrk_dot_tab_##SUF[widx(nr)]; \
    FN f8 = pk ? syrk_pk_tab_##SUF[0] : syrk_dot_tab_##SUF[0];               \
    for (long i = 0; i < nb; i++) {                                          \
      const T *ai = a + i * nb;                                              \
      T *ci = c + i * nb;                                                    \
      long j = 0;                                                            \
      if (cf->prefetch && i + 1 < nb)                                        \
        __builtin_prefetch(a + (i + 1) * nb, 0, 3);                          \
      for (; j <= i && j + nr <= nb; j += nr)                                \
        fw(a, bsrc, c, nb, i, j, alpha, beta);                               \
      if (nr > 8)                                                            \
        for (; j <= i && j + 8 <= nb; j += 8)                                \
          f8(a, bsrc, c, nb, i, j, alpha, beta);                             \
      for (; j <= i; j++) {                                                  \
        T s = (T)0;                                                          \
        if (pk)                                                              \
          for (long k = 0; k < nb; k++) s += ai[k] * bsrc[k * nb + j];       \
        else                                                                 \
          for (long k = 0; k < nb; k++) s += ai[k] * bsrc[j * nb + k];       \
        ci[j] = alpha * s + beta * ci[j];                                    \
      }                                                                      \
    }                                                                        \
  }

DEF_SYRK_CORE(double, d, syrk_d_fn)
DEF_SYRK_CORE(float, s, syrk_s_fn)

/* ---------------- float64 kernels ---------------- */

CAMLprim value xsc_pk_gemm_nn_d(value va, value voa, value vb, value vob,
                                value vc, value voc, value vnb, value valpha)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  const double *b = (const double *)Caml_ba_data_val(vb) + Long_val(vob);
  double *c = (double *)Caml_ba_data_val(vc) + Long_val(voc);
  gemm_core_d(a, b, c, nb, Double_val(valpha), &cfg_d[K_NN], 0);
  return Val_unit;
}

CAMLprim value xsc_pk_gemm_nn_d_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_gemm_nn_d(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7]);
}

/* c += alpha * a * b^T.  pack=1: transpose b once, then run the unit-stride
 * packed core; pack=0: run the dot core on rows of b directly.  Either way
 * each element accumulates a[i][k] * b[j][k] in k-ascending order. */
CAMLprim value xsc_pk_gemm_nt_d(value va, value voa, value vb, value vob,
                                value vc, value voc, value vnb, value valpha)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  const double *b = (const double *)Caml_ba_data_val(vb) + Long_val(vob);
  double *c = (double *)Caml_ba_data_val(vc) + Long_val(voc);
  const kcfg *cf = &cfg_d[K_NT];
  if (cf->pack) {
    double *bt = scratch_d(nb * nb);
    if (bt == NULL) return Val_long(-2); /* allocation failure: no-op */
    for (long j = 0; j < nb; j++) {
      const double *bj = b + j * nb;
      for (long k = 0; k < nb; k++) bt[k * nb + j] = bj[k];
    }
    gemm_core_d(a, bt, c, nb, Double_val(valpha), cf, 0);
  }
  else
    gemm_core_d(a, b, c, nb, Double_val(valpha), cf, 1);
  return Val_unit;
}

CAMLprim value xsc_pk_gemm_nt_d_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_gemm_nt_d(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7]);
}

/* Lower triangle of c: c = alpha * a a^T + beta * c (Blas.syrk NoTrans). */
CAMLprim value xsc_pk_syrk_ln_d(value va, value voa, value vc, value voc,
                                value vnb, value valpha, value vbeta)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *c = (double *)Caml_ba_data_val(vc) + Long_val(voc);
  const kcfg *cf = &cfg_d[K_SYRK];
  const double *bsrc = a;
  if (cf->pack) {
    double *at = scratch_d(nb * nb);
    if (at == NULL) return Val_long(-2);
    for (long j = 0; j < nb; j++) {
      const double *aj = a + j * nb;
      for (long k = 0; k < nb; k++) at[k * nb + j] = aj[k];
    }
    bsrc = at;
  }
  syrk_core_d(a, bsrc, c, nb, Double_val(valpha), Double_val(vbeta), cf);
  return Val_unit;
}

CAMLprim value xsc_pk_syrk_ln_d_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_syrk_ln_d(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

/* b <- b * a^-T with a lower triangular, alpha = 1 (Cholesky trsm).
 * Mirrors the Right/effective-Upper branch of Blas.trsm.
 *
 * pack=1: the substitution chain of one element runs over its row's
 * earlier columns, but the rows themselves are independent — so b is
 * transposed into scratch, the column sweep becomes a unit-stride axpy
 * across rows (vectorizable without touching any element's own chain),
 * and the result is transposed back.
 *
 * pack=0: row-sequential in place — element b[i][j] runs its own
 * l-ascending subtraction chain then divides, with no transpose round
 * trip (less traffic, no cross-row SIMD).
 *
 * Element b[i][j] sees the same sequential l-ascending subtractions and
 * final divide, on the same operand values, either way: bitwise identical. */
static void trsm_rlt_direct_d(const double *restrict a, double *restrict b,
                              long nb)
{
  for (long i = 0; i < nb; i++) {
    double *bi = b + i * nb;
    for (long j = 0; j < nb; j++) {
      const double *aj = a + j * nb;
      double x = bi[j];
      double d;
      for (long l = 0; l < j; l++) {
        double alj = aj[l];
        if (alj != 0.0) x -= bi[l] * alj;
      }
      d = aj[j];
      if (d != 1.0) x /= d;
      bi[j] = x;
    }
  }
}

CAMLprim value xsc_pk_trsm_rlt_d(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  double *bt;
  if (!cfg_d[K_TRSM].pack) {
    trsm_rlt_direct_d(a, b, nb);
    return Val_unit;
  }
  bt = scratch_d(nb * nb);
  if (bt == NULL) return Val_long(-2);
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) bt[j * nb + i] = b[i * nb + j];
  for (long j = 0; j < nb; j++) {
    const double *aj = a + j * nb;
    double *btj = bt + j * nb;
    for (long l = 0; l < j; l++) {
      double alj = aj[l];
      if (alj != 0.0) {
        const double *btl = bt + l * nb;
        for (long i = 0; i < nb; i++) btj[i] -= btl[i] * alj;
      }
    }
    double d = aj[j];
    if (d != 1.0)
      for (long i = 0; i < nb; i++) btj[i] /= d;
  }
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) b[i * nb + j] = bt[j * nb + i];
  return Val_unit;
}

/* b <- a^-1 b with a unit lower triangular (LU panel trsm, Left/Lower/Unit). */
CAMLprim value xsc_pk_trsm_llu_d(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  for (long i = 0; i < nb; i++) {
    const double *ai = a + i * nb;
    double *bi = b + i * nb;
    for (long l = 0; l < i; l++) {
      double ail = ai[l];
      if (ail != 0.0) {
        const double *bl = b + l * nb;
        for (long j = 0; j < nb; j++) bi[j] -= ail * bl[j];
      }
    }
  }
  return Val_unit;
}

/* b <- b * a^-1 with a upper triangular (LU panel trsm, Right/Upper).
 * Same transposed column-sweep as trsm_rlt above, same bitwise argument. */
CAMLprim value xsc_pk_trsm_ru_d(value va, value voa, value vb, value vob,
                                value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  double *bt = scratch_d(nb * nb);
  if (bt == NULL) return Val_long(-2);
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) bt[j * nb + i] = b[i * nb + j];
  for (long j = 0; j < nb; j++) {
    double *btj = bt + j * nb;
    for (long l = 0; l < j; l++) {
      double alj = a[l * nb + j];
      if (alj != 0.0) {
        const double *btl = bt + l * nb;
        for (long i = 0; i < nb; i++) btj[i] -= btl[i] * alj;
      }
    }
    double d = a[j * nb + j];
    if (d != 1.0)
      for (long i = 0; i < nb; i++) btj[i] /= d;
  }
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) b[i * nb + j] = bt[j * nb + i];
  return Val_unit;
}

/* In-place lower Cholesky of one tile; literal Lapack.potrf.
 * Returns -1 on success, the failing column index on a non-positive pivot. */
CAMLprim value xsc_pk_potrf_d(value va, value voa, value vnb)
{
  long nb = Long_val(vnb);
  double *a = (double *)Caml_ba_data_val(va) + Long_val(voa);
  for (long j = 0; j < nb; j++) {
    double *aj = a + j * nb;
    double d = aj[j];
    for (long k = 0; k < j; k++) {
      double l = aj[k];
      d -= l * l;
    }
    if (d <= 0.0) return Val_long(j);
    double ljj = sqrt(d);
    aj[j] = ljj;
    for (long i = j + 1; i < nb; i++) {
      double *ai = a + i * nb;
      double acc = ai[j];
      for (long k = 0; k < j; k++) acc -= ai[k] * aj[k];
      ai[j] = acc / ljj;
    }
  }
  return Val_long(-1);
}

/* In-place LU without pivoting; literal Lapack.getrf_nopiv.
 * Returns -1 on success, the failing column on a zero pivot. */
CAMLprim value xsc_pk_getrf_nopiv_d(value va, value voa, value vnb)
{
  long nb = Long_val(vnb);
  double *a = (double *)Caml_ba_data_val(va) + Long_val(voa);
  for (long k = 0; k < nb; k++) {
    const double *ak = a + k * nb;
    double akk = ak[k];
    if (akk == 0.0) return Val_long(k);
    for (long i = k + 1; i < nb; i++) {
      double *ai = a + i * nb;
      double lik = ai[k] / akk;
      ai[k] = lik;
      if (lik != 0.0)
        for (long j = k + 1; j < nb; j++) ai[j] -= lik * ak[j];
    }
  }
  return Val_long(-1);
}

/* Pack a row-major m x m float array into the tile-major n x n buffer,
 * padding with the identity (Packed.D.pack_padded): each source row run is
 * one memcpy and the rest of the row is zero-filled (memset 0 is +0.0, the
 * OCaml 0.0); a pad row is zero except its diagonal element.  With lower,
 * only tiles (bi, bj <= bi) are written.  The source is an OCaml float
 * array, a flat block of doubles; the stub allocates nothing, so nothing
 * moves under it. */
CAMLprim value xsc_pk_pack_tiles_d(value vsrc, value vm, value vbuf, value vn,
                                   value vnb, value vlower)
{
  long m = Long_val(vm), n = Long_val(vn), nb = Long_val(vnb);
  long nt = n / nb;
  int lower = Bool_val(vlower);
  const double *src = (const double *)vsrc;
  double *buf = (double *)Caml_ba_data_val(vbuf);
  for (long bi = 0; bi < nt; bi++)
    for (long bj = 0; bj <= (lower ? bi : nt - 1); bj++) {
      double *tile = buf + (bi * nt + bj) * nb * nb;
      long c0 = bj * nb;
      long w = m - c0;
      if (w < 0) w = 0;
      if (w > nb) w = nb;
      for (long r = 0; r < nb; r++) {
        long gi = bi * nb + r;
        double *row = tile + r * nb;
        if (gi < m) {
          memcpy(row, src + gi * m + c0, (size_t)w * sizeof(double));
          memset(row + w, 0, (size_t)(nb - w) * sizeof(double));
        }
        else {
          memset(row, 0, (size_t)nb * sizeof(double));
          if (bi == bj) row[r] = 1.0;
        }
      }
    }
  return Val_unit;
}

CAMLprim value xsc_pk_pack_tiles_d_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_pack_tiles_d(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5]);
}

/* ---------------- float32 kernels ---------------- */

/* Genuine single-precision arithmetic: every operation rounds to float.
 * Same micro-tile family as the double kernels — at equal tile width that
 * is twice the lanes per vector at half the memory traffic, which is
 * exactly the "rule 4" advantage the mixed-precision path measures. */

CAMLprim value xsc_pk_gemm_nt_s(value va, value voa, value vb, value vob,
                                value vc, value voc, value vnb, value valpha)
{
  long nb = Long_val(vnb);
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  const float *b = (const float *)Caml_ba_data_val(vb) + Long_val(vob);
  float *c = (float *)Caml_ba_data_val(vc) + Long_val(voc);
  const kcfg *cf = &cfg_s[K_NT];
  if (cf->pack) {
    float *bt = scratch_s(nb * nb);
    if (bt == NULL) return Val_long(-2);
    for (long j = 0; j < nb; j++) {
      const float *bj = b + j * nb;
      for (long k = 0; k < nb; k++) bt[k * nb + j] = bj[k];
    }
    gemm_core_s(a, bt, c, nb, (float)Double_val(valpha), cf, 0);
  }
  else
    gemm_core_s(a, b, c, nb, (float)Double_val(valpha), cf, 1);
  return Val_unit;
}

CAMLprim value xsc_pk_gemm_nt_s_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_gemm_nt_s(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7]);
}

CAMLprim value xsc_pk_gemm_nn_s(value va, value voa, value vb, value vob,
                                value vc, value voc, value vnb, value valpha)
{
  long nb = Long_val(vnb);
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  const float *b = (const float *)Caml_ba_data_val(vb) + Long_val(vob);
  float *c = (float *)Caml_ba_data_val(vc) + Long_val(voc);
  gemm_core_s(a, b, c, nb, (float)Double_val(valpha), &cfg_s[K_NN], 0);
  return Val_unit;
}

CAMLprim value xsc_pk_gemm_nn_s_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_gemm_nn_s(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7]);
}

CAMLprim value xsc_pk_syrk_ln_s(value va, value voa, value vc, value voc,
                                value vnb, value valpha, value vbeta)
{
  long nb = Long_val(vnb);
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  float *c = (float *)Caml_ba_data_val(vc) + Long_val(voc);
  const kcfg *cf = &cfg_s[K_SYRK];
  const float *bsrc = a;
  if (cf->pack) {
    float *at = scratch_s(nb * nb);
    if (at == NULL) return Val_long(-2);
    for (long j = 0; j < nb; j++) {
      const float *aj = a + j * nb;
      for (long k = 0; k < nb; k++) at[k * nb + j] = aj[k];
    }
    bsrc = at;
  }
  syrk_core_s(a, bsrc, c, nb, (float)Double_val(valpha),
              (float)Double_val(vbeta), cf);
  return Val_unit;
}

CAMLprim value xsc_pk_syrk_ln_s_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_syrk_ln_s(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

static void trsm_rlt_direct_s(const float *restrict a, float *restrict b,
                              long nb)
{
  for (long i = 0; i < nb; i++) {
    float *bi = b + i * nb;
    for (long j = 0; j < nb; j++) {
      const float *aj = a + j * nb;
      float x = bi[j];
      float d;
      for (long l = 0; l < j; l++) {
        float alj = aj[l];
        if (alj != 0.0f) x -= bi[l] * alj;
      }
      d = aj[j];
      if (d != 1.0f) x /= d;
      bi[j] = x;
    }
  }
}

CAMLprim value xsc_pk_trsm_rlt_s(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  float *b = (float *)Caml_ba_data_val(vb) + Long_val(vob);
  float *bt;
  if (!cfg_s[K_TRSM].pack) {
    trsm_rlt_direct_s(a, b, nb);
    return Val_unit;
  }
  bt = scratch_s(nb * nb);
  if (bt == NULL) return Val_long(-2);
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) bt[j * nb + i] = b[i * nb + j];
  for (long j = 0; j < nb; j++) {
    const float *aj = a + j * nb;
    float *btj = bt + j * nb;
    for (long l = 0; l < j; l++) {
      float alj = aj[l];
      if (alj != 0.0f) {
        const float *btl = bt + l * nb;
        for (long i = 0; i < nb; i++) btj[i] -= btl[i] * alj;
      }
    }
    float d = aj[j];
    if (d != 1.0f)
      for (long i = 0; i < nb; i++) btj[i] /= d;
  }
  for (long i = 0; i < nb; i++)
    for (long j = 0; j < nb; j++) b[i * nb + j] = bt[j * nb + i];
  return Val_unit;
}

CAMLprim value xsc_pk_potrf_s(value va, value voa, value vnb)
{
  long nb = Long_val(vnb);
  float *a = (float *)Caml_ba_data_val(va) + Long_val(voa);
  for (long j = 0; j < nb; j++) {
    float *aj = a + j * nb;
    float d = aj[j];
    for (long k = 0; k < j; k++) {
      float l = aj[k];
      d -= l * l;
    }
    if (d <= 0.0f) return Val_long(j);
    float ljj = sqrtf(d);
    aj[j] = ljj;
    for (long i = j + 1; i < nb; i++) {
      float *ai = a + i * nb;
      float acc = ai[j];
      for (long k = 0; k < j; k++) acc -= ai[k] * aj[k];
      ai[j] = acc / ljj;
    }
  }
  return Val_long(-1);
}
