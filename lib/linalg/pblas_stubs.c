/* Packed-tile BLAS kernels over contiguous nb x nb tiles.
 *
 * Every kernel here operates on one (or a few) tiles of a tile-major packed
 * matrix: a single Bigarray buffer in which tile (i, j) occupies the
 * contiguous slice [off, off + nb*nb) in row-major order.  Contiguity is the
 * whole point — the inner loops below are unit-stride, so the compiler can
 * keep them in SIMD registers without gather/scatter.
 *
 * Bitwise contract (float64): each kernel performs exactly the same
 * floating-point operations in exactly the same order, per output element,
 * as its OCaml counterpart in Blas/Lapack:
 *
 *   - gemm:  per element, a k-ascending accumulation into a fresh
 *            accumulator followed by ONE update c += alpha * acc
 *            (the order shared by Blas.gemm_unblocked and Kernel.micro);
 *   - syrk:  per element, k-ascending acc, then c = alpha*acc + beta*c;
 *   - trsm:  per element, the l-ascending x -= x[l] * coef of the
 *            corresponding Blas.trsm branch (zero coefficients skipped),
 *            then the divide (skipped on a unit diagonal or coef 1.0);
 *   - potrf: per element, Lapack.potrf's k-ascending chain, then its sqrt
 *            (diagonal) or divide, and the same first failing column;
 *   - getrf_nopiv: a literal transcription of Lapack.getrf_nopiv.
 *
 * Only the ORDER IN WHICH ELEMENTS ARE VISITED differs, never an element's
 * own chain: gemm and syrk run register tiles of independent accumulators,
 * and trsm and potrf run one register-blocked triangular sweep (see "the
 * triangular sweep" below) in which the lanes of a vector are different
 * elements.
 *
 * gemm_nn / gemm_nt / syrk are PARAMETERISED over a small family of
 * micro-tile shapes, selected at runtime through a per-kernel,
 * per-precision config record (set from OCaml via xsc_pk_set_kcfg;
 * searched by the autotuner in lib/autotune/kernel_tune.ml).  A micro-tile
 * of shape MR x NR keeps MR*NR INDEPENDENT accumulator chains live (NR
 * fills one or more 256/512-bit vectors; MR rows reuse each loaded b-line
 * and add instruction-level parallelism that breaks the FP-add latency
 * chain).  Vectorizing ACROSS chains never reassociates any single chain,
 * so ALL variants produce bitwise-identical results — the tuner searches
 * over speed, never over rounding.  The j-remainder of a row always
 * cascades NR -> 8 -> scalar, and the i-remainder falls back to the
 * 1 x NR shape, so odd nb values keep wide-SIMD rates.  The default shape
 * is 8 x 16, register-blocked by hand with GCC vector extensions (no
 * intrinsics; same chains); syrk runs every row-grouped shape as that
 * 8 x 16 tile.  trsm has one body and ignores its config record.
 *
 * Two further tuning knobs:
 *   - pack: gemm_nt and syrk read their second operand along k.  pack=1
 *     transposes it once into per-thread scratch (O(nb^2)) so the inner
 *     loops go unit-stride; pack=0 skips the transpose and runs the
 *     micro-tile directly on rows of the untransposed operand (each
 *     accumulator chain is then a plain dot product of two contiguous
 *     rows — same chain, same bits, no scratch traffic).  syrk's
 *     row-grouped shapes always pack.
 *   - prefetch: optional software prefetch of the next row block.
 *
 * The build passes -ffp-contract=off so no multiply-add is contracted
 * into an FMA (an FMA rounds once where the OCaml code rounds twice), and
 * CI fails if the object file holds a fused multiply-add instruction.
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
 * second operand along k, and the trsm and potrf sweeps run on transposed
 * tiles; transposing once, O(nb^2), turns the O(nb^3) inner loops
 * unit-stride).  Domains are threads, so __thread gives each
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
  int pack;     /* 1 = transpose second operand into scratch (NT/syrk);
                   0 = direct */
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
 * of every other shape.  syrk runs the same accumulation on the packed
 * transpose with its own store: c = alpha*s + beta*c on the lanes with
 * j <= i (a block that crosses the diagonal computes all 16 columns and
 * discards the chains above it, which are independent of the rest). */
#define DEF_TILE_NN_8X16(T, SUF)                                             \
  typedef T v64_##SUF __attribute__((vector_size(64)));                      \
  enum { VL_##SUF = 64 / sizeof(T), NV_##SUF = 16 / VL_##SUF };              \
  static inline __attribute__((always_inline)) void acc_8x16_##SUF(          \
      const T *restrict a, const T *restrict b, long nb, long i0, long j0,   \
      v64_##SUF s[8][NV_##SUF])                                              \
  {                                                                          \
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
  }                                                                          \
  static void tile_nn_8x16_##SUF(const T *restrict a, const T *restrict b,   \
                                 T *restrict c, long nb, long i0, long j0,   \
                                 T alpha)                                    \
  {                                                                          \
    v64_##SUF s[8][NV_##SUF];                                                \
    acc_8x16_##SUF(a, b, nb, i0, j0, s);                                     \
    for (int m = 0; m < 8; m++) {                                            \
      T *ci = c + (i0 + m) * nb + j0;                                        \
      for (int v = 0; v < NV_##SUF; v++) {                                   \
        v64_##SUF cv;                                                        \
        memcpy(&cv, ci + v * VL_##SUF, sizeof cv);                           \
        cv += alpha * s[m][v];                                               \
        memcpy(ci + v * VL_##SUF, &cv, sizeof cv);                           \
      }                                                                      \
    }                                                                        \
  }                                                                          \
  static void tile_syrk_8x16_##SUF(const T *restrict a, const T *restrict at,\
                                   T *restrict c, long nb, long i0, long j0, \
                                   T alpha, T beta)                          \
  {                                                                          \
    v64_##SUF s[8][NV_##SUF];                                                \
    acc_8x16_##SUF(a, at, nb, i0, j0, s);                                    \
    for (int m = 0; m < 8; m++) {                                            \
      T *ci = c + (i0 + m) * nb + j0;                                        \
      long keep = i0 + m - j0 + 1; /* columns j <= i */                      \
      for (int v = 0; v < NV_##SUF && keep > 0; v++, keep -= VL_##SUF) {     \
        v64_##SUF cv;                                                        \
        memcpy(&cv, ci + v * VL_##SUF, sizeof cv);                           \
        cv = alpha * s[m][v] + beta * cv;                                    \
        if (keep >= VL_##SUF) memcpy(ci + v * VL_##SUF, &cv, sizeof cv);     \
        else memcpy(ci + v * VL_##SUF, &cv, (size_t)keep * sizeof(T));       \
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
 * Row-grouped shapes (MR > 1, the 8 x 16 default among them) run the
 * 8 x 16 register tile over the lower block triangle of the packed
 * transpose, so they always pack; rows past the last full 8-row block,
 * and the columns of a block row that do not fill 16, finish on the row
 * bodies below.  A 1 x NR shape runs its row body NR wide, on the packed
 * transpose or (pack=0) on rows of a directly.  A row body accumulates a
 * full NR-wide block whenever it fits in the row (reads stay in-bounds)
 * and stores only the j <= i columns: stored elements see exactly their
 * own k-ascending chain; the discarded accumulators are independent. */

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

static inline int syrk_tiled(const kcfg *cf)
{
  return shapes[cf->shape].mr > 1;
}

static inline int syrk_packs(const kcfg *cf)
{
  return cf->pack || syrk_tiled(cf);
}

/* bsrc is the transposed scratch (packing) or a itself (pack=0). */
#define DEF_SYRK_CORE(T, SUF, FN)                                            \
  static void syrk_row_##SUF(const T *restrict a, const T *restrict bsrc,    \
                             T *restrict c, long nb, long i, long j, int nr, \
                             int pk, T alpha, T beta)                        \
  {                                                                          \
    const T *ai = a + i * nb;                                                \
    T *ci = c + i * nb;                                                      \
    FN fw = pk ? syrk_pk_tab_##SUF[widx(nr)] : syrk_dot_tab_##SUF[widx(nr)]; \
    FN f8 = pk ? syrk_pk_tab_##SUF[0] : syrk_dot_tab_##SUF[0];               \
    for (; j <= i && j + nr <= nb; j += nr)                                  \
      fw(a, bsrc, c, nb, i, j, alpha, beta);                                 \
    if (nr > 8)                                                              \
      for (; j <= i && j + 8 <= nb; j += 8)                                  \
        f8(a, bsrc, c, nb, i, j, alpha, beta);                               \
    for (; j <= i; j++) {                                                    \
      T s = (T)0;                                                            \
      if (pk)                                                                \
        for (long k = 0; k < nb; k++) s += ai[k] * bsrc[k * nb + j];         \
      else                                                                   \
        for (long k = 0; k < nb; k++) s += ai[k] * bsrc[j * nb + k];         \
      ci[j] = alpha * s + beta * ci[j];                                      \
    }                                                                        \
  }                                                                          \
  static void syrk_core_##SUF(const T *restrict a, const T *restrict bsrc,   \
                              T *restrict c, long nb, T alpha, T beta,       \
                              const kcfg *cf)                                \
  {                                                                          \
    const int tiled = syrk_tiled(cf), pk = syrk_packs(cf);                   \
    const int nr = tiled ? 16 : shapes[cf->shape].nr;                        \
    long i = 0;                                                              \
    if (tiled)                                                               \
      for (; i + 8 <= nb; i += 8) {                                          \
        long j = 0;                                                          \
        if (cf->prefetch)                                                    \
          for (int m = 0; m < 8 && i + 8 + m < nb; m++)                      \
            __builtin_prefetch(a + (i + 8 + m) * nb, 0, 3);                  \
        for (; j <= i + 7 && j + 16 <= nb; j += 16)                          \
          tile_syrk_8x16_##SUF(a, bsrc, c, nb, i, j, alpha, beta);           \
        if (j <= i + 7)                                                      \
          for (int m = 0; m < 8; m++)                                        \
            syrk_row_##SUF(a, bsrc, c, nb, i + m, j, 8, 1, alpha, beta);     \
      }                                                                      \
    for (; i < nb; i++) {                                                    \
      if (cf->prefetch && i + 1 < nb)                                        \
        __builtin_prefetch(a + (i + 1) * nb, 0, 3);                          \
      syrk_row_##SUF(a, bsrc, c, nb, i, 0, nr, pk, alpha, beta);             \
    }                                                                        \
  }

DEF_SYRK_CORE(double, d, syrk_d_fn)
DEF_SYRK_CORE(float, s, syrk_s_fn)

/* ---------------- the triangular sweep: trsm and potrf ----------------
 *
 * x holds nb LINES of nb LANES, row-major.  Line j is solved from the
 * lines before it, lane by lane:
 *
 *   x[j][i] <- (x[j][i] - sum_{l < j, ascending} c(j,l) x[l][i]) / c(j,j)
 *
 * with c(j,l) = coef[j*rs + l*cs].  The lanes of a line are independent,
 * so they vectorize; every element keeps its own l-ascending chain.
 *
 *   trsm_rlt: x = b^T (line j = column j of b), c(j,l) = L[j][l]
 *   trsm_ru:  x = b^T, c(j,l) = U[l][j]
 *   trsm_llu: x = b itself (line i = row i), c(i,l) = L[i][l], unit
 *   potrf:    x = a^T (line j = column j of L in its lanes i >= j; the
 *             other lanes are computed and dropped), c(j,l) = x[l][j]: the
 *             line's own finished L[j][l]; the diagonal lane takes the
 *             pivot check and the sqrt
 *
 * The trsms mirror Blas.trsm: a zero coefficient is skipped and so is the
 * divide when c(j,j) == 1 (or the diagonal is unit).  The zero-skip is
 * part of the result, not a shortcut: x - y*0 is +0.0 when x = y*0 = -0.0,
 * and NaN when y is not finite.  The coefficient is the same for every
 * lane, so the skip stays one scalar branch per (line, l); a line block
 * whose coefficients hold no zero (the dense case) runs a copy of the body
 * without it.  potrf mirrors Lapack.potrf: no skip, always divide.
 *
 * Register blocking, as gemm's 8 x 16 tile: a block of 8 lines x 16 lanes
 * is held in 64-byte vector registers; each earlier line l is loaded once
 * and updates all 8 (x -= x[l] * c(j,l), into the loaded value of x, not
 * a fresh zero), then the in-block triangle runs on the registers, then
 * each line is divided and stored.  Lanes that do not fill 16 run an
 * 8-wide tier, then single lanes; lines that do not fill 8 run one at a
 * time.  potrf walks the line blocks in order and, within a block, the
 * lanes holding the block's diagonal first, so every coefficient is final
 * before it is read (from memory: a line is stored as soon as it is
 * done), and the first failing pivot is the same column j as the column
 * loop's. */

#define SQRT_d sqrt
#define SQRT_s sqrtf

typedef float v32_s __attribute__((vector_size(32)));

/* One block: MB lines from j0, W lanes from i0, as NV vectors of VT.
 * Returns -1, or (chol, diagonal lanes) the line whose pivot fails. */
#define DEF_SWEEP_BLOCK(T, SUF, MB, W, VT, NV)                               \
  static inline __attribute__((always_inline)) long                          \
  sweep_##MB##x##W##_##SUF(T *x, const T *coef, long nb, long rs, long cs,   \
                           long i0, long j0, int zskip, int chol, int unit)  \
  {                                                                          \
    enum { VL = W / NV }; /* lanes per vector */                             \
    VT acc[MB][NV];                                                          \
    for (int q = 0; q < MB; q++)                                             \
      for (int v = 0; v < NV; v++)                                           \
        memcpy(&acc[q][v], x + (j0 + q) * nb + i0 + v * VL, sizeof(VT));     \
    for (long l = 0; l < j0; l++) {                                          \
      const T *cl = coef + j0 * rs + l * cs;                                 \
      VT line[NV];                                                           \
      for (int v = 0; v < NV; v++)                                           \
        memcpy(&line[v], x + l * nb + i0 + v * VL, sizeof(VT));              \
      for (int q = 0; q < MB; q++) {                                         \
        T c = cl[q * rs];                                                    \
        if (!zskip || c != (T)0)                                             \
          for (int v = 0; v < NV; v++) acc[q][v] -= line[v] * c;             \
      }                                                                      \
    }                                                                        \
    for (int q = 0; q < MB; q++) {                                           \
      const T *cq = coef + (j0 + q) * rs + j0 * cs;                          \
      for (int p = 0; p < q; p++) {                                          \
        T c = cq[p * cs];                                                    \
        if (!zskip || c != (T)0)                                             \
          for (int v = 0; v < NV; v++) acc[q][v] -= acc[p][v] * c;           \
      }                                                                      \
      if (chol && i0 == j0 && MB <= W) { /* lane q is the diagonal */        \
        T lanes[VL], d, r;                                                   \
        memcpy(lanes, &acc[q][q / VL], sizeof lanes);                        \
        d = lanes[q % VL];                                                   \
        if (d <= (T)0) return j0 + q;                                        \
        r = SQRT_##SUF(d);                                                   \
        for (int v = 0; v < NV; v++) acc[q][v] /= r;                         \
        memcpy(lanes, &acc[q][q / VL], sizeof lanes);                        \
        lanes[q % VL] = r;                                                   \
        memcpy(&acc[q][q / VL], lanes, sizeof lanes);                        \
      }                                                                      \
      else if (!unit) {                                                      \
        T d = cq[q * cs];                                                    \
        if (chol || d != (T)1)                                               \
          for (int v = 0; v < NV; v++) acc[q][v] /= d;                       \
      }                                                                      \
      for (int v = 0; v < NV; v++)                                           \
        memcpy(x + (j0 + q) * nb + i0 + v * VL, &acc[q][v], sizeof(VT));     \
    }                                                                        \
    return -1;                                                               \
  }

DEF_SWEEP_BLOCK(double, d, 8, 16, v64_d, 2)
DEF_SWEEP_BLOCK(double, d, 8, 8, v64_d, 1)
DEF_SWEEP_BLOCK(double, d, 8, 1, double, 1)
DEF_SWEEP_BLOCK(double, d, 1, 16, v64_d, 2)
DEF_SWEEP_BLOCK(double, d, 1, 8, v64_d, 1)
DEF_SWEEP_BLOCK(double, d, 1, 1, double, 1)
DEF_SWEEP_BLOCK(float, s, 8, 16, v64_s, 1)
DEF_SWEEP_BLOCK(float, s, 8, 8, v32_s, 1)
DEF_SWEEP_BLOCK(float, s, 8, 1, float, 1)
DEF_SWEEP_BLOCK(float, s, 1, 16, v64_s, 1)
DEF_SWEEP_BLOCK(float, s, 1, 8, v32_s, 1)
DEF_SWEEP_BLOCK(float, s, 1, 1, float, 1)

#define SWEEP_CALL(SUF, MB, W)                                               \
  (zskip ? sweep_##MB##x##W##_##SUF(x, coef, nb, rs, cs, i0, j0, 1, chol,    \
                                    unit)                                    \
         : sweep_##MB##x##W##_##SUF(x, coef, nb, rs, cs, i0, j0, 0, chol,    \
                                    unit))
#define SWEEP_LANES(SUF, MB)                                                 \
  (w == 16 ? SWEEP_CALL(SUF, MB, 16)                                         \
           : w == 8 ? SWEEP_CALL(SUF, MB, 8) : SWEEP_CALL(SUF, MB, 1))

/* The whole sweep; chol is a constant at both call sites. */
#define DEF_SWEEP(T, SUF)                                                    \
  static int sweep_has_zero_##SUF(const T *coef, long rs, long cs, long j0,  \
                                  long mb)                                   \
  {                                                                          \
    for (long q = 0; q < mb; q++)                                            \
      for (long l = 0; l < j0 + q; l++)                                      \
        if (coef[(j0 + q) * rs + l * cs] == (T)0) return 1;                  \
    return 0;                                                                \
  }                                                                          \
  static inline __attribute__((always_inline)) long                          \
  sweep_##SUF(T *x, const T *coef, long nb, long rs, long cs, int unit,      \
              const int chol)                                                \
  {                                                                          \
    for (long j0 = 0, mb; j0 < nb; j0 += mb) {                               \
      int zskip;                                                             \
      mb = j0 + 8 <= nb ? 8 : 1;                                             \
      zskip = !chol && sweep_has_zero_##SUF(coef, rs, cs, j0, mb);           \
      for (long i0 = chol ? j0 : 0, w; i0 < nb; i0 += w) {                   \
        long st;                                                             \
        w = nb - i0 >= 16 ? 16 : nb - i0 >= 8 ? 8 : 1;                       \
        st = mb == 8 ? SWEEP_LANES(SUF, 8) : SWEEP_LANES(SUF, 1);            \
        if (st >= 0) return st;                                              \
      }                                                                      \
    }                                                                        \
    return -1;                                                               \
  }                                                                          \
  static void trsm_sweep_##SUF(T *x, const T *coef, long nb, long rs,        \
                               long cs, int unit)                            \
  {                                                                          \
    sweep_##SUF(x, coef, nb, rs, cs, unit, 0);                               \
  }                                                                          \
  static long chol_sweep_##SUF(T *x, long nb)                                \
  {                                                                          \
    return sweep_##SUF(x, x, nb, 1, nb, 0, 1);                               \
  }

DEF_SWEEP(double, d)
DEF_SWEEP(float, s)

/* dst = src^T, or with upper only the elements src[i][j], i <= j (into
 * dst's lower triangle).  Whole 8 x 8 blocks are transposed in registers
 * (three rounds of two-input shuffles on 8-lane vectors); the rest, and
 * the diagonal blocks of an upper-only copy, element by element.  Pure
 * data movement: exact. */
#define SHUF(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#define DEF_TRANSPOSE(T, SUF, VT)                                            \
  static void transpose_##SUF(const T *restrict src, T *restrict dst,        \
                              long nb, int upper)                            \
  {                                                                          \
    const long n8 = nb & ~7L;                                                \
    for (long i0 = 0; i0 < n8; i0 += 8)                                      \
      for (long j0 = upper ? i0 + 8 : 0; j0 < n8; j0 += 8) {                 \
        VT r[8], t[8];                                                       \
        for (int k = 0; k < 8; k++)                                          \
          memcpy(&r[k], src + (i0 + k) * nb + j0, sizeof r[k]);              \
        for (int k = 0; k < 8; k += 2) {                                     \
          t[k] = SHUF(r[k], r[k + 1], 0, 8, 2, 10, 4, 12, 6, 14);            \
          t[k + 1] = SHUF(r[k], r[k + 1], 1, 9, 3, 11, 5, 13, 7, 15);        \
        }                                                                    \
        for (int k = 0; k < 8; k += 4)                                       \
          for (int h = k; h < k + 2; h++) {                                  \
            r[h] = SHUF(t[h], t[h + 2], 0, 1, 8, 9, 4, 5, 12, 13);           \
            r[h + 2] = SHUF(t[h], t[h + 2], 2, 3, 10, 11, 6, 7, 14, 15);     \
          }                                                                  \
        for (int k = 0; k < 4; k++) {                                        \
          t[k] = SHUF(r[k], r[k + 4], 0, 1, 2, 3, 8, 9, 10, 11);             \
          t[k + 4] = SHUF(r[k], r[k + 4], 4, 5, 6, 7, 12, 13, 14, 15);       \
        }                                                                    \
        for (int k = 0; k < 8; k++)                                          \
          memcpy(dst + (j0 + k) * nb + i0, &t[k], sizeof t[k]);              \
      }                                                                      \
    for (long i = 0; i < nb; i++) {                                          \
      long j = upper ? i : 0;                                                \
      if (i < n8) {                                                          \
        if (upper) /* the rest of the diagonal block */                      \
          for (; j <= (i | 7); j++) dst[j * nb + i] = src[i * nb + j];       \
        j = n8;                                                              \
      }                                                                      \
      for (; j < nb; j++) dst[j * nb + i] = src[i * nb + j];                 \
    }                                                                        \
  }

DEF_TRANSPOSE(double, d, v64_d)
DEF_TRANSPOSE(float, s, v32_s)

/* ---------------- shared kernel bodies (both precisions) ----------------
 *
 * Each returns 0 (potrf: -1) on success and -2 when the per-thread scratch
 * cannot be allocated, in which case nothing was written.  potrf returns
 * the failing column on a non-positive pivot and leaves the tile as it
 * was: the factor is built in scratch and written back only when it
 * completes. */

#define DEF_FACTOR_KERNELS(T, SUF)                                           \
  static long syrk_ln_##SUF(const T *a, T *c, long nb, T alpha, T beta,      \
                            const kcfg *cf)                                  \
  {                                                                          \
    const T *bsrc = a;                                                       \
    if (syrk_packs(cf)) {                                                    \
      T *at = scratch_##SUF(nb * nb);                                        \
      if (at == NULL) return -2;                                             \
      transpose_##SUF(a, at, nb, 0);                                         \
      bsrc = at;                                                             \
    }                                                                        \
    syrk_core_##SUF(a, bsrc, c, nb, alpha, beta, cf);                        \
    return 0;                                                                \
  }                                                                          \
  /* A right-side trsm, b <- b * op(a)^-1: the sweep on b^T with          \
   * c(j,l) = a[j*rs + l*cs]. */                                            \
  static long trsm_right_##SUF(const T *a, T *b, long nb, long rs, long cs)  \
  {                                                                          \
    T *bt = scratch_##SUF(nb * nb);                                          \
    if (bt == NULL) return -2;                                               \
    transpose_##SUF(b, bt, nb, 0);                                           \
    trsm_sweep_##SUF(bt, a, nb, rs, cs, 0);                                  \
    transpose_##SUF(bt, b, nb, 0);                                           \
    return 0;                                                                \
  }                                                                          \
  /* In-place lower Cholesky of one tile (Lapack.potrf): the sweep on the  \
   * transposed tile, whose lower triangle alone is written back. */        \
  static long potrf_##SUF(T *a, long nb)                                     \
  {                                                                          \
    T *t = scratch_##SUF(nb * nb);                                           \
    long st;                                                                 \
    if (t == NULL) return -2;                                                \
    transpose_##SUF(a, t, nb, 0);                                            \
    st = chol_sweep_##SUF(t, nb);                                            \
    if (st >= 0) return st;                                                  \
    transpose_##SUF(t, a, nb, 1);                                            \
    return -1;                                                               \
  }

DEF_FACTOR_KERNELS(double, d)
DEF_FACTOR_KERNELS(float, s)

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
 * each element accumulates a[i][k] * b[j][k] in k-ascending order.
 * Returns 0, or -2 when the scratch cannot be allocated. */
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
    if (bt == NULL) return Val_long(-2);
    for (long j = 0; j < nb; j++) {
      const double *bj = b + j * nb;
      for (long k = 0; k < nb; k++) bt[k * nb + j] = bj[k];
    }
    gemm_core_d(a, bt, c, nb, Double_val(valpha), cf, 0);
  }
  else
    gemm_core_d(a, b, c, nb, Double_val(valpha), cf, 1);
  return Val_long(0);
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
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *c = (double *)Caml_ba_data_val(vc) + Long_val(voc);
  return Val_long(syrk_ln_d(a, c, Long_val(vnb), Double_val(valpha),
                            Double_val(vbeta), &cfg_d[K_SYRK]));
}

CAMLprim value xsc_pk_syrk_ln_d_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_syrk_ln_d(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

/* b <- b * a^-T with a lower triangular, alpha = 1 (Cholesky trsm,
 * Right/Lower/Trans): c(j,l) = L[j][l]. */
CAMLprim value xsc_pk_trsm_rlt_d(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  return Val_long(trsm_right_d(a, b, nb, nb, 1));
}

/* b <- a^-1 b with a unit lower triangular (LU panel trsm, Left/Lower/Unit):
 * the sweep on b's rows in place. */
CAMLprim value xsc_pk_trsm_llu_d(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  trsm_sweep_d(b, a, nb, nb, 1, 1);
  return Val_unit;
}

/* b <- b * a^-1 with a upper triangular (LU panel trsm, Right/Upper):
 * c(j,l) = U[l][j], trsm_rlt's strides swapped. */
CAMLprim value xsc_pk_trsm_ru_d(value va, value voa, value vb, value vob,
                                value vnb)
{
  long nb = Long_val(vnb);
  const double *a = (const double *)Caml_ba_data_val(va) + Long_val(voa);
  double *b = (double *)Caml_ba_data_val(vb) + Long_val(vob);
  return Val_long(trsm_right_d(a, b, nb, 1, nb));
}

/* In-place lower Cholesky of one tile (Lapack.potrf).  Returns -1 on
 * success, the failing column on a non-positive pivot (tile unchanged),
 * -2 when the scratch cannot be allocated. */
CAMLprim value xsc_pk_potrf_d(value va, value voa, value vnb)
{
  return Val_long(potrf_d((double *)Caml_ba_data_val(va) + Long_val(voa),
                          Long_val(vnb)));
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
  return Val_long(0);
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
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  float *c = (float *)Caml_ba_data_val(vc) + Long_val(voc);
  return Val_long(syrk_ln_s(a, c, Long_val(vnb), (float)Double_val(valpha),
                            (float)Double_val(vbeta), &cfg_s[K_SYRK]));
}

CAMLprim value xsc_pk_syrk_ln_s_byte(value *argv, int argn)
{
  (void)argn;
  return xsc_pk_syrk_ln_s(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6]);
}

CAMLprim value xsc_pk_trsm_rlt_s(value va, value voa, value vb, value vob,
                                 value vnb)
{
  long nb = Long_val(vnb);
  const float *a = (const float *)Caml_ba_data_val(va) + Long_val(voa);
  float *b = (float *)Caml_ba_data_val(vb) + Long_val(vob);
  return Val_long(trsm_right_s(a, b, nb, nb, 1));
}

CAMLprim value xsc_pk_potrf_s(value va, value voa, value vnb)
{
  return Val_long(potrf_s((float *)Caml_ba_data_val(va) + Long_val(voa),
                          Long_val(vnb)));
}
