#include "temporal/batch_ops.h"

#include <cstddef>

#include "core/simd.h"
#include "temporal/moving.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define MODB_BATCH_AVX2 1
#endif

namespace modb {
namespace batch_internal {
namespace {

// The AVX2 kernel stores each Intime<Point> as one 32-byte vector row
// {instant, x, y, defined-as-low-byte}; these asserts pin the layout it
// depends on.
static_assert(sizeof(Intime<Point>) == 32);
static_assert(offsetof(Intime<Point>, instant) == 0);
static_assert(offsetof(Intime<Point>, value) == 8);
static_assert(offsetof(Intime<Point>, defined) == 24);
static_assert(offsetof(Point, x) == 0 && offsetof(Point, y) == 8);
static_assert(sizeof(Instant) == 8);

// Scalar reference core. Evaluation is x0 + x1*t / y0 + y1*t — exactly
// LinearMotion::At, so the fast path reproduces the generic path's
// doubles bit for bit.

void EvalPositionsScalar(const MappingSearchIndex& ix, const Instant* ts,
                         const std::int32_t* idx, std::size_t n,
                         Intime<Point>* out) {
  const double* x0 = ix.motion_x0.data();
  const double* x1 = ix.motion_x1.data();
  const double* y0 = ix.motion_y0.data();
  const double* y1 = ix.motion_y1.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t j = idx[i];
    if (j < 0) {
      out[i] = Intime<Point>::Undefined();
      continue;
    }
    const double t = ts[i];
    out[i] = Intime<Point>(t, Point(x0[j] + x1[j] * t, y0[j] + y1[j] * t));
  }
}

#ifdef MODB_BATCH_AVX2

// AVX2 core: masked i32 gathers over the packed coefficient arrays and
// explicit multiply-then-add (no FMA — the scalar baseline compiles
// without -mfma, and contraction would change the rounding). Undefined
// lanes are zeroed through the gather mask, matching
// Intime<Point>::Undefined() (instant 0, value (0,0), defined false).

__attribute__((target("avx2"))) void EvalPositionsAvx2(
    const MappingSearchIndex& ix, const Instant* ts, const std::int32_t* idx,
    std::size_t n, Intime<Point>* out) {
  const double* x0 = ix.motion_x0.data();
  const double* x1 = ix.motion_x1.data();
  const double* y0 = ix.motion_y0.data();
  const double* y1 = ix.motion_y1.data();
  const __m256d zero = _mm256_setzero_pd();
  const __m128i neg1 = _mm_set1_epi32(-1);
  const __m256i one64 = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i j =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    // Lane mask: all-ones where the instant resolved to a unit. The
    // masked gathers never touch memory on undefined lanes, so j = -1
    // is safe even against empty coefficient arrays.
    const __m128i def32 = _mm_cmpgt_epi32(j, neg1);
    const __m256i def64 = _mm256_cvtepi32_epi64(def32);
    const __m256d mask = _mm256_castsi256_pd(def64);
    const __m256d vx0 = _mm256_mask_i32gather_pd(zero, x0, j, mask, 8);
    const __m256d vx1 = _mm256_mask_i32gather_pd(zero, x1, j, mask, 8);
    const __m256d vy0 = _mm256_mask_i32gather_pd(zero, y0, j, mask, 8);
    const __m256d vy1 = _mm256_mask_i32gather_pd(zero, y1, j, mask, 8);
    const __m256d t = _mm256_and_pd(_mm256_loadu_pd(ts + i), mask);
    const __m256d vx =
        _mm256_and_pd(_mm256_add_pd(vx0, _mm256_mul_pd(vx1, t)), mask);
    const __m256d vy =
        _mm256_and_pd(_mm256_add_pd(vy0, _mm256_mul_pd(vy1, t)), mask);
    // defined byte: 64-bit 0x1 on defined lanes, 0 otherwise — lands on
    // the bool at offset 24 with zeroed padding.
    const __m256d vd =
        _mm256_castsi256_pd(_mm256_and_si256(def64, one64));
    // 4x4 transpose from column vectors (t, x, y, d) to one 32-byte row
    // per output struct.
    const __m256d tmp0 = _mm256_unpacklo_pd(t, vx);   // t0 x0 t2 x2
    const __m256d tmp1 = _mm256_unpackhi_pd(t, vx);   // t1 x1 t3 x3
    const __m256d tmp2 = _mm256_unpacklo_pd(vy, vd);  // y0 d0 y2 d2
    const __m256d tmp3 = _mm256_unpackhi_pd(vy, vd);  // y1 d1 y3 d3
    double* dst = reinterpret_cast<double*>(out + i);
    _mm256_storeu_pd(dst + 0, _mm256_permute2f128_pd(tmp0, tmp2, 0x20));
    _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(tmp1, tmp3, 0x20));
    _mm256_storeu_pd(dst + 8, _mm256_permute2f128_pd(tmp0, tmp2, 0x31));
    _mm256_storeu_pd(dst + 12, _mm256_permute2f128_pd(tmp1, tmp3, 0x31));
  }
  if (i < n) {
    EvalPositionsScalar(ix, ts + i, idx + i, n - i, out + i);
  }
}

#endif  // MODB_BATCH_AVX2

}  // namespace

void EvalMotionPositions(const MappingSearchIndex& ix, const Instant* ts,
                         const std::int32_t* idx, std::size_t n,
                         Intime<Point>* out) {
#ifdef MODB_BATCH_AVX2
  if (simd::UseAvx2()) {
    EvalPositionsAvx2(ix, ts, idx, n, out);
    return;
  }
#endif
  EvalPositionsScalar(ix, ts, idx, n, out);
}

}  // namespace batch_internal

// The kernels are header-only templates; this TU compiles the header
// standalone and pins explicit instantiations for the moving types the
// query layer evaluates in bulk, keeping their code out of every
// including TU.

template Status AtInstantBatchInto<UPoint>(const Mapping<UPoint>&,
                                           const std::vector<Instant>&,
                                           std::vector<Intime<Point>>*,
                                           BatchScratch*);
template Status AtInstantBatchInto<UReal>(const Mapping<UReal>&,
                                          const std::vector<Instant>&,
                                          std::vector<Intime<double>>*,
                                          BatchScratch*);
template Result<std::vector<Intime<Point>>> AtInstantBatch<UPoint>(
    const Mapping<UPoint>&, const std::vector<Instant>&);
template Result<std::vector<Intime<double>>> AtInstantBatch<UReal>(
    const Mapping<UReal>&, const std::vector<Instant>&);
template Status AtInstantBatchXYInto<UPoint>(const Mapping<UPoint>&,
                                             const std::vector<Instant>&,
                                             BatchXYOutput*, BatchScratch*);
template Status AtInstantBatchManyXY<UPoint>(
    const std::vector<const Mapping<UPoint>*>&, const std::vector<Instant>&,
    std::vector<BatchXYOutput>*);
template Status PresentBatchInto<UPoint>(const Mapping<UPoint>&,
                                         const std::vector<Instant>&,
                                         std::vector<std::uint8_t>*);
template Status PresentBatchInto<UReal>(const Mapping<UReal>&,
                                        const std::vector<Instant>&,
                                        std::vector<std::uint8_t>*);
template Result<std::vector<std::uint8_t>> PresentBatch<UPoint>(
    const Mapping<UPoint>&, const std::vector<Instant>&);
template Result<std::vector<std::uint8_t>> PresentBatch<UReal>(
    const Mapping<UReal>&, const std::vector<Instant>&);

}  // namespace modb
