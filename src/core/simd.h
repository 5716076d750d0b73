// Runtime SIMD dispatch for the one vectorized hot-path kernel, the flat
// R-tree's hit mask (index/rtree3d.h). Its scalar core is the semantic
// reference; the AVX2 specialization must produce byte-identical results
// and is selected at runtime so one binary runs correctly on any x86-64
// and the two paths can be differentially tested against each other.
//
// Selection order:
//   1. SetSimdMode() (tests/benches force a path programmatically),
//   2. the MODB_SIMD environment variable ("scalar" | "avx2" | "auto"),
//   3. auto-detection via cpuid.
// Forcing "avx2" on a CPU without AVX2 falls back to scalar rather than
// faulting.

#ifndef MODB_CORE_SIMD_H_
#define MODB_CORE_SIMD_H_

namespace modb {
namespace simd {

enum class Mode {
  kAuto,    // use AVX2 when the CPU supports it
  kScalar,  // force the scalar reference kernels
  kAvx2,    // force AVX2 (ignored when the CPU lacks it)
};

/// Overrides the dispatch mode process-wide (kAuto restores env/cpuid
/// selection). Intended for tests and benchmarks; not thread-safe
/// against concurrent kernel launches, so flip it only between runs.
void SetSimdMode(Mode mode);

/// The mode currently forced via SetSimdMode (kAuto when none).
Mode GetSimdMode();

/// True when the dispatched kernels will take the AVX2 path right now:
/// the CPU supports AVX2 and neither SetSimdMode(kScalar) nor
/// MODB_SIMD=scalar is in effect.
bool UseAvx2();

/// True when this build and CPU can run the AVX2 kernels at all.
bool CpuHasAvx2();

}  // namespace simd
}  // namespace modb

#endif  // MODB_CORE_SIMD_H_
