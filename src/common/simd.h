// Internal 4-wide vector helpers shared by the library's SIMD kernels
// (GemmTransposedB in common/matrix.cc, Dataset's top-1 scan in
// data/dataset.cc, the simplex tableau's row kernels in lp/simplex.cc).
// Include only from .cc files: the helpers pass 32-byte vectors by value and
// are meant to be inlined into a target-cloned kernel.
//
// The lanes are spelled out with GNU vector extensions (gcc and clang),
// lowered to SSE2 pairs on the baseline clone and to 256-bit ops on the
// AVX2 clone. All arithmetic stays separate IEEE multiplies and adds —
// identical rounding to the scalar loops. (A 64-byte/AVX-512 variant of the
// GEMM tile was measured ~10% slower than the AVX2 clone on an Ice Lake
// Xeon — 512-bit port pressure without FMA buys nothing here — so the lanes
// deliberately stay 4-wide.)
#ifndef ISRL_COMMON_SIMD_H_
#define ISRL_COMMON_SIMD_H_

#include <cstdint>

#include "common/thread_annotations.h"  // ISRL_THREAD_SANITIZER

#if !defined(__GNUC__)
#error "common/simd.h needs GNU vector extensions (gcc or clang)"
#endif

// gcc warns that returning/passing a 32-byte vector changes the ABI when AVX
// is off; the helpers below are internal and forced inline, so no ABI
// boundary is ever crossed. Plain `inline` is not enough: an unoptimised
// build (Debug, or the -O0 sanitizer lanes) emits them as out-of-line
// default-target functions, and an AVX2 clone then passes its 32-byte
// vectors across a mismatched ABI and SEGVs in LoadV4. Vector arguments go
// by const reference, which -Wpsabi never flags; the by-value returns of
// LoadV4/SplatV4 still need the pragma, even at -O2.
#if !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace isrl::simd {

typedef double V4 __attribute__((vector_size(32), aligned(8)));  // NOLINT
/// Lane masks and lane indices: a V4 comparison yields one of these.
typedef int64_t I4 __attribute__((vector_size(32), aligned(8)));  // NOLINT

[[gnu::always_inline]] inline V4 LoadV4(const double* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
[[gnu::always_inline]] inline void StoreV4(double* p, const V4& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}
[[gnu::always_inline]] inline V4 SplatV4(double v) {
  return V4{v, v, v, v};
}

}  // namespace isrl::simd

// Runtime-dispatched SIMD: on x86-64/glibc a kernel marked
// ISRL_SIMD_TARGET_CLONES is cloned for AVX2 and the loader picks the widest
// supported clone via ifunc, so the build stays portable while modern hosts
// run the lanes 4-wide. The clone list deliberately excludes FMA (and
// tools/lint.py rejects it, as does -ffp-contract=off on the library): every
// clone rounds each multiply and add separately, exactly like the baseline,
// so results are bit-identical across hosts and across code shapes.
//
// ThreadSanitizer builds must NOT emit the ifunc: the resolver runs while
// the dynamic loader processes IRELATIVE relocations, BEFORE the TSan
// runtime has mapped its shadow memory, and the instrumented resolver then
// segfaults pre-main — every binary linking a cloned kernel dies before
// main() even under --gtest_list_tests (DESIGN.md §16). The clones are
// bit-identical to the baseline by construction, so a TSan build losing
// AVX2 dispatch changes timing only, never results.
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute) && \
    !defined(ISRL_THREAD_SANITIZER)
#if __has_attribute(target_clones)
#define ISRL_SIMD_TARGET_CLONES \
  __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef ISRL_SIMD_TARGET_CLONES
#define ISRL_SIMD_TARGET_CLONES
#endif

#endif  // ISRL_COMMON_SIMD_H_
