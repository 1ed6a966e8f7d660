// The zmm build of the avx2 variant's register-tiled GEMM (simd_gemm.hpp).
// This translation unit is compiled with -mavx512f -mavx2 -mfma and holds
// nothing else, so no AVX-512 instruction can leak into code that runs on
// AVX2-only CPUs; nothing here runs unless zmm_tile_supported()
// (simd_kernels.cpp) saw AVX-512F on the CPU.
//
// It is the same loop as the ymm build at twice the vector width: its
// elements follow the same sequential-k FMA chain, so its results are
// bit-identical to the ymm tile's and the dispatch variant stays "avx2"
// (tests/test_kernel_equivalence.cpp compares both tiles bit for bit with
// that chain written out in scalar code).
#include "tensor/simd_kernels_detail.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX512F__)

#include <immintrin.h>

#include <cstddef>

#include "tensor/simd_gemm.hpp"

namespace ranknet::tensor::detail {

namespace {

// 12 rows x 2 vectors (16 columns): 24 accumulators + 2 B vectors + 1
// broadcast of the 32 zmm registers. Twice the ymm tile's rows per B load
// and twice its columns per broadcast, so each A and B element read feeds
// twice the FMAs.
struct Zmm {
  using Reg = __m512d;
  using Mask = __mmask8;
  static constexpr std::size_t kLanes = 8;
  static constexpr int kRows = 12;
  static Reg zero() { return _mm512_setzero_pd(); }
  static Reg set1(double x) { return _mm512_set1_pd(x); }
  static Reg load(const double* p) { return _mm512_loadu_pd(p); }
  static Reg load(const double* p, Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void store(double* p, Reg r) { _mm512_storeu_pd(p, r); }
  static void store(double* p, Mask m, Reg r) {
    _mm512_mask_storeu_pd(p, m, r);
  }
  static Reg fmadd(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Mask tail(std::size_t r) {
    return static_cast<Mask>((1u << r) - 1u);
  }
};

}  // namespace

void gemm_nn_zmm(double alpha, const double* a, const double* b, double beta,
                 double* c, std::size_t m, std::size_t k, std::size_t n) {
  gemm_nn_tiled<Zmm>(alpha, a, b, beta, c, m, k, n);
}

bool zmm_tile_built() { return true; }

}  // namespace ranknet::tensor::detail

#else  // built without AVX-512F: the ymm tile stands in and is never chosen.

namespace ranknet::tensor::detail {

void gemm_nn_zmm(double alpha, const double* a, const double* b, double beta,
                 double* c, std::size_t m, std::size_t k, std::size_t n) {
  gemm_nn_ymm(alpha, a, b, beta, c, m, k, n);
}

bool zmm_tile_built() { return false; }

}  // namespace ranknet::tensor::detail

#endif
