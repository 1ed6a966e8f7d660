// Internal: the raw-pointer kernel implementations behind the dispatch
// tables. kernels.cpp defines the scalar reference loops (shared with the
// pre-dispatch code so the scalar variant stays byte-frozen),
// simd_kernels_avx2.cpp defines the AVX2+FMA variants, and
// simd_kernels.cpp assembles them into kernels::Dispatch tables. Not part
// of the public tensor API.
#pragma once

#include <cstddef>

#include "tensor/simd_kernels.hpp"

namespace ranknet::tensor::detail {

// Scalar reference loops (kernels.cpp). These are the exact inner loops the
// repo shipped before runtime dispatch existed; golden files are pinned to
// them.
void gemm_nn_scalar(double alpha, const double* a, const double* b,
                    double beta, double* c, std::size_t m, std::size_t k,
                    std::size_t n);
void sigmoid_scalar(double* x, std::size_t n);
void tanh_scalar(double* x, std::size_t n);
void hadamard_scalar(const double* x, const double* y, double* o,
                     std::size_t n);
void hadamard_add_scalar(const double* x, const double* y, double* o,
                         std::size_t n);
void add_bias_rows_scalar(double* m, const double* bias, std::size_t rows,
                          std::size_t cols);

// The avx2 variant's register-tiled GEMM (simd_gemm.hpp) at its two tile
// widths: 6 x 8 in ymm registers (simd_kernels_avx2.cpp) and 12 x 16 in
// zmm registers (simd_kernels_avx512.cpp, compiled with -mavx512f). Both
// keep the sequential-k chain per element, so they agree bit for bit;
// avx2_table() installs the zmm tile when zmm_tile_supported(). Exposed
// for the tile-equivalence test. Neither takes the n == 1 GEMV path.
void gemm_nn_ymm(double alpha, const double* a, const double* b, double beta,
                 double* c, std::size_t m, std::size_t k, std::size_t n);
void gemm_nn_zmm(double alpha, const double* a, const double* b, double beta,
                 double* c, std::size_t m, std::size_t k, std::size_t n);
/// True when gemm_nn_zmm was compiled with AVX-512F
/// (simd_kernels_avx512.cpp).
bool zmm_tile_built();
/// True when the CPU has AVX-512F and gemm_nn_zmm was built with it
/// (simd_kernels.cpp, next to the variant detection).
bool zmm_tile_supported();

// Variant tables. scalar_table() lives in simd_kernels.cpp; avx2_table()
// lives in simd_kernels_avx2.cpp (compiled with -mavx2 -mfma; on non-x86
// targets it aliases the scalar table and cpu_supports(kAvx2) is false).
const kernels::Dispatch& scalar_table();
const kernels::Dispatch& avx2_table();

}  // namespace ranknet::tensor::detail
