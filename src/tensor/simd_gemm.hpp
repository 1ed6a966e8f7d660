// Internal: the register-tiled GEMM loop shared by the ymm (AVX2+FMA) and
// zmm (AVX-512F) builds of the avx2 variant's gemm_nn. Each including
// translation unit supplies a vector-traits struct and compiles the loop at
// its own ISA; everything here has internal linkage, so the two builds
// never share (or ODR-merge) a compiled body.
//
// C = alpha*A*B + beta*C, A (m x k), B (k x n), row-major dense.
//
// Loop order: column panels outermost. A panel is 2 vectors of columns
// (8 doubles for ymm, 16 for zmm); its k-row slice of B (<= 10 KB at
// k = 80) stays in L1 while every row block of the caller's row range
// streams past it. With row blocks outermost, each block would re-read all
// of B (80 x 160 doubles = 100 KB at the decode shape) from L2.
//
// Per element the arithmetic never changes with tile shape: the start
// value is 0 (beta == 0, C not read), C (beta == 1) or beta*C, then one FMA
// per k term in ascending k with alpha*A[i][p] as the broadcast scalar.
// That strict sequential-k chain is the kernels::Dispatch::gemm_nn
// contract, so both tile widths, every row/column remainder and any row
// range split give the same bits.
//
// Traits V provides: Reg, Mask, kLanes, kRows (register-tile height),
// zero(), set1(double), load(p), load(p, mask), store(p, r),
// store(p, mask, r), fmadd(a, b, c), mul(a, b), tail(r) (mask of the first
// r lanes, 1 <= r < kLanes).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "tensor/row_split.hpp"

namespace ranknet::tensor::detail {
namespace {

struct GemmArgs {
  double alpha;
  const double* a;
  const double* b;
  double beta;
  double* c;
  std::size_t k;
  std::size_t n;
};

/// One MR x (NV * lanes) register tile of C at rows [i, i+MR), columns
/// [j, ...). kMasked: a single vector of columns under `mask` (the
/// remainder narrower than one vector). kUnitAlpha drops the alpha*A
/// multiply, which is exact when alpha == 1.
template <class V, bool kUnitAlpha, int MR, int NV, bool kMasked>
void gemm_tile(const GemmArgs& g, std::size_t i, std::size_t j,
               typename V::Mask mask) {
  static_assert(!kMasked || NV == 1);
  using Reg = typename V::Reg;
  const auto load = [&](const double* p) {
    if constexpr (kMasked) {
      return V::load(p, mask);
    } else {
      return V::load(p);
    }
  };
  const double* arow[MR];
  double* crow[MR];
  for (int r = 0; r < MR; ++r) {
    arow[r] = g.a + (i + r) * g.k;
    crow[r] = g.c + (i + r) * g.n + j;
  }
  Reg acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if (g.beta == 0.0) {
        acc[r][v] = V::zero();
      } else {
        const Reg cv = load(crow[r] + v * V::kLanes);
        acc[r][v] = g.beta == 1.0 ? cv : V::mul(V::set1(g.beta), cv);
      }
    }
  }
  const double* bp = g.b + j;
  for (std::size_t p = 0; p < g.k; ++p, bp += g.n) {
    Reg bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load(bp + v * V::kLanes);
    for (int r = 0; r < MR; ++r) {
      const Reg av =
          V::set1(kUnitAlpha ? arow[r][p] : g.alpha * arow[r][p]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = V::fmadd(av, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      if constexpr (kMasked) {
        V::store(crow[r] + v * V::kLanes, mask, acc[r][v]);
      } else {
        V::store(crow[r] + v * V::kLanes, acc[r][v]);
      }
    }
  }
}

template <class V>
using GemmTileFn = void (*)(const GemmArgs&, std::size_t, std::size_t,
                            typename V::Mask);

/// Tiles of height 1..kRows-1 for the last, partial row block.
template <class V, bool kUnitAlpha, int NV, bool kMasked, std::size_t... R>
constexpr std::array<GemmTileFn<V>, sizeof...(R)> short_tiles(
    std::index_sequence<R...>) {
  return {&gemm_tile<V, kUnitAlpha, static_cast<int>(R) + 1, NV, kMasked>...};
}

/// Rows [i0, i1) of one column panel: full-height tiles, then one shorter
/// tile for the remainder rows.
template <class V, bool kUnitAlpha, int NV, bool kMasked>
void gemm_panel(const GemmArgs& g, std::size_t i0, std::size_t i1,
                std::size_t j, typename V::Mask mask) {
  constexpr int MR = V::kRows;
  static constexpr auto kShort = short_tiles<V, kUnitAlpha, NV, kMasked>(
      std::make_index_sequence<MR - 1>());
  std::size_t i = i0;
  for (; i + MR <= i1; i += MR) {
    gemm_tile<V, kUnitAlpha, MR, NV, kMasked>(g, i, j, mask);
  }
  if (i < i1) kShort[i1 - i - 1](g, i, j, mask);
}

/// Rows [i0, i1) of C, panel by panel: 2-vector panels, then at most one
/// 1-vector panel, then the masked remainder columns.
template <class V, bool kUnitAlpha>
void gemm_rows(const GemmArgs& g, std::size_t i0, std::size_t i1) {
  constexpr std::size_t W = V::kLanes;
  const typename V::Mask none{};
  std::size_t j = 0;
  for (; j + 2 * W <= g.n; j += 2 * W) {
    gemm_panel<V, kUnitAlpha, 2, false>(g, i0, i1, j, none);
  }
  if (j + W <= g.n) {
    gemm_panel<V, kUnitAlpha, 1, false>(g, i0, i1, j, none);
    j += W;
  }
  if (j < g.n) {
    gemm_panel<V, kUnitAlpha, 1, true>(g, i0, i1, j, V::tail(g.n - j));
  }
}

/// The whole GEMM. split_rows hands out whole row blocks, so only the last
/// chunk runs a short tile; each chunk runs its own panel loop.
template <class V>
void gemm_nn_tiled(double alpha, const double* a, const double* b,
                   double beta, double* c, std::size_t m, std::size_t k,
                   std::size_t n) {
  const GemmArgs g{alpha, a, b, beta, c, k, n};
  split_rows(m, V::kRows, std::uint64_t{m} * n * k,
             [&](std::size_t i0, std::size_t i1) {
               if (alpha == 1.0) {
                 gemm_rows<V, true>(g, i0, i1);
               } else {
                 gemm_rows<V, false>(g, i0, i1);
               }
             });
}

}  // namespace
}  // namespace ranknet::tensor::detail
