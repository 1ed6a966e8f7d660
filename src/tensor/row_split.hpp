// The kernels' one way to use more than one core: split the rows of an
// output matrix into contiguous static chunks and run them on a lazily
// built, process-wide util::ThreadPool of hardware_threads() - 1 workers,
// with the caller running chunk 0 itself.
//
// Splitting is opt-in per thread. Only a thread holding a TrainingScope
// splits, and only calls of at least 2 * kMinChunkWork multiply-adds;
// every other call runs inline. Batch training opens the scope
// (core::run_training, core::measure_ranknet_workload). Inference shards,
// engine and serve workers and the online fitter never do: they already
// own a core each. The scope is thread-local, so work a scope holder hands
// to another thread (a util::ThreadPool task, say) runs inline there.
//
// A split never changes output bytes: each row of C is computed by exactly
// one thread with the same per-element arithmetic as the unsplit call.
//
// This header stays free of standard-library templates on purpose: the
// avx2/avx512 translation units include it, and an inline function they
// instantiate could be ODR-merged into code that runs on CPUs without
// their ISA.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ranknet::tensor {

/// While alive, kernels called on the constructing thread may split their
/// rows over the kernel pool. One thread holds the pool at a time: a scope
/// opened while another thread's scope is alive splits nothing. Nests;
/// must be destroyed on the thread that made it.
class TrainingScope {
 public:
  TrainingScope();
  ~TrainingScope();
  TrainingScope(const TrainingScope&) = delete;
  TrainingScope& operator=(const TrainingScope&) = delete;

 private:
  bool owner_;
};

/// Smallest share of a call's work, in multiply-adds, worth handing to
/// another thread (a few microseconds): below it the hand-off costs more
/// than it saves.
inline constexpr std::uint64_t kMinChunkWork = std::uint64_t{1} << 13;

/// Chunks a call over rows [0, m) in blocks of `grain` rows, doing `work`
/// multiply-adds, splits into on this thread: 1 outside a TrainingScope,
/// otherwise at most one per pool thread (workers plus caller), per block
/// and per kMinChunkWork.
std::size_t row_chunks(std::size_t m, std::size_t grain, std::uint64_t work);

using RowRangeFn = void (*)(const void* ctx, std::size_t i0, std::size_t i1);

/// Runs fn(ctx, i0, i1) over `chunks` contiguous, grain-aligned ranges
/// covering [0, m): chunk 0 on the caller, each other chunk on whichever
/// of the caller and the pool's workers claims it first. Returns when every
/// chunk is done. Only valid where row_chunks() returned `chunks` > 1; fn
/// must not throw.
void run_row_chunks(std::size_t m, std::size_t grain, std::size_t chunks,
                    RowRangeFn fn, const void* ctx);

/// fn(i0, i1) over rows [0, m), split as row_chunks() says.
template <class Fn>
void split_rows(std::size_t m, std::size_t grain, std::uint64_t work,
                const Fn& fn) {
  const std::size_t chunks = row_chunks(m, grain, work);
  if (chunks <= 1) {
    fn(std::size_t{0}, m);
    return;
  }
  run_row_chunks(
      m, grain, chunks,
      [](const void* ctx, std::size_t i0, std::size_t i1) {
        (*static_cast<const Fn*>(ctx))(i0, i1);
      },
      &fn);
}

}  // namespace ranknet::tensor
