#include "tensor/row_split.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace ranknet::tensor {

namespace {

/// How long an idle team member polls for the next split before it sleeps.
/// Training issues its GEMMs microseconds apart, so members stay awake
/// through a train step; a futex wake-up per split would cost more than
/// most of its chunks.
constexpr std::chrono::microseconds kSpinBudget{50};

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// The kernel pool's workers, lent as a team to one TrainingScope at a
/// time. While a scope holds the team, every worker runs a member task that
/// polls for split jobs and claims their chunks, so a split costs a few
/// atomic operations rather than a pool round trip per chunk.
///
/// Member i claims chunk i first, so a row range tends to stay on one core
/// from call to call, then any chunk still unclaimed; so does the caller
/// after chunk 0, which never waits on a member that has not woken up.
/// A job is published as generation << 16 | chunk count, and a chunk is
/// claimed by raising its last claiming generation to the job's. A member
/// that sees a job late claims nothing once the job is done (its chunks all
/// carry its generation), and it reads the job's fields only after a claim
/// succeeds; the owner rewrites them only once every chunk is done.
class Team {
 public:
  ~Team() { stop_members(); }

  static Team& instance() {
    static Team team;
    return team;
  }

  std::size_t threads() const { return pool_.size() + 1; }

  /// Lends the workers to the calling thread; false if another thread's
  /// scope holds them.
  bool acquire() {
    if (owned_.exchange(true, std::memory_order_acquire)) return false;
    stop_.store(false, std::memory_order_relaxed);
    const std::uint64_t job = job_.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < threads(); ++i) {
      members_.push_back(
          pool_.submit([this, i, job] { member_loop(i, job); }));
    }
    return true;
  }

  void release() {
    stop_members();
    owned_.store(false, std::memory_order_release);
  }

  /// Owner only: runs fn over `chunks` (<= threads()) chunks of [0, m) and
  /// returns when all are done. Chunk bounds are static (the
  /// ceil(m / grain) blocks split evenly, the remainder rows in the last
  /// chunk); which thread runs a chunk is not, so output bytes cannot
  /// depend on it.
  void run(std::size_t m, std::size_t grain, std::size_t chunks,
           RowRangeFn fn, const void* ctx) {
    fn_ = fn;
    ctx_ = ctx;
    m_ = m;
    grain_ = grain;
    blocks_ = (m + grain - 1) / grain;
    chunks_ = chunks;
    done_.store(0, std::memory_order_relaxed);
    const std::uint64_t gen = (job_.load(std::memory_order_relaxed) >> 16) + 1;
    claimed_[0].store(gen, std::memory_order_relaxed);
    job_.store(gen << 16 | chunks, std::memory_order_release);
    job_.notify_all();
    run_chunk(0);
    claim_chunks(gen, chunks, 0);
    for (int spins = 0;
         done_.load(std::memory_order_acquire) != chunks; ++spins) {
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  Team()
      : claimed_(std::make_unique<std::atomic<std::uint64_t>[]>(threads())) {
  }

  bool claim(std::size_t t, std::uint64_t gen) {
    std::uint64_t last = claimed_[t].load(std::memory_order_relaxed);
    return last < gen &&
           claimed_[t].compare_exchange_strong(last, gen,
                                               std::memory_order_relaxed);
  }

  void run_chunk(std::size_t t) {
    const auto bound = [&](std::size_t i) {
      return std::min(m_, blocks_ * i / chunks_ * grain_);
    };
    fn_(ctx_, bound(t), bound(t + 1));
    done_.fetch_add(1, std::memory_order_release);
  }

  /// Runs chunk `own` of job `gen` if still unclaimed, then every other
  /// chunk still unclaimed.
  void claim_chunks(std::uint64_t gen, std::size_t chunks, std::size_t own) {
    if (own != 0 && own < chunks && claim(own, gen)) run_chunk(own);
    for (std::size_t t = 1; t < chunks; ++t) {
      if (t != own && claim(t, gen)) run_chunk(t);
    }
  }

  /// Member task i: serves jobs until the team is released. `seen` is the
  /// job word when the scope opened, so a job published before the task
  /// started still counts as new.
  void member_loop(std::size_t i, std::uint64_t seen) {
    // stop_ is set before the job word moves on, so a member that reads
    // the final word also reads the stop.
    while (!stop_.load(std::memory_order_acquire)) {
      const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
      std::uint64_t job = job_.load(std::memory_order_acquire);
      while (job == seen && std::chrono::steady_clock::now() < deadline) {
        cpu_relax();
        job = job_.load(std::memory_order_acquire);
      }
      if (job == seen) {
        job_.wait(seen, std::memory_order_acquire);
        job = job_.load(std::memory_order_acquire);
      }
      seen = job;
      claim_chunks(job >> 16, job & 0xffff, i);
    }
  }

  /// Publishes an empty job after the stop flag and waits for the members.
  void stop_members() {
    stop_.store(true, std::memory_order_release);
    const std::uint64_t gen = (job_.load(std::memory_order_relaxed) >> 16) + 1;
    job_.store(gen << 16, std::memory_order_release);
    job_.notify_all();
    for (auto& m : members_) m.wait();
    members_.clear();
  }

  util::ThreadPool pool_{util::ThreadPool::hardware_threads() - 1};
  std::atomic<bool> owned_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> job_{0};  // generation << 16 | chunk count
  std::atomic<std::size_t> done_{0};
  // Per chunk index, the last generation that claimed it.
  std::unique_ptr<std::atomic<std::uint64_t>[]> claimed_;
  // The current job; written by the owner before it publishes it.
  RowRangeFn fn_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t m_ = 0, grain_ = 1, blocks_ = 0, chunks_ = 1;
  std::vector<std::future<void>> members_;
};

thread_local bool t_owns_team = false;

}  // namespace

TrainingScope::TrainingScope()
    : owner_(!t_owns_team && Team::instance().acquire()) {
  if (owner_) t_owns_team = true;
}

TrainingScope::~TrainingScope() {
  if (!owner_) return;
  Team::instance().release();
  t_owns_team = false;
}

std::size_t row_chunks(std::size_t m, std::size_t grain, std::uint64_t work) {
  if (!t_owns_team || work < 2 * kMinChunkWork) return 1;
  const std::uint64_t blocks = (m + grain - 1) / grain;
  const std::uint64_t threads = Team::instance().threads();
  return static_cast<std::size_t>(
      std::min({blocks, threads, work / kMinChunkWork}));
}

void run_row_chunks(std::size_t m, std::size_t grain, std::size_t chunks,
                    RowRangeFn fn, const void* ctx) {
  Team::instance().run(m, grain, chunks, fn, ctx);
}

}  // namespace ranknet::tensor
