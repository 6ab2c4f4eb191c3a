//===- support/ThreadPool.h - Deterministic fixed-size pool -----*- C++ -*-===//
//
// A work-stealing-free thread pool for the parallel evaluation engine.
// Design constraints (docs/EVALUATION.md):
//
//   * Fixed worker count, chosen at construction; never grows or shrinks.
//   * Jobs are indices 0..N-1 over a pure function. Workers claim indices
//     from one shared ticket counter (no per-worker deques, no stealing),
//     and every job writes only its own result slot, so the collected
//     result vector is ordered by job index and bit-identical regardless
//     of the worker count or interleaving.
//   * Per-job PRNG streams are derived from (base seed, job label) with
//     support/Hash.h, never from thread identity.
//
// A pool constructed with <= 1 workers spawns no threads at all and runs
// jobs inline on the caller; `--jobs=1` therefore exercises the exact
// code path the determinism tests compare against.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SUPPORT_THREADPOOL_H
#define FLEXVEC_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace flexvec {

/// Largest --jobs value the drivers accept. Far above any host's hardware
/// threads, and far below the count at which spawning the workers fails.
inline constexpr unsigned MaxJobs = 1024;

class ThreadPool {
public:
  /// \p Workers = 0 asks for one worker per hardware thread.
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of workers executing jobs (>= 1; 1 means inline execution).
  unsigned workerCount() const { return Workers; }

  /// Runs Fn(0), ..., Fn(N-1) across the workers and returns once all have
  /// finished. The first exception thrown by any job is rethrown on the
  /// caller after the batch drains; remaining jobs still run.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// parallelFor that collects Fn's results ordered by job index.
  template <typename T>
  std::vector<T> map(size_t N, const std::function<T(size_t)> &Fn) {
    std::vector<T> Out(N);
    parallelFor(N, [&](size_t I) { Out[I] = Fn(I); });
    return Out;
  }

private:
  struct Batch;

  void workerLoop();
  /// Claims and runs jobs from \p B until its tickets are exhausted.
  void drainBatch(Batch &B);

  unsigned Workers;
  std::vector<std::thread> Threads;

  /// All state for one parallelFor call. Owned by a shared_ptr so a worker
  /// that wakes up late holds the batch it snapshotted alive and can never
  /// read state the caller has already reused for the next batch. Tickets
  /// and completion are counted per batch, so a stale worker cannot steal a
  /// ticket from (or double-count a job of) any other batch.
  struct Batch {
    Batch(const std::function<void(size_t)> &F, size_t N) : Fn(F), Size(N) {}
    const std::function<void(size_t)> &Fn; ///< Valid until DoneJobs == Size.
    const size_t Size;
    std::atomic<size_t> NextJob{0};  ///< Ticket counter; may exceed Size.
    std::atomic<size_t> DoneJobs{0}; ///< Jobs finished (ran or threw).
    std::exception_ptr Error;        ///< Guarded by Mu.
  };

  std::mutex Mu;
  std::condition_variable WorkCv;  ///< Workers wait for a new batch.
  std::condition_variable DoneCv;  ///< Caller waits for batch completion.
  std::shared_ptr<Batch> Current;  ///< Guarded by Mu; null between batches.
  uint64_t BatchGeneration = 0;    ///< Guarded by Mu; bumped per batch.
  bool ShuttingDown = false;       ///< Guarded by Mu.
};

} // namespace flexvec

#endif // FLEXVEC_SUPPORT_THREADPOOL_H
