#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <exception>
#include <string>

#include "common/error.hpp"
#include "common/sync.hpp"

namespace tasd::rt {

namespace {

// True while the current thread is executing a parallel_for chunk;
// nested parallel_for calls from such a thread run inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

struct ThreadPool::Impl {
  Mutex mutex;
  CondVar work_ready;  ///< signaled on enqueue and on stop
  std::deque<std::function<void()>> queue TASD_GUARDED_BY(mutex);
  bool stopping TASD_GUARDED_BY(mutex) = false;
  /// Written by the constructor before any worker can observe it and
  /// read by the destructor after stop; never touched concurrently.
  std::vector<std::thread> workers;

  void worker_loop() TASD_EXCLUDES(mutex) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mutex);
        while (!stopping && queue.empty()) work_ready.wait(mutex);
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }
};

ThreadPool::ThreadPool(std::size_t num_threads)
    : threads_(std::max<std::size_t>(1, num_threads)) {
  if (threads_ == 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(threads_ - 1);
  try {
    for (std::size_t i = 0; i + 1 < threads_; ++i)
      impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  } catch (...) {
    // Thread spawn failed mid-way: stop and join the workers that did
    // start, free the impl, and surface the original error.
    {
      MutexLock lock(impl_->mutex);
      impl_->stopping = true;
    }
    impl_->work_ready.notify_all();
    for (auto& w : impl_->workers) w.join();
    delete impl_;
    impl_ = nullptr;
    throw;
  }
}

ThreadPool::~ThreadPool() {
  if (!impl_) return;
  {
    MutexLock lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

std::size_t ThreadPool::workers() const {
  return impl_ ? impl_->workers.size() : 0;
}

std::vector<std::size_t> ThreadPool::partition(std::size_t len,
                                               std::size_t grain) const {
  const std::size_t g = std::max<std::size_t>(1, grain);
  std::size_t chunks = std::min(threads_, len / g);
  chunks = std::max<std::size_t>(1, chunks);
  // Boundaries at floor(i*len/chunks): contiguous, exhaustive, and a pure
  // function of (len, grain, num_threads).
  std::vector<std::size_t> bounds(chunks + 1);
  for (std::size_t i = 0; i <= chunks; ++i) bounds[i] = i * len / chunks;
  return bounds;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t len = end - begin;
  const auto bounds = partition(len, grain);
  const std::size_t chunks = bounds.size() - 1;

  if (!impl_ || chunks == 1 || t_in_parallel_region) {
    // Serial pool, degenerate range, or nested call: run inline. The
    // chunk boundaries (and therefore the per-chunk arithmetic) are the
    // same ones the parallel path would use. Save/restore the region
    // flag so a nested call does not clear the outer region's state.
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (std::size_t i = 0; i < chunks; ++i)
        fn(begin + bounds[i], begin + bounds[i + 1]);
    } catch (...) {
      t_in_parallel_region = was_in_region;
      throw;
    }
    t_in_parallel_region = was_in_region;
    return;
  }

  struct Sync {
    Mutex mutex;
    CondVar done;  ///< signaled when the last worker chunk finishes
    std::size_t remaining TASD_GUARDED_BY(mutex) = 0;
    std::exception_ptr error TASD_GUARDED_BY(mutex);
  } sync;
  {
    MutexLock lock(sync.mutex);
    sync.remaining = chunks - 1;
  }

  auto run_chunk = [&](std::size_t i) {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      fn(begin + bounds[i], begin + bounds[i + 1]);
    } catch (...) {
      MutexLock lock(sync.mutex);
      if (!sync.error) sync.error = std::current_exception();
    }
    t_in_parallel_region = was_in_region;
  };

  {
    MutexLock lock(impl_->mutex);
    for (std::size_t i = 1; i < chunks; ++i) {
      impl_->queue.emplace_back([&, i] {
        run_chunk(i);
        MutexLock done_lock(sync.mutex);
        if (--sync.remaining == 0) sync.done.notify_one();
      });
    }
  }
  impl_->work_ready.notify_all();

  // The caller executes chunk 0, then waits for the workers.
  run_chunk(0);
  {
    MutexLock lock(sync.mutex);
    while (sync.remaining != 0) sync.done.wait(sync.mutex);
    if (sync.error) std::rethrow_exception(sync.error);
  }
}

std::size_t default_num_threads() {
  static const std::size_t cached = [] {
    if (const char* env = std::getenv("TASD_NUM_THREADS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      TASD_CHECK_MSG(end != env && *end == '\0' && v >= 0,
                     "TASD_NUM_THREADS must be a non-negative integer, got '"
                         << env << "'");
      if (v > 0) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

ThreadPool& default_pool() {
  static ThreadPool pool(default_num_threads());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  default_pool().parallel_for(begin, end, grain, fn);
}

}  // namespace tasd::rt
