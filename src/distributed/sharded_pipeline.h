#ifndef GEMS_DISTRIBUTED_SHARDED_PIPELINE_H_
#define GEMS_DISTRIBUTED_SHARDED_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.h"
#include "common/status.h"
#include "core/summary.h"
#include "distributed/aggregation.h"
#include "distributed/spsc_ring.h"
#include "distributed/thread_pool.h"

/// \file
/// Multi-core sharded ingest: the single-process version of the paper's
/// "many independent workers feed one logical sketch" impact stories
/// (Gigascope's GROUP-BY-many-sketches, Aggregate Knowledge's reach
/// counting), in the shape the concurrent-DataSketches line of work
/// (Rinberg et al.) productionized. Each worker thread owns one private,
/// unsynchronized sketch shard and drains a bounded SPSC ring of
/// pre-chunked item spans, so the hot path is exactly the sketch's own
/// batch ingest (IngestBatch) — zero locks, zero shared cache lines. Each
/// shard is constructed *on its own worker thread*, so under Linux's
/// default first-touch NUMA policy the counter pages land on the node
/// that will hammer them; optional worker pinning keeps the thread (and
/// the pages) there for the pipeline's lifetime. Finish()
/// joins the shards with the parallel merge tree. Mergeability is what
/// makes this exact: the shards are just an n-way partition of the stream,
/// so for order-independent sketches (HLL, Count-Min, Bloom — register
/// max, counter sum, bit OR) the merged root is byte-identical to
/// single-threaded ingest of the same stream.

namespace gems {

namespace pipeline_internal {

/// Backoff for the bounded-ring spin paths: yield a few times, then sleep
/// briefly so a stalled peer (full ring on the producer side, empty ring on
/// the consumer side) does not burn a core. This matters when workers
/// outnumber cores — small CI machines still make progress.
inline void SpinBackoff(int* spins) {
  if (++*spins < 16) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Pins the calling thread to `cpu` (mod the hardware concurrency).
/// Returns true if the affinity call succeeded; always false on platforms
/// without pthread affinity.
inline bool PinCurrentThreadTo(size_t cpu) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % hw), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace pipeline_internal

/// A summary the pipeline can shard: mergeable, with a per-item ingest
/// shape (IngestBatch picks a native batch path when there is one).
template <typename S>
concept ShardableSummary = MergeableSummary<S> && IngestibleSummary<S>;

/// Fixed-pool sharded ingest pipeline for one logical sketch.
///
/// Usage:
///   ShardedPipeline<HyperLogLog> pipeline(HyperLogLog(12, 1),
///                                         {.num_workers = 8});
///   pipeline.Push(items);            // as many times as you like
///   Result<HyperLogLog> root = pipeline.Finish();
///
/// Push() pre-chunks the span and hands chunks round-robin to the workers'
/// rings, blocking (with backoff) when a ring is full — bounded queues are
/// the backpressure. The pushed spans are borrowed: the underlying buffer
/// must stay alive and unmodified until Finish() returns.
template <typename S>
  requires ShardableSummary<S>
class ShardedPipeline {
 public:
  /// What the rings carry: 64-bit items for item/membership summaries,
  /// doubles for value (quantile) summaries.
  using Item = IngestItem<S>;

  struct Options {
    /// 0 picks the hardware concurrency. One pool thread per worker.
    size_t num_workers = 0;
    /// Chunks each worker's ring can buffer before Push() blocks.
    size_t ring_capacity = 64;
    /// Items per chunk; the batch size every ingest call sees.
    size_t chunk_items = 4096;
    /// Pins worker i to CPU i % hardware_concurrency. With first-touch
    /// shard allocation this keeps each shard's counter pages and the
    /// thread that owns them on the same NUMA node for the pipeline's
    /// lifetime. Best-effort: unsupported platforms and denied affinity
    /// calls are counted, not fatal (see pinned_workers()).
    bool pin_workers = false;
  };

  explicit ShardedPipeline(const S& prototype, Options options = Options{})
      : options_(options),
        pool_(options.num_workers) {
    GEMS_CHECK(options_.chunk_items >= 1);
    GEMS_CHECK(options_.ring_capacity >= 1);
    const size_t workers = pool_.num_threads();
    shards_.resize(workers);
    drained_.Add(workers);
    // First-touch placement: each worker task optionally pins itself, then
    // constructs its own shard, so the shard's counter pages are first
    // written by the thread (and thus allocated on the NUMA node) that will
    // drain into them. The constructor blocks until every shard exists, so
    // borrowing `prototype` and `ready` by reference is safe and Push()
    // never races a null shard pointer.
    WaitGroup ready;
    ready.Add(workers);
    for (size_t i = 0; i < workers; ++i) {
      pool_.Submit([this, i, &prototype, &ready] {
        if (options_.pin_workers &&
            pipeline_internal::PinCurrentThreadTo(i)) {
          pinned_count_.fetch_add(1, std::memory_order_relaxed);
        }
        shards_[i] =
            std::make_unique<Shard>(prototype, options_.ring_capacity);
        ready.Done();
        DrainLoop(i);
        drained_.Done();
      });
    }
    ready.Wait();
  }

  ~ShardedPipeline() {
    if (!finished_) {
      stop_.store(true, std::memory_order_release);
      drained_.Wait();
    }
  }

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  size_t num_workers() const { return shards_.size(); }

  /// Workers that were successfully pinned to a CPU (0 unless
  /// Options::pin_workers, and possibly fewer than num_workers() when the
  /// platform rejects affinity calls — e.g. restricted cpusets).
  size_t pinned_workers() const {
    return pinned_count_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

  /// Feeds a span of items through the pipeline. Chunks go round-robin to
  /// the workers; blocks when the target ring is full. Single producer:
  /// Push must not be called concurrently with itself or Finish.
  void Push(std::span<const Item> items) {
    GEMS_CHECK(!finished_);
    while (!items.empty()) {
      const size_t n = std::min(items.size(), options_.chunk_items);
      const Chunk chunk{items.data(), n};
      Shard& shard = *shards_[next_shard_];
      next_shard_ = next_shard_ + 1 == shards_.size() ? 0 : next_shard_ + 1;
      int spins = 0;
      while (!shard.ring.TryPush(chunk)) {
        pipeline_internal::SpinBackoff(&spins);
      }
      items = items.subspan(n);
    }
  }

  /// Stops the workers, waits for every ring to drain, and joins the
  /// shards through the parallel merge tree on the same pool (the drain
  /// tasks have exited, so all workers are free for the merges). May be
  /// called once.
  Result<S> Finish() {
    GEMS_CHECK(!finished_);
    finished_ = true;
    stop_.store(true, std::memory_order_release);
    drained_.Wait();
    std::vector<S> leaves;
    leaves.reserve(shards_.size());
    for (std::unique_ptr<Shard>& shard : shards_) {
      leaves.push_back(std::move(shard->summary));
    }
    return ParallelAggregateTree(std::move(leaves), kMergeFanout, &pool_);
  }

 private:
  /// Fanout of the parallel merge tree in Finish().
  static constexpr int kMergeFanout = 2;

  /// A borrowed span in ring-slot form (trivially copyable).
  struct Chunk {
    const Item* data = nullptr;
    size_t size = 0;
  };

  /// One worker's world: its ring and its private sketch. Each shard is a
  /// separate heap allocation, so two workers never share a cache line.
  struct Shard {
    Shard(const S& prototype, size_t ring_capacity)
        : ring(ring_capacity), summary(prototype) {}
    SpscRing<Chunk> ring;
    S summary;
  };

  void DrainLoop(size_t index) {
    Shard& shard = *shards_[index];
    const auto apply = [&](const Chunk& chunk) {
      IngestBatch(shard.summary,
                  std::span<const Item>(chunk.data, chunk.size));
    };
    Chunk chunk;
    int spins = 0;
    for (;;) {
      if (shard.ring.TryPop(&chunk)) {
        spins = 0;
        apply(chunk);
      } else if (stop_.load(std::memory_order_acquire)) {
        // Stop was requested after the last Push, so one more empty-check
        // after seeing the flag means the ring is drained for good.
        if (!shard.ring.TryPop(&chunk)) break;
        spins = 0;
        apply(chunk);
      } else {
        pipeline_internal::SpinBackoff(&spins);
      }
    }
  }

  Options options_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Shard>> shards_;
  WaitGroup drained_;
  std::atomic<size_t> pinned_count_{0};
  std::atomic<bool> stop_{false};
  size_t next_shard_ = 0;
  bool finished_ = false;
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_SHARDED_PIPELINE_H_
