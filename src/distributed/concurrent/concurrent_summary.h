#ifndef GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_
#define GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/estimate.h"
#include "core/summary.h"
#include "distributed/concurrent/epoch.h"
#include "distributed/concurrent/thread_slots.h"

/// \file
/// Wait-free concurrent wrapper for any mergeable summary, rebuilt on the
/// local-buffer/propagator design of "Fast Concurrent Data Sketches"
/// (Rinberg et al., TOPC 2022), replacing the old striped-mutex wrapper
/// whose Snapshot() blocked writers stripe by stripe.
///
/// Data flow, writer side:
///   item --> per-thread bounded buffer (plain vector append, no atomics)
///        --> on fill: one IngestBatch drain into the thread's private
///            *local sketch* (the expensive hashing work, entirely off any
///            shared state)
///        --> propagation: the local sketch is folded (Merge) into the
///            shared global under the fold mutex, then reset to an empty
///            delta. Folds use try_lock first: a writer that finds the
///            mutex busy just keeps accumulating locally and retries at
///            the next drain, up to a hard pending cap — so the common
///            case never blocks, and the worst case is one short merge.
///
/// Reader side: every writer-thread propagation republishes the global
/// into an epoch-versioned double buffer (see epoch.h) and refreshes a
/// cached atomic estimate. External folds (FoldExternal: the request-
/// scoped path behind gemsd UPDATE/MERGE/RESTORE) do not publish; they
/// mark the global unpublished, and the first read after them takes the
/// fold mutex once to publish. So N external folds with no read between
/// them cost one publication, not N. A read that finds nothing pending is
/// lock-free: Estimate() is two loads from one cache line (the pending
/// flag, then the cached estimate); Query(), EstimateWithBounds() and
/// Snapshot() run against a pinned published version.
///
/// Consistency:
///   - An external fold that has returned is visible to every read that
///     starts after it returns (on any thread).
///   - Writer-thread updates, and external folds still in progress, may
///     or may not be visible: a writer's unfolded tail is under
///     9 x buffer_items items (a full buffer plus a local sketch holding
///     under the 8 x buffer_items hard cap).
///   - A read never sees a torn state: a published version is a real
///     sketch state, the merge of whole deltas.
///   - epoch() counts publications readers have observed, not folds.
/// Once quiesced (writers joined — thread-exit hooks fold residuals — or
/// FlushLocal() called), the snapshot equals the sequential sketch fed the
/// same stream; for partition-independent merges (HLL max, Count-Min sum,
/// Bloom OR) it is byte-identical.

namespace gems {

/// Wait-free concurrent wrapper around a mergeable summary S. The old
/// striped-lock API surface (Update, UpdateBatch, InsertBatch, Snapshot)
/// is preserved; Estimate/EstimateWithBounds/Query/epoch are new.
template <typename S>
  requires MergeableSummary<S> && std::copy_constructible<S> &&
           std::is_copy_assignable_v<S>
class ConcurrentSummary {
 public:
  /// True when single updates are staged in a per-thread buffer before
  /// the batched drain: S has a per-item ingest shape.
  static constexpr bool kBuffered = IngestibleSummary<S>;
  /// What the per-thread buffer holds: doubles for value (quantile)
  /// summaries, 64-bit items otherwise.
  using BufferItem = IngestItem<S>;

  struct Options {
    /// Per-thread item buffer capacity; a full buffer triggers one batched
    /// drain into the thread's local sketch. It also sets the fold
    /// thresholds: a writer folds its local sketch into the global once
    /// it holds buffer_items items, using try_lock and accumulating on if
    /// the fold mutex is busy, and waits for the mutex only at
    /// kMaxPendingBuffers x buffer_items. So a query can miss under
    /// (kMaxPendingBuffers + 1) x buffer_items items per live writer.
    size_t buffer_items = 4096;
    /// Writer slots. 0 picks 2x the hardware concurrency, clamped to
    /// [kMinSlots, kMaxSlots]. Threads beyond the slot count fall back to
    /// a (correct, slower) locked path on the global.
    size_t max_threads = 0;
  };

  static constexpr size_t kMinSlots = 8;
  static constexpr size_t kMaxSlots = 256;
  /// The hard cap on a writer's unfolded local items, in buffers.
  static constexpr size_t kMaxPendingBuffers = 8;

  /// All sketches (global, published copies, per-thread locals) start as
  /// copies of `prototype`, so folds are merge-compatible by construction.
  explicit ConcurrentSummary(const S& prototype, Options options = Options{})
      : shared_(std::make_shared<Shared>(prototype, Resolve(options))) {}

  ConcurrentSummary(const ConcurrentSummary&) = delete;
  ConcurrentSummary& operator=(const ConcurrentSummary&) = delete;

  size_t max_threads() const { return shared_->slots.size(); }
  const Options& options() const { return shared_->options; }

  /// Thread-safe single update. Single 64-bit-item (or double, for value
  /// summaries) updates take the buffered wait-free path; anything else
  /// (weighted updates, multi-argument shapes) applies directly to this
  /// thread's local sketch — still contention-free, just unbatched.
  void Update(BufferItem item)
    requires kBuffered
  {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      OverflowApply(sh, item);
      return;
    }
    local->buffer.push_back(item);
    if (local->buffer.size() >= sh.options.buffer_items) {
      DrainBuffer(*local);
      MaybePropagate(sh, *local);
    }
  }

  /// Forwarding overload for update shapes the buffer cannot carry.
  template <typename... Args>
    requires(sizeof...(Args) >= 1) &&
            requires(S s, Args&&... args) {
              s.Update(std::forward<Args>(args)...);
            } &&
            (!(kBuffered && sizeof...(Args) == 1 &&
               (std::is_convertible_v<Args, BufferItem> && ...)))
  void Update(Args&&... args) {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      sh.global.Update(std::forward<Args>(args)...);
      OverflowTick(sh, 1);
      return;
    }
    if (!local->buffer.empty()) DrainBuffer(*local);
    local->sketch->Update(std::forward<Args>(args)...);
    local->pending += 1;
    MaybePropagate(sh, *local);
  }

  /// Membership-filter convenience; same buffered path as Update.
  void Insert(uint64_t key)
    requires InsertableSummary<S>
  {
    Update(key);
  }

  /// Thread-safe batch drain: the span feeds the thread's local sketch
  /// through IngestBatch, then propagates if the fold threshold is
  /// crossed. No locks unless propagating.
  void UpdateBatch(std::span<const BufferItem> items)
    requires ItemSummary<S> || ValueSummary<S>
  {
    IngestSpan(items);
  }

  /// Batch drain for membership filters.
  void InsertBatch(std::span<const uint64_t> keys)
    requires InsertableSummary<S>
  {
    IngestSpan(keys);
  }

  /// Drains the *calling thread's* buffered items and folds its local
  /// sketch into the global, force-publishing the result. Gives the
  /// calling thread read-your-writes; other threads' unfolded tails
  /// remain subject to the staleness bound until they propagate or exit.
  void FlushLocal() const { FlushLocalFor(*shared_); }

  /// Point estimate: the value cached at the last publication, after
  /// catching up a pending external fold.
  double Estimate() const
    requires EstimableSummary<S>
  {
    CatchUp(*shared_);
    return shared_->cached_estimate.load(std::memory_order_acquire);
  }

  /// Interval estimate computed against the pinned published version —
  /// no copy, any confidence level.
  gems::Estimate EstimateWithBounds(double confidence = 0.95) const
    requires BoundedPointEstimableSummary<S>
  {
    return Query(
        [&](const S& s) { return s.EstimateWithBounds(confidence); });
  }

  /// Runs `fn(const S&)` against the pinned published version and returns
  /// its result — the general read (point queries on Count-Min, quantile
  /// probes, serialization, ...). Wait-free unless an external fold is
  /// pending, in which case it first publishes it under the fold mutex.
  /// `fn` must not retain the reference past its return.
  template <typename Fn>
  auto Query(Fn&& fn) const {
    CatchUp(*shared_);
    return shared_->published.Read(std::forward<Fn>(fn));
  }

  /// Publication version: advances once per publication that a reader
  /// can observe (a pending external fold is published first, so K folds
  /// with no read between them advance it by one). Monotone; usable as a
  /// staleness probe ("has anything landed since I last looked").
  uint64_t epoch() const {
    CatchUp(*shared_);
    return shared_->published.epoch();
  }

  /// Applies `fn(S&)` to the global under the fold mutex and marks it
  /// unpublished on success — the entry point for folding *externally
  /// built* deltas (a request's batch, a deserialized peer sketch,
  /// restored checkpoint state) into a live summary, which is how every
  /// gemsd UPDATE, MERGE and RESTORE lands. The next read publishes, so
  /// the fold is visible to every read that starts after this returns.
  /// Unlike writer folds, a failure here is the caller's to handle (e.g.
  /// a parameter-mismatched merge): it is returned, never latched into the
  /// summary's error state, and nothing is marked for publication.
  template <typename Fn>
  Status FoldExternal(Fn&& fn) {
    Shared& sh = *shared_;
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    if (sh.retire_pending) {
      // A copy-on-write S clones the current published version on this
      // fold's first write; release the version before it first, so a
      // summary holds at most the global and one published version.
      sh.published.Retire([&](S& stale) { stale = sh.prototype; });
      sh.retire_pending = false;
    }
    if (Status s = fn(sh.global); !s.ok()) return s;
    sh.unpublished.store(true, std::memory_order_release);
    return Status::Ok();
  }

  /// Folds a whole summary of the same shape into the global — the
  /// concrete-type convenience over FoldExternal.
  Status MergeDelta(const S& delta) {
    return FoldExternal([&](S& global) { return global.Merge(delta); });
  }

  /// Consistent snapshot (old API): folds the calling thread's residual
  /// state, then copies the published version under a pin. Never blocks
  /// writers; concurrent snapshots are monotone in epoch. A fold error
  /// (only possible for summaries whose Merge has data-dependent
  /// preconditions) is propagated here rather than aborting.
  Result<S> Snapshot() const {
    Shared& sh = *shared_;
    FlushLocalFor(sh);
    if (sh.has_error.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      return sh.first_error;
    }
    {
      // The published copy may lag the newest global state — a pending
      // external fold, or sub-threshold overflow updates; catch up here so
      // a quiesced Snapshot is always complete.
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      if (sh.unpublished.load(std::memory_order_relaxed) ||
          sh.overflow_pending > 0) {
        ForcePublish(sh);
      }
    }
    return sh.published.Read([](const S& s) { return Result<S>(s); });
  }

 private:
  /// One writer thread's world: the staging buffer and the private delta
  /// sketch, touched only by the owning thread (plus the exit hook, which
  /// runs on the owning thread too).
  struct Local {
    std::vector<BufferItem> buffer;
    std::optional<S> sketch;
    size_t pending = 0;  // Items in `sketch` not yet folded.
  };

  /// A claimable slot. Separate heap allocations + alignment keep two
  /// writers' hot state off each other's cache lines.
  struct alignas(64) Slot {
    std::atomic<bool> claimed{false};
    Local local;
  };

  /// Everything the instance and its writer threads share. Held by
  /// shared_ptr so a thread-exit hook can run safely even while the
  /// wrapper itself is being torn down elsewhere (the hook locks a
  /// weak_ptr).
  struct Shared {
    Shared(const S& proto, Options opts)
        : options(opts),
          prototype(proto),
          global(proto),
          published(proto),
          instance_id(concurrent_internal::NextInstanceId()) {
      slots.reserve(options.max_threads);
      for (size_t i = 0; i < options.max_threads; ++i) {
        slots.push_back(std::make_unique<Slot>());
      }
      if constexpr (EstimableSummary<S>) {
        cached_estimate.store(proto.Estimate(), std::memory_order_relaxed);
      }
    }

    Options options;
    const S prototype;  // Delta resets copy from this; never mutated.
    std::vector<std::unique_ptr<Slot>> slots;

    // Fold state, guarded by fold_mutex.
    std::mutex fold_mutex;
    S global;
    size_t overflow_pending = 0;  // Slotless updates since last publish.
    bool retire_pending = false;  // The inactive buffer holds a version.
    Status first_error = Status::Ok();

    EpochPublished<S> published;
    std::atomic<double> cached_estimate{0.0};
    // Set (release, under fold_mutex) by an external fold; cleared by the
    // publication that includes it, only after the epoch has advanced.
    // Beside cached_estimate, so Estimate() reads one cache line.
    std::atomic<bool> unpublished{false};
    std::atomic<bool> has_error{false};
    const uint64_t instance_id;
  };

  static Options Resolve(Options options) {
    if (options.buffer_items == 0) options.buffer_items = 1;
    if (options.max_threads == 0) {
      const size_t hw = std::thread::hardware_concurrency();
      options.max_threads =
          std::min(kMaxSlots, std::max(kMinSlots, 2 * std::max<size_t>(hw, 1)));
    }
    if (options.max_threads > kMaxSlots) options.max_threads = kMaxSlots;
    return options;
  }

  // ------------------------------------------------------------- writers

  /// This thread's Local for this instance, claiming a slot on first
  /// touch; nullptr when every slot is taken (overflow path).
  Local* AcquireLocal(Shared& sh) const {
    void* slot = concurrent_internal::TlsSlotRegistry::This().Find(
        sh.instance_id);
    if (slot != nullptr) return &static_cast<Slot*>(slot)->local;
    return AcquireLocalSlow(sh);
  }

  Local* AcquireLocalSlow(Shared& sh) const {
    for (std::unique_ptr<Slot>& slot : sh.slots) {
      bool expected = false;
      if (!slot->claimed.load(std::memory_order_relaxed) &&
          slot->claimed.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
        Local& local = slot->local;
        local.sketch.emplace(sh.prototype);
        local.buffer.clear();
        local.buffer.reserve(sh.options.buffer_items);
        local.pending = 0;
        concurrent_internal::TlsSlotRegistry::This().Bind(
            {sh.instance_id, std::weak_ptr<void>(shared_), slot.get(),
             &ThreadExitHook});
        return &local;
      }
    }
    return nullptr;
  }

  /// Thread-exit: fold the thread's residual state and free its slot for
  /// the next thread — the fix for the old design's first-touch token
  /// leak, where exiting threads kept their stripe token forever.
  static void ThreadExitHook(const std::shared_ptr<void>& state, void* slot) {
    Shared& sh = *static_cast<Shared*>(state.get());
    Slot& s = *static_cast<Slot*>(slot);
    ReleaseSlot(sh, s);
  }

  static void ReleaseSlot(Shared& sh, Slot& slot) {
    Local& local = slot.local;
    if (!local.buffer.empty()) DrainBuffer(local);
    if (local.pending > 0) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      Fold(sh, local);
      ForcePublish(sh);
    }
    local.sketch.reset();
    local.buffer.clear();
    local.buffer.shrink_to_fit();
    slot.claimed.store(false, std::memory_order_release);
  }

  void IngestSpan(std::span<const BufferItem> items) {
    Shared& sh = *shared_;
    Local* local = AcquireLocal(sh);
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      IngestBatch(sh.global, items);
      OverflowTick(sh, items.size());
      return;
    }
    if (!local->buffer.empty()) DrainBuffer(*local);
    IngestBatch(*local->sketch, items);
    local->pending += items.size();
    MaybePropagate(sh, *local);
  }

  static void DrainBuffer(Local& local) {
    IngestBatch(*local.sketch, std::span<const BufferItem>(local.buffer));
    local.pending += local.buffer.size();
    local.buffer.clear();
  }

  /// Slotless single-item fallback, called with no slot available. Still
  /// correct — it updates the global directly under the fold mutex — and
  /// its publishes are throttled so readers keep seeing progress.
  void OverflowApply(Shared& sh, BufferItem item) {
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    const BufferItem one[1] = {item};
    IngestBatch(sh.global, std::span<const BufferItem>(one));
    OverflowTick(sh, 1);
  }

  static void OverflowTick(Shared& sh, size_t items) {
    sh.overflow_pending += items;
    if (sh.overflow_pending >= sh.options.buffer_items) {
      ForcePublish(sh);
    }
  }

  // --------------------------------------------------------- propagation

  static void MaybePropagate(Shared& sh, Local& local) {
    if (local.pending < sh.options.buffer_items) return;
    if (local.pending < kMaxPendingBuffers * sh.options.buffer_items) {
      std::unique_lock<std::mutex> lock(sh.fold_mutex, std::try_to_lock);
      if (!lock.owns_lock()) return;  // Busy: keep accumulating locally.
      Fold(sh, local);
      ForcePublish(sh);
    } else {
      // Hard staleness cap reached: this is the one place a writer waits.
      std::lock_guard<std::mutex> lock(sh.fold_mutex);
      Fold(sh, local);
      ForcePublish(sh);
    }
  }

  /// Merges the local delta into the global and resets it. fold_mutex held.
  static void Fold(Shared& sh, Local& local) {
    if (Status s = sh.global.Merge(*local.sketch); !s.ok()) {
      if (sh.first_error.ok()) sh.first_error = s;
      sh.has_error.store(true, std::memory_order_release);
    }
    *local.sketch = sh.prototype;
    local.pending = 0;
  }

  /// Republishes the global for readers. fold_mutex held.
  static void ForcePublish(Shared& sh) {
    sh.published.Publish([&](S& out) { out = sh.global; });
    sh.overflow_pending = 0;
    sh.retire_pending = true;
    if constexpr (EstimableSummary<S>) {
      sh.cached_estimate.store(sh.global.Estimate(),
                               std::memory_order_release);
    }
    // Only now, with the new epoch and estimate in place: a reader that
    // acquires `false` must find the published state current. Skipped when
    // already clear, so writer-thread publishes leave the line readers
    // load unwritten.
    if (sh.unpublished.load(std::memory_order_relaxed)) {
      sh.unpublished.store(false, std::memory_order_release);
    }
  }

  /// The read-side half of deferred publication: a reader that finds an
  /// external fold pending publishes it once, under the fold mutex.
  /// The acquire pairs with FoldExternal's release (a fold that returned
  /// before this read is seen as pending) and with ForcePublish's clearing
  /// release (a clear flag means the epoch already covers that fold).
  static void CatchUp(Shared& sh) {
    if (sh.unpublished.load(std::memory_order_acquire)) [[unlikely]] {
      PublishPending(sh);
    }
  }

  /// Out of line so readers inline only CatchUp's flag test.
  [[gnu::noinline]] static void PublishPending(Shared& sh) {
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    if (sh.unpublished.load(std::memory_order_relaxed)) ForcePublish(sh);
  }

  static void FlushLocalFor(Shared& sh) {
    void* slot_ptr = concurrent_internal::TlsSlotRegistry::This().Find(
        sh.instance_id);
    if (slot_ptr == nullptr) return;
    Local& local = static_cast<Slot*>(slot_ptr)->local;
    if (!local.buffer.empty()) DrainBuffer(local);
    if (local.pending == 0) return;
    std::lock_guard<std::mutex> lock(sh.fold_mutex);
    Fold(sh, local);
    ForcePublish(sh);
  }

  std::shared_ptr<Shared> shared_;
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_SUMMARY_H_
