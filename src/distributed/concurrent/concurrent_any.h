#ifndef GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_
#define GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_summary.h"

/// \file
/// Type-erased concurrent wrapper: ConcurrentSummary over AnySketch, so
/// the engine (and the future gemsd server) can stand up a live,
/// queryable-under-ingest sketch knowing only its registry name. AnySketch
/// is copy-on-write, which composes cleanly with the delta-fold design:
/// publishing shares the global's representation with readers, and the
/// next fold's mutation clones it first (EnsureUnique sees the shared
/// count), so pinned readers always see an immutable version. Because the
/// request-scoped folds below publish on the next read rather than on
/// every write, a run of writes with no read between them pays that clone
/// at most once.

namespace gems {

/// A movable handle to a wait-free concurrent type-erased sketch.
/// Construction validates the prototype up front, so the unchecked Update
/// hot path can drop per-item Status plumbing.
class ConcurrentAnySketch {
 public:
  using Options = ConcurrentSummary<AnySketch>::Options;

  ConcurrentAnySketch() = default;
  ConcurrentAnySketch(ConcurrentAnySketch&&) = default;
  ConcurrentAnySketch& operator=(ConcurrentAnySketch&&) = default;

  /// Wraps a concrete prototype handle. The prototype must be non-empty
  /// and accept 64-bit item updates (the only update shape the type-erased
  /// surface carries).
  static Result<ConcurrentAnySketch> Make(AnySketch prototype,
                                          Options options = Options{}) {
    if (!prototype.has_value()) {
      return Status::InvalidArgument(
          "concurrent wrapper needs a non-empty prototype sketch");
    }
    // Probe the update shape on a throwaway copy so a sketch family with
    // no Update(u64) (e.g. edge-sketches) fails here, not silently later.
    AnySketch probe = prototype;
    if (Status s = probe.Update(0); !s.ok()) return s;
    ConcurrentAnySketch any;
    any.prototype_type_ = prototype.type();
    any.impl_ = std::make_unique<ConcurrentSummary<AnySketch>>(
        prototype, options);
    return any;
  }

  /// Builds the prototype from the registry by stable type name (e.g.
  /// "hyperloglog"), with library-default parameters. Callers must have
  /// populated the registry (RegisterBuiltinSketches) first.
  static Result<ConcurrentAnySketch> MakeByName(const std::string& name,
                                                Options options = Options{}) {
    const SketchRegistry::Entry* entry =
        SketchRegistry::Global().FindByName(name);
    if (entry == nullptr || !entry->make_default) {
      return Status::NotFound("no registered sketch type named '" + name +
                              "' with a default factory");
    }
    return Make(entry->make_default(), options);
  }

  /// Builds the prototype from the registry by stable type name with
  /// explicit window/decay parameters — the gemsd CREATE path for the time
  /// family. kNotFound for names without a timed factory; parameter
  /// validation surfaces as the factory's kInvalidArgument.
  static Result<ConcurrentAnySketch> MakeTimedByName(
      const std::string& name, const TimedSketchParams& params,
      Options options = Options{}) {
    const SketchRegistry::Entry* entry =
        SketchRegistry::Global().FindByName(name);
    if (entry == nullptr || !entry->make_timed) {
      return Status::NotFound("no registered sketch type named '" + name +
                              "' with a timed factory");
    }
    Result<AnySketch> made = entry->make_timed(params);
    if (!made.ok()) return made.status();
    return Make(std::move(made).value(), options);
  }

  bool has_value() const { return impl_ != nullptr; }
  SketchTypeId type() const { return prototype_type_; }

  /// Thread-safe wait-free item update (buffered; see ConcurrentSummary).
  void Update(uint64_t item) { impl_->Update(item); }

  /// Thread-safe batch update through AnySketch's native batch dispatch.
  void UpdateBatch(std::span<const uint64_t> items) {
    impl_->UpdateBatch(items);
  }

  /// Folds a batch straight into the global state under the fold mutex
  /// — the request-scoped ingest path for servers fronting very many keys. The per-thread slot machinery binds
  /// one TLS entry per (thread, instance) and its lookup is linear in the
  /// instances a thread has touched, which is exactly wrong for a daemon
  /// whose threads touch millions of keys; this path skips it entirely
  /// while still going through the batched (SIMD-dispatched) UpdateBatch
  /// fast path. Ack-visible: once this returns, every read that starts
  /// afterwards on any thread sees the items. The first such read takes
  /// the fold mutex once to publish them (see FoldExternal); concurrent
  /// reads that started earlier may or may not see them, never a torn
  /// state.
  Status ApplyBatch(std::span<const uint64_t> items) {
    return impl_->FoldExternal(
        [&](AnySketch& global) { return global.UpdateBatch(items); });
  }

  /// Folds a timestamped batch into the global state — the timed analogue
  /// of ApplyBatch, with the same visibility. Pane rotation and decay
  /// happen inside the fold, so readers see either the pre-rotation or
  /// post-rotation state, never a mix. Untimed sketches ingest the items
  /// and ignore the timestamps.
  Status ApplyBatchTimed(std::span<const uint64_t> timestamps,
                         std::span<const uint64_t> items) {
    return impl_->FoldExternal([&](AnySketch& global) {
      return global.UpdateBatchTimed(timestamps, items);
    });
  }

  /// Advances a timed sketch's clock (rotating/expiring panes, decaying
  /// counts); the next read publishes the result as a new epoch.
  /// kUnimplemented for untimed sketches.
  Status Advance(uint64_t now) {
    return impl_->FoldExternal(
        [&](AnySketch& global) { return global.Advance(now); });
  }

  /// One-line estimate of the published version (reads catch up a
  /// pending fold first, as every read here does).
  std::string EstimateSummary() const {
    return impl_->Query(
        [](const AnySketch& s) { return s.EstimateSummary(); });
  }

  /// Typed whole-sketch estimate with bounds, read from the epoch-
  /// published version. kUnimplemented for families without a global
  /// estimate.
  Result<gems::Estimate> EstimateWithBounds(double confidence = 0.95) const {
    return impl_->Query([&](const AnySketch& s) {
      return s.EstimateWithBounds(confidence);
    });
  }

  /// Typed per-item estimate (frequency families).
  Result<gems::Estimate> EstimateItemWithBounds(
      uint64_t item, double confidence = 0.95) const {
    return impl_->Query([&](const AnySketch& s) {
      return s.EstimateItemWithBounds(item, confidence);
    });
  }

  /// Merges a wrapped serialized peer into the live state, zero-copy for
  /// families with a view merge. Type mismatches and parameter-mismatched
  /// merges surface as the sketch's own typed status; a failed merge
  /// leaves nothing to publish. The view's bytes are only borrowed for the
  /// duration of the call.
  Status MergeFromView(const SketchView& view) {
    if (view.type() != prototype_type_) {
      return Status::InvalidArgument(
          std::string("cannot merge sketch type ") + view.type_name() +
          " into " + SketchTypeName(prototype_type_));
    }
    return impl_->FoldExternal(
        [&](AnySketch& global) { return global.MergeFromView(view); });
  }

  /// Merges a materialized peer handle into the live state.
  Status Merge(const AnySketch& other) {
    return impl_->FoldExternal(
        [&](AnySketch& global) { return global.Merge(other); });
  }

  /// Replaces the live state wholesale — the checkpoint-restore entry
  /// point. `state` must be the same sketch type. Call before concurrent
  /// writers start (on a freshly built instance); residual deltas from
  /// earlier writers would otherwise fold into the replaced state.
  Status Reset(AnySketch state) {
    if (!state.has_value() || state.type() != prototype_type_) {
      return Status::InvalidArgument(
          "reset needs a non-empty sketch of the wrapped type");
    }
    return impl_->FoldExternal([&](AnySketch& global) {
      global = std::move(state);
      return Status::Ok();
    });
  }

  /// Consistent bounded-staleness snapshot (read-your-writes for the
  /// calling thread); the returned handle is an independent COW copy.
  Result<AnySketch> Snapshot() const { return impl_->Snapshot(); }

  /// Publication version: counts publications readers have observed, not
  /// folds; monotone staleness probe.
  uint64_t epoch() const { return impl_->epoch(); }

  /// Folds and publishes the calling thread's residual state.
  void FlushLocal() const { impl_->FlushLocal(); }

 private:
  std::unique_ptr<ConcurrentSummary<AnySketch>> impl_;
  SketchTypeId prototype_type_{};
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_CONCURRENT_ANY_H_
