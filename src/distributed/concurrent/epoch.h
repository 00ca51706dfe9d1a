#ifndef GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_
#define GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>

/// \file
/// Epoch-versioned publication: the snapshot half of the wait-free
/// concurrent-sketch design (Rinberg et al., "Fast Concurrent Data
/// Sketches"). A single serialized publisher alternates between two
/// buffered copies of a value; an epoch counter names the stable copy.
/// Readers pin a copy, verify the epoch did not move, and read without
/// ever taking a lock — a reader can delay the *next* publication (the
/// publisher waits for pins on the buffer it wants to overwrite), but it
/// can never block another reader or an ingesting writer.

namespace gems {

/// Double-buffered, epoch-versioned published value.
///
/// Concurrency contract:
///   - Publish() and Retire() calls must be externally serialized (the
///     concurrent wrapper calls them under its fold mutex).
///   - Read()/epoch() may be called from any number of threads at any
///     time. Read never blocks: it retries only when a publication landed
///     between its epoch load and its pin, so retries are bounded by the
///     publish rate, not by other readers.
///
/// Memory-ordering argument (all epoch/pin operations are seq_cst):
///   - Publisher writes the inactive buffer, then stores epoch e+1.
///     A reader that observes e+1 therefore observes the full write.
///   - Before overwriting a buffer (publishing e+2 over version e), the
///     publisher waits for that buffer's pin count to drop to zero. A
///     reader's value accesses happen-before its releasing unpin, which
///     the publisher's pin load observes — so no buffer is mutated while
///     a verified reader is inside it.
///   - A reader whose epoch re-check fails unpins without having touched
///     the value, so the transient pin is harmless.
///   - Retire() overwrites the same inactive buffer after the same pin
///     wait, just without the epoch store; only readers holding a stale
///     epoch select that buffer, and their re-check sends them around.
template <typename T>
class EpochPublished {
 public:
  explicit EpochPublished(const T& initial)
      : buffers_{{initial}, {initial}} {}

  EpochPublished(const EpochPublished&) = delete;
  EpochPublished& operator=(const EpochPublished&) = delete;

  /// The current version number; advances by one per publication. Starts
  /// at 0 (the initial value). Monotone, so callers can use it both as a
  /// staleness probe and as a "did anything change" ticket.
  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  /// Runs `fn(const T&)` against a pinned stable version and returns its
  /// result. Never blocks; retries only across concurrent publications.
  template <typename Fn>
  auto Read(Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, const T&>;
    for (;;) {
      const uint64_t e = epoch_.load(std::memory_order_seq_cst);
      const Buffer& buffer = buffers_[e & 1];
      buffer.pins.fetch_add(1, std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) == e) {
        if constexpr (std::is_void_v<R>) {
          fn(static_cast<const T&>(buffer.value));
          buffer.pins.fetch_sub(1, std::memory_order_release);
          return;
        } else {
          R result = fn(static_cast<const T&>(buffer.value));
          buffer.pins.fetch_sub(1, std::memory_order_release);
          return result;
        }
      }
      // A publication landed under us; this buffer may be getting
      // overwritten. We never touched the value — drop the pin and go
      // around to the fresh epoch.
      buffer.pins.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Overwrites the inactive buffer via `fn(T&)` and advances the epoch.
  /// Waits (with backoff) for stragglers still pinning that buffer two
  /// epochs back; ingest is unaffected while it waits.
  template <typename Fn>
  void Publish(Fn&& fn) {
    const uint64_t e = epoch_.load(std::memory_order_relaxed);
    fn(UnpinnedInactive(e));
    epoch_.store(e + 1, std::memory_order_seq_cst);
  }

  /// Overwrites the inactive buffer — the version before the current one,
  /// which no new reader can reach — via `fn(T&)` without advancing the
  /// epoch, e.g. to release what it holds. Waits like Publish().
  template <typename Fn>
  void Retire(Fn&& fn) {
    fn(UnpinnedInactive(epoch_.load(std::memory_order_relaxed)));
  }

 private:
  /// One version of the value plus its reader pin count. Cache-line
  /// aligned so pin traffic on one buffer never invalidates the other.
  struct alignas(64) Buffer {
    T value;
    mutable std::atomic<uint32_t> pins{0};
  };

  /// The buffer not named by epoch `e`, once no reader pins it.
  T& UnpinnedInactive(uint64_t e) {
    Buffer& target = buffers_[(e + 1) & 1];
    int spins = 0;
    while (target.pins.load(std::memory_order_seq_cst) != 0) {
      if (++spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    return target.value;
  }

  Buffer buffers_[2];
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace gems

#endif  // GEMS_DISTRIBUTED_CONCURRENT_EPOCH_H_
