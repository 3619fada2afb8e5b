#ifndef KBT_SERVE_SNAPSHOT_H_
#define KBT_SERVE_SNAPSHOT_H_

/// \file
/// MVCC snapshot registry: the reader/writer decoupling point of the serving
/// layer.
///
/// A Snapshot is one published version of the knowledgebase — an immutable
/// value plus its version number. The registry holds the current snapshot in
/// one shared_ptr behind a mutex that guards nothing but that pointer:
/// readers copy it (Current) and keep the acquired version alive for as long
/// as they hold the copy, writers build the successor state *outside* the
/// registry (the expensive part — τ, μ, durability) and then Publish it with
/// one pointer swap. Readers therefore never wait for a writer's τ or fsync:
/// while a transformation is in flight every Current() call returns the
/// previous version, and the switch to the new one is a pointer swap, not a
/// data copy. The lock is held for the copy or the swap alone; the version a
/// swap retires is released after the lock is dropped.
///
/// Knowledgebase itself is a plain immutable value whose guts (base Database,
/// overlays) are shared via shared_ptr and copy-on-write buffers, so handing
/// one kb to many concurrent readers costs nothing and is data-race-free by
/// construction.

#include <cstdint>
#include <memory>
#include <mutex>

#include "rel/knowledgebase.h"

namespace kbt::serve {

/// One immutable published version. `kb` never changes after publication;
/// readers share the object through the registry's shared_ptr.
struct Snapshot {
  uint64_t version = 0;
  Knowledgebase kb;
};

/// The single writer → many readers handoff. All methods are thread-safe;
/// Current() takes the registry's mutex for one shared_ptr copy and never
/// waits on a writer's τ or durability work. Publish calls must be
/// externally serialized (the Server's writer lock does this) — the registry
/// enforces monotone versions but not write ordering.
class SnapshotRegistry {
 public:
  /// Installs `initial` as version 0.
  explicit SnapshotRegistry(Knowledgebase initial);

  /// The current snapshot. Never null; never waits for a writer's τ.
  std::shared_ptr<const Snapshot> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Publishes `next` as the new current snapshot and returns it. The
  /// previous snapshot stays alive until its last reader drops it.
  std::shared_ptr<const Snapshot> Publish(Knowledgebase next);

  /// Version of the current snapshot.
  uint64_t version() const { return Current()->version; }

 private:
  /// Guards `current_` only: held for a pointer copy or swap.
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
};

}  // namespace kbt::serve

#endif  // KBT_SERVE_SNAPSHOT_H_
