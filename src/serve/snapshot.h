#ifndef KBT_SERVE_SNAPSHOT_H_
#define KBT_SERVE_SNAPSHOT_H_

/// \file
/// MVCC snapshot registry: the reader/writer decoupling point of the serving
/// layer.
///
/// A Snapshot is one published version of the knowledgebase — an immutable
/// value plus its version number. The registry holds the current snapshot
/// behind a single atomic shared_ptr: readers acquire it with one atomic load
/// (Current) and keep the acquired version alive for as long as they hold the
/// pointer, writers build the successor state *outside* the registry (the
/// expensive part — τ, μ, durability) and then Publish it with one atomic
/// store. Readers therefore never wait on a writer: while a transformation is
/// in flight every Current() call returns the previous version, and the switch
/// to the new one is a pointer swap, not a data copy.
///
/// Knowledgebase itself is a plain immutable value whose guts (base Database,
/// overlays) are shared via shared_ptr and copy-on-write buffers, so handing
/// one kb to many concurrent readers costs nothing and is data-race-free by
/// construction.

#include <atomic>
#include <cstdint>
#include <memory>

#include "rel/knowledgebase.h"

namespace kbt::serve {

/// One immutable published version. `kb` never changes after publication;
/// readers share the object through the registry's shared_ptr.
struct Snapshot {
  uint64_t version = 0;
  Knowledgebase kb;
};

/// The single writer → many readers handoff. All methods are thread-safe;
/// Current() is wait-free with respect to writers (one atomic shared_ptr
/// load). Publish calls must be externally serialized (the Server's writer
/// lock does this) — the registry enforces monotone versions but not write
/// ordering.
class SnapshotRegistry {
 public:
  /// Installs `initial` as version 0.
  explicit SnapshotRegistry(Knowledgebase initial);

  /// The current snapshot. Never null; never blocks on a writer.
  std::shared_ptr<const Snapshot> Current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Atomically publishes `next` as the new current snapshot and returns it.
  /// The previous snapshot stays alive until its last reader drops it.
  std::shared_ptr<const Snapshot> Publish(Knowledgebase next);

  /// Version of the current snapshot.
  uint64_t version() const { return Current()->version; }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> current_;
};

}  // namespace kbt::serve

#endif  // KBT_SERVE_SNAPSHOT_H_
