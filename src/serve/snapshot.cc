#include "serve/snapshot.h"

#include <utility>

namespace kbt::serve {

SnapshotRegistry::SnapshotRegistry(Knowledgebase initial) {
  auto snap = std::make_shared<Snapshot>();
  snap->version = 0;
  snap->kb = std::move(initial);
  current_ = std::move(snap);
}

std::shared_ptr<const Snapshot> SnapshotRegistry::Publish(Knowledgebase next) {
  auto snap = std::make_shared<Snapshot>();
  snap->version = Current()->version + 1;
  snap->kb = std::move(next);
  std::shared_ptr<const Snapshot> published(std::move(snap));
  std::shared_ptr<const Snapshot> retired = published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(retired);
  }
  // `retired` may be the last reference to the previous version: it is
  // destroyed here, after the lock is released.
  return published;
}

}  // namespace kbt::serve
