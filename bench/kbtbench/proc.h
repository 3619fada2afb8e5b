#ifndef KBTBENCH_PROC_H_
#define KBTBENCH_PROC_H_

/// \file
/// Child processes (kbt_server, kbt_fsck) and the scratch-directory helpers
/// the workloads need. Every child is reaped: the destructor kills and waits
/// for a child that was not drained or waited for explicitly.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace kbtbench {

class Child {
 public:
  /// Spawns argv[0] with `argv`; stdout goes to a pipe read by WaitForLine,
  /// stderr is appended to `log_path`, stdin is /dev/null and no other
  /// descriptor of this process is inherited.
  static kbt::StatusOr<std::unique_ptr<Child>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path);

  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads stdout until a line starting with `prefix`; returns that line.
  kbt::StatusOr<std::string> WaitForLine(std::string_view prefix,
                                         double timeout_s);

  /// SIGTERM, then waits up to `timeout_s` (SIGKILL after that). OK iff the
  /// child exited 0; `out` (nullable) receives the rest of its stdout.
  kbt::Status Drain(double timeout_s, std::string* out = nullptr);

  /// Waits for the child to exit on its own; returns its exit code (-1 when
  /// killed by a signal) and the rest of its stdout.
  int Wait(std::string* out);

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;

 private:
  Child(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  /// Reads whatever stdout is available within `timeout_ms` into buffer_;
  /// false on EOF or timeout.
  bool ReadMore(int timeout_ms);
  int Reap(bool block);

  pid_t pid_;
  int out_fd_;
  bool reaped_ = false;
  int status_ = 0;
  std::string buffer_;
};

/// A running kbt_server and the port it printed.
struct Server {
  std::unique_ptr<Child> child;
  uint16_t port = 0;
};

/// Spawns `bin` with `args` and waits for its "listening on HOST:PORT" line.
kbt::StatusOr<Server> StartServer(const std::string& bin,
                                  const std::vector<std::string>& args,
                                  const std::string& log_path);

/// Peak resident set (VmHWM) of process `pid` ("self" for this one) in MiB;
/// 0 when unreadable. Unlike getrusage's ru_maxrss, VmHWM starts afresh at
/// exec, so it does not carry the RSS of whatever process forked this one.
double PeakRssMb(const std::string& pid);

void RemoveTree(const std::string& path);
/// Replaces `to` with a copy of the directory `from`.
kbt::Status CopyTree(const std::string& from, const std::string& to);
/// Total bytes of the regular files under `dir`.
uint64_t TreeBytes(const std::string& dir);

}  // namespace kbtbench

#endif  // KBTBENCH_PROC_H_
