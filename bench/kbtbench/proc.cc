#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

extern char** environ;

namespace kbtbench {

namespace fs = std::filesystem;

kbt::StatusOr<std::unique_ptr<Child>> Child::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return kbt::Status::IOErrorFromErrno("pipe", errno);
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  // Client sockets of this process must not leak into a server: a leaked
  // copy keeps the connection open after the client closes it.
  posix_spawn_file_actions_addclosefrom_np(&actions, 3);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    return kbt::Status::IOErrorFromErrno("spawn " + argv[0], rc);
  }
  return std::unique_ptr<Child>(new Child(pid, pipe_fds[0]));
}

Child::~Child() {
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    Reap(true);
  }
  ::close(out_fd_);
}

int Child::Reap(bool block) {
  if (reaped_) return 0;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  } while (r < 0 && errno == EINTR);
  if (r == pid_) {
    reaped_ = true;
    status_ = status;
  }
  return r;
}

bool Child::ReadMore(int timeout_ms) {
  struct pollfd pfd = {out_fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return false;
  char buf[4096];
  ssize_t n = ::read(out_fd_, buf, sizeof(buf));
  if (n <= 0) return false;
  buffer_.append(buf, static_cast<size_t>(n));
  return true;
}

kbt::StatusOr<std::string> Child::WaitForLine(std::string_view prefix,
                                              double timeout_s) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_s);
  while (true) {
    size_t eol;
    while ((eol = buffer_.find('\n')) != std::string::npos) {
      std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      if (line.compare(0, prefix.size(), prefix) == 0) return line;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return kbt::Status::DeadlineExceeded("no '" + std::string(prefix) +
                                           "' line from child");
    }
    if (!ReadMore(static_cast<int>(left.count()))) {
      if (std::chrono::steady_clock::now() < deadline) {
        return kbt::Status::Unavailable("child closed stdout before '" +
                                        std::string(prefix) + "'");
      }
    }
  }
}

int Child::Wait(std::string* out) {
  while (ReadMore(-1)) {
  }
  Reap(true);
  if (out != nullptr) *out = buffer_;
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : -1;
}

kbt::Status Child::Drain(double timeout_s, std::string* out) {
  if (!reaped_) ::kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_s);
  while (!reaped_ && Reap(false) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      Reap(true);
      return kbt::Status::DeadlineExceeded("child did not drain in time");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (ReadMore(0)) {
  }
  if (out != nullptr) *out = buffer_;
  if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
    return kbt::Status::Internal("child exited abnormally");
  }
  return kbt::Status::OK();
}

double Child::PeakRssMb() const { return kbtbench::PeakRssMb(std::to_string(pid_)); }

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

kbt::StatusOr<Server> StartServer(const std::string& bin,
                                  const std::vector<std::string>& args,
                                  const std::string& log_path) {
  std::vector<std::string> argv = {bin};
  argv.insert(argv.end(), args.begin(), args.end());
  Server server;
  KBT_ASSIGN_OR_RETURN(server.child, Child::Spawn(argv, log_path));
  KBT_ASSIGN_OR_RETURN(std::string line,
                       server.child->WaitForLine("listening on ", 30.0));
  size_t colon = line.rfind(':');
  int port = colon == std::string::npos ? 0 : std::atoi(line.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return kbt::Status::Internal("cannot parse port from: " + line);
  }
  server.port = static_cast<uint16_t>(port);
  return server;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

kbt::Status CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return kbt::Status::IOError("copy " + from + ": " + ec.message());
  return kbt::Status::OK();
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace kbtbench
