#include "service/sandbox.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "support/sanitizer.hpp"

namespace otter::service {

namespace {

void write_all(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone (killed us already, or shutting down)
    }
    off += static_cast<size_t>(n);
  }
}

/// Child-side resource backstops. The governor's accounted budget is the
/// precise limit; these are the coarse OS-level ones behind it.
void apply_limits(const SandboxLimits& limits) {
  rlimit rl{};
  // Crash-by-design children must not litter the filesystem with cores.
  rl.rlim_cur = 0;
  rl.rlim_max = 0;
  ::setrlimit(RLIMIT_CORE, &rl);
  if (limits.cpu_limit_seconds > 0) {
    auto secs = static_cast<rlim_t>(std::ceil(limits.cpu_limit_seconds));
    rl.rlim_cur = secs;
    rl.rlim_max = secs + 2;  // SIGXCPU first, hard SIGKILL shortly after
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  // RLIMIT_AS is incompatible with sanitizer runtimes, which mmap huge
  // shadow/reservation regions before main(); applying it there makes every
  // child die at startup instead of at its budget.
#ifndef OTTER_SANITIZED
  if (limits.mem_budget_bytes > 0) {
    // 4x the accounted budget plus fixed headroom: the governor only
    // charges matrix payloads, so the limit must leave room for code,
    // stacks, the artifact, and allocator slack. This fires only if the
    // accounting layer is bypassed or wrong.
    rl.rlim_cur = static_cast<rlim_t>(limits.mem_budget_bytes * 4 +
                                      (512ull << 20));
    rl.rlim_max = rl.rlim_cur;
    ::setrlimit(RLIMIT_AS, &rl);
  }
#endif
}

/// Chaos hook: die the requested way. Used by the crash-matrix tests and
/// the CI soak to exercise every death classification deterministically.
/// The stderr marker doubles as the fixture for worker_stderr propagation.
[[noreturn]] void die_by(const std::string& how) {
  const std::string note = "otter-sandbox: test_kill=" + how + "\n";
  write_all(STDERR_FILENO, note.data(), note.size());
  if (how == "segv") {
    ::raise(SIGSEGV);
  } else if (how == "kill") {
    ::raise(SIGKILL);
  } else if (how == "hang") {
    for (;;) ::pause();  // until the parent's SIGKILL backstop
  }
  _exit(3);  // "exit" (and the fallthrough for raise() being intercepted)
}

int64_t millis_until(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             t - std::chrono::steady_clock::now())
      .count();
}

}  // namespace

SandboxOutcome run_in_sandbox(const std::function<std::string()>& job,
                              std::chrono::steady_clock::time_point deadline,
                              const SandboxLimits& limits, Supervisor& sup) {
  SandboxOutcome out;

  int resp[2];  // child -> parent: the JSON response line
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, resp) != 0) {
    out.exit_code = -1;
    return out;
  }
  int errp[2];  // child stderr capture
  if (::pipe(errp) != 0) {
    ::close(resp[0]);
    ::close(resp[1]);
    out.exit_code = -1;
    return out;
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(resp[0]);
    ::close(resp[1]);
    ::close(errp[0]);
    ::close(errp[1]);
    out.exit_code = -1;
    return out;
  }

  if (pid == 0) {
    // ---- child ----------------------------------------------------------
    // Only this thread survives the fork. The job touches nothing but the
    // immutable artifact and fresh per-run state, so no parent lock can be
    // held against us (see the fork-safety notes in sandbox.hpp).
    ::close(resp[0]);
    ::close(errp[0]);
    ::dup2(errp[1], STDERR_FILENO);
    if (errp[1] != STDERR_FILENO) ::close(errp[1]);
    ::signal(SIGPIPE, SIG_IGN);  // parent may have killed us mid-write
    apply_limits(limits);
    if (!limits.test_kill.empty()) die_by(limits.test_kill);
    std::string line;
    try {
      line = job();
    } catch (...) {
      _exit(2);  // the job's own barriers failed: a protocol death, E0014
    }
    line.push_back('\n');
    write_all(resp[1], line.data(), line.size());
    _exit(0);
  }

  // ---- parent -----------------------------------------------------------
  sup.on_spawn();
  ::close(resp[1]);
  ::close(errp[1]);

  const auto kill_at =
      deadline + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(limits.kill_grace));
  std::string reply_buf;
  bool stderr_truncated = false;
  bool resp_open = true;
  bool err_open = true;
  bool killed = false;
  char chunk[4096];

  while (resp_open || err_open) {
    if (!killed) {
      const bool cancelled =
          limits.cancel != nullptr &&
          limits.cancel->load(std::memory_order_relaxed);
      if (cancelled || millis_until(kill_at) <= 0) {
        ::kill(pid, SIGKILL);
        killed = true;
      }
    }
    pollfd fds[2];
    nfds_t nfds = 0;
    if (resp_open) fds[nfds++] = {resp[0], POLLIN, 0};
    if (err_open) fds[nfds++] = {errp[0], POLLIN, 0};
    // Short poll slices keep the cancel flag and the kill clock honest
    // even while the child is silent.
    int64_t wait_ms = killed ? 200 : millis_until(kill_at);
    if (wait_ms < 0) wait_ms = 0;
    if (wait_ms > 200) wait_ms = 200;
    int pr = ::poll(fds, nfds, static_cast<int>(wait_ms));
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ssize_t n = ::read(fds[i].fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        n = 0;
      }
      if (fds[i].fd == resp[0]) {
        if (n == 0) {
          resp_open = false;
        } else {
          reply_buf.append(chunk, static_cast<size_t>(n));
        }
      } else {
        if (n == 0) {
          err_open = false;
        } else if (out.child_stderr.size() < limits.stderr_cap) {
          size_t room = limits.stderr_cap - out.child_stderr.size();
          out.child_stderr.append(chunk,
                                  std::min(static_cast<size_t>(n), room));
          if (static_cast<size_t>(n) > room) stderr_truncated = true;
        } else {
          stderr_truncated = true;  // keep draining so the child never blocks
        }
      }
    }
  }
  ::close(resp[0]);
  ::close(errp[0]);

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  if (stderr_truncated) out.child_stderr += "\n...[stderr truncated]";
  const size_t nl = reply_buf.find('\n');
  if (nl != std::string::npos) {
    out.replied = true;
    out.reply = reply_buf.substr(0, nl);
  }
  out.timed_out = killed;
  if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    out.exit_code = WEXITSTATUS(status);
  }
  // "crashed" = died on its own without a reply; a deadline kill is the
  // parent's doing and is counted separately.
  sup.on_reap(killed, !out.replied && !killed);
  return out;
}

}  // namespace otter::service
