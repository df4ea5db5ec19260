// minimpi: a thread-rank message-passing library with virtual time.
//
// Implements the MPI subset the Otter run-time library needs (the paper
// targets "any parallel computer supporting a C compiler and the MPI
// message-passing library"). Ranks are std::threads inside one process;
// message payloads move through in-memory mailboxes.
//
// Virtual time: every rank owns a clock that advances by
//   (a) its measured per-thread CPU time between communication calls,
//       scaled by the machine profile's cpu_scale — immune to host core
//       count and oversubscription; and
//   (b) analytic communication costs (latency + bytes/bandwidth with
//       intra-/inter-node distinction and shared-medium serialization).
// Speedup figures report max-over-ranks virtual time, which is exactly the
// quantity the paper's figures plot.
//
// Fault tolerance: the network carries an abort ("poison") state. The first
// rank that fails marks the network and wakes every blocked peer; all
// subsequent communication throws AbortedError, so a run always terminates
// and run_spmd can aggregate every rank's outcome into one SpmdFailure. A
// deadlock watchdog diagnoses runs where every live rank is blocked on a
// message that can never arrive, and a wall-clock deadline backstops runs
// that wedge in ways the watchdog cannot see. Deterministic fault injection
// (minimpi/fault.hpp) scripts drops, delays, duplication, corruption, and
// rank crashes for tests and benches.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "minimpi/error.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/profile.hpp"

namespace otter::mpi {

/// Per-run execution policy: failure handling and fault injection.
struct SpmdOptions {
  /// Wall-clock seconds a single blocked send/recv may wait before the
  /// watchdog declares the run wedged and aborts it. This is the backstop
  /// deadline; true deadlocks (every live rank blocked, nothing deliverable)
  /// are detected immediately without waiting.
  double watchdog_timeout = 30.0;

  /// Absolute wall-clock deadline for the *whole* run — the session-scoped
  /// deadline otterd charges against each request. The default-constructed
  /// time_point means "no deadline". The watchdog honours it while ranks
  /// are blocked; the executor polls it between statements so compute-bound
  /// loops are covered too.
  std::chrono::steady_clock::time_point run_deadline{};

  /// External cancellation flag (daemon shutdown, client disconnect). Not
  /// owned; must outlive the run. Polled at the same points as
  /// run_deadline.
  const std::atomic<bool>* cancel = nullptr;

  /// Scripted deterministic faults (see minimpi/fault.hpp). Default: none.
  FaultPlan fault;

  /// Per-request matrix-memory budget in bytes, charged against the process
  /// resource governor for the duration of the run (0 = unlimited). Exact
  /// per-request under --isolate=process (one child per request); a shared
  /// process-wide ceiling under --isolate=none.
  uint64_t mem_budget_bytes = 0;

  [[nodiscard]] bool has_deadline() const {
    return run_deadline != std::chrono::steady_clock::time_point{};
  }
  /// True once the run must stop (deadline passed or cancel raised).
  [[nodiscard]] bool expired() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline() && std::chrono::steady_clock::now() >= run_deadline;
  }
  /// Why expired() fired, for failure reports.
  [[nodiscard]] const char* expiry_reason() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return "run cancelled by the service";
    }
    return "request deadline exceeded";
  }
};

/// One rank's outcome inside a failed SPMD run.
struct RankFailure {
  int rank = -1;
  std::string what;
  /// Stable diagnostic code when the rank's exception carried one via
  /// CodedError (e.g. "E5003" shape guard, "E5004" deadline); empty for
  /// uncoded failures (watchdog, deadlock, injected faults).
  std::string code;
  /// True when this rank failed on its own; false when it was torn down by
  /// the network abort triggered by another rank's failure (AbortedError).
  bool primary = false;
  /// Communication ops (p2p sends + receives) the rank completed before it
  /// stopped.
  uint64_t ops_completed = 0;
};

/// Aggregated failure of an SPMD run: every rank that did not finish
/// cleanly, primaries first. what() carries a formatted report naming the
/// originating rank(s), so existing catch(std::exception) sites stay
/// informative.
class SpmdFailure : public MpiError {
 public:
  explicit SpmdFailure(std::vector<RankFailure> failures);

  [[nodiscard]] const std::vector<RankFailure>& failures() const {
    return failures_;
  }
  /// First primary failure if any, else the first failure.
  [[nodiscard]] const RankFailure& first() const;
  [[nodiscard]] size_t primary_count() const;

 private:
  static std::string format(const std::vector<RankFailure>& failures);
  std::vector<RankFailure> failures_;
};

namespace detail {

struct Message {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  double ready_vtime = 0.0;  // virtual time at which the data has arrived
};

/// Shared state for one SPMD run: one mailbox per rank, final clocks, the
/// abort ("poison") flag, and the deadlock watchdog's wait-for table.
///
/// A single mutex guards every mailbox. That makes the deadlock check — "is
/// every live rank blocked with nothing deliverable?" — a trivially
/// consistent snapshot, and with <= 16 simulated ranks the contention is
/// irrelevant (virtual time, not wall time, is what the model reports).
/// Each rank blocks on its own condition variable, so a delivery wakes only
/// its receiver; abort and rank exit wake every rank.
class Network {
 public:
  Network(MachineProfile profile, int nranks, SpmdOptions opts = {});

  void deliver(int dst, Message msg);

  /// Blocks until a message from (src, tag) is available for dst. Throws
  /// AbortedError if the network is (or becomes) poisoned, if the deadlock
  /// watchdog fires, or if the wall-clock backstop deadline expires.
  Message await(int dst, int src, int tag);

  /// Poisons the network: records the first failure, wakes every blocked
  /// rank. `rank` < 0 marks a watchdog/deadlock abort. First call wins;
  /// later calls are ignored.
  void abort(int rank, const std::string& what);

  /// Throws AbortedError when the network is poisoned. Called at the top of
  /// every communication op so no rank can keep talking to a dead run.
  void throw_if_aborted() const;

  /// Marks `rank` as finished (normally or by failure): it will deliver no
  /// further messages. Re-runs the deadlock check, since ranks still blocked
  /// on this rank can now never be satisfied.
  void rank_done(int rank);

  const MachineProfile profile;
  const int nranks;
  const SpmdOptions opts;

  // Final per-rank virtual times and op counts; each slot is written only
  // by its owning rank's thread before run_spmd joins it.
  std::vector<double> final_vtimes;
  std::vector<uint64_t> final_ops;

 private:
  struct Waiter {
    bool active = false;
    int src = -1;
    int tag = 0;
    std::condition_variable cv;  ///< the owning rank blocks here
  };

  [[nodiscard]] bool match_in_queue_locked(int dst, int src, int tag) const;
  /// Declares a deadlock (and poisons the network) when every live rank is
  /// blocked and none of their awaited messages is queued. Returns whether
  /// the network is now aborted.
  bool check_deadlock_locked();
  [[nodiscard]] std::string waitfor_report_locked() const;
  void abort_locked(int rank, const std::string& what);
  void wake_all_locked();

  mutable std::mutex mu_;
  std::vector<std::deque<Message>> queues_;
  std::vector<Waiter> waiters_;
  int waiting_ = 0;  // ranks currently blocked in await
  int done_ = 0;     // ranks that finished or failed
  bool aborted_ = false;
  std::string abort_what_;
};

}  // namespace detail

/// Per-rank communicator handle. Passed to the SPMD body; also carries the
/// rank's virtual clock.
class Comm {
 public:
  Comm(detail::Network& net, int rank);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return net_.nranks; }
  [[nodiscard]] const MachineProfile& profile() const { return net_.profile; }

  // -- virtual clock ---------------------------------------------------------

  /// Folds CPU time burned since the last call into the virtual clock.
  /// Called implicitly by every communication operation.
  void charge_compute();

  /// Adds explicit virtual seconds (used by tests and cost modelling).
  void charge(double seconds) { vtime_ += seconds; }

  [[nodiscard]] double vtime() const { return vtime_; }

  /// Communication ops (p2p sends + receives) completed so far.
  [[nodiscard]] uint64_t ops() const { return ops_; }

  /// Restores the virtual clock and op counter from a checkpoint so a
  /// resumed run continues the original run's comm-op numbering (keeping
  /// op-indexed fault schedules and vtime accounting aligned).
  void restore_stats(double vtime, uint64_t ops) {
    vtime_ = vtime;
    ops_ = ops;
  }

  // -- point-to-point ----------------------------------------------------------

  void send(int dst, int tag, const void* data, size_t bytes);
  void recv(int src, int tag, void* data, size_t bytes);

  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    send(dst, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void recv(int src, int tag, std::span<T> data) {
    recv(src, tag, data.data(), data.size_bytes());
  }
  void send_scalar(int dst, int tag, double v) { send(dst, tag, &v, sizeof v); }
  double recv_scalar(int src, int tag) {
    double v;
    recv(src, tag, &v, sizeof v);
    return v;
  }

  // -- collectives -------------------------------------------------------------
  // All collectives are built from the p2p primitives so communication cost
  // falls out of the network model (binomial trees on switched fabrics
  // degrade naturally on the shared-medium profile).

  void barrier();

  /// Broadcast `bytes` from root to everyone (binomial tree).
  void bcast(void* data, size_t bytes, int root = 0);
  double bcast_scalar(double v, int root = 0) {
    bcast(&v, sizeof v, root);
    return v;
  }

  enum class ReduceOp { Sum, Min, Max, Prod };

  /// Element-wise reduction of n doubles to root (binomial tree).
  void reduce(const double* in, double* out, size_t n, ReduceOp op,
              int root = 0);
  /// Reduce + broadcast.
  void allreduce(const double* in, double* out, size_t n, ReduceOp op);
  double allreduce_scalar(double v, ReduceOp op);

  /// Concatenate variable-length blocks from every rank on every rank.
  /// counts[r] is rank r's element count; `in` holds this rank's block;
  /// `out` must have sum(counts) elements, laid out in rank order (ring).
  void allgatherv(const double* in, double* out,
                  const std::vector<size_t>& counts);

  /// Gather variable-length blocks to root; out is only written on root.
  void gatherv(const double* in, double* out,
               const std::vector<size_t>& counts, int root = 0);

  /// Scatter variable-length blocks from root; `in` only read on root.
  void scatterv(const double* in, double* out,
                const std::vector<size_t>& counts, int root = 0);

  /// Personalized all-to-all: send_blocks[r] goes to rank r; returns
  /// recv_blocks[r] received from rank r. Used by distributed transpose.
  void alltoallv(const std::vector<std::vector<double>>& send_blocks,
                 std::vector<std::vector<double>>& recv_blocks);

  /// Records this rank's final virtual time into the network (call last).
  void finish();

  /// Publishes the op counter into the network (also done by finish();
  /// run_spmd calls this for ranks that die before finishing).
  void publish_stats();

 private:
  [[nodiscard]] double now_cpu() const;

  /// Entry gate for every communication op: checks the poison flag, counts
  /// the op, and fires a scripted crash when the fault plan says so.
  void op_event(const char* what);

  void check_counts(const char* op, const std::vector<size_t>& counts) const;

  detail::Network& net_;
  int rank_;
  double vtime_ = 0.0;
  double last_cpu_ = 0.0;
  uint64_t ops_ = 0;
  detail::FaultStream faults_;
};

/// Result of one SPMD execution.
struct RunResult {
  std::vector<double> vtimes;  // per-rank final virtual times
  std::vector<uint64_t> ops;   // per-rank completed communication ops
  /// Per-rank minor page faults taken by the rank's thread over its body
  /// (RUSAGE_THREAD ru_minflt delta).
  std::vector<uint64_t> minor_faults;
  [[nodiscard]] double max_vtime() const;
  [[nodiscard]] uint64_t total_ops() const;
};

/// Runs `body` on `nranks` ranks (threads) over a fresh network and returns
/// the per-rank virtual times. If any rank fails, the whole run is aborted
/// (no rank is left blocked) and an SpmdFailure aggregating every rank's
/// outcome is thrown.
RunResult run_spmd(const MachineProfile& profile, int nranks,
                   const std::function<void(Comm&)>& body,
                   const SpmdOptions& opts);
RunResult run_spmd(const MachineProfile& profile, int nranks,
                   const std::function<void(Comm&)>& body);

}  // namespace otter::mpi
