#ifndef IDLOG_COMMON_LIMITS_H_
#define IDLOG_COMMON_LIMITS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/value.h"
#include "eval/eval_stats.h"

namespace idlog {

class TraceSink;  // obs/trace.h; the governor only holds a pointer.

/// Which governor budget tripped (see ResourceGovernor).
enum class BudgetKind {
  kDeadline,    ///< Wall-clock timeout.
  kTuples,      ///< Global derived-tuple budget.
  kMemory,      ///< Approximate-memory budget.
  kIterations,  ///< Fixpoint-iteration / firing-step cap.
  kCancelled,   ///< Cooperative cancellation from another thread.
};

/// "deadline", "tuples", "memory", "iterations" or "cancelled".
const char* BudgetKindName(BudgetKind kind);

/// Caller-facing resource-limit configuration. Zero means unlimited.
/// One EvalLimits governs a whole evaluation (all strata, all
/// enumeration branches) — not one relation or one module.
struct EvalLimits {
  int64_t timeout_ms = 0;          ///< Wall-clock deadline from Arm().
  uint64_t max_tuples = 0;         ///< Facts/states materialized anywhere.
  uint64_t max_memory_bytes = 0;   ///< Approximate bytes of derived data.
  uint64_t max_iterations = 0;     ///< Fixpoint rounds / firing steps.

  static EvalLimits Unlimited() { return EvalLimits{}; }
  static EvalLimits Deadline(int64_t ms) {
    EvalLimits l;
    l.timeout_ms = ms;
    return l;
  }
  static EvalLimits TupleBudget(uint64_t n) {
    EvalLimits l;
    l.max_tuples = n;
    return l;
  }
  static EvalLimits IterationBudget(uint64_t n) {
    EvalLimits l;
    l.max_iterations = n;
    return l;
  }

  bool unlimited() const {
    return timeout_ms == 0 && max_tuples == 0 && max_memory_bytes == 0 &&
           max_iterations == 0;
  }
};

/// Diagnostic captured at the moment a budget trips: which budget,
/// where (subsystem scope and stratum, when inside the stratified
/// engine), and the work-counter snapshot.
struct TripInfo {
  BudgetKind budget = BudgetKind::kCancelled;
  std::string scope;   ///< "stratum fixpoint", "grounder", ...
  int stratum = -1;    ///< Stratum index, or -1 outside the engine.
  EvalStats stats;     ///< Snapshot at trip time (if a source was set).
  /// Wall time between Arm() and the trip. Also copied into
  /// stats.eval_wall_ns when the source had not stamped one, so the
  /// snapshot is self-consistent (counters *and* elapsed time at trip).
  uint64_t elapsed_ns = 0;
  std::string message; ///< The rendered Status message.
};

/// One object carrying every resource budget of an evaluation: a
/// wall-clock deadline, a cooperative cancellation token, a global
/// derived-tuple budget, an approximate-memory budget and a
/// fixpoint-iteration cap.
///
/// Evaluation threads call CheckPoint()/OnDerived()/OnIteration() from
/// their hot loops; CheckPoint is amortized — it counts work units and
/// probes the clock and the cancel flag only once every kProbeInterval
/// units, so per-tuple cost is one relaxed atomic add and one compare.
/// Cancel() may be called from any thread at any time; the evaluation
/// observes it at its next probe.
///
/// Accounting is thread-safe: the parallel stratum executor charges one
/// shared governor from every worker (counters are relaxed atomics;
/// budget totals stay exact because each fetch_add observes its own
/// contribution). The trip latch is guarded by a mutex, so exactly one
/// thread renders the diagnostic and every other sees it complete.
/// Arm() and the diagnostic-label setters (set_scope/set_stratum/
/// set_stats_source) remain single-threaded: call them only between
/// evaluations or from the coordinating thread while workers are idle.
///
/// Once a budget trips the governor latches: every subsequent check
/// returns the same structured ResourceExhausted Status, so deep
/// evaluation stacks unwind promptly. Arm() resets everything.
class ResourceGovernor {
 public:
  /// Probe cadence of the amortized checkpoint (work units between
  /// clock/cancel probes). Public so tests can reason about how fast a
  /// Cancel() is observed.
  static constexpr uint64_t kProbeInterval = 2048;

  ResourceGovernor() { Arm(EvalLimits()); }
  explicit ResourceGovernor(const EvalLimits& limits) { Arm(limits); }

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Installs `limits`, clears all counters, diagnostic labels, the
  /// stats source and any latched trip, and starts the deadline clock
  /// now. Also clears a pending Cancel(). Call only between
  /// evaluations, never concurrently with one.
  void Arm(const EvalLimits& limits);

  /// Thread-safe cooperative cancellation: flags the governor; the
  /// evaluation thread trips at its next probe (within one checkpoint
  /// interval of work).
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // --- Accounting, called from the (single) evaluation thread. ---

  /// Counts `units` of work; probes deadline/cancellation every
  /// kProbeInterval units. Returns the trip Status once tripped.
  Status CheckPoint(uint64_t units = 1) {
    if (tripped_.load(std::memory_order_acquire)) return TripStatus();
    uint64_t seen =
        work_.fetch_add(units, std::memory_order_relaxed) + units;
    if (seen < next_probe_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    return Probe();
  }

  /// Charges `n` materialized tuples (facts, ground clauses, visited
  /// states — whatever the subsystem's unit of result is) and `bytes`
  /// of approximate memory against the global budgets.
  Status OnDerived(uint64_t n, uint64_t bytes) {
    if (tripped_.load(std::memory_order_acquire)) return TripStatus();
    uint64_t tuples =
        tuples_.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t memory =
        memory_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limits_.max_tuples != 0 && tuples > limits_.max_tuples) {
      return Trip(BudgetKind::kTuples);
    }
    if (limits_.max_memory_bytes != 0 &&
        memory > limits_.max_memory_bytes) {
      return Trip(BudgetKind::kMemory);
    }
    if (memory >= next_memory_milestone_.load(std::memory_order_relaxed)) {
      MaybeRecordMemoryMilestone(memory);
    }
    return CheckPoint(n);
  }

  /// Charges one fixpoint round (or one non-deterministic firing step)
  /// and probes the clock — rounds can be slow, so every round checks.
  Status OnIteration() {
    if (tripped_.load(std::memory_order_acquire)) return TripStatus();
    uint64_t rounds =
        iterations_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (limits_.max_iterations != 0 && rounds > limits_.max_iterations) {
      return Trip(BudgetKind::kIterations);
    }
    return Probe();
  }

  // --- Diagnostic labelling (evaluation thread only). ---

  /// Names the subsystem currently charging the governor; appears in
  /// the trip diagnostic ("grounder", "stratum fixpoint", ...).
  void set_scope(std::string scope) { scope_ = std::move(scope); }
  const std::string& scope() const { return scope_; }

  /// Stratum index for trips inside the stratified engine (-1 outside).
  void set_stratum(int stratum) { stratum_ = stratum; }
  int stratum() const { return stratum_; }

  /// Observability hook: when set, the governor records a "governor
  /// trip" instant event (budget kind, scope, stratum, charges, elapsed
  /// time) into `sink` at the moment a budget trips or a cancellation
  /// is observed. Not owned; the sink must outlive the governor or be
  /// detached with nullptr. Unlike the diagnostic labels, Arm() keeps
  /// the sink installed — one trace can span many governed runs.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
  TraceSink* trace_sink() const { return trace_sink_; }

  /// Stats to snapshot into TripInfo when a budget trips. May be null.
  /// The pointed-to stats must stay alive until the source is replaced,
  /// cleared, or the governor is re-armed — engines that borrow a
  /// longer-lived governor should install it via GovernorScope, which
  /// restores the previous source when they are done.
  void set_stats_source(const EvalStats* stats) { stats_source_ = stats; }
  const EvalStats* stats_source() const { return stats_source_; }

  // --- Inspection. ---

  bool tripped() const {
    return tripped_.load(std::memory_order_acquire);
  }
  /// Valid only when tripped().
  const TripInfo& trip() const { return trip_; }
  /// ResourceExhausted with the trip diagnostic, or OK if not tripped.
  Status TripStatus() const;

  const EvalLimits& limits() const { return limits_; }
  uint64_t tuples_charged() const {
    return tuples_.load(std::memory_order_relaxed);
  }
  uint64_t memory_charged() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t iterations_charged() const {
    return iterations_.load(std::memory_order_relaxed);
  }

 private:
  Status Probe();                 ///< Slow path of CheckPoint.
  Status Trip(BudgetKind kind);   ///< Latches the trip diagnostic.
  /// Flight-recorder breadcrumb at memory-charge milestones (1 MiB,
  /// then doubling). Out of line: the hot path only pays the relaxed
  /// load above, and only crossings reach this call.
  void MaybeRecordMemoryMilestone(uint64_t memory);

  EvalLimits limits_;
  std::chrono::steady_clock::time_point armed_at_{};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  TraceSink* trace_sink_ = nullptr;
  std::atomic<bool> cancelled_{false};

  std::atomic<uint64_t> work_{0};
  std::atomic<uint64_t> next_probe_{kProbeInterval};
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> memory_bytes_{0};
  std::atomic<uint64_t> iterations_{0};
  /// Next memory-charge level worth a flight-recorder breadcrumb;
  /// doubles on every crossing. Reset to 1 MiB by Arm().
  std::atomic<uint64_t> next_memory_milestone_{1ull << 20};

  std::string scope_ = "evaluation";
  int stratum_ = -1;
  const EvalStats* stats_source_ = nullptr;

  /// Serializes the trip latch: the first tripping thread fills `trip_`
  /// and then publishes via `tripped_` (release); readers that saw
  /// `tripped_` (acquire) may read `trip_` without the mutex because it
  /// is never written again until the next Arm().
  std::mutex trip_mu_;
  std::atomic<bool> tripped_{false};
  TripInfo trip_;
};

/// RAII installer for the diagnostic labels and stats source of a
/// governor the caller merely borrows: saves the governor's current
/// scope, stratum and stats source, installs the caller's, and restores
/// the saved ones on destruction. A shared governor routinely outlives
/// the stack-local engines charging it (one governor spans a whole
/// enumeration), so every engine must withdraw its EvalStats pointer on
/// exit or a later trip dereferences freed memory. A null governor
/// makes the guard a no-op.
class GovernorScope {
 public:
  GovernorScope(ResourceGovernor* governor, const EvalStats* stats,
                std::string scope)
      : governor_(governor) {
    if (governor_ == nullptr) return;
    saved_stats_ = governor_->stats_source();
    saved_scope_ = governor_->scope();
    saved_stratum_ = governor_->stratum();
    governor_->set_stats_source(stats);
    governor_->set_scope(std::move(scope));
  }
  ~GovernorScope() {
    if (governor_ == nullptr) return;
    governor_->set_stats_source(saved_stats_);
    governor_->set_scope(std::move(saved_scope_));
    governor_->set_stratum(saved_stratum_);
  }

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* governor_;
  const EvalStats* saved_stats_ = nullptr;
  std::string saved_scope_;
  int saved_stratum_ = -1;
};

/// Per-tuple heap cost used for the approximate-memory budget, derived
/// from the flat storage layout (storage/relation.h): the row's 8-byte
/// packed Values in the arity-strided row array, plus one 8-byte
/// membership slot at the table's maximum load of 1/2 (16 bytes per
/// tuple). Both arrays grow by doubling, so a relation's actual heap
/// lies between 1x and 2x of size() * ApproxTupleBytes(arity) —
/// storage_test pins that bound against Relation::heap_bytes().
inline uint64_t ApproxTupleBytes(size_t arity) {
  return static_cast<uint64_t>(arity) * sizeof(Value) + 2 * sizeof(uint64_t);
}

}  // namespace idlog

#endif  // IDLOG_COMMON_LIMITS_H_
