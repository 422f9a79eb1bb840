#pragma once
// TaskPool / TaskGraph: a persistent work-stealing thread pool executing
// whole RK steps as dependency-tracked task graphs (docs/perf.md,
// "Whole-RK-step fusion"), and — since the throughput service mode
// (docs/serving.md) — a *shared* pool multiplexing the graphs of many
// concurrent solver instances through per-instance task domains with
// weighted fair scheduling.
//
// Two usage shapes:
//   * Synchronous, single graph: run(graph) — a private executor's path.
//     The calling thread participates as worker 0 and returns when every
//     task has finished.
//   * Asynchronous, many graphs: createDomain() once per instance, then
//     submit(graph, domain) -> Ticket per dispatch, and wait()/waitAny()
//     to harvest completions. Tasks from different submissions interleave
//     in the same worker deques; fairness between domains is a per-worker
//     deficit round-robin weighted by the domain's admission weight.
//
// Concurrency design, for reviewers and TSan:
//   * The deque is the Chase-Lev work-stealing deque in the C11-atomics
//     formulation of Le et al. (PPoPP'13), with the standalone fences
//     replaced by equivalent-or-stronger seq_cst operations on top/bottom
//     (ThreadSanitizer does not model standalone fences; the operation
//     form is both correct and TSan-clean). One deque per
//     (domain, worker): the owner pushes/pops at the bottom, thieves CAS
//     the top, and a deque entry encodes (submission slot, task id) so
//     concurrent submissions never share per-graph state.
//   * Task release: the worker that completes the last dependency of a
//     task pushes it onto its *own* deque of the task's domain (Chase-Lev
//     permits bottom pushes only from the owner). The acq_rel decrement of
//     the dependency counter plus the release push/acquire steal chain
//     make every dependency's writes visible to the task that consumes
//     them; the final decrement of a submission's remaining-task counter
//     publishes the whole graph's effects to the thread that wait()s.
//   * Submission slots are preallocated and recycled only by wait()/
//     waitAny() after the completing worker has made its last access, so
//     a worker never dereferences a recycled submission: an encoded deque
//     entry is executable only while its submission still has unfinished
//     tasks, and stale entries in retired ring buffers always lose the
//     top CAS.
//   * Idle workers back off in three stages — CPU pause, yield, then
//     exponentially growing sleeps (capped) — so an oversubscribed or
//     drained service run does not burn cores busy-waiting; workers park
//     on a condition variable whenever no submission is active at all.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fluxdiv::core {

/// Dependency-tracked DAG of tasks for one TaskPool dispatch. Build it
/// single-threaded, run it, then discard (or rebuild) — the graph itself
/// holds no execution state, so the same graph may be run repeatedly (but
/// not concurrently with itself: per-dispatch state lives in the pool's
/// submission slot, one per in-flight dispatch).
class TaskGraph {
public:
  /// Task body; the argument is the executing pool worker id in
  /// [0, nThreads).
  using Fn = std::function<void(int)>;

  /// Add a task and return its id. `owner` is the worker whose deque
  /// initially holds the task when it has no dependencies (sticky
  /// box->thread affinity; work stealing may still move it). Owners out of
  /// range are wrapped into [0, nThreads) at run time. `label` names the
  /// task (box/tile/phase) in graph-construction and cycle diagnostics.
  int addTask(Fn fn, int owner = 0, std::string label = {});

  /// Declare that `after` must not start until `before` has finished.
  /// Throws std::invalid_argument (naming the tasks' labels) on an
  /// out-of-range id or a self-dependency.
  void addDep(int before, int after);

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// The task's label, or "task#N" when none was given.
  [[nodiscard]] std::string label(int task) const;

private:
  friend class TaskPool;
  struct Node {
    Fn fn;
    int owner = 0;
    int initialDeps = 0;
    std::vector<int> successors;
    std::string label;
  };
  std::vector<Node> nodes_;
};

/// Deterministic adversarial orderings for TaskPool::runReplay(): the
/// graph runs serially on the calling thread, but the *choice* among
/// simultaneously-ready tasks is hostile, so dependence mistakes that the
/// work-stealing scheduler happens to hide become reproducible. Seeded and
/// printed on failure, so any run can be replayed exactly.
enum class ReplayOrder {
  None,       ///< not replaying: normal work-stealing execution
  Fifo,       ///< oldest-ready-first (breadth-first across boxes)
  Lifo,       ///< newest-ready-first (depth-first along one chain)
  StealHeavy, ///< maximize owner changes between consecutive tasks
  Random,     ///< seeded uniform choice among the ready set
};

/// Replay configuration; `seed` only affects ReplayOrder::Random.
struct ReplayMode {
  ReplayOrder order = ReplayOrder::None;
  std::uint64_t seed = 0;
};

/// All four adversarial orderings, for sweep loops.
inline constexpr ReplayOrder kReplayOrders[] = {
    ReplayOrder::Fifo, ReplayOrder::Lifo, ReplayOrder::StealHeavy,
    ReplayOrder::Random};

const char* replayOrderName(ReplayOrder order);

/// Parse "fifo" / "lifo" / "steal" / "random" / "none"; throws
/// std::invalid_argument otherwise.
ReplayOrder parseReplayOrder(const std::string& name);

/// Per-domain execution counters (docs/serving.md "Fairness"): how many
/// tasks of the domain ran, and how many of those ran on a worker other
/// than the one that made them ready (work stealing moved them).
struct DomainStats {
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
};

/// Pool-wide counters since construction (or resetStats()).
struct TaskPoolStats {
  std::uint64_t executed = 0;        ///< tasks run, all domains
  std::uint64_t stolen = 0;          ///< tasks run by a non-owner worker
  std::uint64_t domainCrossings = 0; ///< consecutive tasks on one worker
                                     ///< from different domains
  std::uint64_t idleSleeps = 0;      ///< backoff reached the sleep stage
  std::uint64_t submissions = 0;     ///< graphs dispatched
  double busySeconds = 0;            ///< summed task-body wall time across
                                     ///< workers; busySeconds / (nThreads
                                     ///< x wall) is pool utilization
};

/// Persistent work-stealing pool of `nThreads` workers (nThreads - 1
/// std::threads are spawned; the thread inside run()/wait()/waitAny()
/// participates as worker 0). run() is synchronous and not reentrant;
/// submit() may be called while other submissions are in flight, but all
/// submission/wait calls are expected from one orchestrator thread at a
/// time (additional waiters block without executing tasks).
class TaskPool {
public:
  /// Completion handle of one submit(). Tickets are single-use: the
  /// wait()/waitAny() call that observes completion recycles the
  /// underlying slot, after which finished() keeps reporting true.
  using Ticket = std::uint64_t;

  /// `pin` requests worker->CPU pinning (worker w to logical CPU
  /// w % hardware_concurrency; Linux only, best effort). The calling
  /// thread's affinity is never modified.
  explicit TaskPool(int nThreads, bool pin = false);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] int nThreads() const { return nThreads_; }

  /// Create a task domain with the given fair-share `weight` (>= 1; a
  /// weight-2 domain is offered twice the consecutive tasks of a weight-1
  /// domain in each worker's round-robin pass). Domain 0 always exists
  /// (weight 1, label "default") and is what run() uses. Domains live for
  /// the pool's lifetime. Throws std::invalid_argument on weight < 1 and
  /// std::length_error beyond the preallocated domain capacity.
  int createDomain(int weight = 1, std::string label = {});

  [[nodiscard]] int domainCount() const;

  /// Execute every task of `graph` in domain 0 and return when all have
  /// finished. Throws std::logic_error on a dependency cycle (checked up
  /// front, naming the cyclic tasks; nothing runs in that case).
  void run(TaskGraph& graph);

  /// Enqueue `graph` for asynchronous execution in `domain`. The graph —
  /// and everything its tasks reference — must stay alive until the
  /// returned ticket is observed finished. Same cycle check as run().
  /// With nThreads == 1 nothing executes until a wait()/waitAny() lends
  /// the calling thread to the pool.
  Ticket submit(TaskGraph& graph, int domain = 0);

  /// Has the submission completed? (True also for already-recycled
  /// tickets.)
  [[nodiscard]] bool finished(Ticket ticket) const;

  /// Block until `ticket` completes, executing tasks on the calling
  /// thread (as worker 0) while waiting — unless another thread already
  /// holds the worker-0 role, in which case this just blocks.
  void wait(Ticket ticket);

  /// Block until any of `tickets` completes and return its index
  /// (tickets already finished complete immediately). Executes tasks
  /// while waiting, like wait(). Throws std::invalid_argument on an empty
  /// list.
  std::size_t waitAny(const std::vector<Ticket>& tickets);

  /// Execute `graph` serially on the calling thread in the deterministic
  /// adversarial order `mode` (see ReplayOrder). Tasks still observe
  /// hostile worker attribution — currentWorker() and the fn argument
  /// report task % nThreads(), not the calling thread — so the shadow race
  /// detector sees the same cross-worker placement a real steal-happy run
  /// would produce. Same cycle check as run().
  void runReplay(TaskGraph& graph, const ReplayMode& mode);

  [[nodiscard]] DomainStats domainStats(int domain) const;
  [[nodiscard]] TaskPoolStats stats() const;
  void resetStats();

  /// Pool worker id of the calling thread while inside a task (or inside
  /// run() on the caller), -1 otherwise. Used by the shadow-memory race
  /// detector to attribute writes to pool workers, so a cross-worker race
  /// shows as writes from two ids (a caller outside any pool counts as
  /// worker 0).
  [[nodiscard]] static int currentWorker();

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int nThreads_ = 1;
};

} // namespace fluxdiv::core
