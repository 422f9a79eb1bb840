#include "core/taskpool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fluxdiv::core {

namespace {

thread_local int tlsWorker = -1;

/// One CPU-relax hint for the first backoff stage: cheaper than a yield
/// syscall and polite to a hyperthread sibling spinning on the deques.
inline void cpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Deque/inbox entries encode (submission slot, task id) in one int64 so
/// tasks of concurrently in-flight graphs can interleave in the same
/// deques. Both halves are non-negative, so every encoded entry is >= 0
/// and the kEmpty/kAbort sentinels stay distinguishable.
constexpr std::int64_t encodeEntry(int slot, int task) {
  return (static_cast<std::int64_t>(slot) << 32) |
         static_cast<std::uint32_t>(task);
}
constexpr int entrySlot(std::int64_t e) { return static_cast<int>(e >> 32); }
constexpr int entryTask(std::int64_t e) {
  return static_cast<int>(e & 0xffffffff);
}

/// Chase-Lev work-stealing deque of encoded entries (Le et al., "Correct
/// and Efficient Work-Stealing for Weak Memory Models"). The owner pushes
/// and pops at the bottom; thieves CAS the top. The ring buffer grows on
/// demand; retired rings stay allocated until destruction so a thief
/// holding a stale ring pointer still reads valid (if outdated) slots —
/// its top CAS then decides whether the read wins.
class StealDeque {
public:
  static constexpr std::int64_t kEmpty = -1;
  static constexpr std::int64_t kAbort = -2;

  StealDeque() : ring_(newRing(kInitialCapacity)) {}

  ~StealDeque() {
    delete[] ring_.load(std::memory_order_relaxed)->slots;
    delete ring_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) {
      delete[] r->slots;
      delete r;
    }
  }

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only.
  void push(std::int64_t entry) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t > ring->capacity - 1) {
      ring = grow(ring, t, b);
    }
    ring->slot(b).store(entry, std::memory_order_relaxed);
    // Publish the slot before the new bottom: a thief's acquire load of
    // bottom that observes b + 1 also observes the slot write.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns kEmpty when the deque is empty (including when a
  /// thief won the race for the last element).
  std::int64_t pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    // seq_cst store/load pair replaces the paper's relaxed store +
    // seq_cst fence (see file comment in taskpool.hpp).
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return kEmpty;
    }
    std::int64_t entry = ring->slot(b).load(std::memory_order_relaxed);
    if (t != b) {
      return entry; // more than one element: no race with thieves
    }
    // Exactly one element: race thieves for it via the top CAS.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      entry = kEmpty; // a thief got it first
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return entry;
  }

  /// Any thread. kAbort signals CAS contention (caller may try another
  /// victim and come back).
  std::int64_t steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) {
      return kEmpty;
    }
    Ring* ring = ring_.load(std::memory_order_acquire);
    const std::int64_t entry = ring->slot(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return kAbort;
    }
    return entry;
  }

private:
  static constexpr std::int64_t kInitialCapacity = 64;

  struct Ring {
    std::int64_t capacity = 0; ///< power of two
    std::atomic<std::int64_t>* slots = nullptr;
    std::atomic<std::int64_t>& slot(std::int64_t i) const {
      return slots[i & (capacity - 1)];
    }
  };

  static Ring* newRing(std::int64_t capacity) {
    Ring* r = new Ring;
    r->capacity = capacity;
    r->slots =
        new std::atomic<std::int64_t>[static_cast<std::size_t>(capacity)];
    return r;
  }

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    Ring* bigger = newRing(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    retired_.push_back(old);
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  std::vector<Ring*> retired_; ///< owner-only (grow happens under push)
};

} // namespace

int TaskGraph::addTask(Fn fn, int owner, std::string label) {
  Node node;
  node.fn = std::move(fn);
  node.owner = owner;
  node.label = std::move(label);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

std::string TaskGraph::label(int task) const {
  if (task < 0 || task >= static_cast<int>(nodes_.size())) {
    return "task#" + std::to_string(task) + " (out of range)";
  }
  const std::string& l = nodes_[static_cast<std::size_t>(task)].label;
  return l.empty() ? "task#" + std::to_string(task) : l;
}

void TaskGraph::addDep(int before, int after) {
  const auto n = static_cast<int>(nodes_.size());
  if (before < 0 || before >= n || after < 0 || after >= n) {
    throw std::invalid_argument(
        "TaskGraph::addDep: task id out of range: '" + label(before) +
        "' -> '" + label(after) + "' (graph has " + std::to_string(n) +
        " task(s))");
  }
  if (before == after) {
    throw std::invalid_argument(
        "TaskGraph::addDep: task cannot depend on itself: '" +
        label(before) + "'");
  }
  nodes_[static_cast<std::size_t>(before)].successors.push_back(after);
  ++nodes_[static_cast<std::size_t>(after)].initialDeps;
}

const char* replayOrderName(ReplayOrder order) {
  switch (order) {
  case ReplayOrder::None:
    return "none";
  case ReplayOrder::Fifo:
    return "fifo";
  case ReplayOrder::Lifo:
    return "lifo";
  case ReplayOrder::StealHeavy:
    return "steal";
  case ReplayOrder::Random:
    return "random";
  }
  return "?";
}

ReplayOrder parseReplayOrder(const std::string& name) {
  for (const ReplayOrder order : kReplayOrders) {
    if (name == replayOrderName(order)) {
      return order;
    }
  }
  if (name == "none") {
    return ReplayOrder::None;
  }
  throw std::invalid_argument(
      "parseReplayOrder: unknown order '" + name +
      "' (expected fifo, lifo, steal, random, or none)");
}

struct TaskPool::Impl {
  static constexpr int kMaxDomains = 256;
  static constexpr int kMaxSubmissions = 1024;
  static constexpr Ticket kFinishedTicket = ~static_cast<Ticket>(0);

  static constexpr Ticket makeTicket(int slot, std::uint32_t gen) {
    return (static_cast<Ticket>(static_cast<std::uint32_t>(slot)) << 32) |
           gen;
  }
  static constexpr int ticketSlot(Ticket t) {
    return static_cast<int>(t >> 32);
  }
  static constexpr std::uint32_t ticketGen(Ticket t) {
    return static_cast<std::uint32_t>(t & 0xffffffffu);
  }

  /// Kahn's algorithm; throws std::logic_error naming the cyclic tasks if
  /// the graph admits no topological order. Shared by submit() and
  /// runReplay() so both reject a cyclic graph before anything executes (a
  /// cycle would otherwise hang every worker on an empty frontier).
  static void throwOnCycle(const TaskGraph& graph) {
    const std::size_t n = graph.nodes_.size();
    std::vector<int> deps(n);
    std::vector<int> ready;
    for (std::size_t i = 0; i < n; ++i) {
      deps[i] = graph.nodes_[i].initialDeps;
      if (deps[i] == 0) {
        ready.push_back(static_cast<int>(i));
      }
    }
    std::size_t processed = 0;
    while (!ready.empty()) {
      const int task = ready.back();
      ready.pop_back();
      ++processed;
      for (const int succ :
           graph.nodes_[static_cast<std::size_t>(task)].successors) {
        if (--deps[static_cast<std::size_t>(succ)] == 0) {
          ready.push_back(succ);
        }
      }
    }
    if (processed == n) {
      return;
    }
    // Name the stuck tasks (label, not index) so the builder bug is
    // findable: "rhs u->k box3 tile5" beats "task 17".
    std::string names;
    int listed = 0;
    std::size_t stuck = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (deps[i] <= 0) {
        continue;
      }
      ++stuck;
      if (listed < 4) {
        names += listed == 0 ? "'" : ", '";
        names += graph.label(static_cast<int>(i));
        names += "'";
        ++listed;
      }
    }
    if (stuck > static_cast<std::size_t>(listed)) {
      names += ", ...";
    }
    throw std::logic_error("TaskPool: dependency cycle among " +
                           std::to_string(stuck) + " task(s): " + names);
  }

  /// Per-(domain, worker) queues: the worker's Chase-Lev deque plus a
  /// mutex-protected inbox that submit() seeds initially-ready tasks into
  /// (a Chase-Lev bottom push is owner-only, so the submitting thread
  /// cannot push into a live worker's deque directly). The owner folds its
  /// inbox into its deque before popping; thieves may also take single
  /// inbox entries under the mutex, so seeds parked at a not-yet-scheduled
  /// worker cannot stall the whole submission.
  struct Cell {
    StealDeque deque;
    std::mutex inboxMutex;
    std::vector<std::int64_t> inbox;
    std::atomic<bool> inboxNonEmpty{false};
  };

  struct Domain {
    Domain(int nWorkers, int w, std::string l)
        : weight(w), label(std::move(l)), cells(new Cell[static_cast<
              std::size_t>(nWorkers)]) {}
    int weight = 1;
    std::string label;
    std::unique_ptr<Cell[]> cells; ///< one per worker
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
  };

  /// Per-dispatch state of one submitted graph. Slots are preallocated
  /// lazily, identified by index, and recycled through `freeSlots` by the
  /// wait() that observes completion; `gen` disambiguates reuse so stale
  /// tickets keep reporting finished.
  struct Submission {
    TaskGraph* graph = nullptr;
    int domain = 0;
    std::size_t depsCapacity = 0;
    std::unique_ptr<std::atomic<int>[]> deps;
    std::atomic<std::int64_t> remaining{0};
    std::atomic<bool> done{true};
    std::atomic<std::uint32_t> gen{0};
  };

  /// Tasks served per unit of domain weight before a worker rotates to
  /// the next domain. The quantum does not change the fairness ratios
  /// (weight 2 still gets twice the tasks of weight 1 per round); it
  /// batches each domain's turn so a worker reuses one instance's hot
  /// working set instead of alternating cache footprints on every task.
  static constexpr int kCreditQuantum = 256;

  /// Per-worker scheduling state for the weighted deficit round-robin:
  /// the worker keeps serving `cursor`'s domain until `credit` (seeded
  /// from weight x kCreditQuantum) runs out or the domain has nothing
  /// runnable, then advances. Padded: each worker updates its state on
  /// every task.
  struct alignas(64) WorkerState {
    int cursor = 0;
    int credit = 0;
    int lastDomain = -1;
    /// Task-body wall time, written only by this worker; atomic so
    /// stats() may read it concurrently.
    std::atomic<std::uint64_t> busyNanos{0};
  };

  explicit Impl(int n)
      : nThreads(n),
        domains(kMaxDomains),
        subs(kMaxSubmissions),
        wstate(new WorkerState[static_cast<std::size_t>(n)]) {
    domains[0] = std::make_unique<Domain>(n, 1, "default");
    nDomains.store(1, std::memory_order_release);
  }

  int nThreads = 1;
  std::mutex mutex; ///< cv + registries (domains, submission freelist)
  std::condition_variable cv;
  bool shutdown = false;

  /// Count of submissions with unfinished tasks. Workers park on `cv`
  /// while it is zero, so a drained pool costs nothing.
  std::atomic<int> activeSubmissions{0};
  /// Exactly one wait()ing thread at a time acts as pool worker 0;
  /// additional waiters block on the cv without executing tasks.
  std::atomic<bool> helperBusy{false};

  std::vector<std::unique_ptr<Domain>> domains; ///< slots < nDomains live
  std::atomic<int> nDomains{0};

  std::vector<std::unique_ptr<Submission>> subs;
  std::vector<int> freeSlots; ///< guarded by mutex
  int subsCreated = 0;        ///< guarded by mutex

  std::unique_ptr<WorkerState[]> wstate;

  std::atomic<std::uint64_t> statExecuted{0};
  std::atomic<std::uint64_t> statStolen{0};
  std::atomic<std::uint64_t> statCrossings{0};
  std::atomic<std::uint64_t> statIdleSleeps{0};
  std::atomic<std::uint64_t> statSubmissions{0};

  std::vector<std::thread> threads;

  /// Move every inbox entry of `cell` (owned by the calling worker) into
  /// its deque.
  static void foldInbox(Cell& cell) {
    if (!cell.inboxNonEmpty.load(std::memory_order_acquire)) {
      return;
    }
    const std::lock_guard<std::mutex> lock(cell.inboxMutex);
    for (const std::int64_t e : cell.inbox) {
      cell.deque.push(e);
    }
    cell.inbox.clear();
    cell.inboxNonEmpty.store(false, std::memory_order_release);
  }

  /// Take one entry from another worker's inbox (any thread; the mutex
  /// serializes against the owner's fold and the submitter's seed).
  static std::int64_t stealInbox(Cell& cell) {
    if (!cell.inboxNonEmpty.load(std::memory_order_acquire)) {
      return StealDeque::kEmpty;
    }
    const std::lock_guard<std::mutex> lock(cell.inboxMutex);
    if (cell.inbox.empty()) {
      return StealDeque::kEmpty;
    }
    const std::int64_t e = cell.inbox.back();
    cell.inbox.pop_back();
    if (cell.inbox.empty()) {
      cell.inboxNonEmpty.store(false, std::memory_order_release);
    }
    return e;
  }

  /// Find the next entry for `worker` under the fairness policy: serve
  /// the cursor domain while credit lasts (own deque, then steal), else
  /// advance round-robin across domains. Returns false when nothing is
  /// runnable anywhere right now.
  bool findTask(int worker, std::int64_t& outEntry, int& outDomain,
                bool& outStolen) {
    const int d0 = nDomains.load(std::memory_order_acquire);
    WorkerState& ws = wstate[static_cast<std::size_t>(worker)];
    if (ws.cursor >= d0) {
      ws.cursor = 0;
      ws.credit = 0;
    }
    if (ws.credit <= 0) {
      ws.cursor = (ws.cursor + 1) % d0;
      ws.credit =
          domains[static_cast<std::size_t>(ws.cursor)]->weight *
          kCreditQuantum;
    }
    for (int k = 0; k < d0; ++k) {
      const int d = (ws.cursor + k) % d0;
      Domain& dom = *domains[static_cast<std::size_t>(d)];
      Cell& own = dom.cells[static_cast<std::size_t>(worker)];
      foldInbox(own);
      std::int64_t entry = own.deque.pop();
      bool stolen = false;
      if (entry < 0) {
        for (int i = 1; i < nThreads && entry < 0; ++i) {
          const int victim = (worker + i) % nThreads;
          Cell& vc = dom.cells[static_cast<std::size_t>(victim)];
          const std::int64_t got = vc.deque.steal();
          if (got >= 0) {
            entry = got;
            stolen = true;
          } else if (got == StealDeque::kEmpty) {
            const std::int64_t seed = stealInbox(vc);
            if (seed >= 0) {
              entry = seed;
              stolen = true;
            }
          }
        }
      }
      if (entry >= 0) {
        if (d != ws.cursor) {
          ws.cursor = d;
          ws.credit = dom.weight * kCreditQuantum;
        }
        --ws.credit;
        outEntry = entry;
        outDomain = d;
        outStolen = stolen;
        return true;
      }
    }
    return false;
  }

  void execute(int worker, std::int64_t entry, int domainIdx,
               bool wasStolen) {
    const int slot = entrySlot(entry);
    const int task = entryTask(entry);
    Submission& s = *subs[static_cast<std::size_t>(slot)];
    Domain& dom = *domains[static_cast<std::size_t>(domainIdx)];
    WorkerState& ws = wstate[static_cast<std::size_t>(worker)];
    if (ws.lastDomain >= 0 && ws.lastDomain != domainIdx) {
      statCrossings.fetch_add(1, std::memory_order_relaxed);
    }
    ws.lastDomain = domainIdx;
    dom.executed.fetch_add(1, std::memory_order_relaxed);
    statExecuted.fetch_add(1, std::memory_order_relaxed);
    if (wasStolen) {
      dom.stolen.fetch_add(1, std::memory_order_relaxed);
      statStolen.fetch_add(1, std::memory_order_relaxed);
    }
    TaskGraph::Node& node = s.graph->nodes_[static_cast<std::size_t>(task)];
    const auto t0 = std::chrono::steady_clock::now();
    node.fn(worker);
    ws.busyNanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    for (const int succ : node.successors) {
      // acq_rel: the final decrement acquires every co-dependency's
      // release, so the push below publishes all of them to the consumer.
      if (s.deps[static_cast<std::size_t>(succ)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        dom.cells[static_cast<std::size_t>(worker)].deque.push(
            encodeEntry(slot, succ));
      }
    }
    if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task of the submission: the acq_rel chain on `remaining`
      // makes every task's effects visible here; the release store of
      // `done` publishes them to the wait()er. The empty lock/unlock
      // closes the window where a waiter checked the predicate but has
      // not yet blocked on the cv (classic lost-wakeup bracket). No
      // access to `s` is legal after the `done` store — the waiter may
      // recycle the slot immediately.
      activeSubmissions.fetch_sub(1, std::memory_order_release);
      s.done.store(true, std::memory_order_release);
      { const std::lock_guard<std::mutex> lock(mutex); }
      cv.notify_all();
    }
  }

  /// Three-stage idle backoff: CPU pause, yield, then exponentially
  /// growing sleeps capped at ~320us (docs/serving.md). Stale `misses`
  /// counts reset on every successful find.
  void idleBackoff(unsigned misses) {
    if (misses < 16) {
      cpuPause();
    } else if (misses < 64) {
      std::this_thread::yield();
    } else {
      statIdleSleeps.fetch_add(1, std::memory_order_relaxed);
      const unsigned shift = std::min((misses - 64U) / 16U, 4U);
      std::this_thread::sleep_for(
          std::chrono::microseconds(20U << shift));
    }
  }

  /// Worker body while any submission is active.
  void drainService(int worker) {
    tlsWorker = worker;
    unsigned misses = 0;
    while (activeSubmissions.load(std::memory_order_acquire) > 0) {
      std::int64_t entry = StealDeque::kEmpty;
      int domainIdx = 0;
      bool stolen = false;
      if (findTask(worker, entry, domainIdx, stolen)) {
        misses = 0;
        execute(worker, entry, domainIdx, stolen);
      } else {
        idleBackoff(++misses);
      }
    }
    tlsWorker = -1;
  }

  void workerLoop(int worker) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] {
          return shutdown ||
                 activeSubmissions.load(std::memory_order_relaxed) > 0;
        });
        if (shutdown) {
          return;
        }
      }
      drainService(worker);
    }
  }

  [[nodiscard]] bool ticketFinished(Ticket t) const {
    if (t == kFinishedTicket) {
      return true;
    }
    const Submission& s = *subs[static_cast<std::size_t>(ticketSlot(t))];
    if (s.gen.load(std::memory_order_acquire) != ticketGen(t)) {
      return true; // slot recycled: the submission completed long ago
    }
    const bool d = s.done.load(std::memory_order_acquire);
    if (s.gen.load(std::memory_order_acquire) != ticketGen(t)) {
      return true; // recycled between the two loads
    }
    return d;
  }

  /// Drive the pool from a waiting thread until `pred()` holds. The first
  /// waiter claims the worker-0 role and executes tasks; later concurrent
  /// waiters block on the cv.
  template <typename Pred> void helpUntil(Pred&& pred) {
    bool expected = false;
    if (!helperBusy.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, pred);
      return;
    }
    struct Restore {
      Impl* impl;
      int savedWorker;
      ~Restore() {
        tlsWorker = savedWorker;
        impl->helperBusy.store(false, std::memory_order_release);
      }
    } restore{this, tlsWorker};
    tlsWorker = 0;
    unsigned misses = 0;
    while (!pred()) {
      std::int64_t entry = StealDeque::kEmpty;
      int domainIdx = 0;
      bool stolen = false;
      if (findTask(0, entry, domainIdx, stolen)) {
        misses = 0;
        execute(0, entry, domainIdx, stolen);
      } else {
        idleBackoff(++misses);
      }
    }
  }

  /// Recycle a completed ticket's slot (idempotent: a gen mismatch means
  /// someone already did).
  void recycle(Ticket t) {
    if (t == kFinishedTicket) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mutex);
    const int slot = ticketSlot(t);
    Submission& s = *subs[static_cast<std::size_t>(slot)];
    if (s.gen.load(std::memory_order_relaxed) != ticketGen(t)) {
      return;
    }
    s.graph = nullptr;
    s.gen.fetch_add(1, std::memory_order_release);
    freeSlots.push_back(slot);
  }
};

TaskPool::TaskPool(int nThreads, bool pin) : nThreads_(nThreads) {
  if (nThreads < 1) {
    throw std::invalid_argument("TaskPool: nThreads must be >= 1");
  }
  impl_ = std::make_unique<Impl>(nThreads);
  impl_->threads.reserve(static_cast<std::size_t>(nThreads - 1));
  for (int w = 1; w < nThreads; ++w) {
    impl_->threads.emplace_back(&Impl::workerLoop, impl_.get(), w);
#if defined(__linux__)
    if (pin) {
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(w) % hw, &set);
        // Best effort: pinning failures (cgroup-restricted masks) are not
        // errors, the scheduler placement just stays free.
        (void)pthread_setaffinity_np(
            impl_->threads.back().native_handle(), sizeof(set), &set);
      }
    }
#else
    (void)pin;
#endif
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->threads) {
    t.join();
  }
}

int TaskPool::currentWorker() { return tlsWorker; }

int TaskPool::createDomain(int weight, std::string label) {
  if (weight < 1) {
    throw std::invalid_argument("TaskPool::createDomain: weight must be "
                                ">= 1, got " +
                                std::to_string(weight));
  }
  Impl& impl = *impl_;
  const std::lock_guard<std::mutex> lock(impl.mutex);
  const int d = impl.nDomains.load(std::memory_order_relaxed);
  if (d >= Impl::kMaxDomains) {
    throw std::length_error("TaskPool::createDomain: domain capacity (" +
                            std::to_string(Impl::kMaxDomains) +
                            ") exhausted");
  }
  if (label.empty()) {
    label = "domain" + std::to_string(d);
  }
  impl.domains[static_cast<std::size_t>(d)] =
      std::make_unique<Impl::Domain>(nThreads_, weight, std::move(label));
  impl.nDomains.store(d + 1, std::memory_order_release);
  return d;
}

int TaskPool::domainCount() const {
  return impl_->nDomains.load(std::memory_order_acquire);
}

TaskPool::Ticket TaskPool::submit(TaskGraph& graph, int domain) {
  Impl& impl = *impl_;
  if (domain < 0 ||
      domain >= impl.nDomains.load(std::memory_order_acquire)) {
    throw std::invalid_argument("TaskPool::submit: unknown domain " +
                                std::to_string(domain));
  }
  const std::size_t n = graph.nodes_.size();
  if (n == 0) {
    return Impl::kFinishedTicket;
  }
  Impl::throwOnCycle(graph);

  int slot = -1;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    if (!impl.freeSlots.empty()) {
      slot = impl.freeSlots.back();
      impl.freeSlots.pop_back();
    } else if (impl.subsCreated < Impl::kMaxSubmissions) {
      slot = impl.subsCreated++;
      impl.subs[static_cast<std::size_t>(slot)] =
          std::make_unique<Impl::Submission>();
    } else {
      throw std::length_error(
          "TaskPool::submit: submission slots exhausted (" +
          std::to_string(Impl::kMaxSubmissions) +
          " in flight / unrecycled tickets)");
    }
  }
  Impl::Submission& s = *impl.subs[static_cast<std::size_t>(slot)];
  const std::uint32_t gen = s.gen.load(std::memory_order_relaxed);
  s.graph = &graph;
  s.domain = domain;
  if (s.depsCapacity < n) {
    s.deps.reset(new std::atomic<int>[n]);
    s.depsCapacity = n;
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.deps[i].store(graph.nodes_[i].initialDeps,
                    std::memory_order_relaxed);
  }
  s.done.store(false, std::memory_order_relaxed);
  s.remaining.store(static_cast<std::int64_t>(n),
                    std::memory_order_release);
  impl.statSubmissions.fetch_add(1, std::memory_order_relaxed);

  // Seed initially-ready tasks into their owners' inboxes (sticky
  // box->thread affinity; the owner folds them into its deque).
  Impl::Domain& dom = *impl.domains[static_cast<std::size_t>(domain)];
  for (std::size_t i = 0; i < n; ++i) {
    if (graph.nodes_[i].initialDeps != 0) {
      continue;
    }
    const int owner =
        ((graph.nodes_[i].owner % nThreads_) + nThreads_) % nThreads_;
    Impl::Cell& cell = dom.cells[static_cast<std::size_t>(owner)];
    const std::lock_guard<std::mutex> lock(cell.inboxMutex);
    cell.inbox.push_back(encodeEntry(slot, static_cast<int>(i)));
    cell.inboxNonEmpty.store(true, std::memory_order_release);
  }

  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    impl.activeSubmissions.fetch_add(1, std::memory_order_release);
  }
  impl.cv.notify_all();
  return Impl::makeTicket(slot, gen);
}

bool TaskPool::finished(Ticket ticket) const {
  return impl_->ticketFinished(ticket);
}

void TaskPool::wait(Ticket ticket) {
  Impl& impl = *impl_;
  if (ticket == Impl::kFinishedTicket) {
    return;
  }
  impl.helpUntil([&] { return impl.ticketFinished(ticket); });
  impl.recycle(ticket);
}

std::size_t TaskPool::waitAny(const std::vector<Ticket>& tickets) {
  if (tickets.empty()) {
    throw std::invalid_argument("TaskPool::waitAny: empty ticket list");
  }
  Impl& impl = *impl_;
  std::size_t idx = 0;
  impl.helpUntil([&] {
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (impl.ticketFinished(tickets[i])) {
        idx = i;
        return true;
      }
    }
    return false;
  });
  impl.recycle(tickets[idx]);
  return idx;
}

void TaskPool::run(TaskGraph& graph) {
  wait(submit(graph, 0));
}

DomainStats TaskPool::domainStats(int domain) const {
  Impl& impl = *impl_;
  if (domain < 0 ||
      domain >= impl.nDomains.load(std::memory_order_acquire)) {
    throw std::invalid_argument("TaskPool::domainStats: unknown domain " +
                                std::to_string(domain));
  }
  const Impl::Domain& dom = *impl.domains[static_cast<std::size_t>(domain)];
  DomainStats out;
  out.executed = dom.executed.load(std::memory_order_relaxed);
  out.stolen = dom.stolen.load(std::memory_order_relaxed);
  return out;
}

TaskPoolStats TaskPool::stats() const {
  const Impl& impl = *impl_;
  TaskPoolStats out;
  out.executed = impl.statExecuted.load(std::memory_order_relaxed);
  out.stolen = impl.statStolen.load(std::memory_order_relaxed);
  out.domainCrossings = impl.statCrossings.load(std::memory_order_relaxed);
  out.idleSleeps = impl.statIdleSleeps.load(std::memory_order_relaxed);
  out.submissions = impl.statSubmissions.load(std::memory_order_relaxed);
  std::uint64_t busy = 0;
  for (int w = 0; w < impl.nThreads; ++w) {
    busy += impl.wstate[static_cast<std::size_t>(w)].busyNanos.load(
        std::memory_order_relaxed);
  }
  out.busySeconds = static_cast<double>(busy) * 1e-9;
  return out;
}

void TaskPool::resetStats() {
  Impl& impl = *impl_;
  impl.statExecuted.store(0, std::memory_order_relaxed);
  impl.statStolen.store(0, std::memory_order_relaxed);
  impl.statCrossings.store(0, std::memory_order_relaxed);
  impl.statIdleSleeps.store(0, std::memory_order_relaxed);
  impl.statSubmissions.store(0, std::memory_order_relaxed);
  for (int w = 0; w < impl.nThreads; ++w) {
    impl.wstate[static_cast<std::size_t>(w)].busyNanos.store(
        0, std::memory_order_relaxed);
  }
  const int d0 = impl.nDomains.load(std::memory_order_acquire);
  for (int d = 0; d < d0; ++d) {
    impl.domains[static_cast<std::size_t>(d)]->executed.store(
        0, std::memory_order_relaxed);
    impl.domains[static_cast<std::size_t>(d)]->stolen.store(
        0, std::memory_order_relaxed);
  }
}

void TaskPool::runReplay(TaskGraph& graph, const ReplayMode& mode) {
  if (mode.order == ReplayOrder::None) {
    run(graph);
    return;
  }
  const std::size_t n = graph.nodes_.size();
  if (n == 0) {
    return;
  }
  Impl::throwOnCycle(graph);

  std::vector<int> deps(n);
  std::vector<int> ready; // insertion-ordered frontier
  for (std::size_t i = 0; i < n; ++i) {
    deps[i] = graph.nodes_[i].initialDeps;
    if (deps[i] == 0) {
      ready.push_back(static_cast<int>(i));
    }
  }

  const auto wrappedOwner = [&](int task) {
    return ((graph.nodes_[static_cast<std::size_t>(task)].owner %
             nThreads_) +
            nThreads_) %
           nThreads_;
  };

  std::mt19937_64 rng(mode.seed);
  int lastOwner = 0;

  // Tasks must still observe pool-worker attribution (the shadow detector
  // folds all of a thread's writes together otherwise), so install a
  // hostile worker id per task. Restore on every exit path: a task body
  // may throw (e.g. shadow violation).
  struct TlsGuard {
    int saved = tlsWorker;
    ~TlsGuard() { tlsWorker = saved; }
  } guard;

  while (!ready.empty()) {
    std::size_t pick = 0;
    switch (mode.order) {
    case ReplayOrder::Fifo:
      pick = 0;
      break;
    case ReplayOrder::Lifo:
      pick = ready.size() - 1;
      break;
    case ReplayOrder::StealHeavy: {
      // Choose the ready task whose owner is farthest (in worker-ring
      // distance) from the last executed owner: every step looks like a
      // cross-worker steal. Ties break to the oldest candidate, so the
      // order is deterministic.
      int bestDist = -1;
      for (std::size_t i = 0; i < ready.size(); ++i) {
        const int dist =
            (wrappedOwner(ready[i]) - lastOwner + nThreads_) % nThreads_;
        if (dist > bestDist) {
          bestDist = dist;
          pick = i;
        }
      }
      break;
    }
    case ReplayOrder::Random:
      pick = static_cast<std::size_t>(rng() % ready.size());
      break;
    case ReplayOrder::None:
      break;
    }
    const int task = ready[pick];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(pick));

    // Hostile attribution: the serial replay pretends the task landed on
    // worker task % nThreads, maximizing apparent cross-worker movement.
    // Workspace use stays safe — execution is serial, so no two tasks
    // ever occupy a per-worker scratch buffer at once.
    const int worker = task % nThreads_;
    tlsWorker = worker;
    graph.nodes_[static_cast<std::size_t>(task)].fn(worker);
    lastOwner = wrappedOwner(task);

    for (const int succ :
         graph.nodes_[static_cast<std::size_t>(task)].successors) {
      if (--deps[static_cast<std::size_t>(succ)] == 0) {
        ready.push_back(succ);
      }
    }
  }
}

} // namespace fluxdiv::core
