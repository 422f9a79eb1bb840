// White-box tests of the work-stealing task pool (core/taskpool): every
// task runs exactly once, dependency edges order execution, cycles are
// rejected before anything runs, and the pool is reusable across runs.
// Also covers the labeled-diagnostics contract (graph-construction and
// cycle errors name task labels, not indices) and the deterministic
// adversarial-replay mode (core::ReplayMode). Under FLUXDIV_SHADOW_CHECK
// a seeded two-worker race on the pool must trip the shadow detector.

#include "core/taskpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/box.hpp"
#include "grid/farraybox.hpp"

namespace fluxdiv::core {
namespace {

TEST(TaskPool, RunsEveryTaskExactlyOnce) {
  TaskPool pool(4);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> runs(kTasks);
  TaskGraph graph;
  for (int i = 0; i < kTasks; ++i) {
    graph.addTask([&runs, i](int) { runs[i].fetch_add(1); }, i);
  }
  pool.run(graph);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(TaskPool, EmptyGraphIsANoop) {
  TaskPool pool(2);
  TaskGraph graph;
  EXPECT_NO_THROW(pool.run(graph));
}

TEST(TaskPool, SingleThreadedPoolWorks) {
  TaskPool pool(1);
  std::atomic<int> total{0};
  TaskGraph graph;
  for (int i = 0; i < 32; ++i) {
    graph.addTask([&total](int) { total.fetch_add(1); });
  }
  pool.run(graph);
  EXPECT_EQ(total.load(), 32);
}

TEST(TaskPool, DependencyOrdersExecution) {
  TaskPool pool(4);
  // Diamond: a -> {b, c} -> d, repeated many times to give interleavings a
  // chance to manifest.
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> stage{0};
    bool bSawA = false;
    bool cSawA = false;
    bool dSawAll = false;
    TaskGraph graph;
    const int a = graph.addTask([&](int) { stage.store(1); });
    const int b = graph.addTask([&](int) {
      bSawA = stage.load() >= 1;
      stage.fetch_add(1);
    });
    const int c = graph.addTask([&](int) {
      cSawA = stage.load() >= 1;
      stage.fetch_add(1);
    });
    const int d = graph.addTask([&](int) { dSawAll = stage.load() == 3; });
    graph.addDep(a, b);
    graph.addDep(a, c);
    graph.addDep(b, d);
    graph.addDep(c, d);
    pool.run(graph);
    EXPECT_TRUE(bSawA);
    EXPECT_TRUE(cSawA);
    EXPECT_TRUE(dSawAll);
  }
}

TEST(TaskPool, LongChainRunsInOrder) {
  TaskPool pool(3);
  constexpr int kLen = 200;
  std::vector<int> order;
  TaskGraph graph;
  int prev = -1;
  for (int i = 0; i < kLen; ++i) {
    // The chain serializes execution, so the push_back needs no lock.
    const int t = graph.addTask([&order, i](int) { order.push_back(i); },
                                i % 3);
    if (prev >= 0) {
      graph.addDep(prev, t);
    }
    prev = t;
  }
  pool.run(graph);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kLen));
  for (int i = 0; i < kLen; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(TaskPool, CycleIsRejectedBeforeExecution) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskGraph graph;
  const int a = graph.addTask([&ran](int) { ran.fetch_add(1); });
  const int b = graph.addTask([&ran](int) { ran.fetch_add(1); });
  const int free = graph.addTask([&ran](int) { ran.fetch_add(1); });
  (void)free;
  graph.addDep(a, b);
  graph.addDep(b, a);
  EXPECT_THROW(pool.run(graph), std::logic_error);
  EXPECT_EQ(ran.load(), 0) << "a cyclic graph must not execute any task";
}

TEST(TaskPool, ReusableAcrossRuns) {
  TaskPool pool(4);
  std::atomic<int> total{0};
  for (int run = 0; run < 20; ++run) {
    TaskGraph graph;
    for (int i = 0; i < 64; ++i) {
      graph.addTask([&total](int) { total.fetch_add(1); }, i);
    }
    pool.run(graph);
  }
  EXPECT_EQ(total.load(), 20 * 64);
}

TEST(TaskPool, CurrentWorkerIsMinusOneOffPoolAndValidOnPool) {
  EXPECT_EQ(TaskPool::currentWorker(), -1);
  TaskPool pool(4);
  std::atomic<bool> allValid{true};
  std::atomic<bool> argMatchesTls{true};
  TaskGraph graph;
  for (int i = 0; i < 128; ++i) {
    graph.addTask([&](int worker) {
      const int cur = TaskPool::currentWorker();
      if (cur < 0 || cur >= 4) {
        allValid.store(false);
      }
      if (cur != worker) {
        argMatchesTls.store(false);
      }
    });
  }
  pool.run(graph);
  EXPECT_TRUE(allValid.load());
  EXPECT_TRUE(argMatchesTls.load());
  EXPECT_EQ(TaskPool::currentWorker(), -1)
      << "the calling thread leaves its worker identity behind";
}

TEST(TaskPool, OwnerHintsAreTakenModuloThreadCount) {
  TaskPool pool(3);
  std::atomic<int> total{0};
  TaskGraph graph;
  // Out-of-range and negative owners must not crash or drop tasks.
  for (const int owner : {-7, -1, 0, 2, 3, 99}) {
    graph.addTask([&total](int) { total.fetch_add(1); }, owner);
  }
  pool.run(graph);
  EXPECT_EQ(total.load(), 6);
}

TEST(TaskPool, ManyDependentsReleaseOnlyWhenAllPredecessorsDone) {
  TaskPool pool(4);
  constexpr int kPreds = 40;
  std::atomic<int> done{0};
  bool sawAll = false;
  TaskGraph graph;
  std::vector<int> preds;
  for (int i = 0; i < kPreds; ++i) {
    preds.push_back(
        graph.addTask([&done](int) { done.fetch_add(1); }, i));
  }
  const int sink =
      graph.addTask([&](int) { sawAll = done.load() == kPreds; });
  for (const int p : preds) {
    graph.addDep(p, sink);
  }
  pool.run(graph);
  EXPECT_TRUE(sawAll);
}

/// Runs `fn`, expecting it to throw E; returns the exception message.
template <typename E, typename Fn> std::string messageOf(Fn&& fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected exception was not thrown";
  return {};
}

TEST(TaskPool, LabelsRoundTripAndDefaultToIndices) {
  TaskGraph graph;
  const int a = graph.addTask([](int) {}, 0, "box 3 interior");
  const int b = graph.addTask([](int) {});
  EXPECT_EQ(graph.label(a), "box 3 interior");
  EXPECT_EQ(graph.label(b), "task#1");
  EXPECT_NE(graph.label(99).find("out of range"), std::string::npos);
}

TEST(TaskPool, CycleErrorNamesTaskLabels) {
  TaskPool pool(2);
  TaskGraph graph;
  const int a = graph.addTask([](int) {}, 0, "rhs u->k box0 tile3");
  const int b = graph.addTask([](int) {}, 0, "exchange op 7");
  graph.addDep(a, b);
  graph.addDep(b, a);
  const std::string msg =
      messageOf<std::logic_error>([&] { pool.run(graph); });
  EXPECT_NE(msg.find("rhs u->k box0 tile3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exchange op 7"), std::string::npos) << msg;
}

TEST(TaskPool, AddDepErrorsNameTaskLabels) {
  TaskGraph graph;
  const int a = graph.addTask([](int) {}, 0, "box 2 velocity");
  const std::string self = messageOf<std::invalid_argument>(
      [&] { graph.addDep(a, a); });
  EXPECT_NE(self.find("box 2 velocity"), std::string::npos) << self;
  const std::string range = messageOf<std::invalid_argument>(
      [&] { graph.addDep(a, 41); });
  EXPECT_NE(range.find("box 2 velocity"), std::string::npos) << range;
  EXPECT_NE(range.find("out of range"), std::string::npos) << range;
}

TEST(TaskPool, ReplayOrderNamesRoundTrip) {
  for (const ReplayOrder order : kReplayOrders) {
    EXPECT_EQ(parseReplayOrder(replayOrderName(order)), order);
  }
  EXPECT_EQ(parseReplayOrder("none"), ReplayOrder::None);
  EXPECT_THROW(parseReplayOrder("chaotic"), std::invalid_argument);
}

TEST(TaskPool, ReplayRunsEveryTaskOnceRespectingDeps) {
  TaskPool pool(3);
  for (const ReplayOrder order : kReplayOrders) {
    // Diamond a -> {b, c} -> d plus free tasks, replayed serially.
    std::vector<int> trace;
    TaskGraph graph;
    const int a = graph.addTask([&](int) { trace.push_back(0); });
    const int b = graph.addTask([&](int) { trace.push_back(1); });
    const int c = graph.addTask([&](int) { trace.push_back(2); });
    const int d = graph.addTask([&](int) { trace.push_back(3); });
    for (int i = 0; i < 4; ++i) {
      graph.addTask([&, i](int) { trace.push_back(4 + i); });
    }
    graph.addDep(a, b);
    graph.addDep(a, c);
    graph.addDep(b, d);
    graph.addDep(c, d);
    pool.runReplay(graph, {order, /*seed=*/7});
    ASSERT_EQ(trace.size(), 8u) << replayOrderName(order);
    std::vector<std::size_t> pos(8);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      pos[static_cast<std::size_t>(trace[i])] = i;
    }
    EXPECT_LT(pos[0], pos[1]) << replayOrderName(order);
    EXPECT_LT(pos[0], pos[2]) << replayOrderName(order);
    EXPECT_LT(pos[1], pos[3]) << replayOrderName(order);
    EXPECT_LT(pos[2], pos[3]) << replayOrderName(order);
  }
}

TEST(TaskPool, ReplayIsDeterministicPerSeed) {
  TaskPool pool(4);
  const auto traceOf = [&pool](std::uint64_t seed) {
    std::vector<int> trace;
    TaskGraph graph;
    for (int i = 0; i < 64; ++i) {
      graph.addTask([&trace, i](int) { trace.push_back(i); }, i);
    }
    pool.runReplay(graph, {ReplayOrder::Random, seed});
    return trace;
  };
  EXPECT_EQ(traceOf(11), traceOf(11));
  EXPECT_NE(traceOf(11), traceOf(12))
      << "different seeds should (with 64 tasks) pick different orders";
}

TEST(TaskPool, ReplayAttributesWorkersByTaskIndex) {
  TaskPool pool(3);
  std::vector<int> workers;
  TaskGraph graph;
  for (int i = 0; i < 9; ++i) {
    graph.addTask([&workers](int w) {
      workers.push_back(w);
      EXPECT_EQ(TaskPool::currentWorker(), w);
    });
  }
  pool.runReplay(graph, {ReplayOrder::Fifo, 0});
  ASSERT_EQ(workers.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(workers[static_cast<std::size_t>(i)], i % 3);
  }
  EXPECT_EQ(TaskPool::currentWorker(), -1)
      << "replay must restore the caller's worker identity";
}

TEST(TaskPool, ReplayRejectsCyclesLikeRun) {
  TaskPool pool(2);
  std::atomic<int> ran{0};
  TaskGraph graph;
  const int a = graph.addTask([&ran](int) { ran.fetch_add(1); });
  const int b = graph.addTask([&ran](int) { ran.fetch_add(1); });
  graph.addDep(a, b);
  graph.addDep(b, a);
  EXPECT_THROW(pool.runReplay(graph, {ReplayOrder::Lifo, 0}),
               std::logic_error);
  EXPECT_EQ(ran.load(), 0);
}

// ---------------------------------------------------------------------------
// Service-mode surface: domains, asynchronous submissions, counters.

TEST(TaskPool, DomainCreationValidatesWeight) {
  TaskPool pool(2);
  EXPECT_EQ(pool.domainCount(), 1) << "domain 0 preexists";
  const int d1 = pool.createDomain(2, "heavy");
  const int d2 = pool.createDomain();
  EXPECT_EQ(d1, 1);
  EXPECT_EQ(d2, 2);
  EXPECT_EQ(pool.domainCount(), 3);
  EXPECT_THROW(pool.createDomain(0), std::invalid_argument);
  EXPECT_THROW(pool.createDomain(-3), std::invalid_argument);
}

TEST(TaskPool, SubmitWaitRunsEveryTaskInItsDomain) {
  TaskPool pool(4);
  const int dom = pool.createDomain(1, "svc");
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> runs(kTasks);
  TaskGraph graph;
  for (int i = 0; i < kTasks; ++i) {
    graph.addTask([&runs, i](int) { runs[i].fetch_add(1); }, i);
  }
  const TaskPool::Ticket t = pool.submit(graph, dom);
  pool.wait(t);
  EXPECT_TRUE(pool.finished(t));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
  }
  const DomainStats ds = pool.domainStats(dom);
  EXPECT_EQ(ds.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.domainStats(0).executed, 0U);
}

TEST(TaskPool, FinishedStaysTrueAfterTicketRecycle) {
  TaskPool pool(2);
  TaskGraph graph;
  graph.addTask([](int) {});
  const TaskPool::Ticket t = pool.submit(graph);
  pool.wait(t); // recycles the slot
  EXPECT_TRUE(pool.finished(t));
  // Another submission may reuse the slot; the stale ticket still
  // reports finished.
  TaskGraph graph2;
  std::atomic<int> ran{0};
  graph2.addTask([&ran](int) { ran.fetch_add(1); });
  const TaskPool::Ticket t2 = pool.submit(graph2);
  EXPECT_TRUE(pool.finished(t));
  pool.wait(t2);
  EXPECT_EQ(ran.load(), 1);
}

TEST(TaskPool, EmptyGraphSubmissionIsImmediatelyFinished) {
  TaskPool pool(2);
  TaskGraph empty;
  const TaskPool::Ticket t = pool.submit(empty);
  EXPECT_TRUE(pool.finished(t));
  pool.wait(t); // must not block
}

TEST(TaskPool, ConcurrentSubmissionsFromDifferentDomainsInterleave) {
  TaskPool pool(4);
  const int d1 = pool.createDomain(1, "a");
  const int d2 = pool.createDomain(2, "b");
  constexpr int kTasks = 300;
  std::vector<std::atomic<int>> runs(2 * kTasks);
  TaskGraph g1;
  TaskGraph g2;
  for (int i = 0; i < kTasks; ++i) {
    g1.addTask([&runs, i](int) { runs[i].fetch_add(1); }, i);
    g2.addTask([&runs, i](int) { runs[kTasks + i].fetch_add(1); }, i);
  }
  const TaskPool::Ticket t1 = pool.submit(g1, d1);
  const TaskPool::Ticket t2 = pool.submit(g2, d2);
  pool.wait(t1);
  pool.wait(t2);
  for (int i = 0; i < 2 * kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
  }
  EXPECT_EQ(pool.domainStats(d1).executed,
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(pool.domainStats(d2).executed,
            static_cast<std::uint64_t>(kTasks));
}

TEST(TaskPool, WaitAnyReturnsAFinishedSubmission) {
  TaskPool pool(4);
  const int dom = pool.createDomain();
  TaskGraph quick;
  quick.addTask([](int) {});
  TaskGraph chain;
  std::atomic<int> steps{0};
  int prev = chain.addTask([&steps](int) { steps.fetch_add(1); });
  for (int i = 1; i < 64; ++i) {
    const int next = chain.addTask([&steps](int) { steps.fetch_add(1); });
    chain.addDep(prev, next);
    prev = next;
  }
  std::vector<TaskPool::Ticket> tickets;
  tickets.push_back(pool.submit(chain, dom));
  tickets.push_back(pool.submit(quick, dom));
  // Harvest both, in whatever completion order the pool produces.
  std::size_t k1 = pool.waitAny(tickets);
  ASSERT_LT(k1, tickets.size());
  EXPECT_TRUE(pool.finished(tickets[k1]));
  const std::vector<TaskPool::Ticket> rest{tickets[1 - k1]};
  const std::size_t k2 = pool.waitAny(rest);
  EXPECT_EQ(k2, 0U);
  EXPECT_EQ(steps.load(), 64);
  EXPECT_THROW(pool.waitAny({}), std::invalid_argument);
}

TEST(TaskPool, StatsCountExecutionStealingAndSubmissions) {
  TaskPool pool(2);
  pool.resetStats();
  TaskGraph graph;
  constexpr int kTasks = 100;
  std::atomic<int> runs{0};
  for (int i = 0; i < kTasks; ++i) {
    graph.addTask([&runs](int) { runs.fetch_add(1); }, i);
  }
  pool.run(graph);
  const TaskPoolStats s = pool.stats();
  EXPECT_EQ(s.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.submissions, 1U);
  EXPECT_LE(s.stolen, s.executed);
  EXPECT_GE(s.busySeconds, 0.0);
  pool.resetStats();
  const TaskPoolStats z = pool.stats();
  EXPECT_EQ(z.executed, 0U);
  EXPECT_EQ(z.submissions, 0U);
  EXPECT_EQ(z.busySeconds, 0.0);
  EXPECT_EQ(pool.domainStats(0).executed, 0U);
}

TEST(TaskPool, WeightedDomainsAllMakeProgressUnderLoad) {
  // Fairness smoke: three domains with different weights submitted
  // back-to-back all complete, and per-domain counters attribute every
  // task to its own domain.
  TaskPool pool(3);
  const int weights[3] = {1, 2, 4};
  int doms[3];
  for (int d = 0; d < 3; ++d) {
    doms[d] = pool.createDomain(weights[d]);
  }
  constexpr int kTasks = 240;
  std::vector<std::atomic<int>> runs(3 * kTasks);
  TaskGraph graphs[3];
  std::vector<TaskPool::Ticket> tickets;
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < kTasks; ++i) {
      graphs[d].addTask(
          [&runs, d, i](int) { runs[d * kTasks + i].fetch_add(1); }, i);
    }
  }
  for (int d = 0; d < 3; ++d) {
    tickets.push_back(pool.submit(graphs[d], doms[d]));
  }
  std::vector<TaskPool::Ticket> pending = tickets;
  while (!pending.empty()) {
    const std::size_t k = pool.waitAny(pending);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
  }
  for (int i = 0; i < 3 * kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
  }
  std::uint64_t total = 0;
  for (int d = 0; d < 3; ++d) {
    const DomainStats ds = pool.domainStats(doms[d]);
    EXPECT_EQ(ds.executed, static_cast<std::uint64_t>(kTasks));
    total += ds.executed;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(3 * kTasks));
}

TEST(TaskPool, SubmitRejectsUnknownDomainAndCycles) {
  TaskPool pool(2);
  TaskGraph graph;
  graph.addTask([](int) {});
  EXPECT_THROW(pool.submit(graph, 99), std::invalid_argument);
  EXPECT_THROW(pool.submit(graph, -1), std::invalid_argument);
  TaskGraph cyclic;
  const int a = cyclic.addTask([](int) {});
  const int b = cyclic.addTask([](int) {});
  cyclic.addDep(a, b);
  cyclic.addDep(b, a);
  EXPECT_THROW(pool.submit(cyclic, 0), std::logic_error);
}

#ifdef FLUXDIV_SHADOW_CHECK
TEST(TaskPoolShadow, SeededRaceOnTaskPoolIsDetected) {
  // Two tasks on distinct pool workers write overlapping regions of the
  // same fab in one epoch. The atomic rendezvous blocks each task until
  // the other has started, so a single worker can never run both; the
  // shadow detector must attribute the writes to different workers and
  // flag the overlap.
  using grid::Box;
  grid::FArrayBox fab(Box::cube(8), 1);
  fab.shadowBeginEpoch();
  const Box whole = Box::cube(8);
  const Box half = whole.lowSlab(2, 6); // overlaps `whole` in 8x8x4 cells

  TaskPool pool(2);
  std::atomic<int> arrived{0};
  TaskGraph graph;
  auto body = [&](const Box& region) {
    return [&, region](int) {
      arrived.fetch_add(1);
      while (arrived.load() < 2) {
        // Spin until both tasks are in flight on their own workers.
      }
      fab.shadowRecordWrite(region, 0, 1, TaskPool::currentWorker());
    };
  };
  graph.addTask(body(whole), 0);
  graph.addTask(body(half), 1);
  pool.run(graph);

  EXPECT_GT(fab.shadow().violationCount(), 0u)
      << "overlapping writes from two pool workers must be flagged";
}
#endif

} // namespace
} // namespace fluxdiv::core
