#include "analysis/graphcheck.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/region.hpp"
#include "analysis/region_ops.hpp"

namespace fluxdiv::analysis {

const char* diagnosticKindName(DiagnosticKind k) {
  switch (k) {
  case DiagnosticKind::Ok:
    return "ok";
  case DiagnosticKind::ReadUncovered:
    return "read-uncovered";
  case DiagnosticKind::WriteOverlap:
    return "write-overlap";
  case DiagnosticKind::ReadWriteRace:
    return "read-write-race";
  case DiagnosticKind::DependencyCycle:
    return "dependency-cycle";
  }
  return "?";
}

std::string Diagnostic::message() const {
  std::ostringstream os;
  os << diagnosticKindName(kind);
  if (ok()) {
    return os.str();
  }
  os << ": " << stageA;
  if (!itemA.empty()) {
    os << " [" << itemA << "]";
  }
  os << " vs " << stageB;
  if (!itemB.empty()) {
    os << " [" << itemB << "]";
  }
  os << " over " << region;
  return os.str();
}

int TaskGraphModel::addTask(std::string label) {
  GraphTask t;
  t.label = std::move(label);
  tasks.push_back(std::move(t));
  return static_cast<int>(tasks.size()) - 1;
}

void TaskGraphModel::addEdge(int before, int after) {
  tasks[static_cast<std::size_t>(before)].successors.push_back(after);
}

std::size_t TaskGraphModel::edgeCount() const {
  std::size_t n = 0;
  for (const auto& t : tasks) {
    n += t.successors.size();
  }
  return n;
}

namespace {

/// Dense reachability bitsets over one component's local task ids:
/// row i holds the set of tasks strictly after i in happens-before order.
class BitMatrix {
public:
  explicit BitMatrix(std::size_t n)
      : words_((n + 63) / 64), bits_(n * words_, 0) {}

  void set(std::size_t i, std::size_t j) {
    bits_[i * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
  }
  [[nodiscard]] bool test(std::size_t i, std::size_t j) const {
    return ((bits_[i * words_ + j / 64] >> (j % 64)) & 1U) != 0;
  }
  void orInto(std::size_t dst, std::size_t src) {
    for (std::size_t w = 0; w < words_; ++w) {
      bits_[dst * words_ + w] |= bits_[src * words_ + w];
    }
  }

private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Weakly-connected components of the dependency graph. Tasks sharing no
/// edge path live in different components ("box groups" in practice: each
/// destination box's compute/op tasks cluster together), so transitive
/// closure runs on small dense blocks instead of the whole level.
struct Components {
  std::vector<int> compOf;  ///< global task id -> component id
  std::vector<int> localId; ///< global task id -> index inside component
  std::vector<std::vector<int>> members; ///< component -> global ids
};

Components splitComponents(const TaskGraphModel& m) {
  const std::size_t n = m.tasks.size();
  std::vector<int> parent(n);
  for (std::size_t i = 0; i < n; ++i) {
    parent[i] = static_cast<int>(i);
  }
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (std::size_t u = 0; u < n; ++u) {
    for (const int v : m.tasks[u].successors) {
      const int ru = find(static_cast<int>(u));
      const int rv = find(v);
      if (ru != rv) {
        parent[static_cast<std::size_t>(ru)] = rv;
      }
    }
  }
  Components c;
  c.compOf.assign(n, -1);
  c.localId.assign(n, -1);
  std::map<int, int> rootToComp;
  for (std::size_t i = 0; i < n; ++i) {
    const int root = find(static_cast<int>(i));
    auto [it, inserted] =
        rootToComp.emplace(root, static_cast<int>(c.members.size()));
    if (inserted) {
      c.members.emplace_back();
    }
    c.compOf[i] = it->second;
    c.localId[i] = static_cast<int>(
        c.members[static_cast<std::size_t>(it->second)].size());
    c.members[static_cast<std::size_t>(it->second)].push_back(
        static_cast<int>(i));
  }
  return c;
}

/// Kahn's algorithm over one component. Returns the topological order in
/// local ids; on a cycle, leaves the cyclic tasks out (order.size() <
/// member count).
std::vector<int> topoOrder(const TaskGraphModel& m, const Components& c,
                           std::size_t comp,
                           const std::pair<int, int>* skipEdge) {
  const std::vector<int>& members = c.members[comp];
  const std::size_t n = members.size();
  std::vector<int> indeg(n, 0);
  for (const int gu : members) {
    for (const int gv : m.tasks[static_cast<std::size_t>(gu)].successors) {
      if (skipEdge != nullptr && skipEdge->first == gu &&
          skipEdge->second == gv) {
        continue; // drop exactly one instance of the candidate edge
      }
      ++indeg[static_cast<std::size_t>(c.localId[static_cast<std::size_t>(
          gv)])];
    }
  }
  // One subtlety with duplicate edges: skipEdge above removes *every*
  // parallel instance from the count walk, but duplicates are classified
  // removable before this runs, so the recompute only ever sees unique
  // edges.
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) {
      ready.push_back(static_cast<int>(i));
    }
  }
  while (!ready.empty()) {
    const int lu = ready.back();
    ready.pop_back();
    order.push_back(lu);
    const int gu = members[static_cast<std::size_t>(lu)];
    for (const int gv : m.tasks[static_cast<std::size_t>(gu)].successors) {
      if (skipEdge != nullptr && skipEdge->first == gu &&
          skipEdge->second == gv) {
        continue;
      }
      const int lv = c.localId[static_cast<std::size_t>(gv)];
      if (--indeg[static_cast<std::size_t>(lv)] == 0) {
        ready.push_back(lv);
      }
    }
  }
  return order;
}

/// Reachability closure of one component from a topological order:
/// processing in reverse order, a task's row is the union of each
/// successor's row plus the successor itself.
BitMatrix closure(const TaskGraphModel& m, const Components& c,
                  std::size_t comp, const std::vector<int>& order,
                  const std::pair<int, int>* skipEdge) {
  const std::vector<int>& members = c.members[comp];
  BitMatrix reach(members.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int lu = *it;
    const int gu = members[static_cast<std::size_t>(lu)];
    for (const int gv : m.tasks[static_cast<std::size_t>(gu)].successors) {
      if (skipEdge != nullptr && skipEdge->first == gu &&
          skipEdge->second == gv) {
        continue;
      }
      const auto lv = static_cast<std::size_t>(
          c.localId[static_cast<std::size_t>(gv)]);
      reach.set(static_cast<std::size_t>(lu), lv);
      reach.orInto(static_cast<std::size_t>(lu), lv);
    }
  }
  return reach;
}

std::string taskTag(int id) { return "task " + std::to_string(id); }

/// Witness classification of one conflicting pair: write/write overlap
/// dominates (both tasks corrupt the cell), otherwise the read/write
/// overlap. Returns the witness region through `region`.
DiagnosticKind classifyPair(const GraphTask& a, const GraphTask& b,
                            Box& region) {
  for (const auto& wa : a.writes) {
    for (const auto& wb : b.writes) {
      if (wa.overlaps(wb)) {
        region = wa.region & wb.region;
        return DiagnosticKind::WriteOverlap;
      }
    }
  }
  for (const auto& wa : a.writes) {
    for (const auto& rb : b.reads) {
      if (wa.overlaps(rb)) {
        region = wa.region & rb.region;
        return DiagnosticKind::ReadWriteRace;
      }
    }
  }
  for (const auto& wb : b.writes) {
    for (const auto& ra : a.reads) {
      if (wb.overlaps(ra)) {
        region = wb.region & ra.region;
        return DiagnosticKind::ReadWriteRace;
      }
    }
  }
  region = Box();
  return DiagnosticKind::Ok;
}

} // namespace

GraphCheckReport checkTaskGraph(const TaskGraphModel& m,
                                bool findRemovable) {
  GraphCheckReport report;
  report.graph = m.name;
  report.taskCount = static_cast<std::int64_t>(m.tasks.size());
  report.edgeCount = static_cast<std::int64_t>(m.edgeCount());
  if (m.tasks.empty()) {
    return report;
  }

  const Components comps = splitComponents(m);
  report.componentCount = static_cast<std::int64_t>(comps.members.size());

  // G1: a topological order must exist per component. On a cycle nothing
  // else is meaningful (happens-before is not a partial order), so report
  // and stop.
  std::vector<std::vector<int>> orders(comps.members.size());
  for (std::size_t cidx = 0; cidx < comps.members.size(); ++cidx) {
    orders[cidx] = topoOrder(m, comps, cidx, nullptr);
    if (orders[cidx].size() == comps.members[cidx].size()) {
      continue;
    }
    std::vector<bool> inOrder(comps.members[cidx].size(), false);
    for (const int lu : orders[cidx]) {
      inOrder[static_cast<std::size_t>(lu)] = true;
    }
    std::vector<int> cyclic;
    for (std::size_t i = 0; i < comps.members[cidx].size(); ++i) {
      if (!inOrder[i]) {
        cyclic.push_back(comps.members[cidx][i]);
      }
    }
    Diagnostic d;
    d.kind = DiagnosticKind::DependencyCycle;
    d.variant = m.name;
    d.stageA = m.label(cyclic.front());
    d.itemA = taskTag(cyclic.front());
    d.stageB = m.label(cyclic.size() > 1 ? cyclic[1] : cyclic.front());
    d.itemB = taskTag(cyclic.size() > 1 ? cyclic[1] : cyclic.front());
    report.diagnostics.push_back(std::move(d));
  }
  if (!report.diagnostics.empty()) {
    return report;
  }

  // Happens-before closure and critical path per component.
  std::vector<BitMatrix> reach;
  reach.reserve(comps.members.size());
  for (std::size_t cidx = 0; cidx < comps.members.size(); ++cidx) {
    reach.push_back(closure(m, comps, cidx, orders[cidx], nullptr));
    std::vector<std::int64_t> depth(comps.members[cidx].size(), 1);
    for (const int lu : orders[cidx]) {
      const int gu = comps.members[cidx][static_cast<std::size_t>(lu)];
      for (const int gv :
           m.tasks[static_cast<std::size_t>(gu)].successors) {
        const auto lv = static_cast<std::size_t>(
            comps.localId[static_cast<std::size_t>(gv)]);
        depth[lv] = std::max(depth[lv],
                             depth[static_cast<std::size_t>(lu)] + 1);
      }
    }
    for (const std::int64_t d : depth) {
      report.criticalPath = std::max(report.criticalPath, d);
    }
  }

  const auto ordered = [&](int ga, int gb) {
    const int ca = comps.compOf[static_cast<std::size_t>(ga)];
    if (ca != comps.compOf[static_cast<std::size_t>(gb)]) {
      return false;
    }
    const auto la = static_cast<std::size_t>(
        comps.localId[static_cast<std::size_t>(ga)]);
    const auto lb = static_cast<std::size_t>(
        comps.localId[static_cast<std::size_t>(gb)]);
    return reach[static_cast<std::size_t>(ca)].test(la, lb) ||
           reach[static_cast<std::size_t>(ca)].test(lb, la);
  };

  // G2: every conflicting pair (shared write/write or read/write overlap)
  // must be ordered. Accesses bucket by (field, slot, box) so only
  // same-storage pairs are ever intersected; writes are few (each cell has
  // one producer), so write x write plus write x read stays near-linear.
  struct Ref {
    int task;
    const TaskAccess* access;
  };
  std::map<std::tuple<int, int, std::size_t>,
           std::pair<std::vector<Ref>, std::vector<Ref>>>
      buckets; // (field, slot, box) -> (writes, reads)
  for (std::size_t t = 0; t < m.tasks.size(); ++t) {
    for (const auto& w : m.tasks[t].writes) {
      buckets[{static_cast<int>(w.field), w.slot, w.box}].first.push_back(
          {static_cast<int>(t), &w});
    }
    for (const auto& r : m.tasks[t].reads) {
      buckets[{static_cast<int>(r.field), r.slot, r.box}].second.push_back(
          {static_cast<int>(t), &r});
    }
  }
  std::set<std::pair<int, int>> reported;
  // Ordered conflicting pairs, the constraint set of the over-sync pass:
  // an edge is only removable if every one of these stays ordered.
  std::vector<std::set<std::pair<int, int>>> orderedConflicts(
      comps.members.size());
  const auto onConflict = [&](int ta, int tb) {
    const int a = std::min(ta, tb);
    const int b = std::max(ta, tb);
    if (ordered(a, b)) {
      if (findRemovable) {
        const auto cidx = static_cast<std::size_t>(
            comps.compOf[static_cast<std::size_t>(a)]);
        orderedConflicts[cidx].insert(
            {comps.localId[static_cast<std::size_t>(a)],
             comps.localId[static_cast<std::size_t>(b)]});
      }
      return;
    }
    if (!reported.insert({a, b}).second) {
      return;
    }
    Diagnostic d;
    d.variant = m.name;
    d.kind = classifyPair(m.tasks[static_cast<std::size_t>(a)],
                          m.tasks[static_cast<std::size_t>(b)], d.region);
    d.stageA = m.label(a);
    d.itemA = taskTag(a);
    d.stageB = m.label(b);
    d.itemB = taskTag(b);
    report.diagnostics.push_back(std::move(d));
  };
  for (const auto& [key, lists] : buckets) {
    const auto& writes = lists.first;
    const auto& reads = lists.second;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      for (std::size_t j = i + 1; j < writes.size(); ++j) {
        if (writes[i].task != writes[j].task &&
            writes[i].access->overlaps(*writes[j].access)) {
          onConflict(writes[i].task, writes[j].task);
        }
      }
      for (const auto& r : reads) {
        if (writes[i].task != r.task &&
            writes[i].access->overlaps(*r.access)) {
          onConflict(writes[i].task, r.task);
        }
      }
    }
  }

  // G3: when the graph performs the exchange itself, each task's Phi0 read
  // outside its box's valid region must be covered by the current Phi0
  // writes that happen-before it (the exchange-op tasks feeding that ghost
  // region). A write is current for reader t unless a task ordered between
  // the two overwrites what the writer read: then the ghost holds an
  // earlier stage's value, e.g. the fill a later, under-copying exchange
  // of the same slot left behind.
  const auto before = [&](int ga, int gb) {
    const auto a = static_cast<std::size_t>(ga);
    const auto b = static_cast<std::size_t>(gb);
    const int c = comps.compOf[a];
    return ga != gb && c == comps.compOf[b] &&
           reach[static_cast<std::size_t>(c)].test(
               static_cast<std::size_t>(comps.localId[a]),
               static_cast<std::size_t>(comps.localId[b]));
  };
  const auto current = [&](int gu, int t) {
    for (const auto& a : m.tasks[static_cast<std::size_t>(gu)].reads) {
      const auto it =
          buckets.find({static_cast<int>(a.field), a.slot, a.box});
      if (it == buckets.end()) {
        continue;
      }
      for (const Ref& v : it->second.first) {
        if (!m.tasks[static_cast<std::size_t>(v.task)].orderingOnly &&
            v.access->overlaps(a) && before(gu, v.task) &&
            before(v.task, t)) {
          return false;
        }
      }
    }
    return true;
  };
  if (!m.ghostsPreExchanged) {
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
      if (m.tasks[t].orderingOnly) {
        continue; // sequencing barrier, not a data consumer
      }
      for (const auto& r : m.tasks[t].reads) {
        if (r.field != FieldId::Phi0 || r.box >= m.validBoxes.size()) {
          continue;
        }
        const std::vector<Box> ghostPieces =
            subtractAll(r.region, {m.validBoxes[r.box]});
        if (ghostPieces.empty()) {
          continue;
        }
        CoverSet cover;
        const auto fills = [&r](const TaskAccess& w) {
          return w.field == FieldId::Phi0 && w.box == r.box &&
                 w.slot == r.slot && w.comp0 <= r.comp0 &&
                 r.comp0 + r.nComp <= w.comp0 + w.nComp;
        };
        for (const auto& g : m.tasks[t].gathers) {
          if (fills(g)) {
            cover.add(g.region);
          }
        }
        const auto cidx = static_cast<std::size_t>(
            comps.compOf[t]);
        const auto lt = static_cast<std::size_t>(comps.localId[t]);
        for (std::size_t li = 0; li < comps.members[cidx].size(); ++li) {
          if (!reach[cidx].test(li, lt)) {
            continue;
          }
          const auto gu = static_cast<std::size_t>(
              comps.members[cidx][li]);
          if (m.tasks[gu].orderingOnly) {
            continue; // conservative barrier footprint, not a producer
          }
          for (const auto& w : m.tasks[gu].writes) {
            if (fills(w) &&
                current(static_cast<int>(gu), static_cast<int>(t))) {
              cover.add(w.region);
            }
          }
        }
        for (const Box& piece : ghostPieces) {
          const Box missing = cover.firstMissing(piece);
          if (missing.empty()) {
            continue;
          }
          // Name the task that should have fed the missing cells: the
          // reader itself when it gathers this box's halo, else the
          // exchange op whose (grown) ghost fill is nearest the hole,
          // preferring the latest such op before the reader.
          int bestOp = std::ranges::any_of(m.tasks[t].gathers, fills)
                           ? static_cast<int>(t)
                           : -1;
          std::int64_t bestVol = 0;
          for (const bool onlyBefore : {true, false}) {
            if (bestOp >= 0) {
              break;
            }
            for (std::size_t u = 0; u < m.tasks.size(); ++u) {
              if (!m.tasks[u].exchangeOp ||
                  (onlyBefore && !before(static_cast<int>(u),
                                         static_cast<int>(t)))) {
                continue;
              }
              for (const auto& w : m.tasks[u].writes) {
                if (w.field != FieldId::Phi0 || w.box != r.box ||
                    w.slot != r.slot) {
                  continue;
                }
                const std::int64_t vol =
                    (w.region.grow(1) & missing).numPts();
                if (vol > bestVol || (onlyBefore && vol > 0 &&
                                      vol == bestVol)) {
                  bestVol = vol;
                  bestOp = static_cast<int>(u);
                }
              }
            }
          }
          Diagnostic d;
          d.kind = DiagnosticKind::ReadUncovered;
          d.variant = m.name;
          d.stageA = m.label(static_cast<int>(t));
          d.itemA = taskTag(static_cast<int>(t));
          d.stageB = bestOp >= 0 ? m.label(bestOp) : "<no exchange op>";
          d.itemB = bestOp >= 0 ? taskTag(bestOp) : "";
          d.region = missing;
          report.diagnostics.push_back(std::move(d));
        }
      }
    }
  }

  // Over-synchronization (advisory): an edge is removable when it is
  // transitively implied by another path, or when no ordered conflicting
  // pair depends on it (re-proved by recomputing the closure without it).
  if (findRemovable) {
    for (std::size_t cidx = 0; cidx < comps.members.size(); ++cidx) {
      for (const int gu : comps.members[cidx]) {
        const auto& succs =
            m.tasks[static_cast<std::size_t>(gu)].successors;
        std::set<int> seen;
        for (const int gv : succs) {
          if (!seen.insert(gv).second) {
            report.removable.push_back(
                {gu, gv, "duplicate of an existing edge"});
            continue;
          }
          const auto lv = static_cast<std::size_t>(
              comps.localId[static_cast<std::size_t>(gv)]);
          bool implied = false;
          for (const int gw : succs) {
            if (gw == gv) {
              continue;
            }
            const auto lw = static_cast<std::size_t>(
                comps.localId[static_cast<std::size_t>(gw)]);
            if (reach[cidx].test(lw, lv)) {
              implied = true;
              break;
            }
          }
          if (implied) {
            report.removable.push_back(
                {gu, gv, "transitively implied by another path"});
            continue;
          }
          Box witness;
          if (classifyPair(m.tasks[static_cast<std::size_t>(gu)],
                           m.tasks[static_cast<std::size_t>(gv)],
                           witness) != DiagnosticKind::Ok) {
            continue; // the edge directly orders a conflicting pair
          }
          // Non-conflicting and non-redundant: removable iff every
          // ordered conflicting pair survives without it.
          const std::pair<int, int> edge{gu, gv};
          const std::vector<int> order2 =
              topoOrder(m, comps, cidx, &edge);
          const BitMatrix reach2 =
              closure(m, comps, cidx, order2, &edge);
          bool safe = true;
          for (const auto& [la, lb] : orderedConflicts[cidx]) {
            if (!reach2.test(static_cast<std::size_t>(la),
                             static_cast<std::size_t>(lb)) &&
                !reach2.test(static_cast<std::size_t>(lb),
                             static_cast<std::size_t>(la))) {
              safe = false;
              break;
            }
          }
          if (safe) {
            report.removable.push_back(
                {gu, gv, "orders no conflicting accesses"});
          }
        }
      }
    }
  }
  return report;
}

} // namespace fluxdiv::analysis
