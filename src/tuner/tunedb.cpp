#include "tuner/tunedb.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/costmodel.hpp"
#include "harness/machine.hpp"
#include "solvers/integrator.hpp"

namespace fluxdiv::tuner {

// ---------------------------------------------------------------------------
// MachineSignature

MachineSignature MachineSignature::host() {
  const harness::MachineInfo info = harness::queryMachine();
  MachineSignature sig;
  sig.cpuModel = info.cpuModel;
  sig.logicalCores = info.logicalCores;
  sig.llcBytes = harness::lastLevelCacheBytes(info);
  return sig;
}

bool MachineSignature::operator==(const MachineSignature& o) const {
  return cpuModel == o.cpuModel && logicalCores == o.logicalCores &&
         llcBytes == o.llcBytes;
}

std::string MachineSignature::str() const {
  std::ostringstream os;
  os << (cpuModel.empty() ? "unknown cpu" : cpuModel) << " | "
     << logicalCores << " cores | "
     << static_cast<double>(llcBytes) / (1024.0 * 1024.0) << " MiB LLC";
  return os.str();
}

// ---------------------------------------------------------------------------
// TuneKey

bool TuneKey::operator==(const TuneKey& o) const {
  return scheme == o.scheme && boxSize == o.boxSize && ghost == o.ghost &&
         threads == o.threads;
}

std::string TuneKey::str() const {
  std::ostringstream os;
  os << scheme << "/n" << boxSize << "/g" << ghost << "/t" << threads;
  return os.str();
}

// ---------------------------------------------------------------------------
// Cost-model prior

TuneEntry costModelPrior(const TuneKey& key, int nBoxes,
                         const MachineSignature& machine,
                         const core::VariantConfig& cfg) {
  solvers::Scheme scheme{};
  if (!solvers::parseScheme(key.scheme, scheme)) {
    throw std::invalid_argument("costModelPrior: unknown scheme '" +
                                key.scheme + "'");
  }
  TuneEntry entry;
  entry.key = key;
  entry.fuse = core::StepFuse::Fused; // the one step-graph mode
  nBoxes = std::max(1, nBoxes);
  const int threads = std::max(1, key.threads);

  // The within-box variant's cost report prices the level policies.
  analysis::CacheSpec spec;
  if (machine.llcBytes > 0) {
    spec.llcBytes = machine.llcBytes;
  }
  const analysis::CostReport box =
      analysis::analyzeCost(cfg, key.boxSize, threads, spec);

  // Level policy: the fastest predicted concurrency profile.
  double bestSpeedup = 0.0;
  for (const analysis::LevelPolicyCost& p : analysis::analyzeLevelPolicies(
           box, key.boxSize, nBoxes, threads)) {
    if (p.predictedSpeedup > bestSpeedup) {
      bestSpeedup = p.predictedSpeedup;
      entry.policy = p.policy;
    }
  }
  return entry;
}

// ---------------------------------------------------------------------------
// JSON plumbing (hand-rolled: the schema is one flat machine object plus
// an array of flat records, and the repo takes no dependencies)

namespace {

void appendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    case '\r': out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  out += '"';
}

std::string formatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal scanner over the fixed TuneDB schema. Values are returned as
/// raw text (strings unescaped); nesting beyond the known two levels is
/// rejected, which is fine for a file only save() produces.
struct Scanner {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r' || s[i] == ',')) {
      ++i;
    }
  }
  bool consume(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    ws();
    return i < s.size() && s[i] == c;
  }
  bool parseString(std::string& out) {
    ws();
    if (i >= s.size() || s[i] != '"') {
      return false;
    }
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\' && i < s.size()) {
        const char e = s[i++];
        switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'u':
          // Only \u00XX escapes are ever written; decode the low byte.
          if (i + 4 <= s.size()) {
            c = static_cast<char>(
                std::strtol(s.substr(i + 2, 2).c_str(), nullptr, 16));
            i += 4;
          }
          break;
        default: c = e;
        }
      }
      out += c;
    }
    if (i >= s.size()) {
      return false;
    }
    ++i; // closing quote
    return true;
  }
  bool parseScalar(std::string& out) {
    ws();
    if (peek('"')) {
      return parseString(out);
    }
    out.clear();
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           s[i] != ' ' && s[i] != '\n' && s[i] != '\t' && s[i] != '\r') {
      out += s[i++];
    }
    return !out.empty();
  }
  /// { "key": scalar, ... } with no nesting.
  bool parseFlatObject(
      std::vector<std::pair<std::string, std::string>>& out) {
    if (!consume('{')) {
      return false;
    }
    out.clear();
    while (!peek('}')) {
      std::string key;
      std::string val;
      if (!parseString(key) || !consume(':') || !parseScalar(val)) {
        return false;
      }
      out.emplace_back(std::move(key), std::move(val));
    }
    return consume('}');
  }
  static const std::string* get(
      const std::vector<std::pair<std::string, std::string>>& kv,
      const char* key) {
    for (const auto& [k, v] : kv) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

bool toInt(const std::string& text, int& out) {
  try {
    std::size_t used = 0;
    out = std::stoi(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool toDouble(const std::string& text, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// One record object -> TuneEntry; false on any missing/invalid field.
bool parseRecord(const std::vector<std::pair<std::string, std::string>>& kv,
                 TuneEntry& e) {
  const std::string* scheme = Scanner::get(kv, "scheme");
  const std::string* boxSize = Scanner::get(kv, "boxSize");
  const std::string* ghost = Scanner::get(kv, "ghost");
  const std::string* threads = Scanner::get(kv, "threads");
  const std::string* fuse = Scanner::get(kv, "fuse");
  const std::string* policy = Scanner::get(kv, "policy");
  const std::string* seconds = Scanner::get(kv, "seconds");
  const std::string* refines = Scanner::get(kv, "refines");
  if (scheme == nullptr || boxSize == nullptr || ghost == nullptr ||
      threads == nullptr || fuse == nullptr || policy == nullptr ||
      seconds == nullptr) {
    return false;
  }
  e = TuneEntry{};
  e.key.scheme = *scheme;
  if (!toInt(*boxSize, e.key.boxSize) || !toInt(*ghost, e.key.ghost) ||
      !toInt(*threads, e.key.threads) ||
      !toDouble(*seconds, e.seconds) ||
      !core::parseStepFuse(*fuse, e.fuse) ||
      !core::parseLevelPolicy(*policy, e.policy)) {
    return false;
  }
  if (refines != nullptr && !toInt(*refines, e.refines)) {
    return false;
  }
  e.measured = true;
  return true;
}

} // namespace

// ---------------------------------------------------------------------------
// TuneDB

TuneDB::TuneDB(MachineSignature machine) : machine_(std::move(machine)) {}

bool TuneDB::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  Scanner sc{text};
  std::vector<std::pair<std::string, std::string>> kv;
  if (!sc.consume('{')) {
    return false;
  }
  MachineSignature fileSig;
  bool haveSig = false;
  std::vector<TuneEntry> loaded;
  std::uint64_t rejected = 0;
  while (!sc.peek('}')) {
    std::string section;
    if (!sc.parseString(section) || !sc.consume(':')) {
      return false;
    }
    if (section == "machine") {
      if (!sc.parseFlatObject(kv)) {
        return false;
      }
      const std::string* model = Scanner::get(kv, "cpuModel");
      const std::string* cores = Scanner::get(kv, "logicalCores");
      const std::string* llc = Scanner::get(kv, "llcBytes");
      double llcVal = 0.0;
      if (model == nullptr || cores == nullptr || llc == nullptr ||
          !toInt(*cores, fileSig.logicalCores) || !toDouble(*llc, llcVal)) {
        return false;
      }
      fileSig.cpuModel = *model;
      fileSig.llcBytes = static_cast<std::size_t>(llcVal);
      haveSig = true;
    } else if (section == "records") {
      if (!sc.consume('[')) {
        return false;
      }
      while (!sc.peek(']')) {
        TuneEntry e;
        if (!sc.parseFlatObject(kv)) {
          return false;
        }
        if (parseRecord(kv, e)) {
          loaded.push_back(std::move(e));
        } else {
          ++rejected;
        }
      }
      if (!sc.consume(']')) {
        return false;
      }
    } else {
      return false; // unknown section: not a TuneDB file
    }
  }

  counters_.rejected += rejected;
  if (!haveSig || fileSig != machine_) {
    // Foreign machine: measurements do not transfer; keep nothing and let
    // every lookup fall back to the cost-model prior.
    counters_.rejected += loaded.size();
    return true;
  }
  for (TuneEntry& e : loaded) {
    if (TuneEntry* mine = findMutable(e.key, false)) {
      *mine = std::move(e);
    } else {
      entries_.push_back(std::move(e));
    }
  }
  return true;
}

void TuneDB::save(const std::string& path) const {
  std::string out = "{\n  \"machine\": {\"cpuModel\": ";
  appendEscaped(out, machine_.cpuModel);
  out += ", \"logicalCores\": " + std::to_string(machine_.logicalCores);
  out += ", \"llcBytes\": " + std::to_string(machine_.llcBytes);
  out += "},\n  \"records\": [";
  bool first = true;
  for (const TuneEntry& e : entries_) {
    if (!e.measured) {
      continue; // priors are recomputable; persist only measurements
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"scheme\": ";
    appendEscaped(out, e.key.scheme);
    out += ", \"boxSize\": " + std::to_string(e.key.boxSize);
    out += ", \"ghost\": " + std::to_string(e.key.ghost);
    out += ", \"threads\": " + std::to_string(e.key.threads);
    out += ", \"fuse\": ";
    appendEscaped(out, core::stepFuseName(e.fuse));
    out += ", \"policy\": ";
    appendEscaped(out, core::levelPolicyName(e.policy));
    out += ", \"seconds\": " + formatDouble(e.seconds);
    out += ", \"refines\": " + std::to_string(e.refines);
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  // Write a sibling temp file and rename it over `path`, so a crash or a
  // failed write never leaves a truncated database behind.
  const std::string tmp = path + ".tmp";
  std::ofstream f(tmp, std::ios::trunc);
  if (!f) {
    throw std::runtime_error("TuneDB::save: cannot create " + tmp);
  }
  f << out;
  f.close();
  if (!f || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("TuneDB::save: cannot write " + path);
  }
}

TuneEntry* TuneDB::findMutable(const TuneKey& key, bool measuredOnly) {
  for (TuneEntry& e : entries_) {
    if (e.key == key && (!measuredOnly || e.measured)) {
      return &e;
    }
  }
  return nullptr;
}

const TuneEntry* TuneDB::find(const TuneKey& key) const {
  for (const TuneEntry& e : entries_) {
    if (e.key == key && e.measured) {
      return &e;
    }
  }
  return nullptr;
}

const TuneEntry& TuneDB::suggest(const TuneKey& key, int nBoxes,
                                 const core::VariantConfig& cfg) {
  if (const TuneEntry* hit = findMutable(key, true)) {
    ++counters_.hits;
    return *hit;
  }
  ++counters_.misses;
  if (const TuneEntry* prior = findMutable(key, false)) {
    return *prior; // already-seeded prior; still a miss (not measured)
  }
  ++counters_.seeds;
  entries_.push_back(costModelPrior(key, nBoxes, machine_, cfg));
  return entries_.back();
}

void TuneDB::observe(const TuneKey& key, core::StepFuse fuse,
                     core::LevelPolicy policy, double seconds) {
  ++counters_.refines;
  TuneEntry* e = findMutable(key, false);
  if (e == nullptr) {
    entries_.push_back(TuneEntry{});
    e = &entries_.back();
    e->key = key;
  }
  if (!e->measured) {
    e->fuse = fuse;
    e->policy = policy;
    e->seconds = seconds;
    e->measured = true;
    e->refines = 1;
    return;
  }
  ++e->refines;
  if (fuse == e->fuse && policy == e->policy) {
    e->seconds = std::min(e->seconds, seconds);
  } else if (seconds < e->seconds) {
    e->fuse = fuse;
    e->policy = policy;
    e->seconds = seconds;
  }
}

std::size_t TuneDB::size() const {
  std::size_t n = 0;
  for (const TuneEntry& e : entries_) {
    n += e.measured ? 1 : 0;
  }
  return n;
}

} // namespace fluxdiv::tuner
