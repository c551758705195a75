#include "rt/fault.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "rt/error.hpp"
#include "trace/trace.hpp"

namespace mxn::rt {

namespace {

// splitmix64: cheap, well-distributed stateless mixer — the decision for a
// given (seed, rank, counter) is a pure function of those three values.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double parse_double(const std::string& key, const std::string& v) {
  try {
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw UsageError("fault plan: bad value '" + v + "' for '" + key + "'");
  }
}

int parse_int(const std::string& key, const std::string& v) {
  try {
    std::size_t used = 0;
    const int i = std::stoi(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return i;
  } catch (const std::exception&) {
    throw UsageError("fault plan: bad value '" + v + "' for '" + key + "'");
  }
}

// One "rank@after" kill-list entry.
KillSpec parse_kill(const std::string& v) {
  const auto at = v.find('@');
  if (at == std::string::npos || at == 0 || at + 1 >= v.size())
    throw UsageError("fault plan: kill entries are rank@after, got '" + v +
                     "'");
  KillSpec k{parse_int("kill", v.substr(0, at)),
             parse_int("kill", v.substr(at + 1))};
  if (k.rank < 0 || k.after < 0)
    throw UsageError("fault plan: kill rank and operation must be >= 0");
  return k;
}

}  // namespace

std::vector<KillSpec> FaultPlan::all_kills() const {
  // Earliest-wins per rank: a rank can only die once, so duplicate entries
  // collapse onto the smallest operation count. Ascending rank order keeps
  // the result deterministic regardless of spec order.
  std::map<int, int> earliest;
  for (const KillSpec& k : kills) {
    if (k.rank < 0 || k.after < 0) continue;
    const auto [it, fresh] = earliest.try_emplace(k.rank, k.after);
    if (!fresh) it->second = std::min(it->second, k.after);
  }
  std::vector<KillSpec> out;
  out.reserve(earliest.size());
  for (const auto& [r, a] : earliest) out.push_back({r, a});
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan p;
  std::stringstream ss(spec);
  std::string item;
  bool in_kill_list = false;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      // "kill=2@40,5@90" splits at the commas like every other item; an
      // '='-less item directly following a kill= key continues its list.
      if (in_kill_list) {
        p.kills.push_back(parse_kill(item));
        continue;
      }
      throw UsageError("fault plan: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    in_kill_list = key == "kill";
    if (key == "kill") {
      p.kills.push_back(parse_kill(val));
    } else if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(parse_int(key, val));
    } else if (key == "drop") {
      p.drop = parse_double(key, val);
    } else if (key == "dup") {
      p.dup = parse_double(key, val);
    } else if (key == "reorder") {
      p.reorder = parse_double(key, val);
    } else if (key == "delay") {
      p.delay = parse_double(key, val);
    } else if (key == "delay_ms") {
      p.delay_ms = parse_int(key, val);
    } else if (key == "min_tag") {
      p.min_tag = parse_int(key, val);
    } else {
      throw UsageError("fault plan: unknown key '" + key + "'");
    }
  }
  for (double r : {p.drop, p.dup, p.reorder, p.delay})
    if (!(r >= 0 && r <= 1))  // also rejects NaN
      throw UsageError("fault plan: rates must be within [0, 1]");
  return p;
}

std::optional<FaultPlan> FaultPlan::from_env() {
  const char* v = std::getenv("MXN_FAULTS");
  if (v == nullptr || *v == '\0') return std::nullopt;
  return parse(v);
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << ",drop=" << drop << ",dup=" << dup
     << ",reorder=" << reorder << ",delay=" << delay
     << ",delay_ms=" << delay_ms << ",min_tag=" << min_tag;
  if (!kills.empty()) {
    os << ",kill=";
    for (std::size_t i = 0; i < kills.size(); ++i)
      os << (i ? "," : "") << kills[i].rank << '@' << kills[i].after;
  }
  return os.str();
}

FaultInjector::FaultInjector(FaultPlan plan, int nranks)
    : plan_(plan),
      ops_(static_cast<std::size_t>(nranks)),
      sends_(static_cast<std::size_t>(nranks)),
      kill_at_(static_cast<std::size_t>(nranks), -1) {
  // all_kills() holds one entry per rank, each with a non-negative rank.
  for (const KillSpec& k : plan_.all_kills())
    if (k.rank < nranks) kill_at_[static_cast<std::size_t>(k.rank)] = k.after;
}

void FaultInjector::on_op(int rank) {
  if (rank < 0 || rank >= static_cast<int>(ops_.size())) return;
  const auto op = ops_[rank].fetch_add(1, std::memory_order_relaxed);
  // Sticky: every operation at or past the appointed one throws, so user
  // code that (wrongly) catches KilledError cannot resurrect the rank.
  const int kill_at = kill_at_[static_cast<std::size_t>(rank)];
  if (kill_at >= 0 && op >= static_cast<std::uint64_t>(kill_at)) {
    if (op == static_cast<std::uint64_t>(kill_at)) {
      killed_.store(true, std::memory_order_relaxed);
      static trace::Counter& killed = trace::counter("fault.killed");
      killed.add(1);
      trace::instant("fault.kill", "fault", op);
    }
    throw KilledError("fault plan killed rank " + std::to_string(rank) +
                      " at its operation #" + std::to_string(op));
  }
}

double FaultInjector::uniform(int rank, std::uint64_t op) const {
  const std::uint64_t h = mix64(plan_.seed ^ mix64(
      (static_cast<std::uint64_t>(rank) << 32) ^ op));
  return static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
}

FaultAction FaultInjector::on_send(int rank, int tag) {
  if (rank < 0 || rank >= static_cast<int>(sends_.size()))
    return FaultAction::None;
  if (tag < plan_.min_tag) return FaultAction::None;  // spares internal tags
  const auto op = sends_[rank].fetch_add(1, std::memory_order_relaxed);
  double u = uniform(rank, op);
  if (u < plan_.drop) {
    static trace::Counter& dropped = trace::counter("fault.dropped");
    dropped.add(1);
    trace::instant("fault.drop", "fault", static_cast<std::uint64_t>(tag));
    return FaultAction::Drop;
  }
  u -= plan_.drop;
  if (u < plan_.dup) {
    static trace::Counter& duplicated = trace::counter("fault.duplicated");
    duplicated.add(1);
    trace::instant("fault.dup", "fault", static_cast<std::uint64_t>(tag));
    return FaultAction::Duplicate;
  }
  u -= plan_.dup;
  if (u < plan_.reorder) {
    static trace::Counter& reordered = trace::counter("fault.reordered");
    reordered.add(1);
    trace::instant("fault.reorder", "fault", static_cast<std::uint64_t>(tag));
    return FaultAction::Reorder;
  }
  u -= plan_.reorder;
  if (u < plan_.delay) {
    static trace::Counter& delayed = trace::counter("fault.delayed");
    delayed.add(1);
    trace::instant("fault.delay", "fault", static_cast<std::uint64_t>(tag));
    return FaultAction::Delay;
  }
  return FaultAction::None;
}

}  // namespace mxn::rt
