#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace mxn::trace {

namespace {

thread_local int t_rank = -1;
thread_local Ring* t_ring = nullptr;

/// Owns every ring and metric ever created. Rings and metric objects are
/// never destroyed (only reset), so raw pointers and references handed out
/// stay valid across reset() and thread exit.
struct Registry {
  std::mutex mu;
  std::deque<std::unique_ptr<Ring>> rings;
  std::deque<int> ring_ranks;  // rank tag at ring creation, index-aligned
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::unique_ptr<CounterFamily>> families;

  static Registry& get() {
    static Registry* r = new Registry();  // leaked: outlives all threads
    return *r;
  }
};

Ring& ring_for_this_thread() {
  if (t_ring == nullptr) {
    auto& reg = Registry::get();
    std::lock_guard lock(reg.mu);
    reg.rings.push_back(std::make_unique<Ring>());
    reg.ring_ranks.push_back(t_rank);
    t_ring = reg.rings.back().get();
  }
  return *t_ring;
}

std::string json_escape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(*s) < 0x20) continue;
    out.push_back(*s);
  }
  return out;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool env_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("MXN_TRACE");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

void set_thread_rank(int rank) {
  t_rank = rank;
  // Re-tag an already-created ring (a thread may record before spawn tags
  // it, or be reused across spawns with a different rank).
  if (t_ring != nullptr) {
    auto& reg = Registry::get();
    std::lock_guard lock(reg.mu);
    for (std::size_t i = 0; i < reg.rings.size(); ++i)
      if (reg.rings[i].get() == t_ring) reg.ring_ranks[i] = rank;
  }
}

int thread_rank() { return t_rank; }

std::vector<Event> Ring::snapshot() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(h, kRingCapacity);
  std::vector<Event> out;
  out.reserve(n);
  for (std::uint64_t i = h - n; i < h; ++i)
    out.push_back(slots_[i % kRingCapacity]);
  return out;
}

namespace detail {

void record_kind(const char* name, const char* cat, EventKind kind,
                 std::uint64_t arg) {
  ring_for_this_thread().record(
      Event{name, cat, kind, t_rank, now_ns(), arg});
}

}  // namespace detail

void instant(const char* name, const char* cat, std::uint64_t arg) {
  if (!enabled()) return;
  detail::record_kind(name, cat, EventKind::Instant, arg);
}

std::vector<Event> this_thread_events() {
  return ring_for_this_thread().snapshot();
}

Span::~Span() {
  if (hist_ != nullptr)
    hist_->record(static_cast<std::uint64_t>(now_ns() - t0_));
  if (active_) detail::record_kind(name_, cat_, EventKind::End, 0);
}

std::uint64_t Histogram::count() const {
  std::uint64_t t = 0;
  for (int b = 0; b < kBuckets; ++b)
    t += buckets_[b].load(std::memory_order_relaxed);
  return t;
}

void Histogram::reset() {
  for (int b = 0; b < kBuckets; ++b)
    buckets_[b].store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  auto& reg = Registry::get();
  std::lock_guard lock(reg.mu);
  const auto it = reg.counters.lower_bound(name);
  if (it != reg.counters.end() && it->first == name) return *it->second;
  for (const auto& [prefix, family] : reg.families)
    if (Counter* c = family->retired_counter(name)) return *c;
  return *reg.counters.emplace_hint(it, name, std::make_unique<Counter>())
              ->second;
}

CounterFamily::CounterFamily(std::string prefix,
                             std::vector<std::string> fields)
    : prefix_(std::move(prefix)), fields_(std::move(fields)) {}

CounterFamily::Block::Block(CounterFamily& family)
    : family_(family), nfields_(family.fields_.size()) {
  std::lock_guard lock(family_.mu_);
  family_.blocks_.push_back(this);
}

CounterFamily::Block::~Block() {
  // Fold and unlink in one critical section, so a snapshot counts each row
  // either live or retired, never both or neither.
  std::lock_guard lock(family_.mu_);
  for (std::size_t r = 0; r < labels_.size(); ++r) {
    const std::size_t row = family_.retired_row(labels_[r]);
    for (std::size_t f = 0; f < nfields_; ++f)
      family_.retired_[row * nfields_ + f].add(at(r, f).value());
  }
  std::erase(family_.blocks_, this);
}

std::size_t CounterFamily::Block::add(std::string label) {
  std::lock_guard lock(mu_);
  labels_.push_back(std::move(label));
  for (std::size_t f = 0; f < nfields_; ++f) slots_.emplace_back();
  return labels_.size() - 1;
}

std::size_t CounterFamily::retired_row(std::string_view label) {
  const auto it = retired_rows_.find(label);
  if (it != retired_rows_.end()) return it->second;
  const std::size_t row = retired_rows_.size();
  retired_rows_.emplace(std::string(label), row);
  for (std::size_t f = 0; f < fields_.size(); ++f) retired_.emplace_back();
  return row;
}

Counter* CounterFamily::retired_counter(std::string_view name) {
  if (!name.starts_with(prefix_)) return nullptr;
  name.remove_prefix(prefix_.size());
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    if (!name.ends_with(fields_[f])) continue;
    std::lock_guard lock(mu_);
    const std::size_t row =
        retired_row(name.substr(0, name.size() - fields_[f].size()));
    return &retired_[row * fields_.size() + f];
  }
  return nullptr;
}

void CounterFamily::snapshot(std::map<std::string, std::uint64_t>& out) {
  const std::size_t nf = fields_.size();
  // Sum per label first: live labels repeat across blocks (one per owner),
  // so each name is built and inserted once. Views into block labels stay
  // valid while mu_ keeps the blocks alive.
  std::unordered_map<std::string_view, std::size_t> index;
  std::vector<std::string_view> labels;
  std::vector<std::uint64_t> sums;
  auto add_row = [&](std::string_view label, auto&& value_of) {
    const auto [it, fresh] = index.try_emplace(label, labels.size());
    if (fresh) {
      labels.push_back(label);
      sums.resize(sums.size() + nf, 0);
    }
    for (std::size_t f = 0; f < nf; ++f)
      sums[it->second * nf + f] += value_of(f);
  };
  std::lock_guard lock(mu_);
  for (const auto& entry : retired_rows_) {
    const std::size_t row = entry.second;
    add_row(entry.first,
            [&](std::size_t f) { return retired_[row * nf + f].value(); });
  }
  for (Block* b : blocks_) {
    std::lock_guard block_lock(b->mu_);
    for (std::size_t r = 0; r < b->labels_.size(); ++r)
      add_row(b->labels_[r],
              [&](std::size_t f) { return b->at(r, f).value(); });
  }
  std::string name;
  for (std::size_t i = 0; i < labels.size(); ++i)
    for (std::size_t f = 0; f < nf; ++f) {
      name.assign(prefix_).append(labels[i]).append(fields_[f]);
      out[name] += sums[i * nf + f];
    }
}

void CounterFamily::zero() {
  std::lock_guard lock(mu_);
  for (Counter& c : retired_) c.reset();
  for (Block* b : blocks_) {
    std::lock_guard block_lock(b->mu_);
    for (Counter& c : b->slots_) c.reset();
  }
}

CounterFamily& counter_family(const std::string& prefix,
                              std::vector<std::string> fields) {
  auto& reg = Registry::get();
  std::lock_guard lock(reg.mu);
  auto& slot = reg.families[prefix];
  if (!slot)
    slot = std::make_unique<CounterFamily>(prefix, std::move(fields));
  else if (slot->fields() != fields)
    throw std::invalid_argument("trace: counter family '" + prefix +
                                "' re-registered with other fields");
  return *slot;
}

Histogram& histogram(const std::string& name) {
  auto& reg = Registry::get();
  std::lock_guard lock(reg.mu);
  auto& slot = reg.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, std::uint64_t> counters() {
  auto& reg = Registry::get();
  std::map<std::string, std::uint64_t> out;
  std::vector<CounterFamily*> families;
  {
    std::lock_guard lock(reg.mu);
    for (const auto& [name, c] : reg.counters) out[name] = c->value();
    for (const auto& [prefix, family] : reg.families)
      families.push_back(family.get());
  }
  for (CounterFamily* family : families) family->snapshot(out);
  return out;
}

std::map<std::string, std::uint64_t> histogram_counts() {
  auto& reg = Registry::get();
  std::lock_guard lock(reg.mu);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, h] : reg.histograms) out[name] = h->count();
  return out;
}

void reset() {
  auto& reg = Registry::get();
  std::lock_guard lock(reg.mu);
  for (auto& r : reg.rings) r->reset();
  for (auto& [name, c] : reg.counters) c->reset();
  for (auto& [name, h] : reg.histograms) h->reset();
  for (auto& [prefix, family] : reg.families) family->zero();
}

bool write_chrome_trace(const std::string& path) {
  auto& reg = Registry::get();
  std::vector<std::pair<int, std::vector<Event>>> per_ring;
  {
    std::lock_guard lock(reg.mu);
    for (std::size_t i = 0; i < reg.rings.size(); ++i) {
      auto events = reg.rings[i]->snapshot();
      if (!events.empty())
        per_ring.emplace_back(reg.ring_ranks[i], std::move(events));
    }
  }
  const std::map<std::string, std::uint64_t> counter_values = counters();

  std::int64_t base = INT64_MAX;
  for (const auto& [rank, events] : per_ring)
    for (const Event& e : events) base = std::min(base, e.ts_ns);
  if (base == INT64_MAX) base = 0;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& [rank, events] : per_ring) {
    for (const Event& e : events) {
      const char* ph = e.kind == EventKind::Begin  ? "B"
                       : e.kind == EventKind::End ? "E"
                                                  : "i";
      if (!first) std::fputs(",\n", f);
      first = false;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                   "\"pid\":0,\"tid\":%d,\"ts\":%.3f",
                   json_escape(e.name).c_str(), json_escape(e.cat).c_str(),
                   ph, rank, static_cast<double>(e.ts_ns - base) / 1000.0);
      if (e.kind == EventKind::Instant)
        std::fprintf(f, ",\"s\":\"t\",\"args\":{\"arg\":%llu}",
                     static_cast<unsigned long long>(e.arg));
      else if (e.kind == EventKind::Begin)
        std::fprintf(f, ",\"args\":{\"arg\":%llu}",
                     static_cast<unsigned long long>(e.arg));
      std::fputs("}", f);
    }
  }
  // Counter values as one metadata instant so a trace is self-describing.
  for (const auto& [name, v] : counter_values) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fprintf(f,
                 "{\"name\":\"counter.%s\",\"cat\":\"metrics\",\"ph\":\"i\","
                 "\"pid\":0,\"tid\":-1,\"ts\":0.0,\"s\":\"g\","
                 "\"args\":{\"value\":%llu}}",
                 json_escape(name.c_str()).c_str(),
                 static_cast<unsigned long long>(v));
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
  return true;
}

std::string tail_report(std::size_t max_per_rank) {
  auto& reg = Registry::get();
  std::vector<std::pair<int, std::vector<Event>>> per_ring;
  {
    std::lock_guard lock(reg.mu);
    for (std::size_t i = 0; i < reg.rings.size(); ++i) {
      auto events = reg.rings[i]->snapshot();
      if (!events.empty())
        per_ring.emplace_back(reg.ring_ranks[i], std::move(events));
    }
  }
  if (per_ring.empty()) return {};
  std::sort(per_ring.begin(), per_ring.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream os;
  for (const auto& [rank, events] : per_ring) {
    os << "  rank " << rank << " (last "
       << std::min(max_per_rank, events.size()) << " events):\n";
    const std::size_t from =
        events.size() > max_per_rank ? events.size() - max_per_rank : 0;
    for (std::size_t i = from; i < events.size(); ++i) {
      const Event& e = events[i];
      const char* k = e.kind == EventKind::Begin  ? "begin"
                      : e.kind == EventKind::End ? "end  "
                                                 : "inst ";
      os << "    " << k << " " << e.cat << "/" << e.name << " arg=" << e.arg
         << " ts=" << e.ts_ns << "\n";
    }
  }
  return os.str();
}

}  // namespace mxn::trace
