#include "fabric/fabric.hpp"

#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace mxn::fabric {

namespace {

// Process-wide gauge of live tenant registrations. Counters are monotonic,
// so the gauge is a pair: registrations minus releases.
trace::Counter& registered_counter() {
  static trace::Counter& c = trace::counter("fabric.tenants");
  return c;
}
trace::Counter& released_counter() {
  static trace::Counter& c = trace::counter("fabric.tenants_released");
  return c;
}

// fabric.tenant.<name>.ticks / .advanced, in field order.
enum TenantField : std::size_t { kTicks, kAdvanced };
trace::CounterFamily& tenant_family() {
  static trace::CounterFamily& f =
      trace::counter_family("fabric.tenant.", {".ticks", ".advanced"});
  return f;
}

}  // namespace

Fabric::Fabric(std::string name)
    : name_(std::move(name)), counters_(tenant_family()) {}

Fabric::~Fabric() { released_counter().add(rows_.size()); }

TenantId Fabric::register_row(std::string name, Row row) {
  const std::size_t id = counters_.add(std::move(name));
  row.ticks = &counters_.at(id, kTicks);
  row.advanced = &counters_.at(id, kAdvanced);
  rows_.push_back(std::move(row));
  registered_counter().add(1);
  return static_cast<TenantId>(id);
}

TenantId Fabric::add_connection(std::string name,
                                std::shared_ptr<core::MxNComponent> comp,
                                core::ConnectionId conn) {
  if (!comp) throw std::invalid_argument("fabric: null component");
  Row row;
  row.comp = std::move(comp);
  row.conn = conn;
  return register_row(std::move(name), std::move(row));
}

TenantId Fabric::add_prmi_client(std::string name,
                                 std::shared_ptr<prmi::RemotePort> port) {
  if (!port) throw std::invalid_argument("fabric: null proxy");
  Row row;
  row.port = std::move(port);
  return register_row(std::move(name), std::move(row));
}

const std::string& Fabric::tenant_name(TenantId id) const {
  const auto i = static_cast<std::size_t>(id);
  if (i >= rows_.size()) throw std::out_of_range("fabric: unknown tenant");
  return counters_.label(i);
}

const TenantStats& Fabric::stats(TenantId id) const {
  return rows_.at(static_cast<std::size_t>(id)).stats;
}

const std::vector<prmi::RemotePort::Result>& Fabric::last_results(
    TenantId id) const {
  return rows_.at(static_cast<std::size_t>(id)).last;
}

bool Fabric::tick(TenantId id) {
  Row& row = rows_.at(static_cast<std::size_t>(id));
  static trace::Counter& all_ticks = trace::counter("fabric.ticks");
  all_ticks.add(1);
  row.ticks->add(1);
  ++row.stats.ticks;

  bool progressed = false;
  if (row.comp) {
    progressed = row.comp->data_ready_connection(row.conn);
  } else if (row.port->queued() > 0) {
    row.last = row.port->flush_batch();
    row.stats.calls += row.last.size();
    progressed = true;
  }
  if (progressed) {
    row.advanced->add(1);
    ++row.stats.advanced;
  }
  return progressed;
}

std::size_t Fabric::drain_tick() {
  trace::Span span("fabric.drain_tick", "fabric", rows_.size());
  std::size_t progressed = 0;
  for (TenantId id = 0; id < static_cast<TenantId>(rows_.size()); ++id)
    if (tick(id)) ++progressed;
  return progressed;
}

}  // namespace mxn::fabric
