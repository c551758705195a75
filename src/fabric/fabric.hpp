#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mxn_component.hpp"
#include "prmi/distributed_framework.hpp"
#include "trace/trace.hpp"

namespace mxn::fabric {

/// Dense per-fabric tenant handle (index into the registry).
using TenantId = int;

/// What one registered tenant has done so far, as seen by this rank.
struct TenantStats {
  std::uint64_t ticks = 0;     // tick() calls that reached the tenant
  std::uint64_t advanced = 0;  // ...of which did real work (transfer/flush)
  std::uint64_t calls = 0;     // PRMI sub-calls shipped (flush results)
};

/// Multi-tenant connection fabric.
///
/// A serving process rarely hosts ONE M×N coupling: it multiplexes many
/// concurrent connections and PRMI client proxies — tenants — over one
/// Universe. The Fabric is the per-rank registry that gives each tenant a
/// stable id and name, drives its steady-state work (`tick`), and threads
/// the id through `src/trace` as per-tenant counters so a saturated or
/// misbehaving tenant is attributable from the metrics registry alone:
///
///   fabric.tenants                  live registrations (process-wide)
///   fabric.ticks                    tick() calls across all tenants
///   fabric.tenant.<name>.ticks      per-tenant tick volume
///   fabric.tenant.<name>.advanced   ...that performed a transfer / flush
///
/// The per-tenant pair is a labeled counter family (trace::CounterFamily)
/// registered once per process; each Fabric takes one block of it at
/// construction. Registering a tenant appends its name and two slots to
/// that block under the block's own lock — no name is built and no
/// process-wide lock is taken — and tick() adds to this rank's own slot.
/// Snapshots sum the names over every Fabric that registered them; when a
/// Fabric is destroyed its block is folded, once, into the family's
/// per-name retired totals, so the values outlive it.
///
/// The Fabric owns no communicators and creates no connections; it holds
/// shared_ptr handles to components/proxies registered by the application
/// and multiplexes work across them. All methods are per-rank local (no
/// collectives) and NOT thread-safe: one Fabric per driving thread, the
/// same way a Communicator is used.
class Fabric {
 public:
  /// `name` prefixes nothing (tenant counters are keyed by tenant name);
  /// it only labels trace spans emitted by drain_tick().
  explicit Fabric(std::string name = "fabric");
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Register an established M×N connection as a tenant. tick() on it runs
  /// one data-ready transfer (MxNComponent::data_ready_connection) — a
  /// no-op returning false on spectator ranks or retired connections.
  TenantId add_connection(std::string name,
                          std::shared_ptr<core::MxNComponent> comp,
                          core::ConnectionId conn);

  /// Register a connected PRMI client proxy as a tenant. tick() on it
  /// flushes the proxy's queued batch (RemotePort::flush_batch) — a no-op
  /// returning false when nothing is queued. The application queues calls
  /// on the proxy between ticks; the fabric is the drain clock that turns
  /// k queued calls into one wire message per (peer, tick).
  TenantId add_prmi_client(std::string name,
                           std::shared_ptr<prmi::RemotePort> port);

  [[nodiscard]] std::size_t tenants() const { return rows_.size(); }
  [[nodiscard]] const std::string& tenant_name(TenantId id) const;
  [[nodiscard]] const TenantStats& stats(TenantId id) const;

  /// Drive one unit of work for one tenant. Returns true if the tenant
  /// made progress (a transfer ran / a non-empty batch flushed).
  bool tick(TenantId id);

  /// Tick every registered tenant once, in registration order; returns how
  /// many made progress. One drain tick == one coalescing window: every
  /// PRMI tenant's queue built up since the last drain goes out as one
  /// message per peer.
  std::size_t drain_tick();

  /// Results of the last flush performed by tick() on a PRMI tenant — the
  /// fabric drives the flush, the application still needs the returns.
  [[nodiscard]] const std::vector<prmi::RemotePort::Result>& last_results(
      TenantId id) const;

 private:
  struct Row {
    std::shared_ptr<core::MxNComponent> comp;  // connection tenants
    core::ConnectionId conn = -1;
    std::shared_ptr<prmi::RemotePort> port;  // PRMI tenants
    TenantStats stats;
    std::vector<prmi::RemotePort::Result> last;
    trace::Counter* ticks = nullptr;     // fabric.tenant.<name>.ticks
    trace::Counter* advanced = nullptr;  // fabric.tenant.<name>.advanced
  };

  TenantId register_row(std::string name, Row row);

  std::string name_;
  trace::CounterFamily::Block counters_;  // tenant names and their slots
  std::vector<Row> rows_;
};

}  // namespace mxn::fabric
