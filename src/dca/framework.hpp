#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "rt/communicator.hpp"
#include "sidl/registry.hpp"

namespace mxn::dca {

/// Caller-side description of one parallel argument, in the MPI alltoallv
/// idiom the DCA exposes (paper §4.3): the participant supplies a flat
/// buffer plus per-callee counts and displacements — "giving users the
/// tools to describe their own data redistribution layout". counts/displs
/// have one entry per callee rank.
struct ParallelOut {
  std::vector<double> data;
  std::vector<std::int64_t> counts;
  std::vector<std::int64_t> displs;
};

/// Callee-side view of a parallel argument: the chunk each participant sent
/// to this callee rank, in participant order. Assembling these into the
/// local data structure is the application's job — the flexibility (and the
/// burden) the paper attributes to the DCA model.
struct ParallelIn {
  std::vector<std::vector<double>> chunks;
};

/// Dynamic argument value for DCA port methods.
using DcaValue = std::variant<std::monostate, bool, std::int32_t,
                              std::int64_t, double, std::string,
                              std::vector<double>, ParallelOut, ParallelIn>;

/// Handler context: the callee cohort, the participating caller count for
/// this call, and the call's sequence info.
struct DcaContext {
  rt::Communicator cohort;
  int participants = 0;
};

class DcaServant {
 public:
  using Handler =
      std::function<DcaValue(DcaContext&, std::vector<DcaValue>& args)>;

  explicit DcaServant(sidl::Interface iface) : iface_(std::move(iface)) {}

  [[nodiscard]] const sidl::Interface& interface_desc() const {
    return iface_;
  }

  void bind(const std::string& method, Handler h) {
    (void)iface_.method(method);
    handlers_[method] = std::move(h);
  }

  [[nodiscard]] const Handler& handler(const std::string& method) const;

 private:
  sidl::Interface iface_;
  std::map<std::string, Handler> handlers_;
};

/// Delivery policy for collective calls with subset participation. The
/// barrier (on by default) delays delivery until every participant has
/// reached the calling point — the fix for the synchronization problem of
/// the paper's Figure 5. Turning it off reproduces the deadlock (the
/// bench and the failure-injection test do exactly that).
struct DcaPolicy {
  bool barrier_before_delivery = true;
};

class DcaPort;

/// The Distributed CCA Architecture framework (paper §4.3): an MPI-based
/// distributed framework where process participation is chosen per call by
/// passing a communicator group, parallel data layouts are user-specified
/// counts/displacements, and components start concurrently through Go
/// ports. Components, ports and connections live in the shared registry
/// (sidl/registry.hpp), on DCA's own listen-tag range.
class DcaFramework : public sidl::Registry<DcaServant, DcaPort> {
 public:
  DcaFramework(rt::Communicator world, DcaPolicy policy = {});

  /// Register a Go port body for a component; start_all() runs them.
  void add_go(const std::string& comp, std::function<int()> body);

  [[nodiscard]] std::shared_ptr<DcaPort> get_port(
      const std::string& comp, const std::string& uses_port);

  /// CCA startup semantics: all Go ports are called at startup, so all
  /// components providing one start concurrently (each on its own ranks).
  /// Returns the first nonzero status on this process.
  int start_all();

  /// Provider side: service invocations. A collective call counts once.
  int serve(const std::string& comp, int max_calls = -1);

 private:
  friend class DcaPort;

  /// A header set aside because the serve loop was committed to another
  /// call when it arrived.
  struct PendingHeader {
    int src = 0;
    rt::Buffer payload;
  };

  /// Service exactly one logical invocation (gathering all fragments of the
  /// committed call before touching any other); returns false on shutdown.
  bool serve_one(Component& provider);

  void run_call(Connection& conn, DcaServant& servant,
                std::vector<rt::Message> fragments);

  DcaPolicy policy_;
  std::map<std::string, std::vector<std::function<int()>>> go_;
  std::deque<PendingHeader> pending_;
};

/// Caller-side proxy. Every port method takes the participation
/// communicator as its (automatically added) extra argument — the stub
/// generator of the real DCA appends it to every SIDL method; here you pass
/// it explicitly.
class DcaPort {
 public:
  struct Result {
    DcaValue ret;
    std::vector<DcaValue> args;
  };

  /// Collective call by the processes of `participants` (a communicator
  /// derived from the caller cohort; every member must call). Parallel
  /// arguments are ParallelOut on input; the callee handler sees ParallelIn.
  Result call(rt::Communicator participants, const std::string& method,
              std::vector<DcaValue> args);

  /// One-way variant (the DCA's second concurrency mechanism, §4.3).
  void call_oneway(rt::Communicator participants, const std::string& method,
                   std::vector<DcaValue> args);

  void shutdown_provider(rt::Communicator participants);

 private:
  friend class DcaFramework;
  DcaPort(DcaFramework* fw, int conn, sidl::Interface iface)
      : fw_(fw), conn_(conn), iface_(std::move(iface)) {}

  Result invoke(rt::Communicator& participants, const std::string& method,
                std::vector<DcaValue> args, bool oneway);

  DcaFramework* fw_;
  int conn_;
  sidl::Interface iface_;
  std::shared_ptr<std::int64_t> seq_ = std::make_shared<std::int64_t>(0);
};

}  // namespace mxn::dca
