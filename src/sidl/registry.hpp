#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "rt/communicator.hpp"
#include "rt/serialize.hpp"
#include "sidl/types.hpp"

namespace mxn::sidl {

/// The CCA component/port registry under both distributed frameworks
/// (paper §2.1, Figure 2 right): components run in disjoint sets of
/// processes, provides ports carry a `Servant`, uses ports a SIDL
/// interface, and a connection binds the two. A framework derives from it,
/// names its proxy type, the per-connection state it keeps (`ConnState`),
/// and the base of its listen-tag range (component i listens on
/// listen_base + i).
///
/// Operations marked "collective over the world" must be executed by every
/// process of the world communicator in the same order (they establish
/// globally consistent metadata: component membership, connection ids, tag
/// assignments). Provider-/user-side operations run only on the respective
/// cohort's processes.
template <class Servant, class Proxy, class ConnState = std::monostate>
class Registry {
 public:
  /// Collective over the world: declare a parallel component living on
  /// `world_ranks` (cohort rank i == world_ranks[i]).
  void instantiate(const std::string& name, std::vector<int> world_ranks) {
    if (comps_.count(name))
      throw rt::UsageError("component '" + name + "' already instantiated");
    if (world_ranks.empty())
      throw rt::UsageError("component needs at least one process");
    for (int r : world_ranks)
      if (r < 0 || r >= world_.size())
        throw rt::UsageError("component rank out of world range");
    const auto pos =
        std::find(world_ranks.begin(), world_ranks.end(), world_.rank());
    const bool member = pos != world_ranks.end();
    // Key the split so cohort rank order follows the world_ranks list order.
    auto cohort = world_.split(
        member ? 0 : rt::kUndefinedColor,
        member ? static_cast<int>(pos - world_ranks.begin()) : 0);
    Component& c = comps_[name];
    c.index = next_comp_index_++;
    c.ranks = std::move(world_ranks);
    c.cohort = std::move(cohort);
  }

  [[nodiscard]] bool member_of(const std::string& name) const {
    const auto& c = comp(name);
    return std::find(c.ranks.begin(), c.ranks.end(), world_.rank()) !=
           c.ranks.end();
  }

  /// Cohort communicator of a component (null handle on non-members).
  [[nodiscard]] rt::Communicator cohort(const std::string& name) const {
    return comp(name).cohort;
  }

  /// Provider side (cohort members only): attach a servant to a provides
  /// port. Must precede connect().
  void add_provides(const std::string& comp_name, const std::string& port,
                    std::shared_ptr<Servant> servant) {
    if (!servant) throw rt::UsageError("servant must not be null");
    if (!member(comp_name, "add_provides").provides
             .emplace(port, std::move(servant))
             .second)
      throw rt::UsageError("component '" + comp_name +
                           "' already provides port '" + port + "'");
  }

  /// User side (cohort members only): declare a uses port typed by a SIDL
  /// interface (both sides are compiled from the same SIDL, so the user
  /// carries its own copy of the descriptor). Must precede connect().
  void register_uses(const std::string& comp_name, const std::string& port,
                     Interface iface) {
    if (!member(comp_name, "register_uses").uses
             .emplace(port, std::move(iface))
             .second)
      throw rt::UsageError("component '" + comp_name +
                           "' already uses port '" + port + "'");
  }

  /// Collective over the world: connect a uses port to a provides port.
  /// Validates that both ends implement the same qualified interface.
  void connect(const std::string& user_comp, const std::string& uses_port,
               const std::string& prov_comp, const std::string& prov_port) {
    const auto& uc = comp(user_comp);
    const auto& pc = comp(prov_comp);
    const auto provided = pc.provides.find(prov_port);
    const std::string unprovided = "component '" + prov_comp +
                                   "' does not provide port '" + prov_port +
                                   "'";
    // The provider's first rank broadcasts the qualified interface name so
    // the user side can verify the connection is type-correct.
    rt::PackBuffer b;
    if (world_.rank() == pc.ranks[0]) {
      if (provided == pc.provides.end()) throw rt::UsageError(unprovided);
      b.pack(provided->second->interface_desc().qualified);
    }
    const auto bytes = world_.bcast(std::move(b).take(), pc.ranks[0]);
    rt::UnpackBuffer u(bytes);
    const std::string qname = u.unpack_string();
    if (member_of(prov_comp) && provided == pc.provides.end())
      throw rt::UsageError(unprovided);

    const bool user = member_of(user_comp);
    if (user) {
      auto it = uc.uses.find(uses_port);
      if (it == uc.uses.end())
        throw rt::UsageError("component '" + user_comp +
                             "' has no uses port '" + uses_port + "'");
      if (it->second.qualified != qname)
        throw rt::UsageError("interface mismatch: uses port expects '" +
                             it->second.qualified +
                             "', provider implements '" + qname + "'");
    }

    const int id = next_conn_id_++;
    Connection& c = conns_[id];
    c.id = id;
    c.user_comp = user_comp;
    c.uses_port = uses_port;
    c.prov_comp = prov_comp;
    c.prov_port = prov_port;
    c.caller_ranks = uc.ranks;
    c.callee_ranks = pc.ranks;
    c.listen = listen_tag(pc);
    if (user) uses_conn_[user_comp + "." + uses_port] = id;
  }

  [[nodiscard]] rt::Communicator world() const { return world_; }

 protected:
  struct Component {
    int index = 0;
    std::vector<int> ranks;   // world ranks; cohort rank == index
    rt::Communicator cohort;  // null on non-members
    std::map<std::string, std::shared_ptr<Servant>> provides;
    std::map<std::string, Interface> uses;
  };

  struct Connection {
    int id = 0;
    std::string user_comp, uses_port, prov_comp, prov_port;
    std::vector<int> caller_ranks, callee_ranks;  // world ranks
    int listen = 0;  // provider component's listen tag
    ConnState state;
  };

  /// A provider's view of one wire message: its connection and servant.
  struct Route {
    Connection& conn;
    Servant& servant;
  };

  Registry(rt::Communicator world, int listen_base)
      : world_(std::move(world)), listen_base_(listen_base) {}

  const Component& comp(const std::string& name) const {
    auto it = comps_.find(name);
    if (it == comps_.end())
      throw rt::UsageError("no component named '" + name + "'");
    return it->second;
  }
  Component& comp(const std::string& name) {
    return const_cast<Component&>(std::as_const(*this).comp(name));
  }

  /// A component this process is a member of; `op` names the operation in
  /// the error otherwise.
  Component& member(const std::string& name, const char* op) {
    auto& c = comp(name);
    if (!member_of(name))
      throw rt::UsageError(std::string(op) +
                           ": this process is not a member of '" + name +
                           "'");
    return c;
  }

  [[nodiscard]] int listen_tag(const Component& c) const {
    return listen_base_ + c.index;
  }

  /// Resolve the connection id read off a message on `provider`'s listen
  /// tag. Every wire-supplied id goes through here: an unknown id, or one
  /// whose provider is another component, is a rt::UsageError.
  Route route(Component& provider, int conn_id) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end() || it->second.listen != listen_tag(provider))
      throw rt::UsageError("message for unknown connection " +
                           std::to_string(conn_id));
    return {it->second, *provider.provides.at(it->second.prov_port)};
  }

  /// A list of world ranks read off the wire: non-empty and in range.
  [[nodiscard]] std::vector<int> unpack_ranks(rt::UnpackBuffer& u) const {
    auto ranks = u.unpack_vector<int>();
    if (ranks.empty()) throw rt::UsageError("empty participant list");
    for (int r : ranks)
      if (r < 0 || r >= world_.size())
        throw rt::UsageError("participant rank out of world range");
    return ranks;
  }

  /// User side: the proxy for a connected uses port, built once by
  /// `make(conn_id, iface, cohort)` (one per uses port: the invocation
  /// sequence counter must be unique per connection).
  template <class Make>
  std::shared_ptr<Proxy> port(const std::string& comp_name,
                              const std::string& uses_port, Make&& make) {
    const auto key = comp_name + "." + uses_port;
    auto it = uses_conn_.find(key);
    if (it == uses_conn_.end())
      throw rt::UsageError("uses port '" + key + "' is not connected");
    auto& proxy = proxies_[key];
    if (!proxy) {
      const auto& c = comp(comp_name);
      proxy = make(it->second, c.uses.at(uses_port), c.cohort);
    }
    return proxy;
  }

  rt::Communicator world_;
  std::map<std::string, Component> comps_;
  std::map<int, Connection> conns_;

 private:
  int listen_base_;
  std::map<std::string, int> uses_conn_;  // user "comp.port" -> conn id
  std::map<std::string, std::shared_ptr<Proxy>> proxies_;
  int next_comp_index_ = 0;
  int next_conn_id_ = 0;
};

}  // namespace mxn::sidl
