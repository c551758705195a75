// Workload process of the repository benchmark (see perfbench/README.md).
// One invocation runs ONE workload in a fresh process and prints one JSON
// line of raw results; perfbench/run.py builds this program, starts it and
// turns its output into the benchmark's metrics.
//
//   perfbench <workload> --seed N --seconds S [--ops N] [--setup-only]
//             [--recover-cycles N] [--traced --trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"
#include "trace/trace.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench bulk_stream|tenant_fanout|prmi_rpc|"
               "elastic_chaos --seed N --seconds S [--ops N] "
               "[--setup-only] [--recover-cycles N] "
               "[--traced --trace-out FILE]\n");
  return 2;
}

bool env_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  perfbench::Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--ops" && has_value) {
      o.ops = std::atol(argv[++i]);
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--recover-cycles" && has_value) {
      o.recover_cycles = std::atoi(argv[++i]);
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--traced") {
      o.traced = true;
    } else {
      return usage();
    }
  }
  if (o.traced && o.trace_out.empty()) return usage();

  // rt::spawn falls back to MXN_FAULTS whenever a spawn sets no fault plan,
  // MXN_SIMD forces a kernel tier and MXN_TRACE turns on event recording:
  // any of them would silently change what the lossless workloads measure.
  for (const char* v : {"MXN_FAULTS", "MXN_SIMD", "MXN_TRACE"}) {
    if (env_set(v)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", v);
      return 2;
    }
  }

  perfbench::Result r;
  perfbench::record_env(o, r);
  try {
    if (o.workload == "bulk_stream") {
      perfbench::run_bulk_stream(o, r);
    } else if (o.workload == "tenant_fanout") {
      perfbench::run_tenant_fanout(o, r);
    } else if (o.workload == "prmi_rpc") {
      perfbench::run_prmi_rpc(o, r);
    } else if (o.workload == "elastic_chaos") {
      perfbench::run_elastic_chaos(o, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    r.fail(std::string("workload aborted: ") + e.what());
  }
  if (o.traced && !mxn::trace::write_chrome_trace(o.trace_out))
    r.fail("cannot write " + o.trace_out);
  r.e2e["peak_rss_mb"] = perfbench::peak_rss_mb();
  std::printf("%s\n", r.to_json().c_str());
  return 0;
}
