#ifndef EQSQL_BENCH_PERF_UTIL_H_
#define EQSQL_BENCH_PERF_UTIL_H_

#include <string>

#include "bench/bench_util.h"
#include "exec/exec_mode.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "obs/metrics.h"

namespace eqsql::bench {

/// One measured run over the simulated connection.
struct PerfResult {
  double ms = 0;             // simulated elapsed time (deterministic)
  int64_t bytes = 0;         // bytes on the wire (requests + results)
  int64_t rows = 0;          // result rows shipped to the client
  int64_t round_trips = 0;   // network round trips paid
  int64_t queries = 0;       // queries executed
  std::string result;        // DisplayString of the return value
  std::vector<std::string> printed;
};

/// Runs `function` through the interpreter on a fresh connection.
/// `mode` picks the engine (kRow = the serial reference); simulated
/// time and every byte/row counter are mode-invariant by the engines'
/// cost-parity contract, so only wall time observably changes with it.
inline PerfResult RunInterpreted(const frontend::Program& program,
                                 const std::string& function,
                                 storage::Database* db,
                                 bool prefetch = false,
                                 obs::MetricsRegistry* metrics = nullptr,
                                 exec::ExecMode mode = exec::ExecMode::kVector) {
  net::Connection conn(db);
  conn.set_prefetch_mode(prefetch);
  conn.set_exec_mode(mode);
  if (metrics != nullptr) conn.set_metrics(metrics);
  interp::Interpreter interp(&program, &conn);
  auto ret = interp.Run(function);
  if (!ret.ok()) {
    EQSQL_LOG(Error, "run %s: %s", function.c_str(),
              ret.status().ToString().c_str());
    std::abort();
  }
  PerfResult out;
  out.ms = conn.stats().simulated_ms;
  out.bytes = conn.stats().bytes_transferred;
  out.rows = conn.stats().rows_transferred;
  out.round_trips = conn.stats().round_trips;
  out.queries = conn.stats().queries_executed;
  out.result = ret->DisplayString();
  out.printed = interp.printed();
  return out;
}

}  // namespace eqsql::bench

#endif  // EQSQL_BENCH_PERF_UTIL_H_
