#ifndef EQSQL_NET_COST_MODEL_H_
#define EQSQL_NET_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

namespace eqsql::net {

/// What one statement, upload, client step or whole strategy costs on
/// the simulated link, as counts. It is the one input CostModel::Price
/// turns into milliseconds: net::Connection fills it with the counts a
/// run actually paid, core::CostEstimator and core::AlternativeSelector
/// with estimated ones, so a prediction and the charge it predicts
/// differ only in the counts. Estimated byte and row counts may be
/// fractional; Price charges whole bytes and whole rows.
struct Charge {
  int64_t round_trips = 0;   // link round trips, one latency each
  int64_t statements = 0;    // statements the server parses and dispatches
  int64_t param_tables = 0;  // batching parameter tables created [11]
  double bytes = 0;          // request + result bytes on the wire
  double server_rows = 0;    // rows processed by server operators
  double client_ops = 0;     // statements the application interprets
};

/// Deterministic cost model for the simulated client/server link.
///
/// The paper's evaluation (Sec. 7, Figures 8-11) measures wall-clock
/// time against a local MySQL server; what drives the reported shapes is
/// (a) the number of network round trips and (b) the volume of data
/// shipped. We reproduce those two drivers with a simulated clock so
/// benchmark *series* are exactly reproducible run to run. Price() is
/// the one formula; every charge and every estimate goes through it:
///
///   ms = statements   * query_overhead_ms        (parse/plan/dispatch)
///      + bytes / bytes_per_ms                    (request + result)
///      + server_rows  * server_cost_per_row_ms   (operator rows)
///      + round_trips  * round_trip_latency_ms    (one RTT each)
///      + param_tables * param_table_overhead_ms  (batching upload)
///      + client_ops   * client_cost_per_op_ms    (application loop)
///
/// summed left to right in that order, so equal charges price to the
/// same bits wherever they are priced. Prefetching [19] overlaps the
/// RTT with client computation, so in prefetch mode only the first
/// query of a run pays a round trip.
struct CostModel {
  /// One client<->server round trip (default models a LAN: 0.35 ms).
  double round_trip_latency_ms = 0.35;
  /// Link bandwidth in bytes per millisecond (default ~ 50 MB/s).
  double bytes_per_ms = 50000.0;
  /// Server-side work per row processed by any operator.
  double server_cost_per_row_ms = 0.0004;
  /// Fixed per-statement server overhead (parse/plan/dispatch).
  double query_overhead_ms = 0.05;
  /// Creating + loading a temporary parameter table (batching baseline).
  double param_table_overhead_ms = 2.0;
  /// Client-side interpreted work per executed statement. Models the
  /// application's own loop cost (the paper's Java code); the database
  /// processes rows faster than the app iterates them.
  double client_cost_per_op_ms = 0.00005;

  /// Simulated milliseconds of `c`.
  double Price(const Charge& c) const {
    double ms = static_cast<double>(c.statements) * query_overhead_ms;
    ms += static_cast<double>(static_cast<size_t>(c.bytes)) / bytes_per_ms;
    ms += server_cost_per_row_ms *
          static_cast<double>(static_cast<size_t>(c.server_rows));
    ms += static_cast<double>(c.round_trips) * round_trip_latency_ms;
    ms += static_cast<double>(c.param_tables) * param_table_overhead_ms;
    ms += client_cost_per_op_ms * c.client_ops;
    return ms;
  }
};

/// Per-connection counters, reset with Connection::ResetStats().
struct ConnectionStats {
  int64_t queries_executed = 0;
  int64_t round_trips = 0;
  int64_t rows_transferred = 0;
  int64_t bytes_transferred = 0;  // request + result bytes
  /// Simulated elapsed time on the deterministic clock.
  double simulated_ms = 0.0;

  ConnectionStats& operator+=(const ConnectionStats& o) {
    queries_executed += o.queries_executed;
    round_trips += o.round_trips;
    rows_transferred += o.rows_transferred;
    bytes_transferred += o.bytes_transferred;
    simulated_ms += o.simulated_ms;
    return *this;
  }
};

}  // namespace eqsql::net

#endif  // EQSQL_NET_COST_MODEL_H_
