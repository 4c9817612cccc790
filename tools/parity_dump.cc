// Cross-commit executor parity dump. Prints, for a fixed set of fuzz
// cases and hand-written queries, everything the simulated clock and
// the observability layer derive from execution: the rows or error of
// every statement, the ConnectionStats it charged (simulated_ms at full
// precision), the storage.scan.* / exec.rows_processed registry delta
// and the operator profile tree (never wall times). Two builds that
// print the same dump charge the same clock.
//
// Built against one source tree's headers and libraries; see
// scripts/parity.sh, which builds it for two revisions and diffs the
// outputs. Takes no arguments; writes the dump to stdout.

#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/optimizer.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "interp/interpreter.h"
#include "net/api.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "storage/database.h"

namespace {

using eqsql::catalog::Value;

constexpr int kCasesPerFamily = 24;
const char* const kFamilies[] = {"join",  "argmax", "apply", "groupby",
                                 "batch", "mixed",  "txn",   "index"};
const size_t kShardCounts[] = {1, 4, 8};

void PrintProfile(const eqsql::obs::ProfileNode& n, int depth,
                  std::ostream& out) {
  out << "    prof " << std::string(static_cast<size_t>(depth) * 2, ' ')
      << n.label << " execs=" << n.execs << " rows_out=" << n.rows_out
      << " rows_in=" << n.rows_in.load() << " batches=" << n.batches.load();
  if (!n.shards.empty()) {
    out << " shard_rows=";
    for (size_t s = 0; s < n.shards.size(); ++s) {
      out << (s == 0 ? "" : ",") << n.shards[s].rows;
    }
  }
  out << "\n";
  for (const auto& child : n.children) PrintProfile(*child, depth + 1, out);
}

/// Registry counters the executor and connection charge per statement.
std::map<std::string, int64_t> ChargeCounters(
    const eqsql::obs::MetricsRegistry& metrics) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, v] : metrics.Snapshot().counters) {
    if (name.rfind("storage.scan.", 0) == 0 || name == "exec.rows_processed") {
      out[name] = v;
    }
  }
  return out;
}

/// A net::Client that forwards to one Connection and prints every
/// charge it causes.
class DumpClient : public eqsql::net::Client {
 public:
  DumpClient(eqsql::net::Connection* conn,
             eqsql::obs::MetricsRegistry* metrics, std::ostream* out)
      : conn_(conn), metrics_(metrics), out_(out) {}

  eqsql::net::Outcome Perform(eqsql::net::Request req) override {
    std::ostream& out = *out_;
    out << "  perform " << req.sql << "\n";
    conn_->ResetStats();
    const std::map<std::string, int64_t> counters0 = ChargeCounters(*metrics_);
    eqsql::obs::Profile profile;
    conn_->set_profile(&profile);
    eqsql::net::Outcome o = conn_->Perform(std::move(req));
    conn_->set_profile(nullptr);
    if (!o.ok()) {
      out << "    error " << o.status.ToString() << "\n";
    } else if (o.kind == eqsql::net::Outcome::Kind::kResultSet) {
      out << "    rows " << o.rows.rows.size() << "\n";
      for (const eqsql::catalog::Row& row : o.rows.rows) {
        out << "    row " << eqsql::catalog::RowToString(row) << "\n";
      }
    } else {
      out << "    count " << o.row_count << "\n";
    }
    PrintStats();
    for (const auto& [name, v] : ChargeCounters(*metrics_)) {
      auto it = counters0.find(name);
      const int64_t delta = v - (it == counters0.end() ? 0 : it->second);
      if (delta != 0) out << "    " << name << " +" << delta << "\n";
    }
    if (profile.root() != nullptr) PrintProfile(*profile.root(), 0, out);
    return o;
  }

  void ChargeClientOps(int64_t ops) override {
    conn_->ResetStats();
    conn_->ChargeClientOps(ops);
    *out_ << "  client_ops " << ops << "\n";
    PrintStats();
  }

  eqsql::Status CreateTempTable(
      const std::string& name, eqsql::catalog::Schema schema,
      std::vector<eqsql::catalog::Row> rows) override {
    conn_->ResetStats();
    *out_ << "  temp_table rows=" << rows.size() << "\n";
    eqsql::Status s =
        conn_->CreateTempTable(name, std::move(schema), std::move(rows));
    if (!s.ok()) *out_ << "    error " << s.ToString() << "\n";
    PrintStats();
    return s;
  }

  void DropTempTable(const std::string& name) override {
    conn_->DropTempTable(name);
  }

 private:
  /// The charge of the last call alone: the stats were reset before it.
  void PrintStats() const {
    const eqsql::net::ConnectionStats& s = conn_->stats();
    *out_ << std::setprecision(17) << "    stats queries=" << s.queries_executed
          << " round_trips=" << s.round_trips << " rows=" << s.rows_transferred
          << " bytes=" << s.bytes_transferred
          << " simulated_ms=" << s.simulated_ms << "\n";
  }

  eqsql::net::Connection* conn_;
  eqsql::obs::MetricsRegistry* metrics_;
  std::ostream* out_;
};

/// One connection over its own database, configured like the fuzz
/// oracle: a 2-thread pool with the parallel operators forced on when
/// the tables are sharded.
struct Rig {
  explicit Rig(size_t shards, eqsql::exec::ExecMode mode)
      : db(Options(shards)), conn(&db) {
    if (shards > 1) {
      pool = std::make_unique<eqsql::exec::WorkerPool>(2);
      conn.set_worker_pool(pool.get());
      conn.set_parallel_threshold(0);
    }
    conn.set_exec_mode(mode);
    conn.set_metrics(&metrics);
  }
  static eqsql::storage::DatabaseOptions Options(size_t shards) {
    eqsql::storage::DatabaseOptions o;
    o.shard_count = shards;
    return o;
  }

  eqsql::storage::Database db;
  std::unique_ptr<eqsql::exec::WorkerPool> pool;
  eqsql::obs::MetricsRegistry metrics;
  eqsql::net::Connection conn;
};

void RunProgram(const eqsql::fuzz::FuzzCase& c,
                const eqsql::frontend::Program& program, size_t shards,
                eqsql::exec::ExecMode mode, bool batching, const char* arm,
                std::ostream& out) {
  out << " arm " << arm << " mode=" << eqsql::exec::ExecModeName(mode)
      << "\n";
  Rig rig(shards, mode);
  if (eqsql::Status s = eqsql::fuzz::BuildDatabase(c, &rig.db); !s.ok()) {
    out << "  setup error " << s.ToString() << "\n";
    return;
  }
  DumpClient client(&rig.conn, &rig.metrics, &out);
  eqsql::interp::Interpreter interp(&program, &client);
  interp.set_batching(batching);
  auto ret = interp.Run(c.function);
  if (ret.ok()) {
    out << "  return " << ret->DisplayString() << "\n";
  } else {
    out << "  run error " << ret.status().ToString() << "\n";
  }
  for (const std::string& line : interp.printed()) {
    out << "  printed " << line << "\n";
  }
}

void DumpCase(const eqsql::fuzz::FuzzCase& c, size_t shards,
              std::ostream& out) {
  if (!c.function.empty() && c.function[0] == '@') {
    // Multi-session schedules: the oracle owns the sessions, so only
    // its verdict and transfer counts are comparable here.
    eqsql::fuzz::OracleOptions opts;
    opts.shard_count = shards;
    eqsql::fuzz::OracleReport r = eqsql::fuzz::RunOracle(c, opts);
    out << " oracle " << eqsql::fuzz::VerdictName(r.verdict) << " "
        << r.detail << " rows=" << r.original_rows << "/" << r.rewritten_rows
        << " queries=" << r.original_queries << "/" << r.rewritten_queries
        << "\n";
    return;
  }
  auto program = eqsql::frontend::ParseProgram(c.source);
  if (!program.ok()) {
    out << " parse error " << program.status().ToString() << "\n";
    return;
  }
  eqsql::core::OptimizeOptions options;
  options.transform.table_keys = eqsql::fuzz::TableKeys(c);
  eqsql::core::EqSqlOptimizer optimizer(options);
  auto optimized = optimizer.Optimize(*program, c.function);
  if (!optimized.ok()) {
    out << " optimize error " << optimized.status().ToString() << "\n";
    return;
  }
  using eqsql::exec::ExecMode;
  RunProgram(c, *program, shards, ExecMode::kRow, false, "original", out);
  RunProgram(c, optimized->program, shards, ExecMode::kVector, false,
             "rewrite", out);
  RunProgram(c, optimized->program, shards, ExecMode::kRow, false, "rewrite",
             out);
  RunProgram(c, *program, shards, ExecMode::kVector, true, "batching", out);
}

/// Error, EXISTS, key-lookup, index and join paths over a ~1100-row
/// table, before and after a secondary index exists.
void DumpQueries(size_t shards, eqsql::exec::ExecMode mode,
                 std::ostream& out) {
  out << "queries shards=" << shards
      << " mode=" << eqsql::exec::ExecModeName(mode) << "\n";
  Rig rig(shards, mode);
  using eqsql::catalog::DataType;
  auto big = rig.db.CreateTable(
      "big", eqsql::catalog::Schema({{"id", DataType::kInt64},
                                     {"g", DataType::kInt64},
                                     {"v", DataType::kInt64},
                                     {"s", DataType::kString}}));
  auto dim = rig.db.CreateTable(
      "d", eqsql::catalog::Schema(
               {{"id", DataType::kInt64}, {"label", DataType::kString}}));
  if (!big.ok() || !dim.ok()) {
    out << " setup error\n";
    return;
  }
  for (int64_t i = 0; i < 1100; ++i) {
    (void)(*big)->Insert({Value::Int(i), Value::Int(i % 13),
                          Value::Int((i * 37) % 1000),
                          Value::String("s" + std::to_string(i % 50))});
  }
  (void)(*big)->DeclareUniqueKey("id");
  for (int64_t i = 0; i < 15; ++i) {
    (void)(*dim)->Insert(
        {Value::Int(i), Value::String("g" + std::to_string(i))});
  }
  const std::vector<std::string> queries = {
      "SELECT b.id AS id, b.v AS v FROM big AS b WHERE b.id = 17",
      "SELECT b.id AS id FROM big AS b WHERE b.id = 5000",
      "SELECT b.id AS id FROM big AS b WHERE b.id = 17 AND b.v > 2000",
      "SELECT b.id AS id FROM big AS b WHERE b.g = 3 AND b.v < 300",
      "SELECT b.g AS g, COUNT(*) AS c, SUM(b.v) AS s FROM big AS b "
      "WHERE b.v > 100 GROUP BY b.g",
      "SELECT b.s AS s, MAX(b.v) AS m FROM big AS b GROUP BY b.s",
      "SELECT b.id AS id, b.v AS v FROM big AS b WHERE b.v < 50 "
      "ORDER BY b.v DESC LIMIT 5",
      "SELECT b.id AS id FROM big AS b ORDER BY b.v LIMIT 3",
      "SELECT DISTINCT b.g AS g FROM big AS b WHERE b.v > 500",
      "SELECT d.label AS label, b.v AS v FROM d AS d JOIN big AS b "
      "ON b.g = d.id WHERE b.v < 100",
      "SELECT d.id AS id, d.label AS label, COUNT(b.id) AS c, SUM(b.v) AS s "
      "FROM d AS d LEFT OUTER JOIN big AS b ON b.g = d.id "
      "GROUP BY d.id, d.label",
      "SELECT * FROM d AS d OUTER APPLY (SELECT MAX(b.v) AS m FROM big AS b "
      "WHERE b.g = d.id)",
      "SELECT d.id AS id FROM d AS d WHERE EXISTS (SELECT b.id AS id FROM "
      "big AS b WHERE b.g = d.id AND b.v > 990)",
      "SELECT d.id AS id FROM d AS d WHERE NOT EXISTS (SELECT b.id AS id "
      "FROM big AS b WHERE b.g = d.id)",
      "SELECT b.id AS id FROM big AS b WHERE b.v / (b.g - 4) > 100",
      "SELECT b.id / (b.v - b.v) AS q FROM big AS b WHERE b.g = 5",
      "SELECT -b.s AS x FROM big AS b WHERE b.g = 1",
      "SELECT b.id AS id FROM big AS b WHERE b.v > 500 AND -b.s = 1",
      "SELECT b.g AS g, SUM(b.s) AS x FROM big AS b WHERE b.v > 10 "
      "GROUP BY b.g",
      "SELECT d.id AS id FROM d AS d WHERE EXISTS (SELECT b.id AS id FROM "
      "big AS b WHERE b.g = d.id AND -b.s = 1)",
      "SELECT b.id AS id FROM nosuch AS b",
      "SELEC b.id FROM big AS b",
  };
  DumpClient client(&rig.conn, &rig.metrics, &out);
  auto run_all = [&] {
    for (const std::string& sql : queries) {
      client.Perform(eqsql::net::Request::Query(sql));
    }
  };
  run_all();
  client.Perform(eqsql::net::Request::CreateIndex(
      "CREATE INDEX big_g ON big (g)"));
  run_all();
  client.Perform(eqsql::net::Request::Begin());
  client.Perform(eqsql::net::Request::Dml(
      "UPDATE big SET v = v + 1 WHERE g = 2"));
  client.Perform(eqsql::net::Request::Dml("DELETE FROM big WHERE id = 20"));
  client.Perform(eqsql::net::Request::Dml(
      "INSERT INTO big VALUES (20, 7, 3, 'x')"));
  client.Perform(eqsql::net::Request::Commit());
  client.Perform(eqsql::net::Request::SimulatedDml(
      "UPDATE big SET v = 0 WHERE id = 1"));
  client.ChargeClientOps(1234);
  client.CreateTempTable(
      "tmp", eqsql::catalog::Schema({{"k", DataType::kInt64}}),
      {{Value::Int(1)}, {Value::Int(2)}});
  client.Perform(eqsql::net::Request::Query(
      "SELECT b.id AS id FROM big AS b JOIN tmp AS t ON b.id = t.k"));
  run_all();
}

}  // namespace

int main() {
  std::ostream& out = std::cout;
  for (size_t shards : kShardCounts) {
    for (const char* family : kFamilies) {
      eqsql::fuzz::GenOptions opts;
      if (std::string(family) != "mixed" &&
          !eqsql::fuzz::RestrictToFamily(&opts, family)) {
        std::cerr << "unknown family " << family << "\n";
        return 2;
      }
      for (int i = 1; i <= kCasesPerFamily; ++i) {
        const uint64_t seed = static_cast<uint64_t>(i) * 7919;
        out << "case family=" << family << " seed=" << seed
            << " shards=" << shards << "\n";
        DumpCase(eqsql::fuzz::GenerateCase(seed, opts), shards, out);
      }
    }
    DumpQueries(shards, eqsql::exec::ExecMode::kRow, out);
    DumpQueries(shards, eqsql::exec::ExecMode::kVector, out);
  }
  return 0;
}
