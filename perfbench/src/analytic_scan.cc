// analytic_scan: the SQL the extracted apps emit, run at scale. Two
// client sessions, closed loop, against one net::Server with two
// scheduler workers, two exec threads and four shards. The seeded
// tables hold about 200k rows (100k in fact, 100k in board), some
// 300 MB of rows, so exec and storage do nearly all the work out of
// cache. Larger tables leave too few ops per run for a p99.
//
// Each query kind starts life as an original ImpLang loop program
// (generated from the seed); setup extracts its SQL with
// EqSqlOptimizer, and the ops submit that SQL through Session::Execute:
//   sel_filter   selective filter, ~1% of fact (fig8)
//   wide_filter  non-selective filter, ~90% of fact (fig8)
//   group_sum    per-group SUM over fact (group-by aggregate, T5.2)
//   matoso_max   the matoso ranking query over 100k boards (fig10)
//   join_index   dim (one region) x fact (~10%) on fact.dim_id, which has
//                a secondary index
//   join_scan    the same shape on fact.cat, which has none (fig9)
//   top_w        argmax over fact: ORDER BY w DESC LIMIT 1
//
// Reference: the original program of each kind is run once in setup by
// interp::Interpreter on a direct net::Connection; every op's result
// set must hold the same bag of rows.
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/optimizer.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "storage/database.h"
#include "workload.h"
#include "workloads/benchmark_apps.h"

namespace perfbench {
namespace {

using eqsql::catalog::DataType;
using eqsql::catalog::Schema;
using eqsql::catalog::Value;
using eqsql::net::Outcome;
using eqsql::net::Request;

constexpr int kSessions = 2;
constexpr size_t kSchedulerWorkers = 2;
constexpr size_t kExecThreads = 2;
constexpr size_t kShards = 4;
constexpr size_t kParallelThreshold = 512;
constexpr int64_t kFactRows = 100000;
constexpr int kBoards = 100000;
constexpr int64_t kDimRows = 2000;
constexpr int64_t kRegions = 400;
constexpr int64_t kGroups = 20;
constexpr int64_t kWPrime = 1000003;  // w = (id * a + b) mod p: unique

struct Query {
  std::string name;
  std::string source;    // original ImpLang program
  std::string function;
  std::string sql;       // extracted at setup
};

class AnalyticScan : public Workload {
 public:
  AnalyticScan(const RunConfig& cfg, size_t trace_sample)
      : seed_(cfg.seed), trace_sample_(trace_sample) {
    eqsql::net::ServerOptions o;
    o.database.shard_count = kShards;
    o.exec_threads = kExecThreads;
    o.scheduler_workers = kSchedulerWorkers;
    o.exec_mode = eqsql::exec::ExecMode::kVector;
    o.trace_sample = trace_sample;
    o.parallel_threshold = kParallelThreshold;
    o.plan_cache_capacity = 512;
    o.scheduler_queue_capacity = 256;
    o.slow_query_ms = 0;
    o.optimize.transform.table_keys = Keys();
    server_ = std::make_unique<eqsql::net::Server>(o);
    ok_ = Check(LoadTables()) &&
          Check(eqsql::workloads::SetupMatosoDatabase(server_->db(), kBoards,
                                                      4));
    if (ok_) {
      std::unique_ptr<eqsql::net::Session> admin = server_->Connect();
      ok_ = Check(admin->Execute(Request::CreateIndex(
                                     "CREATE INDEX fact_dim ON fact (dim_id)"))
                      .status);
    }
    if (ok_) BuildQueries();
    kind_ops_.assign(queries_.size(), 0);
    kind_ms_.assign(queries_.size(), 0.0);
    if (ok_) {
      for (int s = 0; s < kSessions; ++s) {
        sessions_.push_back(server_->Connect());
        rngs_.push_back(
            std::make_unique<Rng>(seed_ * 0x9e3779b97f4a7c15ULL + 301 + s));
      }
    }
  }

  int threads() const override { return kSessions; }
  // A few hundred ops per run: p99 needs them all in one window.
  int windows() const override { return 1; }
  eqsql::obs::MetricsRegistry* registry() override {
    return server_->metrics();
  }

  bool BuildReference() override {
    if (!ok_) return false;
    // One thread and one direct connection per query kind: the
    // interpreted originals are slow at this scale, and they only read.
    auto reference = std::make_shared<std::vector<BagDigest>>(queries_.size());
    std::vector<std::string> errors(queries_.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < queries_.size(); ++i) {
      threads.emplace_back([&, i] {
        const Query& q = queries_[i];
        auto program = eqsql::frontend::ParseProgram(q.source);
        if (!program.ok()) {
          errors[i] = program.status().ToString();
          return;
        }
        eqsql::net::Connection direct(server_->db());
        eqsql::interp::Interpreter interp(&*program, &direct);
        auto ret = interp.Run(q.function);
        if (!ret.ok()) {
          errors[i] = ret.status().ToString();
          return;
        }
        (*reference)[i] = DigestRtValue(*ret);
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (!errors[i].empty()) {
        std::fprintf(stderr, "analytic_scan: reference run of %s failed: %s\n",
                     queries_[i].name.c_str(), errors[i].c_str());
        return false;
      }
    }
    reference_ = std::move(reference);
    return true;
  }

  std::shared_ptr<const void> Reference() const override { return reference_; }
  void AdoptReference(std::shared_ptr<const void> reference) override {
    reference_ =
        std::static_pointer_cast<const std::vector<BagDigest>>(reference);
  }

  OpResult Op(int thread) override {
    const size_t idx = rngs_[thread]->Next() % queries_.size();
    OpResult r = RunQuery(sessions_[thread].get(), idx);
    std::lock_guard<std::mutex> lock(stats_mu_);
    kind_ops_[idx] += 1;
    kind_ms_[idx] += (r.end_ns - r.start_ns) / 1e6;
    return r;
  }

  bool Census(MetricSet* out) override {
    eqsql::obs::MetricsSnapshot before = server_->metrics()->Snapshot();
    bool ok = true;
    for (size_t i = 0; i < queries_.size(); ++i) {
      ok = RunQuery(sessions_[0].get(), i).ok && ok;
    }
    eqsql::obs::MetricsSnapshot after = server_->metrics()->Snapshot();
    const double ops = static_cast<double>(queries_.size());
    auto delta = [&](const char* name) {
      return static_cast<double>(after.counters[name] -
                                 before.counters[name]) /
             ops;
    };
    out->Add("net.round_trips_per_op", delta("net.round_trips"), "count");
    out->Add("net.rows_per_op", delta("net.rows_transferred"), "count");
    out->Add("net.bytes_per_op", delta("net.bytes_transferred"), "bytes");
    out->Add("exec.rows_in_per_op", delta("storage.scan.rows"), "count");
    out->Add("exec.index.probes_per_op",
             delta("storage.index.probes") + delta("exec.index.nlj_probes"),
             "count");
    return ok;
  }

  void LayerMetrics(const PhaseResult& untraced, const PhaseResult& traced,
                    MetricSet* out) override {
    AddServerLayerMetrics(untraced, out);
    const double ops = std::max<int64_t>(untraced.ops(), 1);
    out->Add("net.perform_us", untraced.layer_ns[kExecute] / 1e3 / ops, "us");
    std::vector<std::string> profiles;
    for (const auto& rec : server_->trace_ring()->Snapshot()) {
      profiles.push_back(rec.profile_json);
    }
    AddProfileMetrics(profiles, out);
  }

  std::string Provenance() const override {
    return "\"sessions\": " + std::to_string(kSessions) +
           ", \"client_threads\": " + std::to_string(kSessions) +
           ", \"scheduler_workers\": " + std::to_string(kSchedulerWorkers) +
           ", \"exec_threads\": " + std::to_string(kExecThreads) +
           ", \"shard_count\": " + std::to_string(kShards) +
           ", \"exec_mode\": \"vector\", \"trace_sample\": " +
           std::to_string(trace_sample_) +
           ", \"parallel_threshold\": " + std::to_string(kParallelThreshold) +
           ", \"fact_rows\": " + std::to_string(kFactRows) +
           ", \"board_rows\": " + std::to_string(kBoards);
  }

  std::vector<std::string> Notes() const override {
    std::vector<std::string> notes;
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      char buf[96];
      std::snprintf(buf, sizeof(buf), " [%lld ops, mean %.2f ms]",
                    static_cast<long long>(kind_ops_[i]),
                    kind_ops_[i] == 0 ? 0.0 : kind_ms_[i] / kind_ops_[i]);
      notes.push_back("analytic_scan " + q.name + buf + ": " + q.sql);
    }
    return notes;
  }

 private:
  static std::map<std::string, std::string> Keys() {
    return {{"fact", "id"}, {"dim", "id"}, {"grp", "id"}, {"board", "id"}};
  }

  static bool Check(const eqsql::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "analytic_scan setup: %s\n", s.ToString().c_str());
    }
    return s.ok();
  }

  eqsql::Status LoadTables() {
    eqsql::storage::Database* db = server_->db();
    Rng rng(seed_ * 0xd1b54a32d192ed03ULL + 5);
    const int64_t wa = rng.Range(1000, 900000);
    const int64_t wb = rng.Range(0, kWPrime - 1);
    EQSQL_ASSIGN_OR_RETURN(
        eqsql::storage::Table * fact,
        db->CreateTable("fact", Schema({{"id", DataType::kInt64},
                                        {"grp", DataType::kInt64},
                                        {"v", DataType::kInt64},
                                        {"w", DataType::kInt64},
                                        {"dim_id", DataType::kInt64},
                                        {"cat", DataType::kInt64},
                                        {"tag", DataType::kString}})));
    for (int64_t i = 0; i < kFactRows; ++i) {
      EQSQL_RETURN_IF_ERROR(fact->Insert(
          {Value::Int(i), Value::Int(rng.Range(0, kGroups - 1)),
           Value::Int(rng.Range(0, 999)), Value::Int((i * wa + wb) % kWPrime),
           Value::Int(rng.Range(0, kDimRows - 1)),
           Value::Int(rng.Range(0, kDimRows - 1)),
           Value::String("t" + std::to_string(rng.Range(0, 99)))}));
    }
    EQSQL_RETURN_IF_ERROR(fact->DeclareUniqueKey("id"));
    EQSQL_ASSIGN_OR_RETURN(
        eqsql::storage::Table * dim,
        db->CreateTable("dim", Schema({{"id", DataType::kInt64},
                                       {"name", DataType::kString},
                                       {"region", DataType::kInt64}})));
    for (int64_t i = 0; i < kDimRows; ++i) {
      EQSQL_RETURN_IF_ERROR(
          dim->Insert({Value::Int(i), Value::String("dim" + std::to_string(i)),
                       Value::Int(rng.Range(0, kRegions - 1))}));
    }
    EQSQL_RETURN_IF_ERROR(dim->DeclareUniqueKey("id"));
    EQSQL_ASSIGN_OR_RETURN(
        eqsql::storage::Table * grp,
        db->CreateTable("grp", Schema({{"id", DataType::kInt64},
                                       {"label", DataType::kString}})));
    for (int64_t i = 0; i < kGroups; ++i) {
      EQSQL_RETURN_IF_ERROR(grp->Insert(
          {Value::Int(i), Value::String("group" + std::to_string(i))}));
    }
    return grp->DeclareUniqueKey("id");
  }

  void AddQuery(std::string name, std::string function, std::string body) {
    Query q;
    q.name = std::move(name);
    q.function = std::move(function);
    q.source = "func " + q.function + "() {\n" + body + "}\n";
    queries_.push_back(std::move(q));
  }

  void BuildQueries() {
    Rng rng(seed_ * 0x94d049bb133111ebULL + 17);
    const std::string sel = std::to_string(rng.Range(8, 12));
    const std::string wide = std::to_string(rng.Range(880, 920));
    const std::string region_a = std::to_string(rng.Range(0, kRegions - 1));
    const std::string region_b = std::to_string(rng.Range(0, kRegions - 1));
    const std::string inner = std::to_string(rng.Range(90, 110));
    AddQuery("sel_filter", "selFilter",
             "  out = list();\n"
             "  rows = executeQuery(\"SELECT * FROM fact AS f\");\n"
             "  for (f : rows) {\n"
             "    if (f.v < " + sel + ") { out.append(pair(f.id, f.w)); }\n"
             "  }\n  return out;\n");
    AddQuery("wide_filter", "wideFilter",
             "  out = list();\n"
             "  rows = executeQuery(\"SELECT * FROM fact AS f\");\n"
             "  for (f : rows) {\n"
             "    if (f.v < " + wide + ") { out.append(pair(f.id, f.w)); }\n"
             "  }\n  return out;\n");
    AddQuery("group_sum", "groupSum",
             "  out = list();\n"
             "  ds = executeQuery(\"SELECT * FROM grp AS d\");\n"
             "  for (d : ds) {\n"
             "    agg = 0;\n"
             "    ms = executeQuery(\"SELECT * FROM fact AS m "
             "WHERE m.grp = ?\", d.id);\n"
             "    for (m : ms) { agg = agg + m.v; }\n"
             "    out.append(pair(d.label, agg));\n"
             "  }\n  return out;\n");
    {
      Query q;
      q.name = "matoso_max";
      q.function = "findMaxScore";
      q.source = eqsql::workloads::MatosoProgram();
      queries_.push_back(std::move(q));
    }
    for (const auto& [name, col, region] :
         {std::tuple<const char*, const char*, std::string>{
              "join_index", "dim_id", region_a},
          {"join_scan", "cat", region_b}}) {
      AddQuery(name, name == std::string("join_index") ? "joinIndex"
                                                       : "joinScan",
               "  out = list();\n"
               "  as = executeQuery(\"SELECT * FROM dim AS a "
               "WHERE a.region = " +
                   region + "\");\n"
                   "  bs = executeQuery(\"SELECT * FROM fact AS b "
                   "WHERE b.v < " +
                   inner + "\");\n"
                   "  for (a : as) {\n    for (b : bs) {\n"
                   "      if (b." + col + " == a.id) {"
                   " out.append(pair(a.name, b.w)); }\n"
                   "    }\n  }\n  return out;\n");
    }
    AddQuery("top_w", "topW",
             "  best = -1;\n  who = -1;\n"
             "  rows = executeQuery(\"SELECT * FROM fact AS r\");\n"
             "  for (r : rows) {\n"
             "    if (r.w > best) { best = r.w; who = r.id; }\n"
             "  }\n  return who;\n");

    eqsql::core::OptimizeOptions opts;
    opts.transform.table_keys = Keys();
    eqsql::core::EqSqlOptimizer optimizer(opts);
    for (Query& q : queries_) {
      auto program = eqsql::frontend::ParseProgram(q.source);
      if (!program.ok()) {
        ok_ = Check(program.status());
        return;
      }
      auto res = optimizer.Optimize(*program, q.function);
      if (!res.ok()) {
        ok_ = Check(res.status());
        return;
      }
      // The query that computes the returned variable: the last
      // extracted variable's last query.
      for (const auto& o : res->outcomes) {
        if (o.extracted && !o.sql.empty()) q.sql = o.sql.back();
      }
      if (q.sql.empty()) {
        std::fprintf(stderr, "analytic_scan: %s did not extract\n",
                     q.name.c_str());
        ok_ = false;
        return;
      }
    }
  }

  OpResult RunQuery(eqsql::net::Session* session, size_t idx) {
    OpResult r;
    r.start_ns = NowNs();
    Outcome out;
    {
      LayerTimer t(&r, kExecute);
      out = session->Execute(Request::Query(queries_[idx].sql));
    }
    r.end_ns = NowNs();
    r.ok = out.ok() && out.kind == Outcome::Kind::kResultSet &&
           DigestResultSet(out.rows) == (*reference_)[idx];
    return r;
  }

  uint64_t seed_;
  size_t trace_sample_;
  bool ok_ = true;
  std::unique_ptr<eqsql::net::Server> server_;
  std::vector<Query> queries_;
  std::vector<std::unique_ptr<eqsql::net::Session>> sessions_;
  std::vector<std::unique_ptr<Rng>> rngs_;
  std::shared_ptr<const std::vector<BagDigest>> reference_;
  mutable std::mutex stats_mu_;
  std::vector<int64_t> kind_ops_;  // per query kind, all phases
  std::vector<double> kind_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalyticScan(const RunConfig& cfg,
                                           size_t trace_sample) {
  return std::make_unique<AnalyticScan>(cfg, trace_sample);
}

}  // namespace perfbench
