// serve_mixed: served application traffic with writes. Four client
// sessions on four threads, closed loop, against one net::Server with
// two scheduler workers, two exec threads and four shards.
//
// About 90% of ops run an app program the way `eqsql --run` does:
// Session::SelectPlan, then interp::Interpreter::Run over the session
// (through the benchmark's forwarding client). The apps are matoso,
// jobportal, selection, join and the Wilos samples, with seeded
// arguments. About 10% of ops are write transactions on the session's
// own key range of `board`: BEGIN, 1-3 UPDATE/INSERT/DELETE, COMMIT.
// Writes touch only board rows outside round 1 (matoso reads round 1
// only) and rows the session inserted itself (round 9), so every read
// result stays fixed; every write bumps the stats epoch, so cached
// plans are re-priced.
//
// net::Server never runs Database::Vacuum itself, so the benchmark
// calls it every kVacuumEvery committed write transactions.
//
// The selector never picks batching for these apps (the Wilos samples
// have no batchable probe site, and extraction beats batching for
// jobportal). An app that does pick it cannot be served concurrently
// yet: see perfbench/NOTES.md, "Known defect".
//
// Reference: each (app, arguments) pair is run once in setup through
// the *original* program on a direct net::Connection; every served run
// must print the same lines and return the same value. Every write's
// affected-row count must be exactly 1.
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/alternative_selector.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "storage/database.h"
#include "workload.h"
#include "workloads/benchmark_apps.h"
#include "workloads/wilos_samples.h"

namespace perfbench {
namespace {

using eqsql::catalog::Value;
using eqsql::core::AlternativeKind;
using eqsql::net::Outcome;
using eqsql::net::Request;

constexpr int kSessions = 4;
constexpr size_t kSchedulerWorkers = 2;
constexpr size_t kExecThreads = 2;
constexpr size_t kShards = 4;
constexpr size_t kParallelThreshold = 512;
constexpr int kWilosScale = 400;   // project/wuser/... rows; 2x for activity
constexpr int kBoards = 2000;
constexpr int kApplicants = 300;
constexpr int kArgSets = 4;        // invocations per app program
constexpr int kWritePercent = 10;
constexpr int kVacuumEvery = 32;   // committed write transactions
constexpr size_t kMaxOwnRows = 8;  // inserted rows a session keeps live
constexpr int64_t kOwnKeyBase = 10000000;

struct App {
  std::string name;
  std::string source;
  std::string function;
  std::vector<eqsql::interp::RtValue> args;
  std::shared_ptr<const eqsql::frontend::Program> original;
};

struct AppReference {
  std::string ret;
  std::vector<std::string> printed;
};

struct ServedReference {
  std::vector<AppReference> apps;  // parallel to the app list
  std::vector<size_t> served;      // apps whose original program runs
};

struct ClientState {
  std::unique_ptr<eqsql::net::Session> session;
  std::unique_ptr<ForwardingClient> client;
  std::unique_ptr<Rng> rng;
  std::vector<int64_t> board_rows;   // round>1 board ids this session owns
  std::vector<int64_t> own_rows;     // live rows this session inserted
  int64_t next_own = 0;
};

eqsql::Status CopyTable(eqsql::storage::Database* from,
                        eqsql::storage::Database* to,
                        const std::string& name, const std::string& key) {
  EQSQL_ASSIGN_OR_RETURN(eqsql::storage::Table * src, from->GetTable(name));
  EQSQL_ASSIGN_OR_RETURN(eqsql::storage::Table * dst,
                         to->CreateTable(name, src->schema()));
  for (eqsql::catalog::Row& row :
       src->rows(eqsql::storage::Snapshot::Latest())) {
    EQSQL_RETURN_IF_ERROR(dst->Insert(std::move(row)));
  }
  return dst->DeclareUniqueKey(key);
}

class ServeMixed : public Workload {
 public:
  ServeMixed(const RunConfig& cfg, size_t trace_sample)
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
    o.optimize.transform.table_keys = eqsql::workloads::WilosTableKeys();
    for (const char* t : {"board", "applicants", "details", "feedback1",
                          "education", "wilosuser"}) {
      o.optimize.transform.table_keys[t] = "id";
    }
    server_ = std::make_unique<eqsql::net::Server>(o);
    eqsql::storage::Database* db = server_->db();
    ok_ = Check(eqsql::workloads::SetupWilosDatabase(db, kWilosScale)) &&
          Check(eqsql::workloads::SetupMatosoDatabase(db, kBoards, 4)) &&
          Check(eqsql::workloads::SetupJobPortalDatabase(db, kApplicants));
    if (ok_) {
      // The join app's `role` table is the Wilos one (same shape and
      // rows at equal scale); only `wilosuser` is copied over.
      eqsql::storage::Database join_db(
          eqsql::storage::DatabaseOptions{kShards});
      ok_ = Check(eqsql::workloads::SetupJoinDatabase(&join_db, kWilosScale)) &&
            Check(CopyTable(&join_db, db, "wilosuser", "id"));
    }
    std::unique_ptr<eqsql::net::Session> admin = server_->Connect();
    for (const char* ddl :
         {"CREATE INDEX activity_project ON activity (project_id)",
          "CREATE INDEX participant_project ON participant (project_id)"}) {
      if (ok_) ok_ = Check(admin->Execute(Request::CreateIndex(ddl)).status);
    }
    if (ok_) BuildApps();
    if (ok_) BuildClients();
  }

  int threads() const override { return kSessions; }
  eqsql::obs::MetricsRegistry* registry() override {
    return server_->metrics();
  }

  bool BuildReference() override {
    if (!ok_) return false;
    auto reference = std::make_shared<ServedReference>();
    eqsql::net::Connection direct(server_->db());
    std::string skipped;
    for (size_t i = 0; i < apps_.size(); ++i) {
      const App& app = apps_[i];
      eqsql::interp::Interpreter interp(app.original.get(), &direct);
      auto ret = interp.Run(app.function, app.args);
      if (!ret.ok()) {
        // Some Wilos samples model Java operations ImpLang deliberately
        // lacks (instanceOf, Map.get); no strategy can serve them.
        if (app.name.rfind("wilos", 0) != 0) {
          std::fprintf(stderr, "serve_mixed: reference run of %s failed: %s\n",
                       app.name.c_str(), ret.status().ToString().c_str());
          return false;
        }
        if (app.name.size() > 2 &&
            app.name.compare(app.name.size() - 2, 2, "#0") == 0) {
          skipped += " " + app.name.substr(0, app.name.size() - 2);
        }
        reference->apps.push_back({});
        continue;
      }
      reference->apps.push_back({ret->DisplayString(), interp.printed()});
      reference->served.push_back(i);
    }
    notes_.push_back("serve_mixed: not served (original does not run):" +
                     skipped);
    reference_ = std::move(reference);
    return !reference_->served.empty();
  }

  std::shared_ptr<const void> Reference() const override { return reference_; }
  void AdoptReference(std::shared_ptr<const void> reference) override {
    reference_ = std::static_pointer_cast<const ServedReference>(reference);
  }

  OpResult Op(int thread) override {
    ClientState& c = clients_[thread];
    if (c.rng->Percent(kWritePercent)) return WriteOp(&c);
    const std::vector<size_t>& served = reference_->served;
    return AppOp(&c, served[c.rng->Next() % served.size()], nullptr);
  }

  bool Census(MetricSet* out) override {
    // Every app once, then four write transactions, on one session.
    eqsql::obs::MetricsSnapshot before = server_->metrics()->Snapshot();
    int64_t chosen[3] = {};
    bool ok = true;
    int64_t ops = 0;
    for (size_t i : reference_->served) {
      AlternativeKind kind;
      ok = AppOp(&clients_[0], i, &kind).ok && ok;
      ++chosen[static_cast<int>(kind)];
      ++ops;
    }
    for (int i = 0; i < 4; ++i, ++ops) ok = WriteOp(&clients_[0]).ok && ok;
    eqsql::obs::MetricsSnapshot after = server_->metrics()->Snapshot();
    auto delta = [&](const char* name) {
      return static_cast<double>(after.counters[name] -
                                 before.counters[name]) /
             static_cast<double>(ops);
    };
    out->Add("net.round_trips_per_op", delta("net.round_trips"), "count");
    out->Add("net.rows_per_op", delta("net.rows_transferred"), "count");
    out->Add("net.bytes_per_op", delta("net.bytes_transferred"), "bytes");
    out->Add("exec.rows_in_per_op", delta("storage.scan.rows"), "count");
    out->Add("exec.index.probes_per_op",
             delta("storage.index.probes") + delta("exec.index.nlj_probes"),
             "count");
    const double n = static_cast<double>(reference_->served.size());
    out->Add("core.strategy.extracted_sql_share",
             chosen[static_cast<int>(AlternativeKind::kExtractedSql)] / n,
             "ratio");
    out->Add("core.strategy.batching_share",
             chosen[static_cast<int>(AlternativeKind::kBatching)] / n,
             "ratio");
    out->Add("core.strategy.interpreted_share",
             chosen[static_cast<int>(AlternativeKind::kInterpreted)] / n,
             "ratio");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "serve_mixed: %zu app invocations; strategies chosen: "
                  "extracted-sql %lld, batching %lld, interpreted %lld",
                  reference_->served.size(), static_cast<long long>(chosen[0]),
                  static_cast<long long>(chosen[1]),
                  static_cast<long long>(chosen[2]));
    notes_.push_back(buf);
    return ok;
  }

  void LayerMetrics(const PhaseResult& untraced, const PhaseResult& traced,
                    MetricSet* out) override {
    AddServerLayerMetrics(untraced, out);
    const double reads = std::max<int64_t>(untraced.reads, 1);
    const double writes = std::max<size_t>(untraced.write_ms.size(), 1);
    out->Add("core.select_plan_us",
             untraced.layer_ns[kSelectPlan] / 1e3 / reads, "us");
    out->Add("interp.self_us",
             (untraced.layer_ns[kInterpRun] - untraced.layer_ns[kPerform]) /
                 1e3 / reads,
             "us");
    out->Add("net.perform_us", untraced.layer_ns[kPerform] / 1e3 / reads,
             "us");
    out->Add("storage.commit_us", untraced.layer_ns[kCommit] / 1e3 / writes,
             "us");
    const double vacuums =
        std::max<int64_t>(untraced.layer_calls[kVacuum], 1);
    out->Add("storage.vacuum_us", untraced.layer_ns[kVacuum] / 1e3 / vacuums,
             "us");
    std::vector<double> w = untraced.write_ms;
    out->Add("write_p50_ms", Quantile(&w, 0.5), "ms");
    out->Add("write_p99_ms", Quantile(&w, 0.99), "ms");
    std::vector<std::string> profiles;
    for (const auto& rec : server_->trace_ring()->Snapshot()) {
      profiles.push_back(rec.profile_json);
    }
    AddProfileMetrics(profiles, out);
  }

  bool CheckPhase(const PhaseResult& phase,
                  std::vector<std::string>* notes) override {
    // Steadiness: the first and last quarter of the window must agree.
    // Wall throughput moves with hypervisor steal (seen at up to a
    // quarter of the machine, in bursts of seconds), so the gate is on
    // CPU per op, which steal does not touch and which version garbage
    // or an unbounded cache would drive up. Throughput is reported.
    const size_t n = phase.windows.size();
    const size_t q = std::max<size_t>(n / 4, 1);
    double ops[2] = {0, 0}, cpu[2] = {0, 0}, secs[2] = {0, 0};
    for (size_t i = 0; i < q; ++i) {
      for (int side = 0; side < 2; ++side) {
        const SubWindow& w = phase.windows[side == 0 ? i : n - 1 - i];
        ops[side] += w.ops;
        cpu[side] += w.cpu_s;
        secs[side] += w.seconds;
      }
    }
    if (ops[0] == 0 || ops[1] == 0) return false;
    const double tput = (ops[1] / secs[1]) / (ops[0] / secs[0]);
    const double cpu_per_op = (cpu[1] / ops[1]) / (cpu[0] / ops[0]);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "serve_mixed: last/first quarter: ops_per_s x%.3f, "
                  "cpu_ms_per_op x%.3f (gate 0.5-2)",
                  tput, cpu_per_op);
    notes->push_back(buf);
    // Wide enough for neighbours' cache pressure on short runs; a drift
    // that halves or doubles the cost of an op still fails the run.
    return cpu_per_op > 0.5 && cpu_per_op < 2.0;
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
           ", \"write_percent\": " + std::to_string(kWritePercent) +
           ", \"vacuum_every_commits\": " + std::to_string(kVacuumEvery) +
           ", \"apps\": " + std::to_string(reference_->served.size());
  }

  std::vector<std::string> Notes() const override {
    std::vector<std::string> notes = notes_;
    std::lock_guard<std::mutex> lock(failure_mu_);
    for (const std::string& f : failures_) {
      notes.push_back("serve_mixed failure: " + f);
    }
    return notes;
  }

 private:
  static bool Check(const eqsql::Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "serve_mixed setup: %s\n", s.ToString().c_str());
    }
    return s.ok();
  }

  void AddApp(std::string name, std::string source, std::string function,
              Rng* rng) {
    App app;
    app.name = std::move(name);
    app.source = std::move(source);
    app.function = std::move(function);
    auto parsed = eqsql::frontend::ParseProgram(app.source);
    if (!parsed.ok() || parsed->Find(app.function) == nullptr) {
      std::fprintf(stderr, "serve_mixed: %s does not parse\n",
                   app.name.c_str());
      ok_ = false;
      return;
    }
    app.original =
        std::make_shared<const eqsql::frontend::Program>(std::move(*parsed));
    // kArgSets invocations per program, so every program weighs the same
    // and a seed's argument draw averages out.
    const std::vector<std::string>& params =
        app.original->Find(app.function)->params;
    for (int k = 0; k < kArgSets; ++k) {
      App inv = app;
      inv.name += "#" + std::to_string(k);
      for (const std::string& param : params) {
        if (param == "who") {
          inv.args.push_back(Value::String(
              "user" + std::to_string(rng->Range(0, kWilosScale - 1))));
        } else if (param == "n" || param == "npages") {
          inv.args.push_back(Value::Int(rng->Range(8, 40)));
        } else {
          inv.args.push_back(Value::Int(rng->Range(0, kWilosScale - 1)));
        }
      }
      apps_.push_back(std::move(inv));
    }
  }

  void BuildApps() {
    Rng rng(seed_ * 0x2545f4914f6cdd1dULL + 11);
    AddApp("matoso", eqsql::workloads::MatosoProgram(), "findMaxScore", &rng);
    AddApp("jobportal", eqsql::workloads::JobPortalProgram(), "jobReport",
           &rng);
    AddApp("selection", eqsql::workloads::SelectionProgram(), "unfinished",
           &rng);
    AddApp("join", eqsql::workloads::JoinProgram(), "userRoles", &rng);
    for (const auto& s : eqsql::workloads::WilosSamples()) {
      AddApp("wilos" + std::to_string(s.index), s.source, s.function, &rng);
    }
  }

  void BuildClients() {
    // Round>1 board rows, split among the sessions by id.
    eqsql::net::Connection direct(server_->db());
    Outcome ids = direct.Perform(
        Request::Query("SELECT b.id AS id FROM board AS b WHERE b.rnd_id > 1"));
    if (!ids.ok()) {
      ok_ = Check(ids.status);
      return;
    }
    clients_.resize(kSessions);
    for (int s = 0; s < kSessions; ++s) {
      ClientState& c = clients_[s];
      c.session = server_->Connect();
      c.client = std::make_unique<ForwardingClient>(c.session.get());
      c.rng = std::make_unique<Rng>(seed_ * 0x9e3779b97f4a7c15ULL + 101 + s);
      c.next_own = kOwnKeyBase * (s + 1);
    }
    for (const auto& row : ids.rows.rows) {
      const int64_t id = row[0].AsInt();
      clients_[id % kSessions].board_rows.push_back(id);
    }
  }

  OpResult AppOp(ClientState* c, size_t idx, AlternativeKind* chosen_out) {
    const App& app = apps_[idx];
    OpResult r;
    c->client->set_op(&r);
    r.start_ns = NowNs();
    AlternativeKind chosen = AlternativeKind::kExtractedSql;
    const eqsql::frontend::Program* program = app.original.get();
    eqsql::Result<std::shared_ptr<const eqsql::core::ExtractionPlan>> plan =
        eqsql::Status::Internal("unselected");
    {
      LayerTimer t(&r, kSelectPlan);
      plan = c->session->SelectPlan(app.source, app.function);
    }
    if (plan.ok()) chosen = (*plan)->chosen;
    if (plan.ok() && chosen == AlternativeKind::kExtractedSql) {
      program = &(*plan)->optimized->program;
    }
    eqsql::interp::Interpreter interp(program, c->client.get());
    interp.set_batching(chosen == AlternativeKind::kBatching);
    eqsql::Result<eqsql::interp::RtValue> ret =
        eqsql::Status::Internal("unrun");
    {
      LayerTimer t(&r, kInterpRun);
      ret = interp.Run(app.function, app.args);
    }
    r.end_ns = NowNs();
    c->client->set_op(nullptr);
    if (chosen_out != nullptr) *chosen_out = chosen;
    const AppReference& ref = reference_->apps[idx];
    r.ok = plan.ok() && ret.ok() && ret->DisplayString() == ref.ret &&
           interp.printed() == ref.printed;
    if (!r.ok) {
      Failure(app.name + " via " + eqsql::core::AlternativeKindName(chosen) +
              ": " +
              (!plan.ok()   ? plan.status().ToString()
               : !ret.ok()  ? ret.status().ToString()
                            : "result differs from the reference"));
    }
    return r;
  }

  bool ExpectOne(ClientState* c, std::string sql, OpResult* r) {
    Outcome out;
    {
      LayerTimer t(r, kExecute);
      out = c->session->Execute(Request::Dml(sql));
    }
    if (out.ok() && out.kind == Outcome::Kind::kRowCount &&
        out.row_count == 1) {
      return true;
    }
    Failure(sql + ": " +
            (out.ok() ? "affected " + std::to_string(out.row_count) + " rows"
                      : out.status.ToString()));
    return false;
  }

  void Failure(std::string what) {
    std::lock_guard<std::mutex> lock(failure_mu_);
    if (failures_.size() < 8) failures_.push_back(std::move(what));
  }

  OpResult WriteOp(ClientState* c) {
    OpResult r;
    r.write = true;
    const int statements = static_cast<int>(c->rng->Range(1, 3));
    std::vector<int64_t> live = c->own_rows;  // applied on commit only
    r.start_ns = NowNs();
    // Commit validates every table a transaction read against commits
    // made after its snapshot, so two concurrent write transactions on
    // `board` conflict even on disjoint keys. The app serializes its
    // writers (the wait counts into write latency).
    std::lock_guard<std::mutex> writer(writer_mu_);
    bool ok;
    {
      LayerTimer t(&r, kExecute);
      ok = c->session->Execute(Request::Begin()).ok();
    }
    for (int i = 0; i < statements && ok; ++i) {
      const int64_t kind = c->rng->Range(0, 2);
      if (kind == 1 && live.size() < kMaxOwnRows) {
        const int64_t id = c->next_own++;
        std::string sql = "INSERT INTO board VALUES (" + std::to_string(id) +
                          ", 9";
        for (int p = 0; p < 4; ++p) {
          sql += ", " + std::to_string(c->rng->Range(0, 999));
        }
        ok = ExpectOne(c, sql + ")", &r);
        live.push_back(id);
      } else if (kind == 2 && !live.empty()) {
        const size_t at = c->rng->Next() % live.size();
        const int64_t id = live[at];
        live.erase(live.begin() + static_cast<long>(at));
        ok = ExpectOne(c, "DELETE FROM board WHERE id = " + std::to_string(id),
                       &r);
      } else {
        const int64_t id =
            c->board_rows[c->rng->Next() % c->board_rows.size()];
        ok = ExpectOne(c,
                       "UPDATE board SET p1 = " +
                           std::to_string(c->rng->Range(0, 999)) +
                           " WHERE id = " + std::to_string(id) +
                           " AND rnd_id > 1",
                       &r);
      }
    }
    if (ok) {
      LayerTimer t(&r, kCommit);
      Outcome commit = c->session->Execute(Request::Commit());
      ok = commit.ok();
      if (!ok) Failure("COMMIT: " + commit.status.ToString());
    } else {
      c->session->Execute(Request::Rollback());
    }
    r.end_ns = NowNs();
    r.ok = ok;
    if (ok) c->own_rows = std::move(live);
    if (ok && (commits_.fetch_add(1) + 1) % kVacuumEvery == 0) {
      LayerTimer t(&r, kVacuum);
      server_->db()->Vacuum();
    }
    return r;
  }

  uint64_t seed_;
  size_t trace_sample_;
  bool ok_ = true;
  std::unique_ptr<eqsql::net::Server> server_;
  std::vector<App> apps_;
  std::vector<ClientState> clients_;
  std::shared_ptr<const ServedReference> reference_;
  std::atomic<int64_t> commits_{0};
  std::mutex writer_mu_;  // one write transaction at a time; see WriteOp
  std::vector<std::string> notes_;
  mutable std::mutex failure_mu_;
  std::vector<std::string> failures_;  // first few, for the notes
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const RunConfig& cfg,
                                         size_t trace_sample) {
  return std::make_unique<ServeMixed>(cfg, trace_sample);
}

}  // namespace perfbench
