// Concurrency stress tests for the multi-session server stack: the
// shared PlanCache, the Connection thread-ownership latch, and N worker
// threads driving Sessions against one reader-writer-locked Database
// with mixed query reads and temp-table churn. Run these under the
// `tsan` preset (scripts/verify.sh does) to prove the locking
// discipline race-free; the functional assertions here hold in any
// build: every thread's results must be identical to a serial replay.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/value.h"
#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "net/table_stats.h"
#include "workloads/benchmark_apps.h"

namespace eqsql::net {
namespace {

using catalog::DataType;
using catalog::Value;

// Queries go through the scheduler-backed session API; the legacy
// ExecuteSql overloads were retired outright.
Result<exec::ResultSet> SessionQuery(Session* session, std::string sql,
                                     std::vector<Value> params = {}) {
  return session->Execute(Request::Query(std::move(sql), std::move(params)))
      .TakeResultSet();
}

// ---------------------------------------------------------------------------
// PlanCache unit behaviour (single-threaded).

TEST(PlanCacheTest, HitsMissesAndLru) {
  core::PlanCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);

  auto p1 = cache.GetOrParseSql("SELECT * FROM t1 AS r");
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  auto p1_again = cache.GetOrParseSql("SELECT * FROM t1 AS r");
  ASSERT_TRUE(p1_again.ok());
  // The cached plan is shared, not re-parsed.
  EXPECT_EQ(p1->get(), p1_again->get());

  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.insertions, 1);
  EXPECT_EQ(s.evictions, 0);

  // Fill past capacity; the LRU line ("t2") must be evicted: touch
  // "t1" to promote it first.
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t2 AS r").ok());
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t1 AS r").ok());  // promote
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t3 AS r").ok());  // evict t2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t1 AS r").ok());
  EXPECT_EQ(cache.stats().hits, 3);  // "t1" survived the eviction
  auto p2 = cache.GetOrParseSql("SELECT * FROM t2 AS r");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.stats().misses, 4);  // "t2" did not
}

TEST(PlanCacheTest, ParseErrorsAreNotCached) {
  core::PlanCache cache(8);
  EXPECT_FALSE(cache.GetOrParseSql("SELEKT nope").ok());
  EXPECT_FALSE(cache.GetOrParseSql("SELEKT nope").ok());
  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);  // the error was recomputed, never inserted
  EXPECT_EQ(s.insertions, 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, OptimizeResultsKeyedByOptions) {
  core::PlanCache cache(8);
  const std::string source = workloads::SelectionProgram();
  core::OptimizeOptions opts;
  opts.transform.table_keys = {{"project", "id"}};

  auto r1 = cache.GetOrOptimize(source, "unfinished", opts);
  ASSERT_TRUE(r1.ok());
  auto r2 = cache.GetOrOptimize(source, "unfinished", opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->get(), r2->get());  // shared, not re-extracted
  EXPECT_TRUE((*r1)->any_extracted());

  // Different options (no keys) must not alias the keyed entry.
  core::OptimizeOptions bare;
  auto r3 = cache.GetOrOptimize(source, "unfinished", bare);
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r1->get(), r3->get());
  EXPECT_EQ(cache.stats().hits, 1);    // r2 only
  EXPECT_EQ(cache.stats().misses, 2);  // r1 and r3
}

TEST(PlanCacheTest, InvalidateTableDropsMatchingEntries) {
  core::PlanCache cache(8);
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t1 AS r").ok());
  ASSERT_TRUE(cache.GetOrParseSql("SELECT s.id AS a FROM t2 AS s").ok());
  const std::string source = workloads::SelectionProgram();
  core::OptimizeOptions opts;
  opts.transform.table_keys = {{"project", "id"}};
  ASSERT_TRUE(cache.GetOrOptimize(source, "unfinished", opts).ok());
  ASSERT_EQ(cache.size(), 3u);

  // SQL entries match by scanned-table name, case-insensitively.
  cache.InvalidateTable("T1");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().invalidations, 1);

  // Program entries match conservatively by source-text mention.
  cache.InvalidateTable("project");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 2);

  // Unknown tables are a no-op and the unrelated entry survives.
  cache.InvalidateTable("no_such_table");
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_TRUE(cache.GetOrParseSql("SELECT s.id AS a FROM t2 AS s").ok());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(PlanCacheTest, InvalidateTableMatchesWholeIdentifiersOnly) {
  core::PlanCache cache(8);
  const std::string source = workloads::SelectionProgram();
  ASSERT_TRUE(
      cache.GetOrOptimize(source, "unfinished", core::OptimizeOptions()).ok());
  ASSERT_EQ(cache.size(), 1u);

  // "proj" and "ject" occur in the source only inside the longer
  // identifier "project": not whole-token mentions, so a table with
  // such a short name must not sweep the program entry.
  cache.InvalidateTable("proj");
  cache.InvalidateTable("ject");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 0);

  // "project" appears as a whole identifier ("FROM project AS p").
  cache.InvalidateTable("PROJECT");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1);
}

// The stale-plan regression: recreating a temp table under the same
// name through the Session wrappers must drop every cached line naming
// it, so the next request re-parses against the new table rather than
// reusing a plan computed against the old one.
TEST(PlanCacheTest, TempTableDdlInvalidatesCachedPlans) {
  Server server;
  std::unique_ptr<Session> session = server.Connect();
  catalog::Schema schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
  auto rows_of = [](int64_t base) {
    std::vector<catalog::Row> rows;
    for (int i = 0; i < 4; ++i) {
      rows.push_back({Value::Int(i), Value::Int(base + i)});
    }
    return rows;
  };
  ASSERT_TRUE(session->CreateTempTable("tt", schema, rows_of(10)).ok());
  const std::string sql = "SELECT SUM(t.v) AS s FROM tt AS t";
  auto r1 = SessionQuery(session.get(), sql);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->rows[0][0].AsInt(), 46);
  ASSERT_TRUE(SessionQuery(session.get(), sql).ok());  // now cached
  EXPECT_GE(server.plan_cache()->stats().hits, 1);

  session->DropTempTable("tt");
  ASSERT_TRUE(session->CreateTempTable("tt", schema, rows_of(100)).ok());
  core::PlanCacheStats mid = server.plan_cache()->stats();
  EXPECT_GE(mid.invalidations, 1);

  auto r2 = SessionQuery(session.get(), sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].AsInt(), 406);  // fresh table, fresh plan
  // The re-execution was a cache miss: the stale line really was gone.
  EXPECT_EQ(server.plan_cache()->stats().misses, mid.misses + 1);
}

// Hammer one small cache from many threads with overlapping key sets so
// hits, misses, insertions, and evictions all interleave. TSan proves
// the mutex discipline; the assertions prove the counters stay sane.
TEST(PlanCacheTest, ConcurrentLookupsStayConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  core::PlanCache cache(4);  // smaller than the key set: eviction churn

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("SELECT * FROM t" + std::to_string(i) + " AS r");
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string& sql = keys[(t + i) % keys.size()];
        auto plan = cache.GetOrParseSql(sql);
        if (!plan.ok() || *plan == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, int64_t{kThreads} * kIters);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GE(s.evictions, 1);  // churn actually happened
}

// ---------------------------------------------------------------------------
// Connection thread-ownership latch.

TEST(ConnectionOwnershipTest, LatchReleaseAndRelatch) {
  storage::Database db;
  Connection conn(&db);
  EXPECT_EQ(conn.owner_thread(), std::thread::id());  // not yet latched

  conn.ChargeClientOps(1);  // first stats-mutating call latches
  EXPECT_EQ(conn.owner_thread(), std::this_thread::get_id());

  conn.ReleaseThreadOwnership();
  EXPECT_EQ(conn.owner_thread(), std::thread::id());

  std::thread::id worker_id;
  std::thread worker([&] {
    conn.ChargeClientOps(1);  // re-latches on the new owner
    worker_id = std::this_thread::get_id();
  });
  worker.join();
  EXPECT_EQ(conn.owner_thread(), worker_id);
  EXPECT_NE(conn.owner_thread(), std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Server / Session stress.

struct App {
  std::string name;
  std::string source;
  std::string function;
};

std::vector<App> BenchmarkApps() {
  return {{"matoso", workloads::MatosoProgram(), "findMaxScore"},
          {"jobportal", workloads::JobPortalProgram(), "jobReport"},
          {"selection", workloads::SelectionProgram(), "unfinished"},
          {"join", workloads::JoinProgram(), "userRoles"}};
}

void SetupAllApps(storage::Database* db) {
  ASSERT_TRUE(workloads::SetupMatosoDatabase(db, 40, 4).ok());
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(db, 30).ok());
  ASSERT_TRUE(workloads::SetupSelectionDatabase(db, 60, 25).ok());
  ASSERT_TRUE(workloads::SetupJoinDatabase(db, 40).ok());
}

ServerOptions AppServerOptions() {
  ServerOptions options;
  options.plan_cache_capacity = 64;
  options.optimize.transform.table_keys = {{"board", "id"},
                                           {"applicants", "id"},
                                           {"details", "id"},
                                           {"feedback1", "id"},
                                           {"education", "id"},
                                           {"project", "id"},
                                           {"wilosuser", "id"},
                                           {"role", "id"}};
  return options;
}

/// Runs every app through one session: extract via the shared cache,
/// interpret both the original and the rewritten program, and return
/// the rewritten results (one DisplayString per app). Asserts
/// original == rewritten along the way.
std::vector<std::string> RunAppsOnSession(Session* session) {
  std::vector<std::string> out;
  for (const App& app : BenchmarkApps()) {
    auto program = frontend::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    if (!program.ok()) return out;
    auto optimized = session->OptimizeCached(app.source, app.function);
    EXPECT_TRUE(optimized.ok()) << app.name;
    if (!optimized.ok()) return out;

    interp::Interpreter original(&*program, session->connection());
    auto r1 = original.Run(app.function);
    interp::Interpreter rewritten(&(*optimized)->program,
                                  session->connection());
    auto r2 = rewritten.Run(app.function);
    EXPECT_TRUE(r1.ok() && r2.ok()) << app.name;
    if (!r1.ok() || !r2.ok()) return out;
    EXPECT_EQ(r1->DisplayString(), r2->DisplayString()) << app.name;
    out.push_back(r2->DisplayString());
  }
  return out;
}

/// The tentpole stress: 8 worker threads replay the benchmark-app
/// workload through their own sessions — cached extraction, original +
/// rewritten interpretation, direct SQL reads, and per-thread temp-table
/// churn (exclusive-lock writers interleaving with shared-lock readers).
/// Every thread's results must equal a serial single-session replay.
TEST(ServerStressTest, ParallelSessionsMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5;

  Server server(AppServerOptions());
  SetupAllApps(server.db());

  // Serial baseline, computed before any worker starts.
  std::vector<std::string> expected;
  {
    std::unique_ptr<Session> session = server.Connect();
    expected = RunAppsOnSession(session.get());
  }
  ASSERT_EQ(expected.size(), BenchmarkApps().size());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.Connect();
      const std::string temp_name = "stress_tmp_" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        // Mixed read workload through the shared cache.
        std::vector<std::string> got = RunAppsOnSession(session.get());
        if (got != expected) mismatches.fetch_add(1);

        // Plain SQL reads (shared data lock).
        auto rs = SessionQuery(session.get(), 
            "SELECT COUNT(*) AS n FROM project AS p WHERE p.id >= ?",
            {Value::Int(0)});
        if (!rs.ok()) mismatches.fetch_add(1);

        // Temp-table churn (exclusive data lock), names per-thread so
        // sessions only contend on the lock, not the namespace.
        catalog::Schema schema(
            {{"id", DataType::kInt64}, {"v", DataType::kInt64}});
        std::vector<catalog::Row> rows;
        for (int r = 0; r < 8; ++r) {
          rows.push_back({Value::Int(r), Value::Int(t * 1000 + i)});
        }
        Status create = session->connection()->CreateTempTable(
            temp_name, schema, std::move(rows));
        if (!create.ok()) {
          mismatches.fetch_add(1);
        } else {
          auto sum = SessionQuery(session.get(), "SELECT SUM(t.v) AS s FROM " +
                                         temp_name + " AS t");
          if (!sum.ok()) mismatches.fetch_add(1);
          session->connection()->DropTempTable(temp_name);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, kThreads + 1);
  EXPECT_EQ(stats.sessions_closed, kThreads + 1);
  // Each worker repeated the same four extraction requests; after the
  // serial warm-up every one is a cache hit.
  EXPECT_GT(stats.plan_cache.hit_ratio(), 0.9);
  // The serialized cost is the sum over sessions; the concurrent
  // makespan is the max. With kThreads equal-cost sessions the ratio
  // approaches kThreads.
  EXPECT_GT(stats.totals.simulated_ms, stats.max_session_simulated_ms);
  EXPECT_GT(stats.totals.queries_executed, 0);
}

// Live sessions fold their published snapshot into stats() while open,
// and their exact totals exactly once when they close (no double count).
TEST(ServerStressTest, StatsFoldOnClose) {
  Server server;
  ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 10, 50).ok());

  {
    std::unique_ptr<Session> session = server.Connect();
    ASSERT_TRUE(
        SessionQuery(session.get(), "SELECT COUNT(*) AS n FROM project AS p").ok());
    ServerStats mid = server.stats();
    EXPECT_EQ(mid.sessions_opened, 1);
    EXPECT_EQ(mid.sessions_closed, 0);
    EXPECT_EQ(mid.totals.queries_executed, 1);  // live fold-in
    EXPECT_GT(mid.totals.simulated_ms, 0.0);
  }
  ServerStats done = server.stats();
  EXPECT_EQ(done.sessions_closed, 1);
  EXPECT_EQ(done.totals.queries_executed, 1);
  EXPECT_GT(done.totals.simulated_ms, 0.0);
  EXPECT_EQ(done.max_session_simulated_ms, done.totals.simulated_ms);
}


// The phoneBook program: a string fold over per-applicant point probes,
// which the cost-based selector serves by batching (parameter-table
// upload plus one demultiplexing join).
constexpr char kPhoneBookProgram[] = R"(
func phoneBook() {
  s = "";
  rs = executeQuery("SELECT * FROM applicants AS a");
  for (t : rs) {
    phone = scalar(executeQuery(
        "SELECT d.phone AS phone FROM details AS d WHERE d.aid = ?", t.id));
    s = concat(s, pair(t.name, phone));
  }
  return s;
}
)";

/// Four sessions serve the batching program at once. Every run creates
/// and drops its own parameter table, and every table create or drop
/// moves the stats epoch, so the other sessions keep re-pricing their
/// plans — which gathers table statistics over the very tables being
/// dropped. Under ASan/TSan this is the use-after-free / race check;
/// in any build every run must return the serial answer.
TEST(ServerStressTest, ConcurrentBatchingSessionsServePhoneBook) {
  constexpr int kSessions = 4;
  constexpr int kIters = 8;
  Server server(AppServerOptions());
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(server.db(), 200).ok());
  auto program = frontend::ParseProgram(kPhoneBookProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  std::string expected;
  {
    std::unique_ptr<Session> session = server.Connect();
    auto plan = session->SelectPlan(kPhoneBookProgram, "phoneBook");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ((*plan)->chosen, core::AlternativeKind::kBatching);
    interp::Interpreter interp(&*program, session.get());
    auto ret = interp.Run("phoneBook");
    ASSERT_TRUE(ret.ok()) << ret.status().ToString();
    expected = ret->DisplayString();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kSessions; ++t) {
    workers.emplace_back([&] {
      std::unique_ptr<Session> session = server.Connect();
      for (int i = 0; i < kIters; ++i) {
        auto plan = session->SelectPlan(kPhoneBookProgram, "phoneBook");
        if (!plan.ok() ||
            (*plan)->chosen != core::AlternativeKind::kBatching) {
          failures.fetch_add(1);
          continue;
        }
        interp::Interpreter interp(&*program, session.get());
        interp.set_batching(true);
        auto ret = interp.Run("phoneBook");
        if (!ret.ok() || ret->DisplayString() != expected) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // Every parameter table was dropped again.
  for (const std::string& name : server.db()->TableNames()) {
    EXPECT_EQ(name.rfind("__batch_p", 0), std::string::npos) << name;
  }
}

/// The race under the batching crash, without the interpreter around
/// it: one thread churns a temp table (create, drop) while another
/// gathers table statistics in a loop. Statistics must hold each table
/// through an owning reference for the whole read, so a drop in the
/// middle cannot free it (ASan reports a use-after-free otherwise).
TEST(ServerStressTest, TableStatsSurviveConcurrentTempTableDrops) {
  storage::Database db;
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(&db, 50).ok());
  std::atomic<bool> done{false};
  std::thread churn([&] {
    Connection conn(&db);
    const catalog::Schema schema(
        {{"id", DataType::kInt64}, {"v", DataType::kInt64}});
    for (int i = 0; i < 2000; ++i) {
      std::vector<catalog::Row> rows;
      for (int r = 0; r < 256; ++r) {
        rows.push_back({Value::Int(r), Value::Int(i)});
      }
      EXPECT_TRUE(conn.CreateTempTable("churn_p", schema, std::move(rows)).ok());
      conn.DropTempTable("churn_p");
    }
    done.store(true);
  });
  int64_t gathers = 0;
  while (!done.load()) {
    core::TableStats stats = GatherTableStats(&db);
    EXPECT_EQ(stats.table_rows.at("applicants"), 50);
    auto churned = stats.table_rows.find("churn_p");
    if (churned != stats.table_rows.end()) {
      EXPECT_EQ(churned->second, 256);
    }
    ++gathers;
  }
  churn.join();
  EXPECT_GT(gathers, 0);
}

/// Forwards to a Connection and records every parameter table the
/// interpreter creates.
class TableNameRecorder : public Client {
 public:
  explicit TableNameRecorder(Connection* conn) : conn_(conn) {}
  Outcome Perform(Request req) override { return conn_->Perform(std::move(req)); }
  void ChargeClientOps(int64_t ops) override { conn_->ChargeClientOps(ops); }
  Status CreateTempTable(const std::string& name, catalog::Schema schema,
                         std::vector<catalog::Row> rows) override {
    names_.push_back(name);
    return conn_->CreateTempTable(name, std::move(schema), std::move(rows));
  }
  void DropTempTable(const std::string& name) override {
    conn_->DropTempTable(name);
  }
  const std::vector<std::string>& names() const { return names_; }

 private:
  Connection* conn_;
  std::vector<std::string> names_;
};

/// Two interpreters batch different loops over one database at the
/// same time. Parameter-table names come from one process-wide
/// sequence, so no two runs ever share a table name: neither can read,
/// replace or drop the other's parameters.
TEST(ServerStressTest, ConcurrentInterpretersUseDistinctParameterTables) {
  constexpr int kRuns = 20;
  storage::Database db;
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(&db, 120).ok());
  const std::string source = R"(
func phones(m) {
  s = "";
  rs = executeQuery("SELECT * FROM applicants AS a WHERE a.mode = ?", m);
  for (t : rs) {
    phone = scalar(executeQuery(
        "SELECT d.phone AS phone FROM details AS d WHERE d.aid = ?", t.id));
    s = concat(s, pair(t.id, phone));
  }
  return s;
}
)";
  auto program = frontend::ParseProgram(source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const std::vector<interp::RtValue> modes[2] = {
      {interp::RtValue(Value::String("online"))},
      {interp::RtValue(Value::String("paper"))}};

  // Serial, unbatched answers.
  std::string expected[2];
  for (int i = 0; i < 2; ++i) {
    Connection conn(&db);
    interp::Interpreter interp(&*program, &conn);
    auto ret = interp.Run("phones", modes[i]);
    ASSERT_TRUE(ret.ok()) << ret.status().ToString();
    expected[i] = ret->DisplayString();
  }
  ASSERT_NE(expected[0], expected[1]);

  std::atomic<int> failures{0};
  std::vector<std::string> names[2];
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      Connection conn(&db);
      for (int run = 0; run < kRuns; ++run) {
        // A fresh interpreter per run, as a server serves each request.
        TableNameRecorder client(&conn);
        interp::Interpreter interp(&*program, &client);
        interp.set_batching(true);
        auto ret = interp.Run("phones", modes[i]);
        if (!ret.ok() || ret->DisplayString() != expected[i]) {
          failures.fetch_add(1);
        }
        names[i].insert(names[i].end(), client.names().begin(),
                        client.names().end());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  std::set<std::string> distinct;
  for (const auto& list : names) distinct.insert(list.begin(), list.end());
  // Every run batched its loop through exactly one parameter table, and
  // no name was handed out twice.
  EXPECT_EQ(names[0].size() + names[1].size(), 2u * kRuns);
  EXPECT_EQ(distinct.size(), 2u * kRuns);
}

/// Scans lend MVCC versions by pointer for the whole query. Two reader
/// sessions loop over the lending shapes (Sort+Limit, a filter, a hash
/// join and a group-by, all fanned out over 4 shards) while a writer
/// re-stamps the very rows they read with value-preserving UPDATEs and
/// vacuums after every commit, so versions a reader has lent are
/// superseded, retired and swept mid-query. A reader's pin keeps its
/// own versions alive, so every result must equal the fixed bag the
/// quiet database produced; under ASan a lent version freed too early
/// shows up as a use-after-free.
TEST(ServerStressTest, LentRowsSurviveConcurrentVacuum) {
  constexpr int kReaders = 2;
  constexpr int kIters = 80;
  ServerOptions options;
  options.database.shard_count = 4;
  options.exec_threads = 2;
  options.scheduler_workers = 3;
  options.parallel_threshold = 0;
  Server server(options);
  storage::Database* db = server.db();
  auto t = db->CreateTable("t", catalog::Schema({{"id", DataType::kInt64},
                                                 {"g", DataType::kInt64},
                                                 {"v", DataType::kInt64},
                                                 {"name", DataType::kString}}));
  ASSERT_TRUE(t.ok());
  for (int64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE((*t)->Insert({Value::Int(i), Value::Int(i % 7),
                              Value::Int((i * 37) % 1000),
                              Value::String("r" + std::to_string(i))})
                    .ok());
  }
  ASSERT_TRUE((*t)->DeclareUniqueKey("id").ok());
  auto d = db->CreateTable(
      "d", catalog::Schema({{"id", DataType::kInt64},
                            {"label", DataType::kString}}));
  ASSERT_TRUE(d.ok());
  for (int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(
        (*d)->Insert({Value::Int(i), Value::String("g" + std::to_string(i))})
            .ok());
  }

  const std::vector<std::string> queries = {
      "SELECT t.id AS id, t.name AS name FROM t AS t WHERE t.v > 500 "
      "ORDER BY t.v DESC LIMIT 6",
      "SELECT t.id AS id, t.name AS name FROM t AS t WHERE t.g = 3",
      "SELECT d.label AS label, t.v AS v FROM d AS d JOIN t AS t "
      "ON t.g = d.id WHERE t.v < 200",
      "SELECT t.g AS g, SUM(t.v) AS s, COUNT(*) AS c FROM t AS t "
      "GROUP BY t.g",
  };
  auto bag = [](const exec::ResultSet& rs) {
    std::multiset<std::string> rows;
    for (const catalog::Row& row : rs.rows) {
      rows.insert(catalog::RowToString(row));
    }
    return rows;
  };
  std::vector<std::multiset<std::string>> expected;
  {
    std::unique_ptr<Session> session = server.Connect();
    for (const std::string& sql : queries) {
      auto rs = SessionQuery(session.get(), sql);
      ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      ASSERT_FALSE(rs->rows.empty()) << sql;
      expected.push_back(bag(*rs));
    }
  }

  std::atomic<int> readers_left{kReaders};
  std::atomic<int> mismatches{0};
  std::atomic<int> commits{0};
  std::thread writer([&] {
    std::unique_ptr<Session> session = server.Connect();
    for (int64_t round = 0; readers_left.load() > 0; ++round) {
      EXPECT_TRUE(session->Execute(Request::Begin()).ok());
      Outcome upd = session->Execute(Request::Dml(
          "UPDATE t SET v = v WHERE g = " + std::to_string(round % 7)));
      EXPECT_TRUE(upd.ok()) << upd.status.ToString();
      EXPECT_TRUE(session->Execute(Request::Commit()).ok());
      commits.fetch_add(1);
      db->Vacuum();
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::unique_ptr<Session> session = server.Connect();
      for (int it = 0; it < kIters; ++it) {
        const size_t q = static_cast<size_t>(it + r) % queries.size();
        auto rs = SessionQuery(session.get(), queries[q]);
        if (!rs.ok() || bag(*rs) != expected[q]) mismatches.fetch_add(1);
      }
      readers_left.fetch_sub(1);
    });
  }
  for (std::thread& th : readers) th.join();
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(commits.load(), 0);
}

}  // namespace
}  // namespace eqsql::net
