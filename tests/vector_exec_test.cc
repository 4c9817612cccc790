// Batch-vs-row differential harness — the acceptance artifact of the
// vectorized execution path. The property: for any query and any data,
// the vectorized engine (exec::ExecMode::kVector) and the row engine
// (kRow) produce byte-identical observable outcomes — result-set
// schema, row contents in order, error status on failure, AND the
// simulated cost counters (rows/bytes transferred, simulated_ms down
// to the last bit: vector operators charge the exact per-row costs of
// their row counterparts, in the same order).
//
// Two populations prove it:
//  1. Hand-written edge cases aimed at the batch machinery itself:
//     empty tables, single-row shards, row counts straddling
//     exec::kBatchCapacity (1023/1024/1025), NULL-heavy columns,
//     runtime errors surfacing mid-batch, and tombstoned MVCC versions
//     punched into the middle of a chunk by DELETE/UPDATE.
//  2. The fuzzer's program families: every family's generated programs
//     run to completion on both engines with identical return values,
//     print streams, and transfer counters.
// Every case sweeps shard counts 1, 2, and 8 with the vector engine's
// shard fan-out forced on (threshold 0) whenever a pool exists, so the
// fanned-out fold, the inline fold, and the row fallback paths all get
// compared against the serial row reference. scripts/verify.sh runs
// this suite under TSan too.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/hash.h"
#include "exec/batch.h"
#include "exec/exec_mode.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "fuzz/oracle.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace eqsql {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;

constexpr size_t kShardCounts[] = {1, 2, 8};

struct QuerySpec {
  std::string sql;
  std::vector<Value> params;
};

/// One query outcome flattened to a comparable string: schema, every
/// row in order, and the connection's cost counters (full precision —
/// the parity claim covers the simulated clock). Errors render their
/// full status so both engines must fail identically too.
std::string RenderOutcome(const net::Outcome& out,
                          const net::ConnectionStats& stats) {
  std::ostringstream s;
  s.precision(17);
  if (!out.ok()) {
    s << "error: " << out.status.ToString() << "\n";
  } else if (out.kind == net::Outcome::Kind::kResultSet) {
    s << "schema:";
    for (const Column& c : out.rows.schema.columns()) {
      s << " " << c.name << ":" << catalog::DataTypeToString(c.type);
    }
    s << "\n";
    for (const Row& row : out.rows.rows) {
      for (const Value& v : row) s << v.ToString() << "|";
      s << "\n";
    }
    s << "wire=" << out.rows.WireSize() << "\n";
  } else {
    s << "rowcount=" << out.row_count << "\n";
  }
  s << "stats: queries=" << stats.queries_executed
    << " rows=" << stats.rows_transferred
    << " bytes=" << stats.bytes_transferred << " ms=" << stats.simulated_ms
    << "\n";
  return s.str();
}

/// Runs one query on a fresh connection in the given mode; the fresh
/// connection makes the trailing stats line exactly this query's cost.
std::string RunOne(storage::Database* db, exec::WorkerPool* pool,
                   const QuerySpec& q, exec::ExecMode mode) {
  net::Connection conn(db);
  conn.set_exec_mode(mode);
  if (pool != nullptr) {
    conn.set_worker_pool(pool);
    conn.set_parallel_threshold(0);  // force the parallel operators on
  }
  net::Outcome out = conn.Perform(net::Request::Query(q.sql, q.params));
  return RenderOutcome(out, conn.stats());
}

using SetupFn = std::function<void(storage::Database*)>;

/// The differential core: builds a fresh database per shard count,
/// applies `setup`, then requires every query to render identically on
/// both engines.
void SweepShards(const SetupFn& setup, const std::vector<QuerySpec>& queries,
                 const std::string& label) {
  for (size_t shards : kShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    setup(&db);
    std::unique_ptr<exec::WorkerPool> pool;
    if (shards > 1) pool = std::make_unique<exec::WorkerPool>(2);
    for (const QuerySpec& q : queries) {
      std::string row = RunOne(&db, pool.get(), q, exec::ExecMode::kRow);
      std::string vec = RunOne(&db, pool.get(), q, exec::ExecMode::kVector);
      EXPECT_EQ(vec, row) << label << " shards=" << shards
                          << " query: " << q.sql;
    }
  }
}

/// The standard fact table: id, group key, two int values (w carries
/// zeroes for division-error cases), a nullable int, and a string.
Schema FactSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"fk", DataType::kInt64},
                 {"v", DataType::kInt64},
                 {"w", DataType::kInt64},
                 {"nv", DataType::kInt64},
                 {"name", DataType::kString}});
}

storage::Table* MakeFact(storage::Database* db, size_t n) {
  auto table = db->CreateTable("fact", FactSchema());
  EXPECT_TRUE(table.ok());
  for (size_t i = 0; i < n; ++i) {
    int64_t id = static_cast<int64_t>(i);
    Row row = {Value::Int(id),
               Value::Int(id % 4),
               Value::Int((id * 7) % 29 - 11),
               Value::Int(id % 5 + 1),
               i % 3 == 0 ? Value::Int(id % 13) : Value::Null(),
               Value::String("n" + std::to_string(id))};
    EXPECT_TRUE((*table)->Insert(std::move(row)).ok());
  }
  return *table;
}

/// The query mix every data shape runs: scan, filter, projection
/// arithmetic, int group-by fold, scalar aggregates, and the operators
/// that fall back to the row engine (ORDER BY, DISTINCT, EXISTS) —
/// fallbacks must be differential no-ops, not differently-behaving
/// paths.
std::vector<QuerySpec> StandardQueries() {
  return {
      {"SELECT * FROM fact AS m", {}},
      {"SELECT * FROM fact AS m WHERE m.v > 0", {}},
      {"SELECT * FROM fact AS m WHERE m.v > ? AND m.fk = ?",
       {Value::Int(-3), Value::Int(2)}},
      {"SELECT m.v + m.w AS s, m.v * 2 AS d FROM fact AS m", {}},
      {"SELECT m.fk, COUNT(*) AS c, MAX(m.v) AS mx, SUM(m.w) AS sw "
       "FROM fact AS m GROUP BY m.fk",
       {}},
      {"SELECT m.fk, MIN(m.v) AS mn FROM fact AS m WHERE m.v > 0 "
       "GROUP BY m.fk",
       {}},
      {"SELECT COUNT(*) AS c FROM fact AS m", {}},
      {"SELECT MAX(m.v) AS mx FROM fact AS m WHERE m.fk = 1", {}},
      {"SELECT SUM(m.nv) AS s FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m ORDER BY m.v DESC LIMIT 3", {}},
      {"SELECT DISTINCT m.fk AS g FROM fact AS m", {}},
      {"SELECT m.name AS name FROM fact AS m WHERE m.nv IS NULL "
       "AND m.v < 0",
       {}},
      {"SELECT CASE WHEN m.v > 0 THEN m.v ELSE 0 - m.v END AS av "
       "FROM fact AS m",
       {}},
      {"SELECT GREATEST(m.v, m.w, m.nv) AS g FROM fact AS m", {}},
  };
}

// ---------------------------------------------------------------------------
// Hand-written edge cases.

TEST(VectorExecTest, EmptyTables) {
  SweepShards([](storage::Database* db) { MakeFact(db, 0); },
              StandardQueries(), "empty");
}

TEST(VectorExecTest, SingleRowTable) {
  SweepShards([](storage::Database* db) { MakeFact(db, 1); },
              StandardQueries(), "single-row");
}

// At 8 shards an 8-row table leaves ~1 row per shard — every per-shard
// cursor produces a 1-row batch (or none), the smallest parallel fold.
TEST(VectorExecTest, SingleRowShards) {
  SweepShards([](storage::Database* db) { MakeFact(db, 8); },
              StandardQueries(), "one-row-per-shard");
}

// Row counts straddling exec::kBatchCapacity: one lane short of a full
// batch, exactly one full batch, and a full batch plus one spill lane.
TEST(VectorExecTest, BatchBoundaryRowCounts) {
  static_assert(exec::kBatchCapacity == 1024,
                "edge-case row counts below assume 1024-row batches");
  for (size_t n : {size_t{1023}, size_t{1024}, size_t{1025}}) {
    SweepShards([n](storage::Database* db) { MakeFact(db, n); },
                StandardQueries(), "rows=" + std::to_string(n));
  }
}

// A column that is mostly NULL stresses the boxed lanes: three-valued
// filter logic, NULL-propagating arithmetic, IS NULL, and aggregates
// that skip NULL inputs must agree lane for lane.
TEST(VectorExecTest, NullHeavyColumns) {
  auto setup = [](storage::Database* db) {
    auto table = db->CreateTable("fact", FactSchema());
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < 1500; ++i) {
      int64_t id = static_cast<int64_t>(i);
      // ~90% NULL in nv; v itself goes NULL-heavy on a second stripe.
      Row row = {Value::Int(id),
                 Value::Int(id % 3),
                 i % 7 == 0 ? Value::Null() : Value::Int(id % 23 - 11),
                 Value::Int(id % 4 + 1),
                 i % 10 == 0 ? Value::Int(id % 5) : Value::Null(),
                 Value::String("s" + std::to_string(id % 11))};
      ASSERT_TRUE((*table)->Insert(std::move(row)).ok());
    }
  };
  std::vector<QuerySpec> queries = StandardQueries();
  queries.push_back({"SELECT m.nv + m.v AS s FROM fact AS m", {}});
  queries.push_back(
      {"SELECT m.id AS id FROM fact AS m WHERE m.nv > 2 OR m.v > 9", {}});
  queries.push_back(
      {"SELECT m.fk, COUNT(*) AS c, SUM(m.nv) AS s, MAX(m.v) AS mx "
       "FROM fact AS m WHERE m.nv IS NULL GROUP BY m.fk",
       {}});
  SweepShards(setup, queries, "null-heavy");
}

// Runtime errors must surface identically: same status, raised at the
// same logical row, with the same cost charged before the failure. The
// zero divisor sits mid-batch (row 700 of 1100), so the vector engine
// has already produced full clean batches before the poisoned lane.
TEST(VectorExecTest, MidBatchRuntimeErrors) {
  auto setup = [](storage::Database* db) {
    auto table = db->CreateTable("fact", FactSchema());
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < 1100; ++i) {
      int64_t id = static_cast<int64_t>(i);
      Row row = {Value::Int(id),
                 Value::Int(id % 4),
                 Value::Int(id % 19 + 1),
                 // One zero divisor, mid-batch.
                 Value::Int(i == 700 ? 0 : id % 5 + 1),
                 Value::Null(),
                 Value::String("e")};
      ASSERT_TRUE((*table)->Insert(std::move(row)).ok());
    }
  };
  std::vector<QuerySpec> queries = {
      // Integer division by zero yields NULL (MySQL semantics), so
      // these are value-parity cases, not failures — the boxed lane
      // must agree with the row engine's NULL.
      {"SELECT m.v / m.w AS q FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.v / m.w > 2", {}},
      {"SELECT m.fk, SUM(m.v / m.w) AS s FROM fact AS m GROUP BY m.fk", {}},
      // String arithmetic is a genuine runtime error: both engines
      // must fail with the same status at the same first row.
      {"SELECT m.v + m.name AS bad FROM fact AS m", {}},
      {"SELECT m.id AS id FROM fact AS m WHERE m.name > 3", {}},
  };
  SweepShards(setup, queries, "mid-batch-errors");
}

// DELETE and UPDATE punch tombstoned versions into the middle of what
// a batch scan covers: the cursor must skip invisible versions without
// disturbing seq order, chunk sizes, or the charged scan cost.
TEST(VectorExecTest, TombstonedVersionsMidBatch) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 1100);
    net::Connection admin(db);
    // A contiguous hole spanning a batch boundary, scattered single
    // holes, and an update stripe whose superseded versions are also
    // mid-chain tombstones at the read snapshot.
    auto dml = [&](const std::string& sql) {
      net::Outcome out = admin.Perform(net::Request::Statement(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    };
    dml("DELETE FROM fact WHERE id >= 990 AND id < 1050");
    dml("DELETE FROM fact WHERE v = 3");
    dml("UPDATE fact SET v = v + 100 WHERE id >= 200 AND id < 300");
  };
  SweepShards(setup, StandardQueries(), "tombstoned");
}

// Same data, after Vacuum() retired the dead versions: the contract
// must hold both while tombstones sit in the version chains and after
// GC compacts them away.
TEST(VectorExecTest, TombstonesSurviveVacuum) {
  auto setup = [](storage::Database* db) {
    MakeFact(db, 1100);
    net::Connection admin(db);
    auto dml = [&](const std::string& sql) {
      net::Outcome out = admin.Perform(net::Request::Statement(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    };
    dml("DELETE FROM fact WHERE id >= 990 AND id < 1050");
    dml("UPDATE fact SET v = 0 - v WHERE fk = 1");
    db->Vacuum();
  };
  SweepShards(setup, StandardQueries(), "post-vacuum");
}

// Predicate and fold errors in one aggregation: row 0 passes the filter
// through the short-circuit and fails the fold ('x' * 2), every later
// row fails the filter itself ('x' > 1). The serial engine filters the
// whole scan before it folds a row, so the predicate error wins even
// though the fold error has the lower seq — with or without a pool,
// in both engines. Every run charges the full 8-row scan before the
// error surfaces, so storage.scan.* is pool-invariant on the error path
// too.
TEST(VectorExecTest, ErrorPrecedenceAndScanChargesArePoolInvariant) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = 2;
  storage::Database db(dbo);
  auto table = db.CreateTable("f", Schema({{"id", DataType::kInt64},
                                           {"fk", DataType::kInt64},
                                           {"name", DataType::kString}}));
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::Int(i), Value::Int(i == 0 ? 1 : 2),
                              Value::String("x")})
                    .ok());
  }
  const char* kWhere = " FROM f AS m WHERE m.fk = 1 OR m.name > 1";
  const std::string queries[] = {
      std::string("SELECT SUM(m.name * 2) AS s") + kWhere,
      std::string("SELECT m.fk, SUM(m.name * 2) AS s") + kWhere +
          " GROUP BY m.fk",
      std::string("SELECT *") + kWhere,
  };
  exec::WorkerPool pool(2);
  for (const std::string& sql : queries) {
    std::string reference;
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
      for (bool pooled : {false, true}) {
        obs::MetricsRegistry reg;
        net::Connection conn(&db);
        conn.set_exec_mode(mode);
        conn.set_metrics(&reg);
        if (pooled) {
          conn.set_worker_pool(&pool);
          conn.set_parallel_threshold(0);
        }
        net::Outcome out = conn.Perform(net::Request::Query(sql));
        const obs::MetricsSnapshot snap = reg.Snapshot();
        const std::string run =
            RenderOutcome(out, conn.stats()) +
            "scan rows=" + std::to_string(snap.counters.at("storage.scan.rows")) +
            " bytes=" + std::to_string(snap.counters.at("storage.scan.bytes"));
        const std::string where = sql + " mode=" + exec::ExecModeName(mode) +
                                  (pooled ? " pooled" : " serial");
        EXPECT_NE(run.find("error: "), std::string::npos) << where << "\n" << run;
        EXPECT_NE(run.find("cannot compare"), std::string::npos)
            << where << "\n" << run;
        EXPECT_NE(run.find("scan rows=8 "), std::string::npos)
            << where << "\n" << run;
        if (reference.empty()) reference = run;
        EXPECT_EQ(run, reference) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Join, Sort and top-N Limit edge cases. Both engines run the same join
// and sort operators, so beyond mode parity every case pins its rows
// (or its first error) outright, at 1 and 4 shards.

constexpr size_t kEdgeShardCounts[] = {1, 4};

/// l(id, k, name), r(id, k, v, s) and rd(id, kd): NULL keys on both
/// sides, a build key shared by two right rows (k = 1 on r.10 and
/// r.12), rows without a partner on either side, and double keys in rd
/// (1.0 equals the int key 1).
void SetupJoinEdgeTables(storage::Database* db) {
  auto l = db->CreateTable("l", Schema({{"id", DataType::kInt64},
                                        {"k", DataType::kInt64},
                                        {"name", DataType::kString}}));
  ASSERT_TRUE(l.ok());
  const Value null = Value::Null();
  for (const Row& row : std::vector<Row>{
           {Value::Int(1), Value::Int(1), Value::String("x")},
           {Value::Int(2), null, Value::String("y")},
           {Value::Int(3), Value::Int(2), Value::String("z")},
           {Value::Int(4), Value::Int(9), Value::String("w")},
           {Value::Int(5), Value::Int(1), Value::String("u")}}) {
    ASSERT_TRUE((*l)->Insert(row).ok());
  }
  auto r = db->CreateTable("r", Schema({{"id", DataType::kInt64},
                                        {"k", DataType::kInt64},
                                        {"v", DataType::kInt64},
                                        {"s", DataType::kString}}));
  ASSERT_TRUE(r.ok());
  for (const Row& row : std::vector<Row>{
           {Value::Int(10), Value::Int(1), Value::Int(5), Value::String("a")},
           {Value::Int(11), Value::Int(2), Value::Int(0), Value::String("b")},
           {Value::Int(12), Value::Int(1), Value::Int(7), Value::String("c")},
           {Value::Int(13), null, Value::Int(3), Value::String("d")},
           {Value::Int(14), Value::Int(3), null, Value::String("e")}}) {
    ASSERT_TRUE((*r)->Insert(row).ok());
  }
  auto rd = db->CreateTable(
      "rd", Schema({{"id", DataType::kInt64}, {"kd", DataType::kDouble}}));
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE((*rd)->Insert({Value::Int(20), Value::Double(1.0)}).ok());
  ASSERT_TRUE((*rd)->Insert({Value::Int(21), Value::Double(2.5)}).ok());
}

/// Result rows only ("v|v|" per row), or "error: <status>".
std::string RenderRows(const net::Outcome& out) {
  if (!out.ok()) return "error: " + out.status.ToString();
  std::string s;
  for (const Row& row : out.rows.rows) {
    for (const Value& v : row) s += v.ToString() + "|";
    s += "\n";
  }
  return s;
}

/// Runs `sql` in both modes at 1 and 4 shards. The modes must agree on
/// the full outcome (rows, schema, simulated cost), and the rows must
/// equal `expected` — or, for an expected "error: ...", contain it.
void ExpectEdgeCase(const std::string& sql, const std::string& expected) {
  for (size_t shards : kEdgeShardCounts) {
    storage::DatabaseOptions dbo;
    dbo.shard_count = shards;
    storage::Database db(dbo);
    SetupJoinEdgeTables(&db);
    std::unique_ptr<exec::WorkerPool> pool;
    if (shards > 1) pool = std::make_unique<exec::WorkerPool>(2);
    std::string full[2];
    int i = 0;
    for (exec::ExecMode mode : {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
      net::Connection conn(&db);
      conn.set_exec_mode(mode);
      if (pool != nullptr) {
        conn.set_worker_pool(pool.get());
        conn.set_parallel_threshold(0);
      }
      net::Outcome out = conn.Perform(net::Request::Query(sql));
      const std::string rows = RenderRows(out);
      const std::string where = sql + " mode=" + exec::ExecModeName(mode) +
                                " shards=" + std::to_string(shards);
      if (expected.rfind("error: ", 0) == 0) {
        EXPECT_NE(rows.find(expected.substr(7)), std::string::npos)
            << where << "\n" << rows;
        EXPECT_EQ(rows.rfind("error: ", 0), 0u) << where << "\n" << rows;
      } else {
        EXPECT_EQ(rows, expected) << where;
      }
      full[i++] = RenderOutcome(out, conn.stats());
    }
    EXPECT_EQ(full[1], full[0]) << sql << " shards=" << shards;
  }
}

// NULL keys never match, and a build key shared by several right rows
// emits them in right input order under each left row, in left order.
TEST(VectorExecTest, JoinNullAndDuplicateKeysKeepOrder) {
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k",
      "1|10|\n1|12|\n3|11|\n5|10|\n5|12|\n");
  // The key sides swapped in the predicate classify the same way.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON b.k = a.k",
      "1|10|\n1|12|\n3|11|\n5|10|\n5|12|\n");
}

TEST(VectorExecTest, LeftOuterJoinPadsUnmatchedRows) {
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid, b.s AS s FROM l AS a "
      "LEFT OUTER JOIN r AS b ON a.k = b.k",
      "1|10|'a'|\n1|12|'c'|\n2|NULL|NULL|\n3|11|'b'|\n4|NULL|NULL|\n"
      "5|10|'a'|\n5|12|'c'|\n");
  // A residual that rejects every pair of a left row pads it too.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a "
      "LEFT OUTER JOIN r AS b ON a.k = b.k AND b.v > 6",
      "1|12|\n2|NULL|\n3|NULL|\n4|NULL|\n5|12|\n");
}

// An int key matches the equal double (1 = 1.0) from either side.
TEST(VectorExecTest, JoinIntKeyMatchesEqualDouble) {
  ExpectEdgeCase(
      "SELECT a.id AS lid, d.id AS rid FROM l AS a JOIN rd AS d "
      "ON a.k = d.kd",
      "1|20|\n5|20|\n");
  ExpectEdgeCase(
      "SELECT d.id AS lid, a.id AS rid FROM rd AS d JOIN l AS a "
      "ON d.kd = a.k",
      "20|1|\n20|5|\n");
}

// A right-only residual is evaluated once per right row ahead of the
// probe, but its error surfaces only when a key-matching pair reaches
// it — and then the first such pair in output order wins.
TEST(VectorExecTest, JoinRightOnlyResidualErrorsOnlyWhenReached) {
  // r.14 (k = 3) matches no left row: its comparison error never shows.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND CASE WHEN b.id = 14 THEN b.s > 1 ELSE b.v > 0 END",
      "1|10|\n1|12|\n5|10|\n5|12|\n");
  // Pairs in output order: (1,10) passes, (1,12) fails first on 'c'.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND CASE WHEN b.id >= 11 THEN b.s > 1 ELSE 1 = 1 END",
      "error: cannot compare 'c' with 1");
  // A FALSE earlier conjunct short-circuits the erroring one.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND b.v > 100 AND b.s > 1",
      "");
}

// Residual terms over both sides, and side-only terms ordered around
// them, fold exactly like the AND of the conjuncts.
TEST(VectorExecTest, JoinResidualSpanningBothSides) {
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND b.v > a.id",
      "1|10|\n1|12|\n5|12|\n");
  // Left-only term after a right-only one: reached (and failing) only
  // for pairs whose b.v > 6.
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND b.v > 6 AND a.name > 1",
      "error: cannot compare 'x' with 1");
  ExpectEdgeCase(
      "SELECT a.id AS lid, b.id AS rid FROM l AS a JOIN r AS b "
      "ON a.k = b.k AND b.v > 6 AND a.id + b.v > 11",
      "5|12|\n");
}

// Self-join: the same table under two aliases, every column kept under
// its a.* / b.* name, residual on the b side only.
TEST(VectorExecTest, SelfJoinKeepsQualifiedNames) {
  ExpectEdgeCase(
      "SELECT * FROM r AS a JOIN r AS b ON a.k = b.k AND a.id < b.id",
      "10|1|5|'a'|12|1|7|'c'|\n");
  ExpectEdgeCase(
      "SELECT a.id AS aid, b.id AS bid FROM r AS a JOIN r AS b "
      "ON a.k = b.k AND b.s > 'b'",
      "10|12|\n12|12|\n14|14|\n");
}

TEST(VectorExecTest, LimitZeroAndBeyondInput) {
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.v DESC LIMIT 0",
                 "");
  ExpectEdgeCase("SELECT * FROM r AS b ORDER BY b.v DESC LIMIT 0", "");
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.v DESC LIMIT 10",
                 "12|\n10|\n13|\n11|\n14|\n");
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.v DESC LIMIT 5",
                 "12|\n10|\n13|\n11|\n14|\n");
}

// NULL sorts first; tied keys keep input order under both directions
// and under a top-N prefix.
TEST(VectorExecTest, SortTiesAndNullKeys) {
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.k",
                 "13|\n10|\n12|\n11|\n14|\n");
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.k LIMIT 2",
                 "13|\n10|\n");
  ExpectEdgeCase("SELECT b.id AS id FROM r AS b ORDER BY b.k DESC LIMIT 3",
                 "14|\n11|\n10|\n");
  ExpectEdgeCase(
      "SELECT b.id AS id, b.k AS k FROM r AS b ORDER BY b.k DESC, b.id DESC "
      "LIMIT 4",
      "14|3|\n11|2|\n12|1|\n10|1|\n");
  // Mixed int/double keys compare by value.
  ExpectEdgeCase(
      "SELECT a.id AS id FROM l AS a ORDER BY CASE WHEN a.id = 3 THEN 1.5 "
      "ELSE a.k END DESC LIMIT 3",
      "4|\n3|\n1|\n");
}

// The first failing key of the first failing row is the error — row
// 10's second key, not row 12's first — with or without a top-N Limit.
TEST(VectorExecTest, SortKeyErrorIsFirstInRowOrder) {
  const char* keys =
      " ORDER BY CASE WHEN b.id >= 12 THEN b.s * 2 ELSE 0 END, b.s * 3";
  ExpectEdgeCase(std::string("SELECT b.id AS id FROM r AS b") + keys,
                 "error: arithmetic on non-numeric values: 'a' vs 3");
  ExpectEdgeCase(std::string("SELECT b.id AS id FROM r AS b") + keys +
                     " LIMIT 1",
                 "error: arithmetic on non-numeric values: 'a' vs 3");
}

// ---------------------------------------------------------------------------
// Fuzzer families: every program family runs on both engines with
// identical observable behavior.

/// Interprets the case's function in the given mode; signature covers
/// return value, print stream, and the connection's cost counters.
Result<std::string> RunProgram(const fuzz::FuzzCase& c, size_t shards,
                               exec::ExecMode mode) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  storage::Database db(dbo);
  EQSQL_RETURN_IF_ERROR(fuzz::BuildDatabase(c, &db));
  auto program = frontend::ParseProgram(c.source);
  if (!program.ok()) return program.status();

  net::Connection conn(&db);
  conn.set_exec_mode(mode);
  std::unique_ptr<exec::WorkerPool> pool;
  if (shards > 1) {
    pool = std::make_unique<exec::WorkerPool>(2);
    conn.set_worker_pool(pool.get());
    conn.set_parallel_threshold(0);
  }
  interp::Interpreter interp(&*program, &conn);
  auto result = interp.Run(c.function);
  if (!result.ok()) return result.status();

  std::ostringstream out;
  out.precision(17);
  out << "return=" << result->DisplayString() << "\n";
  for (const std::string& line : interp.printed()) out << "print=" << line << "\n";
  const net::ConnectionStats& stats = conn.stats();
  out << "queries=" << stats.queries_executed
      << " rows=" << stats.rows_transferred
      << " bytes=" << stats.bytes_transferred << " ms=" << stats.simulated_ms
      << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Lending edge cases. A scan lends its visible MVCC versions by pointer
// and operators pass the references up until Execute copies them into
// the result. These scripts reuse one lent version in two places, keep
// lent rows across a top-N padding boundary, push lent rows as outer
// frames, and lend a transaction's own pending versions. Each script
// runs on both engines at 1 and 4 shards, without and with a pool at
// threshold 0, on a fresh database per run, and every run must render
// identically: rows, status, simulated_ms and storage.scan.*.

std::string RunLendingScript(size_t rows, size_t shards,
                             exec::WorkerPool* pool, exec::ExecMode mode,
                             const std::vector<net::Request>& script) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  storage::Database db(dbo);
  MakeFact(&db, rows);
  obs::MetricsRegistry reg;
  net::Connection conn(&db);
  conn.set_exec_mode(mode);
  conn.set_metrics(&reg);
  if (pool != nullptr) {
    conn.set_worker_pool(pool);
    conn.set_parallel_threshold(0);
  }
  std::string out;
  for (const net::Request& req : script) {
    net::Outcome o = conn.Perform(req);
    const obs::MetricsSnapshot snap = reg.Snapshot();
    auto counter = [&](const char* name) {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? int64_t{0} : it->second;
    };
    out += req.sql + "\n" + RenderOutcome(o, conn.stats()) +
           "scan rows=" + std::to_string(counter("storage.scan.rows")) +
           " bytes=" + std::to_string(counter("storage.scan.bytes")) + "\n";
  }
  return out;
}

/// `rows` defaults past one batch (kBatchCapacity) so lent references
/// cross a chunk boundary.
void ExpectLendingParity(const std::vector<net::Request>& script,
                         size_t rows = 1100) {
  exec::WorkerPool pool(2);
  std::string reference;
  for (size_t shards : kEdgeShardCounts) {
    for (exec::ExecMode mode :
         {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
      for (exec::WorkerPool* p :
           {static_cast<exec::WorkerPool*>(nullptr), &pool}) {
        const std::string run =
            RunLendingScript(rows, shards, p, mode, script);
        EXPECT_EQ(run.find("error: "), std::string::npos) << run;
        if (reference.empty()) reference = run;
        EXPECT_EQ(run, reference)
            << "shards=" << shards << " mode=" << exec::ExecModeName(mode)
            << (p != nullptr ? " pooled" : " serial");
      }
    }
  }
}

TEST(VectorExecTest, LendingSelfJoinReadsOneVersionOnBothSides) {
  ExpectLendingParity({
      net::Request::Query("SELECT a.id AS aid, b.id AS bid, b.v AS bv "
                          "FROM fact AS a JOIN fact AS b ON a.id = b.id "
                          "WHERE a.v > 10"),
      net::Request::Query("SELECT a.id AS aid, b.name AS bn FROM fact AS a "
                          "JOIN fact AS b ON a.fk = b.id AND b.v < a.v "
                          "WHERE a.id < 40"),
      net::Request::Query("SELECT a.id AS aid, b.id AS bid FROM fact AS a "
                          "LEFT OUTER JOIN fact AS b ON a.nv = b.id "
                          "WHERE a.v > 15"),
  });
}

TEST(VectorExecTest, LendingTopNPaddingOverLentSelect) {
  ExpectLendingParity({
      net::Request::Query("SELECT m.id AS id, m.name AS name FROM fact AS m "
                          "WHERE m.v > 3 ORDER BY m.w DESC, m.v LIMIT 5"),
      net::Request::Query("SELECT m.id AS id FROM fact AS m WHERE m.v > 3 "
                          "ORDER BY m.v LIMIT 2000"),
      net::Request::Query("SELECT * FROM fact AS m WHERE m.fk = 2 "
                          "ORDER BY m.id DESC LIMIT 0"),
  });
}

TEST(VectorExecTest, LendingCorrelatedFramesOverLentRows) {
  ExpectLendingParity({
      net::Request::Query("SELECT m.id AS id FROM fact AS m WHERE m.id < 40 "
                          "AND EXISTS (SELECT p.id AS id FROM fact AS p "
                          "WHERE p.id = m.nv AND p.v > m.v)"),
      net::Request::Query("SELECT m.id AS id, pv FROM fact AS m "
                          "OUTER APPLY (SELECT p.v AS pv FROM fact AS p "
                          "WHERE p.id = m.nv AND p.v < m.w) WHERE m.id < 40"),
  }, /*rows=*/300);
}

TEST(VectorExecTest, LendingPendingVersionsThenRollback) {
  ExpectLendingParity({
      net::Request::Begin(),
      net::Request::Dml("UPDATE fact SET v = v + 100 WHERE fk = 1"),
      net::Request::Query("SELECT m.id AS id, m.v AS v FROM fact AS m "
                          "WHERE m.v > 80 ORDER BY m.v DESC LIMIT 7"),
      net::Request::Query("SELECT m.fk, SUM(m.v) AS s FROM fact AS m "
                          "GROUP BY m.fk"),
      net::Request::Query("SELECT a.id AS aid, b.v AS bv FROM fact AS a "
                          "JOIN fact AS b ON a.id = b.id WHERE a.fk = 1 "
                          "AND b.v > 100"),
      net::Request::Rollback(),
      net::Request::Query("SELECT m.fk, SUM(m.v) AS s FROM fact AS m "
                          "GROUP BY m.fk"),
  });
}

TEST(VectorExecTest, EveryFuzzerFamilyAgreesAcrossModes) {
  constexpr fuzz::Family kFamilies[] = {
      fuzz::Family::kFilterCollect, fuzz::Family::kScalarAgg,
      fuzz::Family::kMaxMin,        fuzz::Family::kExists,
      fuzz::Family::kJoin,          fuzz::Family::kGroupBy,
      fuzz::Family::kArgmax,        fuzz::Family::kApply,
      fuzz::Family::kPrint,         fuzz::Family::kBreak,
      fuzz::Family::kPartial,       fuzz::Family::kMultiAgg,
      fuzz::Family::kConcat,        fuzz::Family::kCorrExists,
      fuzz::Family::kDml,           fuzz::Family::kTxn,
  };
  for (fuzz::Family family : kFamilies) {
    fuzz::GenOptions gopts;
    ASSERT_TRUE(fuzz::RestrictToFamily(&gopts, fuzz::FamilyName(family)));
    for (uint64_t probe = 0; probe < 3; ++probe) {
      uint64_t seed = SplitMix64(0xba7c4 + probe * 131 +
                                 static_cast<uint64_t>(family));
      fuzz::FuzzCase c = fuzz::GenerateCase(seed, gopts);
      const std::string label = std::string(fuzz::FamilyName(family)) +
                                " seed " + std::to_string(seed);
      for (size_t shards : kShardCounts) {
        if (c.function == "@txn") {
          // Schedules compare through the txn oracle's outcome log.
          std::string logs[2];
          int i = 0;
          for (exec::ExecMode mode :
               {exec::ExecMode::kRow, exec::ExecMode::kVector}) {
            fuzz::OracleOptions opts;
            opts.shard_count = shards;
            opts.exec_mode = mode;
            fuzz::OracleReport report = fuzz::RunOracle(c, opts);
            ASSERT_EQ(report.verdict, fuzz::Verdict::kPass)
                << label << " shards=" << shards << ": " << report.detail;
            logs[i++] = report.rewritten_source;
          }
          EXPECT_EQ(logs[1], logs[0]) << label << " shards=" << shards;
        } else {
          auto row = RunProgram(c, shards, exec::ExecMode::kRow);
          auto vec = RunProgram(c, shards, exec::ExecMode::kVector);
          ASSERT_TRUE(row.ok()) << label << ": " << row.status().ToString();
          ASSERT_TRUE(vec.ok()) << label << ": " << vec.status().ToString();
          EXPECT_EQ(*vec, *row) << label << " shards=" << shards;
        }
      }
    }
  }
}

// The rewritten programs (extracted SQL) must agree too: the oracle in
// vector mode runs the original on the row engine and the rewrite on
// the vector engine, so a kPass verdict is itself a cross-engine
// equivalence proof over the extracted GROUP BY/JOIN/APPLY queries.
TEST(VectorExecTest, ExtractedSqlAgreesAcrossModes) {
  int extracted = 0;
  for (uint64_t i = 0; i < 24; ++i) {
    uint64_t seed = SplitMix64(0x5eed + i);
    fuzz::FuzzCase c = fuzz::GenerateCase(seed);
    for (size_t shards : kShardCounts) {
      fuzz::OracleOptions opts;
      opts.shard_count = shards;
      opts.exec_mode = exec::ExecMode::kVector;
      fuzz::OracleReport report = fuzz::RunOracle(c, opts);
      EXPECT_EQ(report.verdict, fuzz::Verdict::kPass)
          << "seed " << seed << " shards=" << shards << ": " << report.detail;
      if (report.extracted && shards == 1) ++extracted;
    }
  }
  // The sweep must actually cover extracted rewrites, or the
  // cross-engine claim above is vacuous.
  EXPECT_GE(extracted, 8);
}

}  // namespace
}  // namespace eqsql
