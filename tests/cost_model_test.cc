// One price: every charge a Connection pays and every estimate the
// cost estimator makes goes through net::CostModel::Price. Each charge
// kind is driven through one Connection and its simulated_ms increment
// must equal, bit for bit, the price of the charge its stats delta
// describes.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/cost_estimator.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/database.h"

namespace eqsql::net {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = *db_.CreateTable("items", Schema({{"id", DataType::kInt64},
                                               {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
    ASSERT_TRUE(t->DeclareUniqueKey("id").ok());
    conn_.set_metrics(&metrics_);
  }

  int64_t RowsProcessed() {
    return metrics_.Snapshot().counters["exec.rows_processed"];
  }

  /// Runs `action` and checks that the simulated clock advanced by
  /// exactly the price of the charge the stats delta describes, with
  /// `server_rows`, `param_tables` and `client_ops` (which the stats do
  /// not count) supplied by the caller.
  void ExpectPriced(const std::string& kind,
                    const std::function<void()>& action, double server_rows,
                    int64_t param_tables = 0, double client_ops = 0) {
    SCOPED_TRACE(kind);
    const ConnectionStats before = conn_.stats();
    action();
    const ConnectionStats after = conn_.stats();
    const Charge charge{
        .round_trips = after.round_trips - before.round_trips,
        .statements = after.queries_executed - before.queries_executed,
        .param_tables = param_tables,
        .bytes = static_cast<double>(after.bytes_transferred -
                                     before.bytes_transferred),
        .server_rows = server_rows,
        .client_ops = client_ops};
    EXPECT_GT(model_.Price(charge), 0.0);
    EXPECT_EQ(after.simulated_ms, before.simulated_ms + model_.Price(charge));
  }

  storage::Database db_;
  obs::MetricsRegistry metrics_;
  Connection conn_{&db_};
  CostModel model_;
};

TEST_F(CostModelTest, EveryConnectionChargePricesThroughOneFunction) {
  // A query's server rows are the exec.rows_processed it adds.
  const std::string q = "SELECT i.v AS v FROM items AS i WHERE i.v > 30";
  {
    const ConnectionStats before = conn_.stats();
    const int64_t rows0 = RowsProcessed();
    ASSERT_TRUE(conn_.Perform(Request::Query(q)).ok());
    const ConnectionStats after = conn_.stats();
    const Charge charge{
        .round_trips = after.round_trips - before.round_trips,
        .statements = after.queries_executed - before.queries_executed,
        .bytes = static_cast<double>(after.bytes_transferred -
                                     before.bytes_transferred),
        .server_rows = static_cast<double>(RowsProcessed() - rows0)};
    EXPECT_EQ(charge.round_trips, 1);
    // 10 scanned, 6 kept by the Select, 6 projected.
    EXPECT_EQ(charge.server_rows, 22.0);
    EXPECT_EQ(after.simulated_ms, before.simulated_ms + model_.Price(charge));
  }

  // Prefetching: the first query pays the round trip, the next does not.
  conn_.set_prefetch_mode(true);
  for (int i = 0; i < 2; ++i) {
    const ConnectionStats before = conn_.stats();
    const int64_t rows0 = RowsProcessed();
    ASSERT_TRUE(conn_.Perform(Request::Query(q)).ok());
    const ConnectionStats after = conn_.stats();
    const Charge charge{
        .round_trips = after.round_trips - before.round_trips,
        .statements = 1,
        .bytes = static_cast<double>(after.bytes_transferred -
                                     before.bytes_transferred),
        .server_rows = static_cast<double>(RowsProcessed() - rows0)};
    EXPECT_EQ(charge.round_trips, i == 0 ? 1 : 0);
    EXPECT_EQ(after.simulated_ms, before.simulated_ms + model_.Price(charge));
  }
  conn_.set_prefetch_mode(false);

  ExpectPriced(
      "simulated dml",
      [&] {
        ASSERT_TRUE(
            conn_.Perform(Request::SimulatedDml("UPDATE items SET v = 0"))
                .ok());
      },
      /*server_rows=*/0);
  // An UPDATE examines every visible row; an INSERT examines one.
  ExpectPriced(
      "update",
      [&] {
        ASSERT_TRUE(
            conn_.Perform(Request::Dml("UPDATE items SET v = v + 1 WHERE "
                                       "id < 4"))
                .ok());
      },
      /*server_rows=*/10);
  ExpectPriced(
      "insert",
      [&] {
        ASSERT_TRUE(
            conn_.Perform(Request::Dml("INSERT INTO items VALUES (10, 5)"))
                .ok());
      },
      /*server_rows=*/1);
  ExpectPriced(
      "begin", [&] { ASSERT_TRUE(conn_.Perform(Request::Begin()).ok()); },
      /*server_rows=*/0);
  ExpectPriced(
      "commit", [&] { ASSERT_TRUE(conn_.Perform(Request::Commit()).ok()); },
      /*server_rows=*/0);
  ExpectPriced(
      "create index",
      [&] {
        ASSERT_TRUE(conn_.Perform(Request::CreateIndex(
                                      "CREATE INDEX items_v ON items (v)"))
                        .ok());
      },
      /*server_rows=*/0);
  ExpectPriced(
      "temp table upload",
      [&] {
        ASSERT_TRUE(conn_.CreateTempTable(
                             "params", Schema({{"k", DataType::kInt64}}),
                             {{Value::Int(1)}, {Value::Int(2)}})
                        .ok());
      },
      /*server_rows=*/0, /*param_tables=*/1);
  ExpectPriced(
      "client ops", [&] { conn_.ChargeClientOps(7); }, /*server_rows=*/0,
      /*param_tables=*/0, /*client_ops=*/7);
}

TEST_F(CostModelTest, EstimatesPriceThroughTheSameFunction) {
  core::TableStats stats;
  stats.table_rows = {{"items", 5000}, {"tags", 200}};
  stats.table_indexes = {{"tags", {{"item_id"}}}};
  const core::CostEstimator est(stats, model_);
  const ra::RaNodePtr plan = *sql::ParseSql(
      "SELECT i.v AS v, t.label AS label FROM items AS i JOIN tags AS t "
      "ON t.item_id = i.id WHERE i.v > 3");
  const core::CostEstimate query = est.EstimateQuery(plan);
  EXPECT_EQ(query.charge.round_trips, 1);
  EXPECT_EQ(query.charge.statements, 1);
  // The estimator's own milliseconds for the plan (the hash-join arm of
  // the join-plan choice) are the one price of its charge.
  const core::JoinPlanChoice choice = est.ChooseJoinPlan(plan);
  ASSERT_TRUE(choice.applicable);
  EXPECT_EQ(choice.scan_ms, model_.Price(query.charge));

  // The imperative loop pays its round trips plus the client work of
  // iterating every fetched row.
  const ra::RaNodePtr outer = *sql::ParseSql("SELECT * FROM items AS i");
  const core::CostEstimate loop = est.EstimateLoop(outer, 1);
  EXPECT_EQ(loop.charge.round_trips, 1 + 5000);
  const bool wins =
      model_.Price(query.charge) <
      model_.Price(core::ClientLoopCharge(loop.cardinality, loop.charge));
  EXPECT_EQ(est.RewriteWins(plan, outer, 1), wins);
  EXPECT_EQ(core::ClientLoopCharge(loop.cardinality).client_ops,
            loop.cardinality * core::kClientOpsPerLoopRow);
}

}  // namespace
}  // namespace eqsql::net
