#include <gtest/gtest.h>

#include "core/cost_estimator.h"
#include "sql/parser.h"

namespace eqsql::core {
namespace {

CostEstimator MakeEstimator(int64_t rows) {
  TableStats stats;
  stats.table_rows = {{"t", rows},      {"applicants", rows},
                      {"details", rows}, {"role", rows / 40 + 1}};
  return CostEstimator(stats, net::CostModel());
}

ra::RaNodePtr Q(const char* sql) { return *sql::ParseSql(sql); }

TEST(CostEstimatorTest, SelectionShrinksCardinalityAndBytes) {
  CostEstimator est = MakeEstimator(30000);
  CostEstimate scan = est.EstimateQuery(Q("SELECT * FROM t"));
  CostEstimate filtered =
      est.EstimateQuery(Q("SELECT t.a AS a FROM t WHERE t.v > 10"));
  EXPECT_LT(filtered.cardinality, scan.cardinality);
  EXPECT_LT(filtered.charge.bytes, scan.charge.bytes);
  EXPECT_LT(est.model().Price(filtered.charge),
            est.model().Price(scan.charge));
}

TEST(CostEstimatorTest, PointPredicateEstimatesOneRow) {
  CostEstimator est = MakeEstimator(100000);
  CostEstimate lookup =
      est.EstimateQuery(Q("SELECT * FROM t WHERE t.id = 7"));
  EXPECT_DOUBLE_EQ(lookup.cardinality, 1.0);
  EXPECT_LT(lookup.charge.server_rows, 10.0);
}

TEST(CostEstimatorTest, ScalarAggregateShipsOneRow) {
  CostEstimator est = MakeEstimator(50000);
  CostEstimate agg = est.EstimateQuery(Q("SELECT MAX(t.v) AS m FROM t"));
  EXPECT_DOUBLE_EQ(agg.cardinality, 1.0);
  // Still processes the whole table server-side.
  EXPECT_GE(agg.charge.server_rows, 50000.0);
}

TEST(CostEstimatorTest, LoopPaysPerRowRoundTrips) {
  CostEstimator est = MakeEstimator(1000);
  CostEstimate loop =
      est.EstimateLoop(Q("SELECT * FROM applicants"), /*queries_per_row=*/4);
  EXPECT_EQ(loop.charge.round_trips, 1 + 1000 * 4);
  CostEstimate apply = est.EstimateQuery(
      Q("SELECT * FROM applicants AS a OUTER APPLY (SELECT d.phone AS p "
        "FROM details AS d WHERE d.aid = a.id)"));
  EXPECT_EQ(apply.charge.round_trips, 1);
  // The App. C decision: one apply query beats N*4 round trips.
  EXPECT_LT(est.model().Price(apply.charge),
            est.model().Price(loop.charge));
}

TEST(CostEstimatorTest, RewriteWinsTracksScale) {
  // Star-schema rewrite should win at any nontrivial scale...
  CostEstimator big = MakeEstimator(1000);
  ra::RaNodePtr apply = Q(
      "SELECT * FROM applicants AS a OUTER APPLY (SELECT d.phone AS p FROM "
      "details AS d WHERE d.aid = a.id)");
  ra::RaNodePtr outer = Q("SELECT * FROM applicants");
  EXPECT_TRUE(big.RewriteWins(apply, outer, 4));
  // ...and an aggregate over the loop's own query should win too (no
  // extra per-row queries, but the whole table stops crossing the wire).
  CostEstimator est = MakeEstimator(100000);
  EXPECT_TRUE(est.RewriteWins(Q("SELECT MAX(t.v) AS m FROM t"),
                              Q("SELECT * FROM t"), 0));
}

TEST(CostEstimatorTest, GroupByJoinCheaperThanPerGroupQueries) {
  CostEstimator est = MakeEstimator(40000);
  ra::RaNodePtr grouped = Q(
      "SELECT r.id, COUNT(t.id) AS c FROM role AS r LEFT OUTER JOIN t ON "
      "t.role_id = r.id GROUP BY r.id");
  ra::RaNodePtr outer = Q("SELECT * FROM role AS r");
  EXPECT_TRUE(est.RewriteWins(grouped, outer, 1));
}

TEST(CostEstimatorTest, UnknownTableUsesDefaults) {
  CostEstimator est(TableStats{}, net::CostModel());
  CostEstimate scan = est.EstimateQuery(Q("SELECT * FROM mystery"));
  EXPECT_GT(scan.cardinality, 0);
  EXPECT_GT(scan.charge.bytes, 0);
}

}  // namespace
}  // namespace eqsql::core
