#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/scalar_ops.h"

namespace eqsql::exec {
namespace {

using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;
using ra::AggFunc;
using ra::RaNode;
using ra::ScalarExpr;
using ra::ScalarOp;

ra::ScalarExprPtr Col(const std::string& n) { return ScalarExpr::Column(n); }
ra::ScalarExprPtr Lit(int64_t v) {
  return ScalarExpr::Literal(Value::Int(v));
}
ra::ScalarExprPtr Str(const std::string& s) {
  return ScalarExpr::Literal(Value::String(s));
}

/// Builds the standard fixture: board(id, rnd_id, p1..p4), role(id, name),
/// wuser(id, role_id, login).
class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto board = *db_.CreateTable(
        "board", Schema({{"id", DataType::kInt64},
                         {"rnd_id", DataType::kInt64},
                         {"p1", DataType::kInt64},
                         {"p2", DataType::kInt64},
                         {"p3", DataType::kInt64},
                         {"p4", DataType::kInt64}}));
    int64_t scores[][6] = {{1, 1, 10, 40, 30, 20},
                           {2, 1, 50, 5, 5, 5},
                           {3, 2, 99, 99, 99, 99},
                           {4, 1, 7, 8, 9, 11}};
    for (auto& s : scores) {
      ASSERT_TRUE(board
                      ->Insert({Value::Int(s[0]), Value::Int(s[1]),
                                Value::Int(s[2]), Value::Int(s[3]),
                                Value::Int(s[4]), Value::Int(s[5])})
                      .ok());
    }
    auto role = *db_.CreateTable("role", Schema({{"id", DataType::kInt64},
                                                 {"name", DataType::kString}}));
    ASSERT_TRUE(role->Insert({Value::Int(1), Value::String("admin")}).ok());
    ASSERT_TRUE(role->Insert({Value::Int(2), Value::String("user")}).ok());

    auto wuser = *db_.CreateTable(
        "wuser", Schema({{"id", DataType::kInt64},
                         {"role_id", DataType::kInt64},
                         {"login", DataType::kString}}));
    ASSERT_TRUE(
        wuser->Insert({Value::Int(10), Value::Int(1), Value::String("ann")})
            .ok());
    ASSERT_TRUE(
        wuser->Insert({Value::Int(11), Value::Int(2), Value::String("bob")})
            .ok());
    ASSERT_TRUE(
        wuser->Insert({Value::Int(12), Value::Int(3), Value::String("eve")})
            .ok());
  }

  storage::Database db_;
};

TEST_F(ExecutorTest, ScanProducesQualifiedColumns) {
  Executor ex(&db_);
  auto rs = ex.Execute(RaNode::Scan("board", "b"));
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->schema.column(0).name, "b.id");
  EXPECT_TRUE(rs->schema.IndexOf("rnd_id").has_value());
}

TEST_F(ExecutorTest, SelectFilters) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"), Lit(1)));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(ExecutorTest, SelectWithParameter) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                         ScalarExpr::Parameter(0)));
  auto rs = ex.Execute(q, {Value::Int(2)});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3);
}

TEST_F(ExecutorTest, ProjectComputesExpressions) {
  Executor ex(&db_);
  auto score = ScalarExpr::Nary(
      ScalarOp::kGreatest, {Col("b.p1"), Col("b.p2"), Col("b.p3"),
                            Col("b.p4")});
  auto q = RaNode::Project(RaNode::Scan("board", "b"), {{score, "score"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 4u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 40);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 50);
}

TEST_F(ExecutorTest, ProjectPreservesOrder) {
  Executor ex(&db_);
  auto q = RaNode::Project(RaNode::Scan("board", "b"), {{Col("b.id"), "id"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  std::vector<int64_t> ids;
  for (auto& r : rs->rows) ids.push_back(r[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST_F(ExecutorTest, HashJoinEqui) {
  Executor ex(&db_);
  auto q = RaNode::Join(
      RaNode::Scan("wuser", "u"), RaNode::Scan("role", "r"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // eve has no matching role
  EXPECT_EQ(rs->schema.size(), 5u);
}

TEST_F(ExecutorTest, LeftOuterJoinPadsNulls) {
  Executor ex(&db_);
  auto q = RaNode::LeftOuterJoin(
      RaNode::Scan("wuser", "u"), RaNode::Scan("role", "r"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  // eve row: role columns are NULL
  EXPECT_TRUE(rs->rows[2][3].is_null());
  EXPECT_TRUE(rs->rows[2][4].is_null());
}

TEST_F(ExecutorTest, NestedLoopJoinNonEqui) {
  Executor ex(&db_);
  auto q = RaNode::Join(
      RaNode::Scan("role", "a"), RaNode::Scan("role", "b"),
      ScalarExpr::Binary(ScalarOp::kLt, Col("a.id"), Col("b.id")));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);  // (1,2)
}

TEST_F(ExecutorTest, ScalarAggregateMax) {
  Executor ex(&db_);
  auto score = ScalarExpr::Nary(
      ScalarOp::kGreatest,
      {Col("b.p1"), Col("b.p2"), Col("b.p3"), Col("b.p4")});
  // SELECT MAX(GREATEST(p1,p2,p3,p4)) FROM board WHERE rnd_id = 1
  auto q = RaNode::GroupBy(
      RaNode::Project(
          RaNode::Select(RaNode::Scan("board", "b"),
                         ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                                            Lit(1))),
          {{score, "score"}}),
      {}, {{AggFunc::kMax, Col("score"), "mx"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 50);
}

TEST_F(ExecutorTest, ScalarAggregateOverEmptyInput) {
  Executor ex(&db_);
  auto q = RaNode::GroupBy(
      RaNode::Select(RaNode::Scan("board", "b"),
                     ScalarExpr::Binary(ScalarOp::kEq, Col("b.rnd_id"),
                                        Lit(99))),
      {},
      {{AggFunc::kMax, Col("b.p1"), "mx"},
       {AggFunc::kCountStar, nullptr, "cnt"},
       {AggFunc::kSum, Col("b.p1"), "sm"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_TRUE(rs->rows[0][0].is_null());   // MAX of empty
  EXPECT_EQ(rs->rows[0][1].AsInt(), 0);    // COUNT(*) of empty
  EXPECT_TRUE(rs->rows[0][2].is_null());   // SUM of empty
}

TEST_F(ExecutorTest, GroupByKeys) {
  Executor ex(&db_);
  auto q = RaNode::GroupBy(RaNode::Scan("board", "b"), {Col("b.rnd_id")},
                           {{AggFunc::kMax, Col("b.p1"), "mx"},
                            {AggFunc::kCountStar, nullptr, "cnt"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  // First-seen group order: rnd 1 then rnd 2.
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs->rows[0][1].AsInt(), 50);
  EXPECT_EQ(rs->rows[0][2].AsInt(), 3);
  EXPECT_EQ(rs->rows[1][1].AsInt(), 99);
}

TEST_F(ExecutorTest, AggregatesSkipNulls) {
  auto t = *db_.CreateTable("n", Schema({{"v", DataType::kInt64}}));
  ASSERT_TRUE(t->Insert({Value::Int(3)}).ok());
  ASSERT_TRUE(t->Insert({Value::Null()}).ok());
  ASSERT_TRUE(t->Insert({Value::Int(5)}).ok());
  Executor ex(&db_);
  auto q = RaNode::GroupBy(RaNode::Scan("n"), {},
                           {{AggFunc::kCount, Col("n.v"), "c"},
                            {AggFunc::kSum, Col("n.v"), "s"},
                            {AggFunc::kAvg, Col("n.v"), "a"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 2);
  EXPECT_EQ(rs->rows[0][1].AsInt(), 8);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].AsDouble(), 4.0);
}

TEST_F(ExecutorTest, SortAscDescStable) {
  Executor ex(&db_);
  auto q = RaNode::Sort(RaNode::Scan("board", "b"),
                        {{Col("b.rnd_id"), true}, {Col("b.p1"), false}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  std::vector<int64_t> ids;
  for (auto& r : rs->rows) ids.push_back(r[0].AsInt());
  EXPECT_EQ(ids, (std::vector<int64_t>{2, 1, 4, 3}));
}

TEST_F(ExecutorTest, DedupKeepsFirstOccurrence) {
  Executor ex(&db_);
  auto q = RaNode::Dedup(
      RaNode::Project(RaNode::Scan("board", "b"), {{Col("b.rnd_id"), "r"}}));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);
  EXPECT_EQ(rs->rows[1][0].AsInt(), 2);
}

TEST_F(ExecutorTest, Limit) {
  Executor ex(&db_);
  auto q = RaNode::Limit(RaNode::Scan("board", "b"), 2);
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

// LIMIT over a Project of plain columns over a Sort selects the top
// rows without fully sorting or projecting, yet charges the full plan:
// scan 4 + sort 4 + project 4 + limit 2.
TEST_F(ExecutorTest, TopNLimitChargesTheFullSortAndProject) {
  Executor ex(&db_);
  auto q = RaNode::Limit(
      RaNode::Project(RaNode::Sort(RaNode::Scan("board", "b"),
                                   {{Col("b.p1"), false}}),
                      {{Col("b.id"), "id"}}),
      2);
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 3);  // p1 = 99
  EXPECT_EQ(rs->rows[1][0].AsInt(), 2);  // p1 = 50
  EXPECT_EQ(ex.last_rows_processed(), 14u);

  // A computed projection item is not eligible: the same charges, the
  // ordinary path.
  auto computed = RaNode::Limit(
      RaNode::Project(RaNode::Sort(RaNode::Scan("board", "b"),
                                   {{Col("b.p1"), false}}),
                      {{ScalarExpr::Binary(ScalarOp::kAdd, Col("b.id"),
                                           Lit(100)),
                        "id"}}),
      2);
  rs = ex.Execute(computed);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 103);
  EXPECT_EQ(ex.last_rows_processed(), 14u);
}

TEST_F(ExecutorTest, OuterApplyCorrelated) {
  Executor ex(&db_);
  // wuser OUTER APPLY (SELECT name FROM role WHERE role.id = u.role_id)
  auto inner = RaNode::Project(
      RaNode::Select(
          RaNode::Scan("role", "r"),
          ScalarExpr::Binary(ScalarOp::kEq, Col("r.id"), Col("u.role_id"))),
      {{Col("r.name"), "role_name"}});
  auto q = RaNode::OuterApply(RaNode::Scan("wuser", "u"), inner);
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(rs->rows[0][3].AsString(), "admin");
  EXPECT_EQ(rs->rows[1][3].AsString(), "user");
  EXPECT_TRUE(rs->rows[2][3].is_null());  // eve: no role -> NULL padded
}

TEST_F(ExecutorTest, ExistsPredicate) {
  Executor ex(&db_);
  // SELECT * FROM role r WHERE EXISTS (SELECT * FROM wuser u WHERE
  // u.role_id = r.id)
  auto sub = RaNode::Select(
      RaNode::Scan("wuser", "u"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("u.role_id"), Col("r.id")));
  auto q = RaNode::Select(RaNode::Scan("role", "r"),
                          ScalarExpr::Exists(sub, /*negated=*/false));
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);

  auto qn = RaNode::Select(RaNode::Scan("role", "r"),
                           ScalarExpr::Exists(sub, /*negated=*/true));
  auto rsn = ex.Execute(qn);
  ASSERT_TRUE(rsn.ok());
  EXPECT_EQ(rsn->rows.size(), 0u);
}

TEST_F(ExecutorTest, UnknownColumnErrors) {
  Executor ex(&db_);
  auto q = RaNode::Select(
      RaNode::Scan("board", "b"),
      ScalarExpr::Binary(ScalarOp::kEq, Col("b.nope"), Lit(1)));
  auto rs = ex.Execute(q);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, UnknownTableErrors) {
  Executor ex(&db_);
  auto rs = ex.Execute(RaNode::Scan("missing"));
  ASSERT_FALSE(rs.ok());
}

TEST_F(ExecutorTest, CaseExpression) {
  Executor ex(&db_);
  auto q = RaNode::Project(
      RaNode::Scan("role", "r"),
      {{ScalarExpr::Case(
            ScalarExpr::Binary(ScalarOp::kEq, Col("r.id"), Lit(1)),
            Str("first"), Str("other")),
        "tag"}});
  auto rs = ex.Execute(q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsString(), "first");
  EXPECT_EQ(rs->rows[1][0].AsString(), "other");
}

// --- scalar op unit tests -------------------------------------------------

TEST(ScalarOpsTest, ArithmeticIntAndDouble) {
  EXPECT_EQ(EvalArithmetic(ScalarOp::kAdd, Value::Int(2), Value::Int(3))
                ->AsInt(),
            5);
  EXPECT_DOUBLE_EQ(
      EvalArithmetic(ScalarOp::kMul, Value::Double(1.5), Value::Int(2))
          ->AsDouble(),
      3.0);
  EXPECT_EQ(EvalArithmetic(ScalarOp::kDiv, Value::Int(7), Value::Int(2))
                ->AsInt(),
            3);
  EXPECT_EQ(EvalArithmetic(ScalarOp::kMod, Value::Int(7), Value::Int(3))
                ->AsInt(),
            1);
}

TEST(ScalarOpsTest, NullPropagates) {
  EXPECT_TRUE(
      EvalArithmetic(ScalarOp::kAdd, Value::Null(), Value::Int(1))->is_null());
  EXPECT_TRUE(
      EvalComparison(ScalarOp::kLt, Value::Int(1), Value::Null())->is_null());
  EXPECT_TRUE(EvalConcat(Value::Null(), Value::String("x"))->is_null());
}

TEST(ScalarOpsTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(
      EvalArithmetic(ScalarOp::kDiv, Value::Int(1), Value::Int(0))->is_null());
  EXPECT_TRUE(EvalArithmetic(ScalarOp::kDiv, Value::Double(1), Value::Double(0))
                  ->is_null());
}

TEST(ScalarOpsTest, StringPlusIsConcat) {
  auto v = EvalArithmetic(ScalarOp::kAdd, Value::String("a"), Value::Int(1));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a1");
}

TEST(ScalarOpsTest, ComparisonTypeErrors) {
  EXPECT_FALSE(
      EvalComparison(ScalarOp::kLt, Value::Int(1), Value::String("a")).ok());
}

TEST(ScalarOpsTest, ThreeValuedLogic) {
  Value t = Value::Bool(true), f = Value::Bool(false), n = Value::Null();
  EXPECT_FALSE(EvalAnd(f, n).AsBool());      // FALSE AND NULL = FALSE
  EXPECT_TRUE(EvalAnd(t, n).is_null());      // TRUE AND NULL = NULL
  EXPECT_TRUE(EvalOr(t, n).AsBool());        // TRUE OR NULL = TRUE
  EXPECT_TRUE(EvalOr(f, n).is_null());       // FALSE OR NULL = NULL
  EXPECT_TRUE(EvalNot(n).is_null());
  EXPECT_FALSE(IsTruthy(n));
  EXPECT_FALSE(IsTruthy(f));
  EXPECT_TRUE(IsTruthy(t));
}

TEST(ScalarOpsTest, GreatestLeast) {
  std::vector<Value> vs = {Value::Int(3), Value::Int(9), Value::Int(5)};
  EXPECT_EQ(EvalGreatestLeast(true, vs)->AsInt(), 9);
  EXPECT_EQ(EvalGreatestLeast(false, vs)->AsInt(), 3);
  vs.push_back(Value::Null());
  EXPECT_TRUE(EvalGreatestLeast(true, vs)->is_null());  // MySQL semantics
  EXPECT_FALSE(EvalGreatestLeast(true, {}).ok());
}

}  // namespace
}  // namespace eqsql::exec
