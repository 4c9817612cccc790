#ifndef EQSQL_EXEC_EXEC_MODE_H_
#define EQSQL_EXEC_EXEC_MODE_H_

namespace eqsql::exec {

/// Which execution engine the Executor runs.
///
///  * kVector: the production engine — batch-at-a-time columnar
///    execution (see exec/batch.h). Scans lend kBatchCapacity-row
///    chunks of MVCC versions per shard, predicates and projections are
///    compiled to positional form and evaluated one dispatch per batch,
///    and scans, filters and aggregations over a base table fan out
///    across shards on an attached worker pool.
///  * kRow: the serial reference — the canonical row-at-a-time meaning
///    of the query, one EvalScalar dispatch per expression node per
///    row, column lookup by name, never fanned out. The fuzz oracle's
///    original side and the differential tests run it; results, error
///    selection, and cost accounting of kVector are byte-identical to
///    it (tests/vector_exec_test.cc, the fuzz oracle). Only speed
///    differs.
enum class ExecMode {
  kRow,
  kVector,
};

inline const char* ExecModeName(ExecMode mode) {
  return mode == ExecMode::kRow ? "row" : "vector";
}

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXEC_MODE_H_
