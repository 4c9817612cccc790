#ifndef EQSQL_EXEC_EXECUTOR_H_
#define EQSQL_EXEC_EXECUTOR_H_

#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "exec/batch.h"
#include "exec/exec_mode.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "ra/ra_node.h"
#include "storage/database.h"
#include "storage/shard_guard.h"

namespace eqsql::exec {

/// A fully materialized query result: output schema + rows in result
/// order (Project preserves input order; Sort imposes one). The result
/// owns every row: Execute copies lent scan versions into it, so it
/// outlives the read pin it was computed under.
struct ResultSet {
  catalog::Schema schema;
  std::vector<catalog::Row> rows;

  /// Total wire size of all rows (used by net/ to charge transfer cost).
  size_t WireSize() const;
};

/// Evaluation context threaded through scalar evaluation: positional
/// parameters plus a stack of (schema,row) frames for correlated column
/// resolution (innermost frame is searched first). OuterApply and EXISTS
/// push outer rows onto the stack.
class EvalContext {
 public:
  explicit EvalContext(const std::vector<catalog::Value>* params)
      : params_(params) {}

  struct Frame {
    const catalog::Schema* schema;
    const catalog::Row* row;
  };

  void PushFrame(const catalog::Schema* schema, const catalog::Row* row) {
    frames_.push_back(Frame{schema, row});
  }
  void PopFrame() { frames_.pop_back(); }
  size_t depth() const { return frames_.size(); }

  /// Resolves `name` innermost-first across the frame stack.
  Result<catalog::Value> LookupColumn(const std::string& name) const;

  Result<catalog::Value> LookupParameter(int index) const;

 private:
  const std::vector<catalog::Value>* params_;
  std::vector<Frame> frames_;
};

/// Materializing evaluator for relational-algebra trees against an
/// in-memory Database. This is the "server side" of the simulated DBMS:
/// the net/ layer calls it and charges costs for the rows it returns.
///
/// Joins with extractable equi-conjuncts use hash join; everything else
/// is a (predicated) nested loop.
///
/// Shared-read contract: execution touches the database exclusively
/// through `const storage::Database*` / `const storage::Table*` — no
/// execution path mutates storage. Row visibility resolves against the
/// attached ReadGuard's pinned MVCC snapshot (storage::Snapshot), so
/// any number of Executors may run concurrently against one Database
/// while writers commit new versions: readers never block writers and
/// never see a half-committed transaction. Scans lend the visible
/// versions by pointer (the storage::ShardScanCursor contract) and
/// operators pass row references up; Execute copies lent rows once, into
/// the ResultSet it returns. Lent pointers are therefore valid only
/// under the read pin, so an Executor without a guard (reading at
/// Snapshot::Latest(), which nobody pins) must not run concurrently
/// with Database::Vacuum. Plans are
/// shared_ptr<const RaNode> and are never mutated during execution, so
/// one cached plan may be executed by many sessions at once. One
/// Executor instance itself is single-threaded: rows_processed_ is
/// per-run scratch. The vector engine's operators over a base table
/// (scan, filter over a scan, aggregation over a scan) spawn per-shard
/// tasks onto a WorkerPool when one is attached; the tasks evaluate
/// only compiled expressions and write only their own accumulators.
class Executor {
 public:
  explicit Executor(const storage::Database* db) : db_(db) {}

  /// Attaches a shard worker pool. With a pool, the vector engine's
  /// full-table scans, filters directly over a scan, and aggregations
  /// over a (filtered) scan fan out one task per shard when the table
  /// has at least `parallel threshold` rows and more than one shard.
  /// Results are byte-identical to serial execution: rows reassemble by
  /// insertion sequence and aggregation merges are gated to exact
  /// (non-floating-point) states. The row engine never fans out.
  void set_worker_pool(WorkerPool* pool) { pool_ = pool; }

  /// Minimum table row count before parallel operators engage (small
  /// tables are not worth the fan-out). 0 forces parallelism for any
  /// non-empty eligible table — used by the invariance tests.
  void set_parallel_threshold(size_t n) { parallel_threshold_ = n; }

  /// Selects the execution engine (see exec/exec_mode.h). kVector, the
  /// default, is the production engine: scans, filters, projections,
  /// and group-by folds run batch-at-a-time; expressions the batch
  /// compiler cannot handle (correlated references, EXISTS subqueries,
  /// unbound parameters) fall back to row evaluation per operator,
  /// counted in exec.batch.fallbacks. kRow is the serial reference the
  /// differential tests and the fuzz oracle compare against. Results,
  /// errors, and cost accounting are identical in both modes.
  void set_exec_mode(ExecMode mode) { mode_ = mode; }
  ExecMode exec_mode() const { return mode_; }

  /// Attaches the caller's pinned table snapshot. When set, table
  /// resolution prefers the guard's snapshot over the live registry, so
  /// a query keeps reading the tables it locked even if another session
  /// republishes them mid-flight.
  void set_read_guard(const storage::ReadGuard* guard) { guard_ = guard; }

  /// Attaches a metrics registry. Shard-invariant totals go to
  /// storage.scan.rows / storage.scan.bytes (identical whatever the
  /// shard count or pool — scan counters always charge the full logical
  /// scan); per-shard breakdowns go under storage.shard.<i>.scan.* and
  /// fan-out counts under exec.parallel.*, which are layout-dependent by
  /// design and excluded from the invariance contract. Handles are
  /// resolved here once; execution never touches the registry mutex
  /// except to name per-shard counters at fan-out time.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches a per-request operator profile (EXPLAIN ANALYZE, the
  /// trace sampler, the slow-query logger). nullptr detaches. Each
  /// executed plan operator records rows in/out, batches, wall time,
  /// and — for parallel operators — a per-shard breakdown into the
  /// tree. Profiling touches only wall-clock fields and the profile's
  /// own atomics: the simulated cost model and every layout-invariant
  /// counter are charged identically with profiling on or off.
  void set_profile(obs::Profile* profile) {
    profile_ = profile;
    prof_cur_ = nullptr;
  }
  obs::Profile* profile() const { return profile_; }

  /// Executes `node` with positional `params` bound to '?' placeholders.
  Result<ResultSet> Execute(const ra::RaNodePtr& node,
                            const std::vector<catalog::Value>& params = {});

  /// Evaluates a scalar expression (used by DML to compute INSERT
  /// values / UPDATE assignments, and by shard tasks). Row counts from
  /// any subqueries accumulate into last_rows_processed() without
  /// resetting it.
  Result<catalog::Value> Eval(const ra::ScalarExprPtr& expr, EvalContext* ctx);

  /// Output schema of `node` without executing it (used for NULL padding
  /// in outer joins / outer apply and by the SQL generator).
  Result<catalog::Schema> OutputSchema(const ra::RaNode& node) const;

  /// Number of rows produced by all operators during the last Execute
  /// (a crude work counter used by the net/ cost model's server term).
  size_t last_rows_processed() const { return rows_processed_; }

 private:
  /// `keep` value meaning the caller reads every row.
  static constexpr size_t kKeepAll = static_cast<size_t>(-1);

  /// What an operator subtree hands its parent: the output schema and
  /// one row reference per result row, in result order. A reference
  /// either lends a base-table version (the storage::ShardScanCursor
  /// contract: valid for the whole Execute under the read pin) or
  /// points into `built`, the rows this subtree constructed. Select,
  /// Sort, Limit and Dedup filter or permute references and pass
  /// `built` through (moving a vector keeps its elements in place);
  /// only Project, Join, OuterApply and GroupBy construct rows, filling
  /// `built` completely before they point at it. Rows past a top-N
  /// prefix (see Exec's `keep`) are nullptr. Execute materializes the
  /// root once into a ResultSet.
  struct Relation {
    catalog::Schema schema;
    std::vector<const catalog::Row*> rows;
    std::vector<catalog::Row> built;

    // Move-only: a copy of `built` would leave `rows` pointing into the
    // original.
    Relation() = default;
    Relation(Relation&&) = default;
    Relation& operator=(Relation&&) = default;
    Relation(const Relation&) = delete;
    Relation& operator=(const Relation&) = delete;

    /// Takes ownership of `made` as the relation's rows, in order.
    void Adopt(std::vector<catalog::Row> made);
  };
  /// The result boundary: moves the rows the plan built and copies the
  /// lent ones, in result order.
  static ResultSet Materialize(Relation rel);

  /// Operator dispatch. When a profile is attached, Exec wraps ExecNode
  /// with per-operator bookkeeping (node lookup keyed by plan-node
  /// address, wall time, rows out) and ExecNode does the actual work;
  /// without one, Exec tail-calls ExecNode.
  ///
  /// `keep` is the top-N contract: the caller (a Limit) reads only rows
  /// [0, keep). Only Limit passes it, and only to a Sort or to a
  /// bare-column Project over a Sort; those operators then order and
  /// project just that prefix and leave the remaining rows empty. The
  /// row count, rows_processed_ and profile act_rows stay those of the
  /// full result.
  Result<Relation> Exec(const ra::RaNode& node, EvalContext* ctx,
                        size_t keep = kKeepAll);
  Result<Relation> ExecNode(const ra::RaNode& node, EvalContext* ctx,
                            size_t keep);
  /// Row limit a Limit may push into its child as `keep`: the limit when
  /// the child is a Sort or a Project of plain input columns over a
  /// Sort, else kKeepAll.
  size_t TopNKeep(const ra::RaNode& limit) const;
  Result<Relation> ExecProject(const ra::RaNode& node, Relation in,
                               EvalContext* ctx);
  /// Sort with keys evaluated through CompiledExpr (EvalScalar when one
  /// does not compile). With keep < rows, selects the first `keep` rows
  /// by a partial sort on (key, input position) — the same prefix a
  /// stable full sort yields.
  Result<Relation> ExecSort(const ra::RaNode& node, EvalContext* ctx,
                            size_t keep);
  /// Resolves a table name through the attached ReadGuard first (pinned
  /// snapshot), then the live registry.
  Result<const storage::Table*> ResolveTable(const std::string& name) const;
  /// Unique-key point lookup for Select(Scan); errors with kNotFound
  /// when the fast path does not apply.
  Result<Relation> TryIndexLookup(const ra::RaNode& node, EvalContext* ctx);
  /// Secondary-index scan for Select(Scan): when the predicate pins a
  /// ready SecondaryIndex's columns to column-free expressions, probes
  /// the index and revalidates each candidate against the read
  /// snapshot instead of materializing the full scan. Charges exactly
  /// the full scan's simulated cost (storage.scan.* and the
  /// rows-processed server term, via Table::VisibleStats) so plan
  /// choice never shows in the deterministic cost model — only in wall
  /// time. kNotFound = inapplicable, caller falls through.
  Result<Relation> TrySecondaryIndexScan(const ra::RaNode& node,
                                         EvalContext* ctx);
  /// Index-nested-loop join: right child is a bare Scan whose
  /// equi-join columns exactly cover a ready secondary index. Probes
  /// the index once per left row instead of materializing and hashing
  /// the right side; classification, residual handling, output order
  /// (left order, right insertion order within a key) and cost charges
  /// match the hash join bit for bit. kNotFound = inapplicable.
  Result<Relation> TryIndexNestedLoopJoin(const ra::RaNode& node,
                                          bool left_outer,
                                          const Relation& left,
                                          EvalContext* ctx);
  Result<catalog::Value> EvalScalar(const ra::ScalarExprPtr& expr,
                                    EvalContext* ctx);
  /// EvalScalar with (`schema`, `row`) pushed as the innermost frame.
  Result<catalog::Value> EvalOnRow(const ra::ScalarExprPtr& expr,
                                   const catalog::Schema& schema,
                                   const catalog::Row& row, EvalContext* ctx);
  Result<Relation> ExecJoin(const ra::RaNode& node, bool left_outer,
                            EvalContext* ctx);
  Result<Relation> ExecOuterApply(const ra::RaNode& node, EvalContext* ctx);
  Result<Relation> ExecGroupBy(const ra::RaNode& node, EvalContext* ctx);

  /// A group-by whose pieces all compiled for batch evaluation:
  /// optional filter predicate, key expressions, and aggregate
  /// arguments (null entry = COUNT(*), which reads no input).
  struct CompiledGroupBy {
    std::unique_ptr<CompiledExpr> pred;
    std::vector<std::unique_ptr<CompiledExpr>> keys;
    std::vector<std::unique_ptr<CompiledExpr>> aggs;
  };
  /// Compiles the group-by's scalar pieces against `schema` (pred only
  /// when `select` is non-null). False = something didn't compile; the
  /// caller falls back to the row engine.
  bool CompileGroupBy(const ra::RaNode& node, const ra::RaNode* select,
                      const catalog::Schema& schema, EvalContext* ctx,
                      CompiledGroupBy* out);

  /// Rows and wire bytes one shard task scanned, for the per-shard
  /// metrics and the profile's shard slot.
  struct ShardScanned {
    size_t rows = 0;
    size_t bytes = 0;
  };
  /// True when an operator over `table` fans out on the pool: a pool is
  /// attached, the table has more than one shard and at least the
  /// parallel threshold of rows.
  bool FansOut(const storage::Table& table) const {
    return pool_ != nullptr && table.shard_count() > 1 &&
           table.row_count() >= parallel_threshold_;
  }
  /// The one shard fan-out behind scan, select-over-scan and
  /// group-by-over-scan. `work(s, acc)` folds shard `s` into `*acc` and
  /// returns what it scanned. When `parallel`, every shard runs as
  /// its own pool task with its own accumulator, under a `span` span,
  /// and charges the per-shard metrics and profile slots; otherwise the
  /// shards run inline, in shard order, into one accumulator. Returns
  /// the accumulators (one per shard, or the single inline one).
  template <typename Acc, typename Work>
  std::vector<Acc> ForEachShard(const storage::Table& table, bool parallel,
                                const char* span, const Work& work);

  /// Vectorized operators over a base table (mode_ == kVector), each one
  /// body over ForEachShard. Each mirrors the serial row engine's
  /// results, error selection, and cost accounting exactly.
  Result<Relation> ExecShardScan(const ra::RaNode& node,
                                 const storage::Table& table);
  Result<Relation> ExecShardSelect(const storage::Table& table,
                                   bool parallel, const CompiledExpr& pred,
                                   const catalog::Schema& schema);
  Result<Relation> ExecShardGroupBy(const ra::RaNode& node,
                                    const storage::Table& table,
                                    const CompiledGroupBy& plan);
  Result<Relation> FilterVector(Relation in, const CompiledExpr& pred);
  Result<Relation> ProjectVector(const ra::RaNode& node, Relation in,
                                 const std::vector<std::unique_ptr<CompiledExpr>>& items);
  Result<Relation> GroupByVectorFold(const ra::RaNode& node, Relation in,
                                     const CompiledGroupBy& plan);

  /// Per-shard counter handles for one fan-out, resolved on the
  /// submitting thread so tasks never take the registry mutex.
  struct ShardScanMetrics {
    obs::Counter* rows = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* ns = nullptr;
  };
  std::vector<ShardScanMetrics> ShardMetrics(size_t shard_count);

  /// The MVCC snapshot every row-visibility check resolves against: the
  /// attached guard's pinned snapshot, or "latest committed" when
  /// executing unguarded (tests, offline tooling).
  storage::Snapshot ReadSnapshot() const {
    return guard_ != nullptr ? guard_->snapshot() : storage::Snapshot::Latest();
  }

  void RecordScan(size_t rows, size_t bytes) {
    if (scan_rows_ != nullptr) {
      scan_rows_->Add(static_cast<int64_t>(rows));
      scan_bytes_->Add(static_cast<int64_t>(bytes));
    }
    if (prof_cur_ != nullptr) {
      prof_cur_->rows_in.fetch_add(static_cast<int64_t>(rows),
                                   std::memory_order_relaxed);
    }
  }

  /// One batch moved through a vectorized operator. Thread-safe
  /// (striped counters, atomic profile accumulator); called from shard
  /// tasks — prof_cur_ is stable for their whole lifetime because the
  /// main thread blocks in WorkerPool::Run until every task finishes.
  void RecordBatch(size_t rows) {
    if (batch_batches_ != nullptr) {
      batch_batches_->Increment();
      batch_rows_->Add(static_cast<int64_t>(rows));
      batch_size_->Record(static_cast<int64_t>(rows));
    }
    if (prof_cur_ != nullptr) {
      prof_cur_->batches.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// An operator in kVector mode handed its input to the row engine.
  void RecordVectorFallback() {
    if (batch_fallbacks_ != nullptr) batch_fallbacks_->Increment();
  }

  const storage::Database* db_;
  const storage::ReadGuard* guard_ = nullptr;
  WorkerPool* pool_ = nullptr;
  size_t parallel_threshold_ = 512;
  ExecMode mode_ = ExecMode::kVector;
  size_t rows_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* scan_rows_ = nullptr;
  obs::Counter* scan_bytes_ = nullptr;
  obs::Counter* parallel_batches_ = nullptr;
  obs::Histogram* shard_scan_ns_ = nullptr;
  obs::Counter* batch_batches_ = nullptr;
  obs::Counter* batch_rows_ = nullptr;
  obs::Counter* batch_fallbacks_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  /// storage.index.* / exec.index.* — physical-plan counters. Like
  /// exec.batch.*, they depend on which access path ran, so the
  /// shard-invariance signature excludes both families.
  obs::Counter* index_probes_ = nullptr;
  obs::Counter* index_rows_ = nullptr;
  obs::Counter* index_scans_ = nullptr;
  obs::Counter* index_nlj_probes_ = nullptr;
  /// Request profile borrowed from the caller; prof_cur_ tracks the
  /// profile node of the operator currently executing on the main
  /// thread (scan/batch charges attribute to it).
  obs::Profile* profile_ = nullptr;
  obs::ProfileNode* prof_cur_ = nullptr;
};

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXECUTOR_H_
