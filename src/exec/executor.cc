#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/scalar_ops.h"
#include "obs/trace.h"
#include "storage/index.h"

namespace eqsql::exec {

using catalog::Row;
using catalog::Schema;
using catalog::Value;
using ra::RaNode;
using ra::RaNodePtr;
using ra::RaOp;
using ra::ScalarExpr;
using ra::ScalarExprPtr;
using ra::ScalarOp;

size_t ResultSet::WireSize() const {
  size_t total = 0;
  for (const Row& row : rows) total += catalog::RowWireSize(row);
  return total;
}

void Executor::Relation::Adopt(std::vector<Row> made) {
  built = std::move(made);
  rows.resize(built.size());
  for (size_t i = 0; i < built.size(); ++i) rows[i] = &built[i];
}

ResultSet Executor::Materialize(Relation rel) {
  ResultSet out;
  out.schema = std::move(rel.schema);
  const size_t n = rel.rows.size();
  bool all_built = n == rel.built.size();
  for (size_t i = 0; all_built && i < n; ++i) {
    all_built = rel.rows[i] == &rel.built[i];
  }
  if (all_built) {
    out.rows = std::move(rel.built);
    return out;
  }
  // Each built row is referenced at most once (only Project, Join,
  // OuterApply and GroupBy build, and pass-through operators never
  // duplicate a reference), so a built row can be moved out.
  const std::less<const Row*> before;
  const Row* lo = rel.built.data();
  const Row* hi = lo + rel.built.size();
  out.rows.reserve(n);
  for (const Row* row : rel.rows) {
    if (row == nullptr) {
      out.rows.emplace_back();
    } else if (!before(row, lo) && before(row, hi)) {
      out.rows.push_back(std::move(const_cast<Row&>(*row)));
    } else {
      out.rows.push_back(*row);  // lent: the boundary copy
    }
  }
  return out;
}

Result<Value> EvalContext::LookupColumn(const std::string& name) const {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    std::optional<size_t> idx = it->schema->IndexOf(name);
    if (idx.has_value()) return (*it->row)[*idx];
  }
  return Status::NotFound("unresolved column: " + name);
}

Result<Value> EvalContext::LookupParameter(int index) const {
  if (params_ == nullptr || index < 0 ||
      static_cast<size_t>(index) >= params_->size()) {
    return Status::InvalidArgument("parameter index out of range: " +
                                   std::to_string(index));
  }
  return (*params_)[index];
}

namespace {

/// Splits an AND tree into its conjuncts.
void SplitConjuncts(const ScalarExprPtr& pred,
                    std::vector<ScalarExprPtr>* out) {
  if (pred == nullptr) return;
  if (pred->op() == ScalarOp::kAnd) {
    SplitConjuncts(pred->child(0), out);
    SplitConjuncts(pred->child(1), out);
    return;
  }
  out->push_back(pred);
}

/// True if every column referenced in `expr` resolves in `schema`.
bool AllRefsResolve(const ScalarExprPtr& expr, const Schema& schema) {
  std::vector<std::string> refs;
  ra::CollectColumnRefs(expr, &refs);
  for (const std::string& r : refs) {
    if (!schema.IndexOf(r).has_value()) return false;
  }
  return true;
}

/// True if `expr` references at least one column.
bool HasColumnRef(const ScalarExprPtr& expr) {
  std::vector<std::string> refs;
  ra::CollectColumnRefs(expr, &refs);
  return !refs.empty();
}

struct RowVecHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t seed = key.size();
    catalog::ValueHash h;
    for (const Value& v : key) HashCombine(seed, h(v));
    return seed;
  }
};

struct RowVecEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

/// Output column name for a group key expression.
std::string GroupKeyName(const ScalarExprPtr& key, size_t i) {
  if (key->op() == ScalarOp::kColumnRef) return key->column_name();
  return "key" + std::to_string(i);
}

/// Accumulator for one aggregate over one group.
struct AggState {
  int64_t count = 0;      // non-null inputs seen (rows for COUNT(*))
  bool any = false;
  bool is_double = false;
  int64_t isum = 0;
  double dsum = 0.0;
  Value minv;
  Value maxv;

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (!any) {
      any = true;
      minv = v;
      maxv = v;
    } else {
      if (v < minv) minv = v;
      if (maxv < v) maxv = v;
    }
    if (v.is_numeric()) {
      if (v.is_double()) is_double = true;
      if (is_double) {
        dsum = (dsum + (isum != 0 ? static_cast<double>(isum) : 0.0));
        isum = 0;
        dsum += v.AsNumeric();
      } else {
        isum += v.AsInt();
      }
    }
  }

  /// Folds another shard's partial state into this one. Only called on
  /// the exact (integer) path: the fused group-by is gated off when any
  /// double can reach Update (see ExecGroupBy), so summation order
  /// cannot change the result.
  void Merge(const AggState& other) {
    count += other.count;
    if (other.any) {
      if (!any) {
        any = true;
        minv = other.minv;
        maxv = other.maxv;
      } else {
        if (other.minv < minv) minv = other.minv;
        if (maxv < other.maxv) maxv = other.maxv;
      }
    }
    isum += other.isum;
  }

  Value Finalize(ra::AggFunc func) const {
    switch (func) {
      case ra::AggFunc::kCountStar:
      case ra::AggFunc::kCount:
        return Value::Int(count);
      case ra::AggFunc::kSum:
        if (!any) return Value::Null();
        return is_double ? Value::Double(dsum) : Value::Int(isum);
      case ra::AggFunc::kMin:
        return any ? minv : Value::Null();
      case ra::AggFunc::kMax:
        return any ? maxv : Value::Null();
      case ra::AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(
            (is_double ? dsum : static_cast<double>(isum)) /
            static_cast<double>(count));
    }
    return Value::Null();
  }
};

/// Primitive partial state for the typed integer fast fold: one
/// non-null int64 input per Update, exactly AggState's behavior for
/// that input class, without boxing a Value per lane. ToAggState
/// reproduces the AggState the row fold would have built from the same
/// inputs bit for bit (is_double stays false; an untouched state keeps
/// the default NULL min/max).
struct FastIntAgg {
  int64_t count = 0;
  bool any = false;
  int64_t isum = 0;
  int64_t minv = 0;
  int64_t maxv = 0;

  void Update(int64_t x) {
    ++count;
    if (!any) {
      any = true;
      minv = x;
      maxv = x;
    } else {
      if (x < minv) minv = x;
      if (maxv < x) maxv = x;
    }
    isum += x;
  }

  void Merge(const FastIntAgg& other) {
    count += other.count;
    if (other.any) {
      if (!any) {
        any = true;
        minv = other.minv;
        maxv = other.maxv;
      } else {
        if (other.minv < minv) minv = other.minv;
        if (maxv < other.maxv) maxv = other.maxv;
      }
    }
    isum += other.isum;
  }

  AggState ToAggState() const {
    AggState s;
    s.count = count;
    s.any = any;
    s.isum = isum;
    if (any) {
      s.minv = Value::Int(minv);
      s.maxv = Value::Int(maxv);
    }
    return s;
  }
};

/// True if the scalar tree contains a double literal or a positional
/// parameter (whose bound value might be a double). Subqueries are not
/// descended: EXISTS yields a bool, so doubles inside one cannot reach
/// an aggregation state.
bool MayProduceDouble(const ScalarExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->op() == ScalarOp::kLiteral && expr->literal().is_double()) {
    return true;
  }
  if (expr->op() == ScalarOp::kParameter) return true;
  for (const ScalarExprPtr& c : expr->children()) {
    if (MayProduceDouble(c)) return true;
  }
  return false;
}

bool SchemaHasDouble(const Schema& schema) {
  for (const catalog::Column& c : schema.columns()) {
    if (c.type == catalog::DataType::kDouble) return true;
  }
  return false;
}

/// Conservative, side-effect-free superset of TryIndexLookup's
/// applicability: true if `select` (a kSelect directly over `scan`)
/// might hit the unique-key point-lookup fast path. When this returns
/// false, TryIndexLookup is guaranteed to fail with kNotFound, so the
/// fused shard operators can take over without changing the row-count
/// accounting (the fast path charges 1 probe instead of a full scan).
bool IndexLookupMightApply(const RaNode& select, const RaNode& scan,
                           const storage::Table& table) {
  // unique_key() returns the optional by value; keep the copy alive
  // for the whole match loop instead of referencing a temporary.
  const std::optional<std::string> key = table.unique_key();
  if (!key.has_value()) return false;
  const std::string qualified = scan.alias() + "." + *key;
  const std::string& bare = *key;
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(select.predicate(), &conjuncts);
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->op() != ScalarOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const ScalarExprPtr& e = c->child(side);
      if (e->op() == ScalarOp::kColumnRef &&
          (e->column_name() == qualified || e->column_name() == bare)) {
        return true;
      }
    }
  }
  return false;
}

/// Resolves a column-ref name from a predicate over a base scan:
/// accepts both the alias-qualified spelling ("t.v") and the bare one
/// ("v"), and returns the table schema's resolved spelling, which is
/// what SecondaryIndex::columns() stores.
std::optional<std::string> BareScanColumn(const std::string& name,
                                          const RaNode& scan,
                                          const storage::Table& table) {
  std::string bare = name;
  const std::string prefix = scan.alias() + ".";
  if (bare.rfind(prefix, 0) == 0) bare = bare.substr(prefix.size());
  Result<size_t> idx = table.schema().ResolveColumn(bare);
  if (!idx.ok()) return std::nullopt;
  return table.schema().column(*idx).name;
}

// ---------------------------------------------------------------------------
// Join machinery shared by the hash join and the index nested-loop join.

/// A join predicate split into hashable equi-key pairs (each side
/// referencing only its own input) and the remaining conjuncts, in
/// predicate order.
struct JoinConjuncts {
  std::vector<ScalarExprPtr> left_keys;
  std::vector<ScalarExprPtr> right_keys;
  std::vector<ScalarExprPtr> residual;
};

/// The one conjunct classifier both join algorithms use, so their key
/// sets, residuals, null-key handling and output order agree.
JoinConjuncts ClassifyJoinConjuncts(const ScalarExprPtr& pred,
                                    const Schema& left, const Schema& right) {
  JoinConjuncts out;
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->op() == ScalarOp::kEq) {
      const ScalarExprPtr& a = c->child(0);
      const ScalarExprPtr& b = c->child(1);
      if (HasColumnRef(a) && HasColumnRef(b)) {
        if (AllRefsResolve(a, left) && AllRefsResolve(b, right)) {
          out.left_keys.push_back(a);
          out.right_keys.push_back(b);
          continue;
        }
        if (AllRefsResolve(b, left) && AllRefsResolve(a, right)) {
          out.left_keys.push_back(b);
          out.right_keys.push_back(a);
          continue;
        }
      }
    }
    out.residual.push_back(c);
  }
  return out;
}

/// One side-only residual term's result for every row of its side,
/// evaluated in batches before the probe. Errors are kept per row, not
/// raised: only a key-matching pair whose fold reaches the term reads
/// them, so a row that matches nothing never surfaces its error.
class SideTermLanes {
 public:
  SideTermLanes(const CompiledExpr& expr, const std::vector<const Row*>& rows)
      : tags_(rows.size(), kOther) {
    Vec v;
    for (size_t off = 0; off < rows.size(); off += kBatchCapacity) {
      const size_t cnt = std::min(kBatchCapacity, rows.size() - off);
      expr.Eval(rows.data() + off, cnt, &v);
      for (size_t i = 0; i < cnt; ++i) {
        if (v.tag == Vec::Tag::kBool) {
          tags_[off + i] = v.bools[i] != 0 ? kTrue : kFalse;
        } else if (v.ErrAt(i)) {
          other_.emplace(off + i, v.ErrStatus(i));
        } else if (Value x = v.At(i); x.is_bool()) {
          tags_[off + i] = x.AsBool() ? kTrue : kFalse;
        } else {
          other_.emplace(off + i, std::move(x));
        }
      }
    }
  }

  Result<Value> At(size_t row) const {
    switch (tags_[row]) {
      case kFalse:
        return Value::Bool(false);
      case kTrue:
        return Value::Bool(true);
      default:
        return other_.at(row);
    }
  }

 private:
  enum Tag : uint8_t { kFalse, kTrue, kOther };
  std::vector<uint8_t> tags_;
  /// NULLs, non-boolean values and errors: rare, so kept sparse.
  std::unordered_map<size_t, Result<Value>> other_;
};

/// One residual conjunct of an equi-join, in predicate order. A term
/// whose every column resolves (in the joined schema) to one input and
/// that compiles is side-only: it is evaluated over that side's row
/// alone, never over a copied joined row. Other terms (both sides,
/// correlated references, subqueries) are pair terms, evaluated by
/// EvalScalar over the joined row.
struct JoinTerm {
  enum class Side : uint8_t { kPair, kLeft, kRight };
  ScalarExprPtr expr;
  Side side = Side::kPair;
  /// Compiled against its side's schema; null for pair terms.
  std::unique_ptr<CompiledExpr> compiled;
  /// Its result for every row of its side, when evaluated ahead of the
  /// probe.
  std::optional<SideTermLanes> lanes;
};

std::vector<JoinTerm> PlanJoinResidual(std::vector<ScalarExprPtr> residual,
                                       const Schema& left, const Schema& right,
                                       const Schema& joined,
                                       const CompiledExpr::ParamLookup& params) {
  std::vector<JoinTerm> out(residual.size());
  for (size_t k = 0; k < residual.size(); ++k) {
    JoinTerm& t = out[k];
    t.expr = std::move(residual[k]);
    std::vector<std::string> refs;
    ra::CollectColumnRefs(t.expr, &refs);
    bool all_left = true;
    bool all_right = true;
    for (const std::string& r : refs) {
      // Resolve exactly as the joined-row evaluation would: a name that
      // is ambiguous or missing in the joined schema is neither side's.
      std::optional<size_t> idx = joined.IndexOf(r);
      all_left = all_left && idx.has_value() && *idx < left.size();
      all_right = all_right && idx.has_value() && *idx >= left.size();
    }
    // A column-free term (a parameter test) rides the right side.
    if (all_right) {
      t.compiled = CompiledExpr::Compile(t.expr, right, params);
      if (t.compiled != nullptr) t.side = JoinTerm::Side::kRight;
    } else if (all_left) {
      t.compiled = CompiledExpr::Compile(t.expr, left, params);
      if (t.compiled != nullptr) t.side = JoinTerm::Side::kLeft;
    }
  }
  return out;
}

/// Folds residual terms left to right exactly as EvalScalar folds the
/// left-deep AND tree ScalarExpr::MakeAnd builds from them: a FALSE
/// prefix short-circuits (later terms and their errors are never
/// read), the first error reached is returned, and the folded value
/// must be TRUE to pass. No terms = pass.
template <typename TermFn>
Result<bool> FoldResidual(size_t terms, TermFn term) {
  if (terms == 0) return true;
  Value acc;
  for (size_t k = 0; k < terms; ++k) {
    if (k > 0 && acc.is_bool() && !acc.AsBool()) return false;
    EQSQL_ASSIGN_OR_RETURN(Value v, term(k));
    acc = k == 0 ? std::move(v) : EvalAnd(acc, v);
  }
  return IsTruthy(acc);
}

/// One join side's equi-key values, extracted once per row. Values sit
/// in an int64 lane while every non-NULL key is an int and demote to
/// boxed Values (compared with ValueHash / operator==, so 1 matches
/// 1.0) on the first that is not. Extraction stops at the first failing
/// row: rows [0, rows) are valid and `err` is row `rows`'s error, which
/// the probe raises when it reaches that row — the same point the
/// row-at-a-time join raised it.
struct JoinKeys {
  size_t width = 0;
  size_t rows = 0;
  Status err = Status::OK();
  bool int_lane = true;
  std::vector<int64_t> ints;      // int_lane: rows * width, row-major
  std::vector<Value> vals;        // otherwise: rows * width, row-major
  std::vector<uint8_t> null_key;  // some key is NULL: never matches

  void Box() {
    if (!int_lane) return;
    int_lane = false;
    vals.reserve(ints.size());
    for (size_t i = 0; i < ints.size(); ++i) {
      vals.push_back(null_key[i / width] ? Value::Null()
                                         : Value::Int(ints[i]));
    }
    ints = {};
  }

  /// Appends one row's key values.
  void Append(const std::vector<Value>& row_keys) {
    bool has_null = false;
    for (const Value& v : row_keys) {
      has_null = has_null || v.is_null();
      if (int_lane && !v.is_null() && !v.is_int()) Box();
    }
    if (int_lane) {
      for (const Value& v : row_keys) ints.push_back(v.is_int() ? v.AsInt() : 0);
    } else {
      vals.insert(vals.end(), row_keys.begin(), row_keys.end());
    }
    null_key.push_back(has_null ? 1 : 0);
    ++rows;
  }

  Value At(size_t row, size_t k) const {
    const size_t i = row * width + k;
    if (!int_lane) return vals[i];
    return null_key[row] ? Value::Null() : Value::Int(ints[i]);
  }

  size_t Hash(size_t row) const {
    size_t seed = width;
    if (int_lane) {
      for (size_t k = 0; k < width; ++k) {
        seed = SplitMix64(seed ^ static_cast<uint64_t>(ints[row * width + k]));
      }
      return seed;
    }
    catalog::ValueHash h;
    for (size_t k = 0; k < width; ++k) HashCombine(seed, h(vals[row * width + k]));
    return seed;
  }
};

/// Key equality across two sides extracted into the same lane.
bool KeysEqual(const JoinKeys& a, size_t ra, const JoinKeys& b, size_t rb) {
  const size_t w = a.width;
  if (a.int_lane) {
    return std::equal(a.ints.begin() + ra * w, a.ints.begin() + (ra + 1) * w,
                      b.ints.begin() + rb * w);
  }
  for (size_t k = 0; k < w; ++k) {
    if (!(a.vals[ra * w + k] == b.vals[rb * w + k])) return false;
  }
  return true;
}

/// Extracts `keys` over `rows`: plain column keys by position,
/// expression keys in batches through CompiledExpr. When any key does
/// not compile (a subquery), the whole side evaluates row by row through
/// `row_eval(row, expr)`, the row engine's evaluator.
template <typename RowEval>
JoinKeys ExtractJoinKeys(const std::vector<ScalarExprPtr>& keys,
                         const Schema& schema,
                         const std::vector<const Row*>& rows,
                         const CompiledExpr::ParamLookup& params,
                         RowEval row_eval) {
  JoinKeys out;
  out.width = keys.size();
  const size_t kNoColumn = static_cast<size_t>(-1);
  std::vector<size_t> cols(keys.size(), kNoColumn);
  std::vector<std::unique_ptr<CompiledExpr>> compiled(keys.size());
  bool batch = true;
  for (size_t k = 0; k < keys.size() && batch; ++k) {
    std::optional<size_t> idx;
    if (keys[k]->op() == ScalarOp::kColumnRef) {
      idx = schema.IndexOf(keys[k]->column_name());
    }
    if (idx.has_value()) {
      cols[k] = *idx;
    } else {
      compiled[k] = CompiledExpr::Compile(keys[k], schema, params);
      batch = compiled[k] != nullptr;
    }
  }
  std::vector<Value> row_keys(keys.size());
  if (!batch) {
    for (const Row* row : rows) {
      for (size_t k = 0; k < keys.size(); ++k) {
        Result<Value> v = row_eval(*row, keys[k]);
        if (!v.ok()) {
          out.err = v.status();
          return out;
        }
        row_keys[k] = std::move(*v);
      }
      out.Append(row_keys);
    }
    return out;
  }
  std::vector<Vec> vs(keys.size());
  for (size_t off = 0; off < rows.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, rows.size() - off);
    for (size_t k = 0; k < keys.size(); ++k) {
      if (compiled[k] != nullptr) compiled[k]->Eval(rows.data() + off, cnt, &vs[k]);
    }
    for (size_t i = 0; i < cnt; ++i) {
      for (size_t k = 0; k < keys.size(); ++k) {
        if (cols[k] != kNoColumn) {
          row_keys[k] = (*rows[off + i])[cols[k]];
          continue;
        }
        // Keys evaluate left to right per row: the first failing key of
        // the first failing row is the error.
        if (vs[k].ErrAt(i)) {
          out.err = vs[k].ErrStatus(i);
          return out;
        }
        row_keys[k] = vs[k].At(i);
      }
      out.Append(row_keys);
    }
  }
  return out;
}

/// Build side of the hash join: the distinct non-NULL right keys, each
/// with the right rows carrying it in input order. Open addressing over
/// key groups; group g's rows are rows_[start_[g], start_[g + 1]).
class JoinHashTable {
 public:
  explicit JoinHashTable(const JoinKeys& keys) : keys_(keys) {
    size_t cap = 16;
    while (cap < 2 * keys.rows) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, 0);
    std::vector<size_t> group_of(keys.rows, 0);
    std::vector<size_t> counts;
    for (size_t i = 0; i < keys.rows; ++i) {
      if (keys.null_key[i]) continue;
      const size_t h = keys.Hash(i);
      size_t slot = h & mask_;
      size_t g;
      while (true) {
        if (slots_[slot] == 0) {
          g = group_rep_.size();
          slots_[slot] = g + 1;
          group_hash_.push_back(h);
          group_rep_.push_back(i);
          counts.push_back(0);
          break;
        }
        g = slots_[slot] - 1;
        if (group_hash_[g] == h && KeysEqual(keys, group_rep_[g], keys, i)) {
          break;
        }
        slot = (slot + 1) & mask_;
      }
      group_of[i] = g;
      ++counts[g];
    }
    start_.assign(counts.size() + 1, 0);
    for (size_t g = 0; g < counts.size(); ++g) {
      start_[g + 1] = start_[g] + counts[g];
    }
    rows_.resize(start_.back());
    std::vector<size_t> fill(start_.begin(), start_.end() - 1);
    for (size_t i = 0; i < keys.rows; ++i) {
      if (!keys.null_key[i]) rows_[fill[group_of[i]]++] = i;
    }
  }

  /// The right rows whose key equals `probe`'s row `row`, in input
  /// order, as a [begin, end) range of right row indices.
  std::pair<const size_t*, const size_t*> Find(const JoinKeys& probe,
                                               size_t row) const {
    const size_t h = probe.Hash(row);
    for (size_t slot = h & mask_; slots_[slot] != 0; slot = (slot + 1) & mask_) {
      const size_t g = slots_[slot] - 1;
      if (group_hash_[g] == h && KeysEqual(probe, row, keys_, group_rep_[g])) {
        return {rows_.data() + start_[g], rows_.data() + start_[g + 1]};
      }
    }
    return {nullptr, nullptr};
  }

 private:
  const JoinKeys& keys_;
  size_t mask_ = 0;
  std::vector<size_t> slots_;  // group + 1; 0 = empty
  std::vector<size_t> group_hash_;
  std::vector<size_t> group_rep_;  // first right row of each group
  std::vector<size_t> start_;
  std::vector<size_t> rows_;
};

/// How many matches ahead the hash-join probe prefetches right rows.
constexpr ptrdiff_t kPrefetchAhead = 8;

/// Appends lrow ++ rrow to `out` when the residual passes for the pair.
/// Side-only terms come from `side_term(k)`; pair terms evaluate over
/// the joined row through `pair_eval(joined, expr)`. The joined row is
/// built at most once, only when a pair term or the output needs it.
/// Returns whether the pair was emitted.
template <typename SideTerm, typename PairEval>
Result<bool> EmitIfResidualPasses(const std::vector<JoinTerm>& residual,
                                  const Row& lrow, const Row& rrow,
                                  SideTerm side_term, PairEval pair_eval,
                                  std::vector<Row>* out) {
  Row joined;
  bool built = false;
  auto build = [&] {
    joined.reserve(lrow.size() + rrow.size());
    joined.insert(joined.end(), lrow.begin(), lrow.end());
    joined.insert(joined.end(), rrow.begin(), rrow.end());
    built = true;
  };
  EQSQL_ASSIGN_OR_RETURN(
      bool pass,
      FoldResidual(residual.size(), [&](size_t k) -> Result<Value> {
        if (residual[k].side != JoinTerm::Side::kPair) return side_term(k);
        if (!built) build();
        return pair_eval(joined, residual[k].expr);
      }));
  if (!pass) return false;
  if (!built) build();
  out->push_back(std::move(joined));
  return true;
}

/// lrow padded with the right side's NULLs (LEFT OUTER JOIN, no match).
Row PadRight(const Row& lrow, const Row& null_right) {
  Row joined;
  joined.reserve(lrow.size() + null_right.size());
  joined.insert(joined.end(), lrow.begin(), lrow.end());
  joined.insert(joined.end(), null_right.begin(), null_right.end());
  return joined;
}

}  // namespace

void Executor::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    scan_rows_ = nullptr;
    scan_bytes_ = nullptr;
    parallel_batches_ = nullptr;
    shard_scan_ns_ = nullptr;
    batch_batches_ = nullptr;
    batch_rows_ = nullptr;
    batch_fallbacks_ = nullptr;
    batch_size_ = nullptr;
    index_probes_ = nullptr;
    index_rows_ = nullptr;
    index_scans_ = nullptr;
    index_nlj_probes_ = nullptr;
    return;
  }
  scan_rows_ = metrics->counter("storage.scan.rows");
  scan_bytes_ = metrics->counter("storage.scan.bytes");
  parallel_batches_ = metrics->counter("exec.parallel.batches");
  shard_scan_ns_ = metrics->histogram("storage.shard.scan_ns");
  // exec.batch.* is layout- and mode-dependent by design (like
  // exec.pool.*): batch counts shift with shard boundaries and the
  // engine in use, so the shard-invariance signature excludes the
  // family (tests/shard_invariance_test.cc).
  batch_batches_ = metrics->counter("exec.batch.batches");
  batch_rows_ = metrics->counter("exec.batch.rows");
  batch_fallbacks_ = metrics->counter("exec.batch.fallbacks");
  batch_size_ = metrics->histogram("exec.batch.size");
  // storage.index.* / exec.index.* depend on which physical access
  // path ran (indexes are per-database DDL state, not part of the
  // logical workload), so the invariance signature excludes them too.
  index_probes_ = metrics->counter("storage.index.probes");
  index_rows_ = metrics->counter("storage.index.rows");
  index_scans_ = metrics->counter("exec.index.scans");
  index_nlj_probes_ = metrics->counter("exec.index.nlj_probes");
}

std::vector<Executor::ShardScanMetrics> Executor::ShardMetrics(
    size_t shard_count) {
  std::vector<ShardScanMetrics> out(shard_count);
  if (metrics_ == nullptr) return out;
  for (size_t s = 0; s < shard_count; ++s) {
    const std::string prefix = "storage.shard." + std::to_string(s) + ".scan.";
    out[s].rows = metrics_->counter(prefix + "rows");
    out[s].bytes = metrics_->counter(prefix + "bytes");
    out[s].ns = metrics_->counter(prefix + "ns");
  }
  return out;
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Result<const storage::Table*> Executor::ResolveTable(
    const std::string& name) const {
  if (guard_ != nullptr) {
    const storage::Table* pinned = guard_->Find(name);
    if (pinned != nullptr) return pinned;
  }
  return db_->GetTable(name);
}

Result<Schema> Executor::OutputSchema(const RaNode& node) const {
  switch (node.op()) {
    case RaOp::kScan: {
      EQSQL_ASSIGN_OR_RETURN(const storage::Table* table,
                             ResolveTable(node.table_name()));
      std::vector<catalog::Column> cols;
      for (const catalog::Column& c : table->schema().columns()) {
        cols.push_back({node.alias() + "." + c.name, c.type});
      }
      return Schema(std::move(cols));
    }
    case RaOp::kSelect:
    case RaOp::kSort:
    case RaOp::kDedup:
    case RaOp::kLimit:
      return OutputSchema(*node.child(0));
    case RaOp::kProject: {
      EQSQL_ASSIGN_OR_RETURN(Schema child, OutputSchema(*node.child(0)));
      std::vector<catalog::Column> cols;
      for (const ra::ProjectItem& item : node.project_items()) {
        catalog::DataType type = catalog::DataType::kNull;
        if (item.expr->op() == ScalarOp::kColumnRef) {
          auto idx = child.IndexOf(item.expr->column_name());
          if (idx.has_value()) type = child.column(*idx).type;
        } else if (item.expr->op() == ScalarOp::kLiteral) {
          type = item.expr->literal().type();
        }
        cols.push_back({item.name, type});
      }
      return Schema(std::move(cols));
    }
    case RaOp::kJoin:
    case RaOp::kLeftOuterJoin:
    case RaOp::kOuterApply: {
      EQSQL_ASSIGN_OR_RETURN(Schema left, OutputSchema(*node.child(0)));
      EQSQL_ASSIGN_OR_RETURN(Schema right, OutputSchema(*node.child(1)));
      return left.Concat(right);
    }
    case RaOp::kGroupBy: {
      EQSQL_ASSIGN_OR_RETURN(Schema child, OutputSchema(*node.child(0)));
      std::vector<catalog::Column> cols;
      const auto& keys = node.group_keys();
      for (size_t i = 0; i < keys.size(); ++i) {
        catalog::DataType type = catalog::DataType::kNull;
        if (keys[i]->op() == ScalarOp::kColumnRef) {
          auto idx = child.IndexOf(keys[i]->column_name());
          if (idx.has_value()) type = child.column(*idx).type;
        }
        cols.push_back({GroupKeyName(keys[i], i), type});
      }
      for (const ra::AggregateSpec& agg : node.aggregates()) {
        catalog::DataType type = catalog::DataType::kInt64;
        if (agg.func == ra::AggFunc::kAvg) type = catalog::DataType::kDouble;
        if ((agg.func == ra::AggFunc::kMin || agg.func == ra::AggFunc::kMax ||
             agg.func == ra::AggFunc::kSum) &&
            agg.arg != nullptr && agg.arg->op() == ScalarOp::kColumnRef) {
          auto idx = child.IndexOf(agg.arg->column_name());
          if (idx.has_value()) type = child.column(*idx).type;
        }
        cols.push_back({agg.name, type});
      }
      return Schema(std::move(cols));
    }
  }
  return Status::Internal("OutputSchema: unknown operator");
}

Result<ResultSet> Executor::Execute(const RaNodePtr& node,
                                    const std::vector<Value>& params) {
  rows_processed_ = 0;
  prof_cur_ = nullptr;
  EvalContext ctx(&params);
  EQSQL_ASSIGN_OR_RETURN(Relation rel, Exec(*node, &ctx));
  return Materialize(std::move(rel));
}

Result<Value> Executor::Eval(const ScalarExprPtr& expr, EvalContext* ctx) {
  return EvalScalar(expr, ctx);
}

Result<Value> Executor::EvalScalar(const ScalarExprPtr& expr,
                                   EvalContext* ctx) {
  switch (expr->op()) {
    case ScalarOp::kColumnRef:
      return ctx->LookupColumn(expr->column_name());
    case ScalarOp::kLiteral:
      return expr->literal();
    case ScalarOp::kParameter:
      return ctx->LookupParameter(expr->parameter_index());
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
    case ScalarOp::kMul:
    case ScalarOp::kDiv:
    case ScalarOp::kMod: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr->child(0), ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr->child(1), ctx));
      return EvalArithmetic(expr->op(), lhs, rhs);
    }
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr->child(0), ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr->child(1), ctx));
      return EvalComparison(expr->op(), lhs, rhs);
    }
    case ScalarOp::kAnd: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr->child(0), ctx));
      if (lhs.is_bool() && !lhs.AsBool()) return Value::Bool(false);
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr->child(1), ctx));
      return EvalAnd(lhs, rhs);
    }
    case ScalarOp::kOr: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr->child(0), ctx));
      if (lhs.is_bool() && lhs.AsBool()) return Value::Bool(true);
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr->child(1), ctx));
      return EvalOr(lhs, rhs);
    }
    case ScalarOp::kNot: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr->child(0), ctx));
      return EvalNot(v);
    }
    case ScalarOp::kNeg: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr->child(0), ctx));
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::RuntimeError("negation of non-numeric value");
    }
    case ScalarOp::kConcat: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr->child(0), ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr->child(1), ctx));
      return EvalConcat(lhs, rhs);
    }
    case ScalarOp::kGreatest:
    case ScalarOp::kLeast: {
      std::vector<Value> args;
      args.reserve(expr->children().size());
      for (const auto& c : expr->children()) {
        EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(c, ctx));
        args.push_back(std::move(v));
      }
      return EvalGreatestLeast(expr->op() == ScalarOp::kGreatest, args);
    }
    case ScalarOp::kCase: {
      EQSQL_ASSIGN_OR_RETURN(Value cond, EvalScalar(expr->child(0), ctx));
      if (IsTruthy(cond)) return EvalScalar(expr->child(1), ctx);
      return EvalScalar(expr->child(2), ctx);
    }
    case ScalarOp::kIsNull: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr->child(0), ctx));
      return Value::Bool(v.is_null());
    }
    case ScalarOp::kExists:
    case ScalarOp::kNotExists: {
      EQSQL_ASSIGN_OR_RETURN(Relation sub, Exec(*expr->subquery(), ctx));
      bool exists = !sub.rows.empty();
      return Value::Bool(expr->op() == ScalarOp::kExists ? exists : !exists);
    }
  }
  return Status::Internal("EvalScalar: unknown operator");
}

Result<Value> Executor::EvalOnRow(const ScalarExprPtr& expr,
                                  const Schema& schema, const Row& row,
                                  EvalContext* ctx) {
  ctx->PushFrame(&schema, &row);
  Result<Value> v = EvalScalar(expr, ctx);
  ctx->PopFrame();
  return v;
}

Result<Executor::Relation> Executor::Exec(const RaNode& node,
                                          EvalContext* ctx, size_t keep) {
  if (profile_ == nullptr) return ExecNode(node, ctx, keep);
  // Look up (or create) this plan node's profile entry under the
  // current operator; correlated subqueries and OuterApply re-enter the
  // same plan node, which folds into one entry with execs > 1. Wall
  // time is inclusive of children and never touches the simulated
  // clock, so cost parity holds with profiling on or off.
  obs::ProfileNode* parent = prof_cur_;
  obs::ProfileNode* me =
      profile_->ChildFor(parent, &node, ra::RaOpToString(node.op()));
  prof_cur_ = me;
  const int64_t t0 = NowNs();
  Result<Relation> out = ExecNode(node, ctx, keep);
  me->wall_ns += NowNs() - t0;
  me->execs += 1;
  if (out.ok()) me->rows_out += static_cast<int64_t>(out->rows.size());
  prof_cur_ = parent;
  return out;
}

Result<Executor::Relation> Executor::ExecNode(const RaNode& node,
                                              EvalContext* ctx, size_t keep) {
  switch (node.op()) {
    case RaOp::kScan: {
      EQSQL_ASSIGN_OR_RETURN(const storage::Table* table,
                             ResolveTable(node.table_name()));
      if (mode_ == ExecMode::kVector) return ExecShardScan(node, *table);
      Relation out;
      EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
      out.Adopt(table->rows(ReadSnapshot()));
      rows_processed_ += out.rows.size();
      size_t bytes = 0;
      if (scan_rows_ != nullptr) {
        for (const Row& row : out.built) bytes += catalog::RowWireSize(row);
      }
      RecordScan(out.rows.size(), bytes);
      return out;
    }
    case RaOp::kSelect: {
      // Index fast path: a selection over a base scan whose predicate
      // pins the table's unique key to a computable value becomes a
      // point lookup (this is what MySQL's primary-key index does for
      // the paper's per-row scalar queries).
      if (node.child(0)->op() == RaOp::kScan) {
        Result<const storage::Table*> table =
            ResolveTable(node.child(0)->table_name());
        bool might_index =
            table.ok() && IndexLookupMightApply(node, *node.child(0), **table);
        if (might_index) {
          Result<Relation> fast = TryIndexLookup(node, ctx);
          if (fast.ok()) return fast;
        }
        // Secondary-index scan: equality bindings on a ready index's
        // columns turn the full scan into a probe plus per-candidate
        // revalidation. kNotFound means inapplicable; any other error
        // is a real execution failure.
        if (table.ok() && (*table)->index_count() > 0) {
          Result<Relation> idx = TrySecondaryIndexScan(node, ctx);
          if (idx.ok() || idx.status().code() != StatusCode::kNotFound) {
            return idx;
          }
        }
        // Fused select-over-scan: stream shard cursors straight through
        // the compiled predicate instead of materializing the whole scan
        // and re-batching it through FilterVector. It fans out when the
        // pool gate holds and no unique-key lookup looked possible.
        // Otherwise it runs inline, but only at the top level; that also
        // covers a unique-key lookup that looked possible but missed.
        // Compile failure falls through to the unfused attempt below,
        // which records the fallback.
        const bool parallel =
            table.ok() && !might_index && FansOut(**table);
        if (table.ok() && mode_ == ExecMode::kVector &&
            (parallel || ctx->depth() == 0)) {
          EQSQL_ASSIGN_OR_RETURN(Schema scan_schema,
                                 OutputSchema(*node.child(0)));
          std::unique_ptr<CompiledExpr> pred = CompiledExpr::Compile(
              node.predicate(), scan_schema,
              [ctx](int i) { return ctx->LookupParameter(i); });
          if (pred != nullptr) {
            return ExecShardSelect(**table, parallel, *pred, scan_schema);
          }
        }
      }
      EQSQL_ASSIGN_OR_RETURN(Relation in, Exec(*node.child(0), ctx));
      if (mode_ == ExecMode::kVector && ctx->depth() == 0) {
        std::unique_ptr<CompiledExpr> pred = CompiledExpr::Compile(
            node.predicate(), in.schema,
            [ctx](int i) { return ctx->LookupParameter(i); });
        if (pred != nullptr) return FilterVector(std::move(in), *pred);
        RecordVectorFallback();
      }
      size_t kept = 0;
      for (const Row* row : in.rows) {
        ctx->PushFrame(&in.schema, row);
        Result<Value> pred = EvalScalar(node.predicate(), ctx);
        ctx->PopFrame();
        if (!pred.ok()) return pred.status();
        if (IsTruthy(*pred)) in.rows[kept++] = row;
      }
      in.rows.resize(kept);
      rows_processed_ += kept;
      return in;
    }
    case RaOp::kProject: {
      EQSQL_ASSIGN_OR_RETURN(Relation in, Exec(*node.child(0), ctx, keep));
      const size_t rows = in.rows.size();
      if (keep >= rows) return ExecProject(node, std::move(in), ctx);
      // Top-N: project only the prefix the Limit reads; the padding rows
      // keep the row count (and its charges) of the full projection.
      in.rows.resize(keep);
      EQSQL_ASSIGN_OR_RETURN(Relation out,
                             ExecProject(node, std::move(in), ctx));
      out.rows.resize(rows, nullptr);
      rows_processed_ += rows - keep;
      return out;
    }
    case RaOp::kJoin:
      return ExecJoin(node, /*left_outer=*/false, ctx);
    case RaOp::kLeftOuterJoin:
      return ExecJoin(node, /*left_outer=*/true, ctx);
    case RaOp::kOuterApply:
      return ExecOuterApply(node, ctx);
    case RaOp::kGroupBy:
      return ExecGroupBy(node, ctx);
    case RaOp::kSort:
      return ExecSort(node, ctx, keep);
    case RaOp::kDedup: {
      EQSQL_ASSIGN_OR_RETURN(Relation in, Exec(*node.child(0), ctx));
      struct DerefHash {
        size_t operator()(const Row* row) const { return RowVecHash()(*row); }
      };
      struct DerefEq {
        bool operator()(const Row* a, const Row* b) const {
          return RowVecEq()(*a, *b);
        }
      };
      std::unordered_set<const Row*, DerefHash, DerefEq> seen;
      size_t kept = 0;
      for (const Row* row : in.rows) {
        if (seen.insert(row).second) in.rows[kept++] = row;
      }
      in.rows.resize(kept);
      rows_processed_ += kept;
      return in;
    }
    case RaOp::kLimit: {
      EQSQL_ASSIGN_OR_RETURN(Relation in,
                             Exec(*node.child(0), ctx, TopNKeep(node)));
      if (node.limit() >= 0 &&
          in.rows.size() > static_cast<size_t>(node.limit())) {
        in.rows.resize(static_cast<size_t>(node.limit()));
      }
      rows_processed_ += in.rows.size();
      return in;
    }
  }
  return Status::Internal("Exec: unknown operator");
}

Result<Executor::Relation> Executor::ExecProject(const RaNode& node,
                                                 Relation in,
                                                 EvalContext* ctx) {
  if (mode_ == ExecMode::kVector && ctx->depth() == 0) {
    std::vector<std::unique_ptr<CompiledExpr>> items;
    items.reserve(node.project_items().size());
    bool compiled = true;
    for (const ra::ProjectItem& item : node.project_items()) {
      items.push_back(CompiledExpr::Compile(
          item.expr, in.schema,
          [ctx](int i) { return ctx->LookupParameter(i); }));
      if (items.back() == nullptr) {
        compiled = false;
        break;
      }
    }
    if (compiled) return ProjectVector(node, std::move(in), items);
    RecordVectorFallback();
  }
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
  std::vector<Row> made;
  made.reserve(in.rows.size());
  for (const Row* row : in.rows) {
    ctx->PushFrame(&in.schema, row);
    Row projected;
    projected.reserve(node.project_items().size());
    Status status = Status::OK();
    for (const ra::ProjectItem& item : node.project_items()) {
      Result<Value> v = EvalScalar(item.expr, ctx);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      projected.push_back(std::move(*v));
    }
    ctx->PopFrame();
    EQSQL_RETURN_IF_ERROR(status);
    made.push_back(std::move(projected));
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  return out;
}

namespace {

/// One ORDER BY key's value for every input row: an int64 lane while
/// every value is a non-NULL int, boxed Values from the first that is
/// not.
struct SortColumn {
  bool ascending = true;
  bool int_lane = true;
  std::vector<int64_t> ints;
  std::vector<Value> vals;

  void Push(Value v) {
    if (int_lane && v.is_int()) {
      ints.push_back(v.AsInt());
      return;
    }
    if (int_lane) {
      int_lane = false;
      vals.reserve(ints.capacity());
      for (int64_t x : ints) vals.push_back(Value::Int(x));
      ints = {};
    }
    vals.push_back(std::move(v));
  }

  /// Negative, zero or positive as row `a` sorts before, level with, or
  /// after row `b` (the row engine's ordering: equal values tie, else
  /// operator< decides, flipped for DESC).
  int Compare(size_t a, size_t b) const {
    bool lt;
    if (int_lane) {
      if (ints[a] == ints[b]) return 0;
      lt = ints[a] < ints[b];
    } else {
      if (vals[a] == vals[b]) return 0;
      lt = vals[a] < vals[b];
    }
    return (ascending ? lt : !lt) ? -1 : 1;
  }
};

}  // namespace

size_t Executor::TopNKeep(const RaNode& limit) const {
  if (limit.limit() < 0) return kKeepAll;
  const RaNode& child = *limit.child(0);
  if (child.op() == RaOp::kSort) return static_cast<size_t>(limit.limit());
  if (child.op() != RaOp::kProject || child.child(0)->op() != RaOp::kSort) {
    return kKeepAll;
  }
  // Plain input columns only: such a projection cannot fail or read a
  // subquery, so projecting just the kept prefix changes nothing but
  // the work done.
  Result<Schema> sorted = OutputSchema(*child.child(0));
  if (!sorted.ok()) return kKeepAll;
  for (const ra::ProjectItem& item : child.project_items()) {
    if (item.expr->op() != ScalarOp::kColumnRef ||
        !sorted->IndexOf(item.expr->column_name()).has_value()) {
      return kKeepAll;
    }
  }
  return static_cast<size_t>(limit.limit());
}

Result<Executor::Relation> Executor::ExecSort(const RaNode& node,
                                              EvalContext* ctx, size_t keep) {
  EQSQL_ASSIGN_OR_RETURN(Relation in, Exec(*node.child(0), ctx));
  const auto& sort_keys = node.sort_keys();
  const size_t n = in.rows.size();
  std::vector<SortColumn> cols(sort_keys.size());
  std::vector<std::unique_ptr<CompiledExpr>> compiled;
  bool batch = true;
  for (size_t k = 0; k < sort_keys.size(); ++k) {
    cols[k].ascending = sort_keys[k].ascending;
    if (!batch) continue;
    compiled.push_back(CompiledExpr::Compile(
        sort_keys[k].expr, in.schema,
        [ctx](int i) { return ctx->LookupParameter(i); }));
    batch = compiled.back() != nullptr;
  }
  // Either way the first failing key of the first failing row (keys
  // left to right) is the error, as in row-at-a-time evaluation.
  if (batch) {
    std::vector<Vec> vs(sort_keys.size());
    for (size_t off = 0; off < n; off += kBatchCapacity) {
      const size_t cnt = std::min(kBatchCapacity, n - off);
      for (size_t k = 0; k < compiled.size(); ++k) {
        compiled[k]->Eval(in.rows.data() + off, cnt, &vs[k]);
      }
      for (size_t i = 0; i < cnt; ++i) {
        for (size_t k = 0; k < vs.size(); ++k) {
          if (vs[k].ErrAt(i)) return vs[k].ErrStatus(i);
          cols[k].Push(vs[k].At(i));
        }
      }
    }
  } else {
    for (const Row* row : in.rows) {
      ctx->PushFrame(&in.schema, row);
      Status status = Status::OK();
      for (size_t k = 0; k < sort_keys.size() && status.ok(); ++k) {
        Result<Value> v = EvalScalar(sort_keys[k].expr, ctx);
        if (v.ok()) {
          cols[k].Push(std::move(*v));
        } else {
          status = v.status();
        }
      }
      ctx->PopFrame();
      EQSQL_RETURN_IF_ERROR(status);
    }
  }
  // Input position breaks ties, which makes the order total: a full
  // sort equals the row engine's stable sort, and a partial sort's
  // prefix equals that sort's prefix.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  auto before = [&](size_t a, size_t b) {
    for (const SortColumn& c : cols) {
      const int r = c.Compare(a, b);
      if (r != 0) return r < 0;
    }
    return a < b;
  };
  const size_t sorted = std::min(keep, n);
  if (sorted < n) {
    std::partial_sort(order.begin(), order.begin() + sorted, order.end(),
                      before);
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  // Rows past the kept prefix become nullptr padding.
  std::vector<const Row*> rows(n, nullptr);
  for (size_t i = 0; i < sorted; ++i) rows[i] = in.rows[order[i]];
  in.rows = std::move(rows);
  rows_processed_ += n;
  return in;
}

Result<Executor::Relation> Executor::TryIndexLookup(const RaNode& node,
                                                    EvalContext* ctx) {
  const RaNode& scan = *node.child(0);
  EQSQL_ASSIGN_OR_RETURN(const storage::Table* table,
                         ResolveTable(scan.table_name()));
  if (!table->unique_key().has_value()) {
    return Status::NotFound("no key");
  }
  std::string key_col = scan.alias() + "." + *table->unique_key();

  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(node.predicate(), &conjuncts);
  ScalarExprPtr key_expr;
  std::vector<ScalarExprPtr> residual;
  for (const ScalarExprPtr& c : conjuncts) {
    if (key_expr == nullptr && c->op() == ScalarOp::kEq) {
      const ScalarExprPtr& a = c->child(0);
      const ScalarExprPtr& b = c->child(1);
      auto is_key = [&](const ScalarExprPtr& e) {
        if (e->op() != ScalarOp::kColumnRef) return false;
        const std::string& n = e->column_name();
        if (n == key_col) return true;
        size_t dot = key_col.rfind('.');
        return n == key_col.substr(dot + 1);
      };
      // The other side must not reference this scan's columns.
      EQSQL_ASSIGN_OR_RETURN(Schema scan_schema, OutputSchema(scan));
      if (is_key(a) && !AllRefsResolve(b, scan_schema) ) {
        key_expr = b;
        continue;
      }
      if (is_key(b) && !AllRefsResolve(a, scan_schema)) {
        key_expr = a;
        continue;
      }
      // Literal/parameter sides have no refs at all.
      if (is_key(a) && !HasColumnRef(b)) {
        key_expr = b;
        continue;
      }
      if (is_key(b) && !HasColumnRef(a)) {
        key_expr = a;
        continue;
      }
    }
    residual.push_back(c);
  }
  if (key_expr == nullptr) return Status::NotFound("no key equality");

  EQSQL_ASSIGN_OR_RETURN(Value key, EvalScalar(key_expr, ctx));
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(scan));
  const Row* hit = table->LendByKey(key, ReadSnapshot());
  if (hit != nullptr) {
    bool pass = true;
    if (!residual.empty()) {
      ctx->PushFrame(&out.schema, hit);
      Result<Value> v = EvalScalar(ScalarExpr::MakeAnd(residual), ctx);
      ctx->PopFrame();
      if (!v.ok()) return v.status();
      pass = IsTruthy(*v);
    }
    if (pass) out.rows.push_back(hit);
  }
  rows_processed_ += 1;  // index probe, not a scan
  if (prof_cur_ != nullptr) prof_cur_->label = "KeyLookup";
  return out;
}

Result<Executor::Relation> Executor::TrySecondaryIndexScan(
    const RaNode& node, EvalContext* ctx) {
  const RaNode& scan = *node.child(0);
  EQSQL_ASSIGN_OR_RETURN(const storage::Table* table,
                         ResolveTable(scan.table_name()));

  // Split the predicate into "column = column-free expr" bindings and
  // a residual that is re-checked on every candidate row.
  struct Binding {
    std::string column;       // table schema's resolved spelling
    ScalarExprPtr value;      // the column-free side of the equality
    ScalarExprPtr conjunct;   // original conjunct, for residual demotion
  };
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(node.predicate(), &conjuncts);
  std::vector<Binding> bindings;
  std::vector<ScalarExprPtr> residual;
  for (const ScalarExprPtr& c : conjuncts) {
    bool classified = false;
    if (c->op() == ScalarOp::kEq) {
      for (int side = 0; side < 2 && !classified; ++side) {
        const ScalarExprPtr& col = c->child(side);
        const ScalarExprPtr& val = c->child(1 - side);
        if (col->op() != ScalarOp::kColumnRef || HasColumnRef(val)) continue;
        std::optional<std::string> bare =
            BareScanColumn(col->column_name(), scan, *table);
        if (!bare.has_value()) continue;
        bool dup = false;
        for (const Binding& b : bindings) dup = dup || b.column == *bare;
        if (dup) continue;  // first binding per column wins; extras re-check
        bindings.push_back({*bare, val, c});
        classified = true;
      }
    }
    if (!classified) residual.push_back(c);
  }
  if (bindings.empty()) return Status::NotFound("no index-usable equalities");

  // Choose the widest ready index fully covered by the bindings.
  std::vector<std::string> bound;
  bound.reserve(bindings.size());
  for (const Binding& b : bindings) bound.push_back(b.column);
  std::shared_ptr<const storage::SecondaryIndex> index;
  for (const auto& cols : table->IndexedColumnLists()) {
    bool covered = true;
    for (const std::string& col : cols) {
      covered = covered &&
                std::find(bound.begin(), bound.end(), col) != bound.end();
    }
    if (!covered) continue;
    if (index == nullptr || cols.size() > index->columns().size()) {
      std::shared_ptr<const storage::SecondaryIndex> exact =
          table->FindIndex(cols);
      if (exact != nullptr) index = std::move(exact);
    }
  }
  if (index == nullptr) return Status::NotFound("no matching index");

  // Bindings the chosen index does not consume go back to the residual
  // as their original conjuncts.
  std::vector<const Binding*> key_bindings;  // in index-column order
  for (const std::string& col : index->columns()) {
    for (const Binding& b : bindings) {
      if (b.column == col) {
        key_bindings.push_back(&b);
        break;
      }
    }
  }
  for (const Binding& b : bindings) {
    if (std::find(index->columns().begin(), index->columns().end(),
                  b.column) == index->columns().end()) {
      residual.push_back(b.conjunct);
    }
  }

  // Evaluate the probe key. An eval failure falls back to the scan so
  // the row-dependent behavior stays identical (an erroring value expr
  // over an empty table is not an error on the scan path).
  std::vector<Value> key;
  key.reserve(key_bindings.size());
  for (const Binding* b : key_bindings) {
    Result<Value> v = EvalScalar(b->value, ctx);
    if (!v.ok()) return Status::NotFound("probe key did not evaluate");
    key.push_back(std::move(*v));
  }

  const storage::Snapshot snap = ReadSnapshot();
  // Cost parity: charge exactly what the serial full scan plus filter
  // would — the plan choice shows up in wall time and in the
  // storage.index.* / exec.index.* counters, never in simulated cost.
  const storage::TableScanStats stats = table->VisibleStats(snap);
  std::vector<std::shared_ptr<const storage::TableSlot>> candidates =
      index->Probe(key);
  if (index_probes_ != nullptr) {
    index_probes_->Increment();
    index_rows_->Add(static_cast<int64_t>(candidates.size()));
  }

  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(scan));
  ScalarExprPtr residual_pred;
  if (!residual.empty()) residual_pred = ScalarExpr::MakeAnd(residual);
  const std::vector<size_t>& key_cols = index->column_indexes();
  for (const auto& slot : candidates) {
    const Row* visible = slot->VisibleRow(snap);
    if (visible == nullptr) continue;
    // Entries are append-only, so revalidate: the slot's visible
    // version must still carry the probed key values.
    bool key_match = true;
    for (size_t i = 0; i < key_cols.size(); ++i) {
      key_match = key_match && (*visible)[key_cols[i]] == key[i];
    }
    if (!key_match) continue;
    if (residual_pred != nullptr) {
      ctx->PushFrame(&out.schema, visible);
      Result<Value> v = EvalScalar(residual_pred, ctx);
      ctx->PopFrame();
      if (!v.ok()) return v.status();
      if (!IsTruthy(*v)) continue;
    }
    out.rows.push_back(visible);
  }
  rows_processed_ += stats.rows;
  RecordScan(stats.rows, stats.bytes);
  rows_processed_ += out.rows.size();
  if (index_scans_ != nullptr) index_scans_->Increment();
  if (prof_cur_ != nullptr) prof_cur_->label = "IndexScan";
  return out;
}

Result<Executor::Relation> Executor::TryIndexNestedLoopJoin(
    const RaNode& node, bool left_outer, const Relation& left,
    EvalContext* ctx) {
  const RaNode& right_node = *node.child(1);
  if (right_node.op() != RaOp::kScan) {
    return Status::NotFound("right side is not a base scan");
  }
  Result<const storage::Table*> resolved =
      ResolveTable(right_node.table_name());
  // Let the regular path surface resolution errors identically.
  if (!resolved.ok()) return Status::NotFound("right table did not resolve");
  const storage::Table* table = *resolved;
  if (table->index_count() == 0) return Status::NotFound("no indexes");
  EQSQL_ASSIGN_OR_RETURN(Schema right_schema, OutputSchema(right_node));

  // The hash join's classifier, so the residual, the null-key handling,
  // and the output order match it bit for bit.
  JoinConjuncts split =
      ClassifyJoinConjuncts(node.predicate(), left.schema, right_schema);
  if (split.left_keys.empty()) return Status::NotFound("no equi-join keys");

  // Every right key must be a plain, distinct column ref whose column
  // set exactly covers a ready index.
  std::vector<std::string> right_cols;
  right_cols.reserve(split.right_keys.size());
  for (const ScalarExprPtr& k : split.right_keys) {
    if (k->op() != ScalarOp::kColumnRef) {
      return Status::NotFound("right key is not a plain column");
    }
    std::optional<std::string> bare =
        BareScanColumn(k->column_name(), right_node, *table);
    if (!bare.has_value() ||
        std::find(right_cols.begin(), right_cols.end(), *bare) !=
            right_cols.end()) {
      return Status::NotFound("right keys are not distinct table columns");
    }
    right_cols.push_back(std::move(*bare));
  }
  std::shared_ptr<const storage::SecondaryIndex> index =
      table->FindIndexForColumnSet(right_cols);
  if (index == nullptr) return Status::NotFound("no matching index");
  // perm[i] = position in left_keys/right_cols of the index's i-th column.
  std::vector<size_t> perm;
  perm.reserve(index->columns().size());
  for (const std::string& col : index->columns()) {
    for (size_t j = 0; j < right_cols.size(); ++j) {
      if (right_cols[j] == col) {
        perm.push_back(j);
        break;
      }
    }
  }

  const storage::Snapshot snap = ReadSnapshot();
  // Charge the right side exactly as the scan it replaces would have.
  const storage::TableScanStats stats = table->VisibleStats(snap);
  rows_processed_ += stats.rows;
  RecordScan(stats.rows, stats.bytes);

  Relation out;
  out.schema = left.schema.Concat(right_schema);
  std::vector<Row> made;
  const CompiledExpr::ParamLookup params = [ctx](int i) {
    return ctx->LookupParameter(i);
  };
  JoinKeys lkeys = ExtractJoinKeys(
      split.left_keys, left.schema, left.rows, params,
      [&](const Row& row, const ScalarExprPtr& e) {
        return EvalOnRow(e, left.schema, row, ctx);
      });
  std::vector<JoinTerm> residual = PlanJoinResidual(
      std::move(split.residual), left.schema, right_schema, out.schema, params);
  // Left-only terms run ahead over the left rows; right-only terms run
  // once per probe over its key-matched candidates, reading the versions
  // the index hands back in place.
  for (JoinTerm& t : residual) {
    if (t.side == JoinTerm::Side::kLeft) t.lanes.emplace(*t.compiled, left.rows);
  }
  auto pair_eval = [&](const Row& joined, const ScalarExprPtr& e) {
    return EvalOnRow(e, out.schema, joined, ctx);
  };
  Row null_right(right_schema.size(), Value::Null());
  const std::vector<size_t>& key_cols = index->column_indexes();
  std::vector<Value> key(perm.size());
  std::vector<const Row*> matches;
  for (size_t l = 0; l < left.rows.size(); ++l) {
    if (l == lkeys.rows) return lkeys.err;
    const Row& lrow = *left.rows[l];
    bool matched = false;
    if (!lkeys.null_key[l]) {
      for (size_t i = 0; i < perm.size(); ++i) key[i] = lkeys.At(l, perm[i]);
      std::vector<std::shared_ptr<const storage::TableSlot>> candidates =
          index->Probe(key);
      if (index_nlj_probes_ != nullptr) {
        index_nlj_probes_->Increment();
        index_rows_->Add(static_cast<int64_t>(candidates.size()));
      }
      // Candidates come back in slot-sequence order, which is the same
      // order the hash join's build lists hold right rows in.
      matches.clear();
      for (const auto& slot : candidates) {
        const Row* visible = slot->VisibleRow(snap);
        if (visible == nullptr) continue;
        bool key_match = true;
        for (size_t i = 0; i < key_cols.size(); ++i) {
          key_match = key_match && (*visible)[key_cols[i]] == key[i];
        }
        if (key_match) matches.push_back(visible);
      }
      for (JoinTerm& t : residual) {
        if (t.side == JoinTerm::Side::kRight) {
          t.lanes.emplace(*t.compiled, matches);
        }
      }
      for (size_t m = 0; m < matches.size(); ++m) {
        auto side_term = [&](size_t k) {
          const JoinTerm& t = residual[k];
          return t.lanes->At(t.side == JoinTerm::Side::kLeft ? l : m);
        };
        EQSQL_ASSIGN_OR_RETURN(
            bool emitted, EmitIfResidualPasses(residual, lrow, *matches[m],
                                               side_term, pair_eval, &made));
        matched = matched || emitted;
      }
    }
    if (left_outer && !matched) made.push_back(PadRight(lrow, null_right));
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  if (prof_cur_ != nullptr) prof_cur_->label = "IndexNestedLoopJoin";
  return out;
}

Result<Executor::Relation> Executor::ExecJoin(const RaNode& node,
                                              bool left_outer,
                                              EvalContext* ctx) {
  EQSQL_ASSIGN_OR_RETURN(Relation left, Exec(*node.child(0), ctx));
  {
    // Index nested-loop attempt, before executing the right side.
    Result<Relation> inlj = TryIndexNestedLoopJoin(node, left_outer, left, ctx);
    if (inlj.ok() || inlj.status().code() != StatusCode::kNotFound) {
      return inlj;
    }
  }
  EQSQL_ASSIGN_OR_RETURN(Relation right, Exec(*node.child(1), ctx));
  Relation out;
  out.schema = left.schema.Concat(right.schema);
  std::vector<Row> made;
  JoinConjuncts split =
      ClassifyJoinConjuncts(node.predicate(), left.schema, right.schema);
  Row null_right(right.schema.size(), Value::Null());

  if (split.left_keys.empty()) {
    // Nested loop join.
    ScalarExprPtr pred = node.predicate();
    for (const Row* lrow : left.rows) {
      bool matched = false;
      for (const Row* rrow : right.rows) {
        Row joined = PadRight(*lrow, *rrow);
        if (pred != nullptr) {
          EQSQL_ASSIGN_OR_RETURN(Value v,
                                 EvalOnRow(pred, out.schema, joined, ctx));
          if (!IsTruthy(v)) continue;
        }
        made.push_back(std::move(joined));
        matched = true;
      }
      if (left_outer && !matched) made.push_back(PadRight(*lrow, null_right));
    }
    out.Adopt(std::move(made));
    rows_processed_ += out.rows.size();
    return out;
  }

  // Hash join, built on the right. Keys are extracted once per row on
  // both sides (right first: its errors surface before any probe), then
  // every side-only residual term is evaluated once per row of its side.
  const CompiledExpr::ParamLookup params = [ctx](int i) {
    return ctx->LookupParameter(i);
  };
  auto side_eval = [ctx, this](const Schema& schema) {
    return [ctx, this, &schema](const Row& row, const ScalarExprPtr& e) {
      return EvalOnRow(e, schema, row, ctx);
    };
  };
  JoinKeys rkeys = ExtractJoinKeys(split.right_keys, right.schema, right.rows,
                                   params, side_eval(right.schema));
  if (!rkeys.err.ok()) return rkeys.err;
  JoinKeys lkeys = ExtractJoinKeys(split.left_keys, left.schema, left.rows,
                                   params, side_eval(left.schema));
  if (!lkeys.int_lane || !rkeys.int_lane) {
    lkeys.Box();
    rkeys.Box();
  }
  const JoinHashTable build(rkeys);
  std::vector<JoinTerm> residual = PlanJoinResidual(
      std::move(split.residual), left.schema, right.schema, out.schema, params);
  for (JoinTerm& t : residual) {
    if (t.side == JoinTerm::Side::kLeft) t.lanes.emplace(*t.compiled, left.rows);
    if (t.side == JoinTerm::Side::kRight) {
      t.lanes.emplace(*t.compiled, right.rows);
    }
  }
  auto pair_eval = side_eval(out.schema);
  for (size_t l = 0; l < left.rows.size(); ++l) {
    if (l == lkeys.rows) return lkeys.err;
    const Row& lrow = *left.rows[l];
    bool matched = false;
    if (!lkeys.null_key[l]) {
      auto [begin, end] = build.Find(lkeys, l);
      for (const size_t* r = begin; r != end; ++r) {
        // A key's right rows are scattered through the right input:
        // fetch the row a few matches ahead while this one is copied.
        if (end - r > kPrefetchAhead) {
          const Row& ahead = *right.rows[r[kPrefetchAhead]];
          const char* p = reinterpret_cast<const char*>(ahead.data());
          const size_t bytes = ahead.size() * sizeof(Value);
          for (size_t off = 0; off < bytes; off += 64) {
            __builtin_prefetch(p + off);
          }
        }
        auto side_term = [&](size_t k) {
          const JoinTerm& t = residual[k];
          return t.lanes->At(t.side == JoinTerm::Side::kLeft ? l : *r);
        };
        EQSQL_ASSIGN_OR_RETURN(
            bool emitted,
            EmitIfResidualPasses(residual, lrow, *right.rows[*r], side_term,
                                 pair_eval, &made));
        matched = matched || emitted;
      }
    }
    if (left_outer && !matched) made.push_back(PadRight(lrow, null_right));
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  return out;
}

Result<Executor::Relation> Executor::ExecOuterApply(const RaNode& node,
                                                    EvalContext* ctx) {
  EQSQL_ASSIGN_OR_RETURN(Relation left, Exec(*node.child(0), ctx));
  EQSQL_ASSIGN_OR_RETURN(Schema right_schema, OutputSchema(*node.child(1)));
  Relation out;
  out.schema = left.schema.Concat(right_schema);
  std::vector<Row> made;
  Row null_right(right_schema.size(), Value::Null());
  for (const Row* lrow : left.rows) {
    ctx->PushFrame(&left.schema, lrow);
    Result<Relation> inner = Exec(*node.child(1), ctx);
    ctx->PopFrame();
    if (!inner.ok()) return inner.status();
    if (inner->rows.empty()) {
      made.push_back(PadRight(*lrow, null_right));
    } else {
      for (const Row* rrow : inner->rows) {
        made.push_back(PadRight(*lrow, *rrow));
      }
    }
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  return out;
}

namespace {

/// Boxed group keys in first-insert order. Lookup probes with the
/// caller's scratch key and copies it only for a new group, so a row
/// whose group already exists allocates nothing. A zero-width key
/// (scalar aggregation) is the one group and never hashes.
class GroupKeys {
 public:
  /// The group of `key`, appended after the existing groups when new;
  /// `*inserted` says which.
  size_t Find(const std::vector<Value>& key, bool* inserted) {
    if (key.empty()) {
      *inserted = keys_.empty();
      if (*inserted) keys_.emplace_back();
      return 0;
    }
    auto it = index_.find(key);
    *inserted = it == index_.end();
    if (!*inserted) return it->second;
    index_.emplace(key, keys_.size());
    keys_.push_back(key);
    return keys_.size() - 1;
  }

  size_t size() const { return keys_.size(); }
  std::vector<Value>& key(size_t g) { return keys_[g]; }

 private:
  std::unordered_map<std::vector<Value>, size_t, RowVecHash, RowVecEq> index_;
  std::vector<std::vector<Value>> keys_;
};

}  // namespace

Result<Executor::Relation> Executor::ExecGroupBy(const RaNode& node,
                                                 EvalContext* ctx) {
  // Fused aggregation over a (possibly filtered) base scan streams the
  // shard cursors through the compiled plan. It folds shards in any
  // order and, under a pool, merges per-shard partial states, so it
  // applies only when every value that can reach an aggregation state
  // is exact: no double column in the scanned schema, no double literal
  // or parameter in the keys / aggregate arguments / filter predicate,
  // and no outer frames (a correlated outer column could be a double).
  // Under those gates the result is byte-identical to the serial fold.
  if (mode_ == ExecMode::kVector && ctx->depth() == 0) {
    const RaNode* select = nullptr;
    const RaNode* scan = nullptr;
    const RaNode& child = *node.child(0);
    if (child.op() == RaOp::kScan) {
      scan = &child;
    } else if (child.op() == RaOp::kSelect &&
               child.child(0)->op() == RaOp::kScan) {
      select = &child;
      scan = child.child(0).get();
    }
    Result<const storage::Table*> table =
        scan != nullptr ? ResolveTable(scan->table_name()) : nullptr;
    if (scan != nullptr && table.ok() && *table != nullptr) {
      bool hazard = SchemaHasDouble((*table)->schema());
      if (select != nullptr) {
        hazard = hazard || IndexLookupMightApply(*select, *scan, **table) ||
                 MayProduceDouble(select->predicate());
      }
      for (const ScalarExprPtr& k : node.group_keys()) {
        hazard = hazard || MayProduceDouble(k);
      }
      for (const ra::AggregateSpec& a : node.aggregates()) {
        hazard = hazard || MayProduceDouble(a.arg);
      }
      if (!hazard) {
        Result<Schema> scan_schema = OutputSchema(*scan);
        CompiledGroupBy plan;
        // A plan that does not compile falls through to the unfused
        // attempt below, which records the fallback.
        if (scan_schema.ok() &&
            CompileGroupBy(node, select, *scan_schema, ctx, &plan)) {
          return ExecShardGroupBy(node, **table, plan);
        }
      }
    }
  }
  EQSQL_ASSIGN_OR_RETURN(Relation in, Exec(*node.child(0), ctx));
  if (mode_ == ExecMode::kVector && ctx->depth() == 0) {
    // The serial vector fold needs no exactness gate: lanes fold in the
    // serial row order and no partial states merge, so even double
    // summation reproduces the row engine bit for bit.
    CompiledGroupBy plan;
    if (CompileGroupBy(node, /*select=*/nullptr, in.schema, ctx, &plan)) {
      return GroupByVectorFold(node, std::move(in), plan);
    }
    RecordVectorFallback();
  }
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));

  const auto& keys = node.group_keys();
  const auto& aggs = node.aggregates();

  // Group index: key tuple -> position in `groups` (first-seen order).
  GroupKeys groups;
  std::vector<std::vector<AggState>> group_states;
  std::vector<Value> key;  // scratch, reused for every row

  for (const Row* row : in.rows) {
    ctx->PushFrame(&in.schema, row);
    key.clear();
    Status status = Status::OK();
    for (const ScalarExprPtr& k : keys) {
      Result<Value> v = EvalScalar(k, ctx);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      key.push_back(std::move(*v));
    }
    if (status.ok()) {
      bool inserted = false;
      const size_t g = groups.Find(key, &inserted);
      if (inserted) group_states.emplace_back(aggs.size());
      std::vector<AggState>& states = group_states[g];
      for (size_t a = 0; a < aggs.size(); ++a) {
        if (aggs[a].func == ra::AggFunc::kCountStar) {
          ++states[a].count;
          continue;
        }
        Result<Value> v = EvalScalar(aggs[a].arg, ctx);
        if (!v.ok()) {
          status = v.status();
          break;
        }
        states[a].Update(*v);
      }
    }
    ctx->PopFrame();
    EQSQL_RETURN_IF_ERROR(status);
  }

  // Scalar aggregation (no keys) over empty input produces one row.
  if (keys.empty() && groups.size() == 0) {
    bool inserted = false;
    groups.Find({}, &inserted);
    group_states.emplace_back(aggs.size());
  }

  std::vector<Row> made;
  made.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    Row row = std::move(groups.key(g));
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(group_states[g][a].Finalize(aggs[a].func));
    }
    made.push_back(std::move(row));
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  return out;
}

// ---------------------------------------------------------------------------
// Vectorized execution (mode_ == kVector). Every operator here must
// match the serial row engine above bit for bit: same rows, same error
// chosen under failure (the lowest sequence number, left-to-right
// within a row), same rows_processed_ and storage.scan.* charges, with
// or without a pool. Only exec.batch.* / exec.parallel.* observability
// and speed may differ.

namespace {

/// Refills `batch` from `cursor`; returns the chunk's row count
/// (0 = shard exhausted).
size_t NextBatch(storage::ShardScanCursor* cursor, Batch* batch) {
  batch->seqs.clear();
  batch->rows.clear();
  batch->wire_bytes = 0;
  return cursor->Next(kBatchCapacity, &batch->seqs, &batch->rows,
                      &batch->wire_bytes);
}

/// The failure serial execution would surface: the row engine
/// evaluates the seq-ordered scan and aborts at the first failing row,
/// so among failures the lowest seq wins.
struct SeqFailure {
  Status status = Status::OK();
  size_t seq = 0;

  bool ok() const { return status.ok(); }
  /// True if a failure at `at` would precede every failure seen so far.
  bool Earlier(size_t at) const { return status.ok() || at < seq; }
  void Offer(Status st, size_t at) {
    if (Earlier(at)) {
      status = std::move(st);
      seq = at;
    }
  }
  void Offer(const SeqFailure& other) {
    if (!other.ok()) Offer(other.status, other.seq);
  }
};

using CompiledExprs = std::vector<std::unique_ptr<CompiledExpr>>;

/// One group-by accumulator: groups keyed by value with the minimum seq
/// folded into each (the serial first-seen order). While at most one key
/// is grouped on and every lane so far was typed, groups live in a
/// primitive int64 table (the one scalar group, unhashed, when there is
/// no key); the first batch that is not typed demotes them to boxed
/// keys for good. Predicate and fold failures are kept apart because
/// the serial engine filters the whole scan before folding a row, so a
/// predicate error anywhere outranks any fold error.
struct GroupPartial {
  bool ready = false;
  size_t width = 0;  // group keys
  size_t aggs = 0;   // aggregates
  bool boxed = false;
  std::unordered_map<int64_t, size_t> fast_index;
  std::vector<int64_t> fast_keys;
  std::vector<std::vector<FastIntAgg>> fast_states;
  std::vector<size_t> fast_seq;
  GroupKeys keys;
  std::vector<std::vector<AggState>> states;
  std::vector<size_t> seq;
  size_t scanned = 0;
  size_t bytes = 0;
  size_t matched = 0;
  SeqFailure pred_fail;
  SeqFailure fold_fail;
  // Batch scratch, reused across the batches this accumulator folds.
  Batch batch;
  Vec pv;
  std::vector<Vec> kv;
  std::vector<Vec> av;
  std::vector<Value> key;

  /// Sizes the accumulator for its plan; later calls (the next shard
  /// folded inline into the same accumulator) change nothing.
  void Init(size_t key_count, size_t agg_count) {
    if (ready) return;
    ready = true;
    width = key_count;
    aggs = agg_count;
    boxed = width > 1;
    kv.resize(width);
    av.resize(aggs);
  }

  std::vector<FastIntAgg>& FastGroup(int64_t k, size_t at) {
    size_t g = 0;
    bool inserted = fast_keys.empty();
    if (width != 0) {
      auto [it, fresh] = fast_index.try_emplace(k, fast_keys.size());
      g = it->second;
      inserted = fresh;
    }
    if (inserted) {
      fast_keys.push_back(k);
      fast_states.emplace_back(aggs);
      fast_seq.push_back(at);
    } else if (at < fast_seq[g]) {
      fast_seq[g] = at;
    }
    return fast_states[g];
  }

  /// The boxed group of key `k`, created when new; folds `at` into the
  /// group's minimum seq.
  size_t GroupOf(const std::vector<Value>& k, size_t at) {
    bool inserted = false;
    const size_t g = keys.Find(k, &inserted);
    if (inserted) {
      states.emplace_back(aggs);
      seq.push_back(at);
    } else {
      NoteSeq(g, at);
    }
    return g;
  }
  std::vector<AggState>& Group(const std::vector<Value>& k, size_t at) {
    return states[GroupOf(k, at)];
  }
  void NoteSeq(size_t g, size_t at) {
    if (at < seq[g]) seq[g] = at;
  }

  /// True if lanes `a` and `b` of every key vector hold equal keys
  /// (Value equality, the relation the group table hashes under).
  bool SameKey(size_t a, size_t b) const {
    for (const Vec& v : kv) {
      switch (v.tag) {
        case Vec::Tag::kInt:
          if (v.ints[a] != v.ints[b]) return false;
          break;
        case Vec::Tag::kBool:
          if (v.bools[a] != v.bools[b]) return false;
          break;
        case Vec::Tag::kBoxed:
          if (!(v.boxed[a] == v.boxed[b])) return false;
          break;
      }
    }
    return true;
  }

  /// Moves the typed groups into the boxed table; their seqs survive,
  /// so first-seen group order is unchanged.
  void Demote() {
    for (size_t g = 0; g < fast_keys.size(); ++g) {
      key.clear();
      if (width != 0) key.push_back(Value::Int(fast_keys[g]));
      std::vector<AggState>& st = Group(key, fast_seq[g]);
      for (size_t a = 0; a < aggs; ++a) st[a] = fast_states[g][a].ToAggState();
    }
    fast_index.clear();
    fast_keys.clear();
    fast_states.clear();
    fast_seq.clear();
    boxed = true;
  }

  /// Folds one batch: rows[i] carries insertion seq seqs[i]. `pred` may
  /// be null; a null aggregate is COUNT(*), which reads no input.
  void Fold(const CompiledExpr* pred, const CompiledExprs& key_exprs,
            const CompiledExprs& agg_exprs, const Row* const* rows,
            const size_t* seqs, size_t n) {
    if (pred != nullptr) pred->Eval(rows, n, &pv);
    for (size_t k = 0; k < width; ++k) key_exprs[k]->Eval(rows, n, &kv[k]);
    for (size_t a = 0; a < aggs; ++a) {
      if (agg_exprs[a] != nullptr) agg_exprs[a]->Eval(rows, n, &av[a]);
    }
    if (!boxed) {
      // Typed fast path: integer key and aggregate inputs fold through
      // primitive partials. A typed Vec holds no NULL and no error
      // lanes by construction, so this cannot diverge from the boxed
      // fold.
      bool typed = (width == 0 || kv[0].tag == Vec::Tag::kInt) &&
                   (pred == nullptr || !pv.has_err);
      for (size_t a = 0; typed && a < aggs; ++a) {
        typed = agg_exprs[a] == nullptr || av[a].tag == Vec::Tag::kInt;
      }
      if (typed) {
        const int64_t* lanes = width == 0 ? nullptr : kv[0].ints.data();
        const bool pred_bool = pred != nullptr && pv.tag == Vec::Tag::kBool;
        for (size_t i = 0; i < n; ++i) {
          if (pred != nullptr) {
            const bool truthy =
                pred_bool ? pv.bools[i] != 0 : IsTruthy(pv.At(i));
            if (!truthy) continue;
            ++matched;
          }
          std::vector<FastIntAgg>& st =
              FastGroup(lanes == nullptr ? 0 : lanes[i], seqs[i]);
          for (size_t a = 0; a < aggs; ++a) {
            if (agg_exprs[a] == nullptr) {
              ++st[a].count;  // COUNT(*)
              continue;
            }
            st[a].Update(av[a].ints[i]);
          }
        }
        return;
      }
      Demote();
    }
    constexpr size_t kNoLane = static_cast<size_t>(-1);
    size_t prev_lane = kNoLane;  // last lane folded in this batch
    size_t prev_group = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t at = seqs[i];
      if (pred != nullptr) {
        if (pv.ErrAt(i)) {
          if (pred_fail.Earlier(at)) pred_fail.Offer(pv.ErrStatus(i), at);
          continue;
        }
        if (!IsTruthy(pv.At(i))) continue;
        ++matched;
      }
      if (!fold_fail.Earlier(at)) continue;
      // Keys before aggregates, left to right: the row fold's error
      // order within a row.
      bool lane_failed = false;
      for (const Vec& v : kv) {
        if (v.ErrAt(i)) {
          fold_fail.Offer(v.ErrStatus(i), at);
          lane_failed = true;
          break;
        }
      }
      if (lane_failed) continue;
      // Runs of equal keys (a join's output per outer row, clustered
      // input) reuse the previous lane's group without hashing.
      size_t g;
      if (prev_lane != kNoLane && SameKey(prev_lane, i)) {
        g = prev_group;
        NoteSeq(g, at);
      } else {
        key.clear();
        for (const Vec& v : kv) key.push_back(v.At(i));
        g = GroupOf(key, at);
      }
      prev_lane = i;
      prev_group = g;
      std::vector<AggState>& st = states[g];
      for (size_t a = 0; a < aggs; ++a) {
        if (agg_exprs[a] == nullptr) {
          ++st[a].count;  // COUNT(*)
          continue;
        }
        if (av[a].ErrAt(i)) {
          fold_fail.Offer(av[a].ErrStatus(i), at);
          break;
        }
        st[a].Update(av[a].At(i));
      }
    }
  }

  /// Folds another shard's groups into this one. Exact: the caller's
  /// hazard gate keeps every state integer, so merge order is moot.
  void Merge(GroupPartial* other) {
    if (!boxed && !other->boxed) {
      for (size_t g = 0; g < other->fast_keys.size(); ++g) {
        std::vector<FastIntAgg>& st =
            FastGroup(other->fast_keys[g], other->fast_seq[g]);
        for (size_t a = 0; a < aggs; ++a) st[a].Merge(other->fast_states[g][a]);
      }
      return;
    }
    Demote();
    other->Demote();
    for (size_t g = 0; g < other->keys.size(); ++g) {
      std::vector<AggState>& st = Group(other->keys.key(g), other->seq[g]);
      for (size_t a = 0; a < aggs; ++a) st[a].Merge(other->states[g][a]);
    }
  }

  /// The finished groups as output rows (keys, then finalized
  /// aggregates), in first-seen order. Scalar aggregation (no keys)
  /// over empty input produces one row.
  std::vector<Row> Rows(const std::vector<ra::AggregateSpec>& specs) {
    Demote();
    if (width == 0 && keys.size() == 0) Group({}, 0);
    std::vector<size_t> order(keys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return seq[a] < seq[b]; });
    std::vector<Row> out;
    out.reserve(order.size());
    for (size_t g : order) {
      Row row = std::move(keys.key(g));
      for (size_t a = 0; a < aggs; ++a) {
        row.push_back(states[g][a].Finalize(specs[a].func));
      }
      out.push_back(std::move(row));
    }
    return out;
  }
};

}  // namespace

Result<Executor::Relation> Executor::FilterVector(Relation in,
                                                  const CompiledExpr& pred) {
  // Compacts the references in place: a kept row's slot never lies past
  // the one being read, and each chunk is evaluated before any of its
  // slots is overwritten.
  Vec v;
  std::vector<uint32_t> sel;
  size_t kept = 0;
  for (size_t off = 0; off < in.rows.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, in.rows.size() - off);
    RecordBatch(cnt);
    pred.Eval(in.rows.data() + off, cnt, &v);
    if (v.has_err) {
      // The row engine aborts at the first failing row; lanes are in
      // row order, so the first error lane is that row.
      for (size_t i = 0; i < cnt; ++i) {
        if (v.ErrAt(i)) return v.ErrStatus(i);
        if (IsTruthy(v.At(i))) in.rows[kept++] = in.rows[off + i];
      }
    } else {
      sel.clear();
      AppendTruthySelection(v, &sel);
      for (uint32_t i : sel) in.rows[kept++] = in.rows[off + i];
    }
  }
  in.rows.resize(kept);
  rows_processed_ += kept;
  return in;
}

Result<Executor::Relation> Executor::ProjectVector(
    const RaNode& node, Relation in, const CompiledExprs& items) {
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
  std::vector<Row> made;
  made.reserve(in.rows.size());
  std::vector<Vec> vs(items.size());
  for (size_t off = 0; off < in.rows.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, in.rows.size() - off);
    RecordBatch(cnt);
    for (size_t k = 0; k < items.size(); ++k) {
      items[k]->Eval(in.rows.data() + off, cnt, &vs[k]);
    }
    for (size_t i = 0; i < cnt; ++i) {
      Row projected;
      projected.reserve(items.size());
      // Items evaluate left to right per row in the row engine: the
      // first erroring item aborts the statement.
      for (const Vec& v : vs) {
        if (v.ErrAt(i)) return v.ErrStatus(i);
        projected.push_back(v.At(i));
      }
      made.push_back(std::move(projected));
    }
  }
  out.Adopt(std::move(made));
  rows_processed_ += out.rows.size();
  return out;
}

bool Executor::CompileGroupBy(const RaNode& node, const RaNode* select,
                              const Schema& schema, EvalContext* ctx,
                              CompiledGroupBy* out) {
  auto params = [ctx](int i) { return ctx->LookupParameter(i); };
  if (select != nullptr) {
    out->pred = CompiledExpr::Compile(select->predicate(), schema, params);
    if (out->pred == nullptr) return false;
  }
  for (const ScalarExprPtr& k : node.group_keys()) {
    out->keys.push_back(CompiledExpr::Compile(k, schema, params));
    if (out->keys.back() == nullptr) return false;
  }
  for (const ra::AggregateSpec& a : node.aggregates()) {
    if (a.func == ra::AggFunc::kCountStar) {
      out->aggs.push_back(nullptr);  // reads no input
      continue;
    }
    out->aggs.push_back(CompiledExpr::Compile(a.arg, schema, params));
    if (out->aggs.back() == nullptr) return false;
  }
  return true;
}

Result<Executor::Relation> Executor::GroupByVectorFold(
    const RaNode& node, Relation in, const CompiledGroupBy& plan) {
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
  // One accumulator fed in row order, with the input position as the
  // seq: the lowest-seq failure is the first failing row, and group
  // order by minimum seq is first-seen order.
  GroupPartial p;
  p.Init(plan.keys.size(), plan.aggs.size());
  std::vector<size_t> pos;
  for (size_t off = 0; off < in.rows.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, in.rows.size() - off);
    RecordBatch(cnt);
    pos.resize(cnt);
    for (size_t i = 0; i < cnt; ++i) pos[i] = off + i;
    p.Fold(nullptr, plan.keys, plan.aggs, in.rows.data() + off, pos.data(),
           cnt);
    if (!p.fold_fail.ok()) return p.fold_fail.status;
  }
  out.Adopt(p.Rows(node.aggregates()));
  rows_processed_ += out.rows.size();
  return out;
}

// ---------------------------------------------------------------------------
// One shard fan-out per operator. Scan, select-over-scan and
// group-by-over-scan each have one body: per-shard work that folds a
// shard's batches into an accumulator, then one merge over the
// accumulators. ForEachShard runs the work as pool tasks (one
// accumulator per shard) or inline (one accumulator for every shard);
// the merge is the same either way.

namespace {

/// (insertion seq, lent row) pairs gathered from shard cursors, one run
/// per shard: run i starts at rows[starts[i]].
struct SeqRuns {
  std::vector<std::pair<size_t, const Row*>> rows;
  std::vector<size_t> starts;

  /// Opens the run of the next shard folded into this accumulator.
  void BeginRun() { starts.push_back(rows.size()); }
};

/// Restores the serial scan's insertion order over the runs every
/// accumulator gathered. Sequence numbers are sparse under MVCC (DELETE
/// retires a slot but never renumbers the survivors), so the order is
/// by seq value. A shard's slots follow seq order except after
/// concurrent keyless inserts, so a run found out of order is sorted
/// first; then the runs merge pairwise.
template <typename Acc>
std::vector<const Row*> SeqOrderedRows(std::vector<Acc>* accs) {
  using Pair = std::pair<size_t, const Row*>;
  std::vector<Pair> merged;
  std::vector<size_t> bounds;  // run r is [bounds[r], bounds[r + 1])
  if (accs->size() == 1) {
    merged = std::move(accs->front().runs.rows);
    bounds = std::move(accs->front().runs.starts);
  } else {
    size_t total = 0;
    for (const Acc& a : *accs) total += a.runs.rows.size();
    merged.reserve(total);
    for (const Acc& a : *accs) {
      for (size_t start : a.runs.starts) {
        bounds.push_back(merged.size() + start);
      }
      merged.insert(merged.end(), a.runs.rows.begin(), a.runs.rows.end());
    }
  }
  if (bounds.empty() || bounds.front() != 0) bounds.insert(bounds.begin(), 0);
  bounds.push_back(merged.size());
  auto by_seq = [](const Pair& a, const Pair& b) { return a.first < b.first; };
  for (size_t r = 0; r + 1 < bounds.size(); ++r) {
    auto begin = merged.begin() + bounds[r];
    auto end = merged.begin() + bounds[r + 1];
    if (!std::is_sorted(begin, end, by_seq)) std::sort(begin, end, by_seq);
  }
  if (bounds.size() > 2) {
    std::vector<Pair> scratch(merged.size());
    while (bounds.size() > 2) {
      std::vector<size_t> next{0};
      for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
        const size_t mid = bounds[r + 1];
        const size_t end = r + 2 < bounds.size() ? bounds[r + 2] : mid;
        std::merge(merged.begin() + bounds[r], merged.begin() + mid,
                   merged.begin() + mid, merged.begin() + end,
                   scratch.begin() + bounds[r], by_seq);
        next.push_back(end);
      }
      merged.swap(scratch);
      bounds = std::move(next);
    }
  }
  std::vector<const Row*> rows(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) rows[i] = merged[i].second;
  return rows;
}

}  // namespace

template <typename Acc, typename Work>
std::vector<Acc> Executor::ForEachShard(const storage::Table& table,
                                        bool parallel, const char* span,
                                        const Work& work) {
  const size_t shards = table.shard_count();
  if (!parallel) {
    std::vector<Acc> accs(1);
    for (size_t s = 0; s < shards; ++s) work(s, &accs[0]);
    return accs;
  }
  if (parallel_batches_ != nullptr) parallel_batches_->Increment();
  const std::vector<ShardScanMetrics> shard_metrics = ShardMetrics(shards);
  const obs::SpanContext parent = obs::CurrentSpanContext();
  // Per-shard profile slots: sized on the main thread before fan-out;
  // each task writes only slot s (and accumulator s), published by the
  // pool barrier.
  obs::ProfileNode* prof = prof_cur_;
  if (prof != nullptr) prof->shards.resize(shards);
  std::vector<Acc> accs(shards);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    tasks.push_back([this, &work, &accs, &shard_metrics, parent, prof, span,
                     s] {
      obs::ScopedContext tctx(parent);
      obs::ScopedSpan tspan(span);
      if (tspan.active()) tspan.Attr("shard", std::to_string(s));
      const int64_t t0 = NowNs();
      const ShardScanned scanned = work(s, &accs[s]);
      const ShardScanMetrics& m = shard_metrics[s];
      if (m.rows != nullptr) {
        m.rows->Add(static_cast<int64_t>(scanned.rows));
        m.bytes->Add(static_cast<int64_t>(scanned.bytes));
        const int64_t elapsed = NowNs() - t0;
        m.ns->Add(elapsed);
        shard_scan_ns_->Record(elapsed);
      }
      if (prof != nullptr) {
        prof->shards[s].rows += static_cast<int64_t>(scanned.rows);
        prof->shards[s].wall_ns += NowNs() - t0;
      }
    });
  }
  pool_->Run(std::move(tasks));
  return accs;
}

Result<Executor::Relation> Executor::ExecShardScan(
    const RaNode& node, const storage::Table& table) {
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
  const storage::Snapshot snap = ReadSnapshot();
  struct Acc {
    SeqRuns runs;
    size_t bytes = 0;
    Batch batch;
  };
  std::vector<Acc> accs = ForEachShard<Acc>(
      table, FansOut(table), "shard-scan", [&](size_t s, Acc* a) {
        const ShardScanned before{a->runs.rows.size(), a->bytes};
        a->runs.BeginRun();
        storage::ShardScanCursor cursor(table, s, snap);
        for (size_t n = NextBatch(&cursor, &a->batch); n != 0;
             n = NextBatch(&cursor, &a->batch)) {
          RecordBatch(n);
          a->bytes += a->batch.wire_bytes;
          for (size_t i = 0; i < n; ++i) {
            a->runs.rows.emplace_back(a->batch.seqs[i], a->batch.rows[i]);
          }
        }
        return ShardScanned{a->runs.rows.size() - before.rows,
                            a->bytes - before.bytes};
      });
  size_t bytes = 0;
  for (const Acc& a : accs) bytes += a.bytes;
  out.rows = SeqOrderedRows(&accs);
  rows_processed_ += out.rows.size();
  RecordScan(out.rows.size(), bytes);
  return out;
}

Result<Executor::Relation> Executor::ExecShardSelect(
    const storage::Table& table, bool parallel, const CompiledExpr& pred,
    const Schema& schema) {
  const storage::Snapshot snap = ReadSnapshot();
  struct Acc {
    SeqRuns runs;  // (seq, matched row)
    size_t scanned = 0;
    size_t bytes = 0;
    SeqFailure fail;
    Batch batch;
    Vec v;
    std::vector<uint32_t> sel;
  };
  // A CompiledExpr is immutable and side-effect-free (nothing with a
  // subquery compiles), so shard tasks share one tree and charge no
  // subquery rows, exactly as the row engine's count would be.
  std::vector<Acc> accs = ForEachShard<Acc>(
      table, parallel, "shard-filter", [&](size_t s, Acc* a) {
        const ShardScanned before{a->scanned, a->bytes};
        a->runs.BeginRun();
        storage::ShardScanCursor cursor(table, s, snap);
        for (size_t n = NextBatch(&cursor, &a->batch); n != 0;
             n = NextBatch(&cursor, &a->batch)) {
          RecordBatch(n);
          a->scanned += n;
          a->bytes += a->batch.wire_bytes;
          pred.Eval(a->batch.rows.data(), n, &a->v);
          if (!a->v.has_err && a->fail.ok()) {
            a->sel.clear();
            AppendTruthySelection(a->v, &a->sel);
            for (uint32_t i : a->sel) {
              a->runs.rows.emplace_back(a->batch.seqs[i], a->batch.rows[i]);
            }
            continue;
          }
          // The statement fails once any lane does, so no further row is
          // kept; only a lower-seq failure can still change the outcome.
          for (size_t i = 0; i < n; ++i) {
            const size_t seq = a->batch.seqs[i];
            if (a->fail.Earlier(seq) && a->v.ErrAt(i)) {
              a->fail.Offer(a->v.ErrStatus(i), seq);
            }
          }
        }
        return ShardScanned{a->scanned - before.rows, a->bytes - before.bytes};
      });
  size_t scanned = 0;
  size_t bytes = 0;
  SeqFailure fail;
  for (const Acc& a : accs) {
    scanned += a.scanned;
    bytes += a.bytes;
    fail.Offer(a.fail);
  }
  // The row engine materializes and charges the entire scan before the
  // filter sees a row, so scan costs land even when the predicate
  // errors.
  rows_processed_ += scanned;
  RecordScan(scanned, bytes);
  if (!fail.ok()) return fail.status;
  Relation out;
  out.schema = schema;
  out.rows = SeqOrderedRows(&accs);
  rows_processed_ += out.rows.size();
  return out;
}

Result<Executor::Relation> Executor::ExecShardGroupBy(
    const RaNode& node, const storage::Table& table,
    const CompiledGroupBy& plan) {
  Relation out;
  EQSQL_ASSIGN_OR_RETURN(out.schema, OutputSchema(node));
  const storage::Snapshot snap = ReadSnapshot();

  // Cursor order within a shard is not guaranteed seq order, so the
  // fold cannot lean on it: group output order comes from each group's
  // minimum seq, and the caller's hazard gate keeps every state
  // integer-exact so accumulation and merge order are moot.
  std::vector<GroupPartial> partials = ForEachShard<GroupPartial>(
      table, FansOut(table), "shard-aggregate",
      [&](size_t s, GroupPartial* p) {
        const ShardScanned before{p->scanned, p->bytes};
        p->Init(plan.keys.size(), plan.aggs.size());
        storage::ShardScanCursor cursor(table, s, snap);
        for (size_t n = NextBatch(&cursor, &p->batch); n != 0;
             n = NextBatch(&cursor, &p->batch)) {
          RecordBatch(n);
          p->scanned += n;
          p->bytes += p->batch.wire_bytes;
          p->Fold(plan.pred.get(), plan.keys, plan.aggs, p->batch.rows.data(),
                  p->batch.seqs.data(), n);
        }
        return ShardScanned{p->scanned - before.rows, p->bytes - before.bytes};
      });

  size_t scanned = 0;
  size_t bytes = 0;
  size_t matched = 0;
  SeqFailure pred_fail;
  SeqFailure fold_fail;
  for (const GroupPartial& p : partials) {
    scanned += p.scanned;
    bytes += p.bytes;
    matched += p.matched;
    pred_fail.Offer(p.pred_fail);
    fold_fail.Offer(p.fold_fail);
  }
  // The scan's costs land in full before any filter or fold error
  // surfaces, exactly as the serial row engine charges them.
  rows_processed_ += scanned;
  RecordScan(scanned, bytes);
  if (!pred_fail.ok()) return pred_fail.status;
  rows_processed_ += matched;
  if (!fold_fail.ok()) return fold_fail.status;

  GroupPartial& total = partials.front();
  for (size_t i = 1; i < partials.size(); ++i) total.Merge(&partials[i]);
  out.Adopt(total.Rows(node.aggregates()));
  rows_processed_ += out.rows.size();
  return out;
}

}  // namespace eqsql::exec
