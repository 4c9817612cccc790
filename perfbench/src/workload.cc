#include "workload.h"

#include <cctype>
#include <map>

#include "common/hash.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = eqsql::SplitMix64(state_);
  state_ += 0x9e3779b97f4a7c15ULL;
  return z;
}

void BagDigest::AddRow(const std::vector<eqsql::catalog::Value>& row) {
  uint64_t h = 0x51ed270b27bULL;
  eqsql::catalog::ValueHash hash;
  for (const eqsql::catalog::Value& v : row) {
    h = eqsql::SplitMix64(h ^ static_cast<uint64_t>(hash(v)));
  }
  ++rows;
  sum += h;
}

BagDigest DigestResultSet(const eqsql::exec::ResultSet& rs) {
  BagDigest d;
  for (const eqsql::catalog::Row& row : rs.rows) d.AddRow(row);
  return d;
}

namespace {

void FlattenTuple(const eqsql::interp::RtValue& v,
                  std::vector<eqsql::catalog::Value>* out) {
  if (v.is_scalar()) {
    out->push_back(v.scalar());
  } else if (v.is_tuple()) {
    for (const auto& item : v.tuple()->items) FlattenTuple(item, out);
  } else if (v.is_row()) {
    for (const auto& cell : v.row()->row) out->push_back(cell);
  } else {
    // Nested collections never appear in the benchmark's programs;
    // fold them in by display string so a surprise cannot match.
    out->push_back(eqsql::catalog::Value::String(v.DisplayString()));
  }
}

}  // namespace

BagDigest DigestRtValue(const eqsql::interp::RtValue& v) {
  BagDigest d;
  const std::vector<eqsql::interp::RtValue>* items = nullptr;
  if (v.is_list()) items = &v.list()->items;
  if (v.is_set()) items = &v.set()->items;
  if (items != nullptr) {
    for (const auto& item : *items) {
      std::vector<eqsql::catalog::Value> row;
      FlattenTuple(item, &row);
      d.AddRow(row);
    }
    return d;
  }
  std::vector<eqsql::catalog::Value> row;
  FlattenTuple(v, &row);
  d.AddRow(row);
  return d;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

eqsql::net::Outcome ForwardingClient::Perform(eqsql::net::Request req) {
  LayerTimer t(op_, kPerform);
  return target_->Perform(std::move(req));
}

eqsql::Status ForwardingClient::CreateTempTable(
    const std::string& name, eqsql::catalog::Schema schema,
    std::vector<eqsql::catalog::Row> rows) {
  LayerTimer t(op_, kPerform);
  return target_->CreateTempTable(name, std::move(schema), std::move(rows));
}

void ForwardingClient::DropTempTable(const std::string& name) {
  LayerTimer t(op_, kPerform);
  target_->DropTempTable(name);
}

void AddServerLayerMetrics(const PhaseResult& timed, MetricSet* out) {
  const double ops = std::max<int64_t>(timed.ops(), 1);
  const int64_t hits = CounterDelta(timed, "plan_cache.hits");
  const int64_t misses = CounterDelta(timed, "plan_cache.misses");
  out->Add("core.plan_cache.hit_ratio",
           hits + misses == 0 ? 0 : static_cast<double>(hits) / (hits + misses),
           "ratio");
  out->Add("core.plan_cache.invalidations_per_kop",
           1000.0 * CounterDelta(timed, "plan_cache.invalidations") / ops,
           "count");
  out->Add("net.queue_wait_us_p50",
           HistogramDeltaQuantile(timed, "net.scheduler.queue_wait_ns", 0.5) /
               1e3,
           "us");
  out->Add("net.queue_wait_us_p99",
           HistogramDeltaQuantile(timed, "net.scheduler.queue_wait_ns", 0.99) /
               1e3,
           "us");
  out->Add("exec.rows_in_per_s",
           CounterDelta(timed, "storage.scan.rows") / timed.seconds, "1/s");
  const int64_t batches = CounterDelta(timed, "exec.batch.batches");
  out->Add("exec.batch.fallback_ratio",
           batches == 0 ? 0
                        : static_cast<double>(
                              CounterDelta(timed, "exec.batch.fallbacks")) /
                              batches,
           "ratio");
  out->Add("exec.pool.tasks_per_op",
           CounterDelta(timed, "exec.pool.tasks") / ops, "count");
  out->Add("exec.pool.task_us_p99",
           HistogramDeltaQuantile(timed, "exec.pool.task_ns", 0.99) / 1e3,
           "us");
  out->Add("storage.mvcc.gc_reclaimed_per_kop",
           1000.0 * CounterDelta(timed, "storage.mvcc.gc_reclaimed") / ops,
           "count");
  out->Add("storage.mvcc.conflicts",
           static_cast<double>(CounterDelta(timed, "storage.mvcc.conflicts")),
           "count");
}

namespace {

/// Just enough JSON to walk obs::Profile::ToJson trees.
struct JsonValue {
  enum Kind { kNull, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}
  bool Parse(JsonValue* out) { return Value(out); }

 private:
  void Ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool String(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        ++pos_;
        if (s_[pos_] == 'u') {
          pos_ += 4;
          out->push_back('?');
          ++pos_;
          continue;
        }
      }
      out->push_back(s_[pos_++]);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;
    return true;
  }
  bool Value(JsonValue* out) {
    Ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = JsonValue::kObject;
      ++pos_;
      Ws();
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        Ws();
        std::string key;
        if (!String(&key)) return false;
        Ws();
        if (s_[pos_++] != ':') return false;
        JsonValue v;
        if (!Value(&v)) return false;
        out->members.emplace_back(std::move(key), std::move(v));
        Ws();
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return s_[pos_++] == '}';
      }
    }
    if (c == '[') {
      out->kind = JsonValue::kArray;
      ++pos_;
      Ws();
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!Value(&v)) return false;
        out->items.push_back(std::move(v));
        Ws();
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return s_[pos_++] == ']';
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return String(&out->str);
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 4, "true") == 0 || s_.compare(pos_, 5, "false") == 0) {
      pos_ += s_[pos_] == 't' ? 4 : 5;
      return true;
    }
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string MetricSafe(const std::string& label) {
  std::string out;
  for (char c : label) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      out.push_back(static_cast<char>(std::tolower(u)));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? "unknown" : out;
}

void WalkProfile(const JsonValue& node, std::map<std::string, double>* self) {
  const JsonValue* label = node.Get("op");
  const JsonValue* wall = node.Get("wall_ns");
  if (label == nullptr || wall == nullptr) return;
  double child_ns = 0;
  if (const JsonValue* kids = node.Get("children")) {
    for (const JsonValue& k : kids->items) {
      if (const JsonValue* w = k.Get("wall_ns")) child_ns += w->number;
      WalkProfile(k, self);
    }
  }
  const double s = wall->number - child_ns;
  (*self)[MetricSafe(label->str)] += s > 0 ? s : 0;
}

}  // namespace

void AddProfileMetrics(const std::vector<std::string>& profiles,
                       MetricSet* out) {
  std::map<std::string, double> self;
  int64_t n = 0;
  for (const std::string& p : profiles) {
    if (p.empty() || p == "null") continue;
    JsonValue root;
    if (!JsonParser(p).Parse(&root)) continue;
    ++n;
    WalkProfile(root, &self);
  }
  for (const auto& [label, ns] : self) {
    out->Add("exec.op." + label + ".self_us", n == 0 ? 0 : ns / 1e3 / n,
             "us");
  }
}

}  // namespace perfbench
