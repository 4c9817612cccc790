// The interface every perfbench workload implements, plus helpers the
// workloads share (seeded RNG, result digests, the forwarding client).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "exec/executor.h"
#include "harness.h"
#include "interp/value.h"
#include "net/api.h"
#include "obs/metrics.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Deterministic splitmix64 stream: equal seeds give equal draws on
/// every platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }
  bool Percent(int p) { return Range(0, 99) < p; }

 private:
  uint64_t state_;
};

/// Order-insensitive digest of a bag of rows (row count + sum of row
/// hashes). Values hash by eqsql::catalog::ValueHash, which agrees
/// across int/double, so an interpreter-computed reference and an
/// engine result set digest alike when they hold equal values.
struct BagDigest {
  int64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const BagDigest& o) const {
    return rows == o.rows && sum == o.sum;
  }
  void AddRow(const std::vector<eqsql::catalog::Value>& row);
};
BagDigest DigestResultSet(const eqsql::exec::ResultSet& rs);
/// Digest of an interpreter return value: a list/set of tuples is a
/// bag of rows; a tuple or scalar is one row.
BagDigest DigestRtValue(const eqsql::interp::RtValue& v);

uint64_t HashString(const std::string& s);

/// A net::Client that forwards to a Session and times every call into
/// the current op's kPerform layer, so the interpreter's own time can
/// be separated from the time it waits on the server.
class ForwardingClient : public eqsql::net::Client {
 public:
  explicit ForwardingClient(eqsql::net::Client* target) : target_(target) {}
  void set_op(OpResult* op) { op_ = op; }

  eqsql::net::Outcome Perform(eqsql::net::Request req) override;
  void ChargeClientOps(int64_t ops) override { target_->ChargeClientOps(ops); }
  eqsql::Status CreateTempTable(const std::string& name,
                                eqsql::catalog::Schema schema,
                                std::vector<eqsql::catalog::Row> rows) override;
  void DropTempTable(const std::string& name) override;

 private:
  eqsql::net::Client* target_;
  OpResult* op_ = nullptr;
};

/// One prepared workload instance: inputs generated, data loaded,
/// server started. Setup is the constructor (timed by the caller).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Client threads of the closed loop.
  virtual int threads() const = 0;
  /// Slices of the timed window the end-to-end figures are medians
  /// over (PhaseOptions::windows); 1 when ops are too slow to slice.
  virtual int windows() const { return 16; }
  /// One operation on client thread `thread`.
  virtual OpResult Op(int thread) = 0;
  /// Server registry for counter/histogram deltas (null if none).
  virtual eqsql::obs::MetricsRegistry* registry() { return nullptr; }

  /// Computes the independent reference the ops are checked against.
  /// Returns false (with a message on stderr) if it cannot.
  virtual bool BuildReference() = 0;
  /// The reference, to hand to another instance of the same seed
  /// (AdoptReference), so it is computed once per run.
  virtual std::shared_ptr<const void> Reference() const = 0;
  virtual void AdoptReference(std::shared_ptr<const void> reference) = 0;

  /// Runs a fixed, sequential op list and adds the exact-count metrics
  /// (deterministic for a seed) to `out`. Runs before any timed phase.
  virtual bool Census(MetricSet* out) = 0;

  /// Adds this workload's per-layer metrics from the untraced and the
  /// traced phase to `out`.
  virtual void LayerMetrics(const PhaseResult& untraced,
                            const PhaseResult& traced, MetricSet* out) = 0;

  /// Every pinned input that can change what is measured, as JSON
  /// object members (no braces).
  virtual std::string Provenance() const = 0;

  /// Human-readable notes printed before the result line.
  virtual std::vector<std::string> Notes() const { return {}; }

  /// Extra checks over a finished phase (e.g. steadiness); false makes
  /// the run incorrect.
  virtual bool CheckPhase(const PhaseResult& phase,
                          std::vector<std::string>* notes) {
    return true;
  }
};

std::unique_ptr<Workload> MakeExtractCold(const RunConfig& cfg);
std::unique_ptr<Workload> MakeServeMixed(const RunConfig& cfg,
                                         size_t trace_sample);
std::unique_ptr<Workload> MakeAnalyticScan(const RunConfig& cfg,
                                           size_t trace_sample);

/// Shared per-layer helpers for the server-backed workloads.
void AddServerLayerMetrics(const PhaseResult& timed, MetricSet* out);
/// Operator self times (wall minus children) from sampled profiles
/// (obs::Profile::ToJson trees, one per sampled request), as mean us
/// per profiled request, keyed by exec.op.<label>.self_us.
void AddProfileMetrics(const std::vector<std::string>& profiles,
                       MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
