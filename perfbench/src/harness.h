// Measurement harness shared by the three perfbench workloads: the
// real clock, process CPU and RSS, closed-loop phases over N client
// threads, per-op layer timers, the in-memory span store of a traced
// phase, registry deltas, and the result-line writer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

int64_t NowNs();
/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// CPU seconds the hypervisor took from this machine's CPUs since boot
/// (`steal` in /proc/stat, all CPUs); 0 where the kernel does not say.
double MachineStealSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();
/// Hands the heap's free pages back to the kernel and restarts the peak
/// resident set size from the current one (/proc/self/clear_refs).
/// Returns false, and leaves the peak alone, where the kernel refuses.
bool RestartPeakRss();

/// The public calls the benchmark times itself. Each has a span name
/// (recorded in traced phases) and accumulates wall time per op.
enum Layer {
  kParse,        // frontend::ParseProgram
  kOptimize,     // EqSqlOptimizer::Optimize / ExtractQueriesForKeywordSearch
  kSelect,       // AlternativeSelector::Select
  kSelectPlan,   // Session::SelectPlan
  kInterpRun,    // Interpreter::Run
  kPerform,      // Client::Perform (forwarded to the Session)
  kExecute,      // Session::Execute of a benchmark-issued statement
  kCommit,       // Session::Execute(COMMIT)
  kVacuum,       // Database::Vacuum
  kNumLayers,
};
const char* LayerSpanName(Layer layer);

/// What one operation reports back to the phase runner.
struct OpResult {
  bool ok = true;
  bool write = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t layer_ns[kNumLayers] = {};
  int64_t layer_calls[kNumLayers] = {};
};

/// Times one public call into `op` and, when a trace is installed on
/// this thread, records it as a span of the op's tree.
class LayerTimer {
 public:
  LayerTimer(OpResult* op, Layer layer)
      : op_(op), layer_(layer), span_(LayerSpanName(layer)),
        start_(NowNs()) {}
  ~LayerTimer() {
    op_->layer_ns[layer_] += NowNs() - start_;
    op_->layer_calls[layer_] += 1;
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  OpResult* op_;
  Layer layer_;
  eqsql::obs::ScopedSpan span_;
  int64_t start_;
};

/// One span of the traced phase, flattened out of the per-op trees.
struct SpanRecord {
  int64_t op = 0;
  std::string name;
  int64_t start_ns = 0;  // absolute (NowNs clock)
  int64_t end_ns = 0;
  int parent = -1;       // index into the same op's spans, -1 for roots
};

/// Aggregates of a traced phase: total self time per span name over
/// every op that completed inside the window, plus a bounded copy of the
/// raw spans for the span dump.
struct SpanStats {
  std::map<std::string, int64_t> self_ns;
  std::vector<SpanRecord> kept;
  int64_t dropped = 0;
};

/// One equal slice of a phase's timed window.
struct SubWindow {
  int64_t ops = 0;
  /// Read / op latencies. Floats in a deque: the samples live in the
  /// measured process, and this keeps them at 4 bytes an op with no
  /// reallocation peak, so peak_rss_mb barely moves with throughput.
  std::deque<float> op_ms;
  double seconds = 0;
  double cpu_s = 0;
  double steal_s = 0;  // MachineStealSeconds over the slice
};

/// Result of one closed-loop phase.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t reads = 0;             // ops that are not writes
  std::vector<double> write_ms;  // write-transaction latencies
  double seconds = 0;            // window length
  double cpu_s = 0;              // process CPU inside the window
  std::vector<SubWindow> windows;  // PhaseOptions::windows slices
  int64_t layer_ns[kNumLayers] = {};
  int64_t layer_calls[kNumLayers] = {};
  eqsql::obs::MetricsSnapshot before;  // registry at window start
  eqsql::obs::MetricsSnapshot after;   // registry at window end
  SpanStats spans;                     // traced phases only

  int64_t ops() const { return attempted; }
  double cpu_ms_per_op() const {
    return attempted > 0 ? 1000.0 * cpu_s / attempted : 0;
  }
};

struct PhaseOptions {
  int threads = 1;
  double warmup_s = 1.0;
  double measure_s = 1.0;
  /// The window is also cut into this many equal slices, each with its
  /// own latencies, op count and CPU time (medians over slices shrug
  /// off a transient disturbance of the machine).
  int windows = 1;
  /// Install a fresh obs::Trace around every op and keep its spans.
  bool traced = false;
  /// Raw spans kept for the dump (aggregates cover every span).
  size_t max_kept_spans = 200000;
  /// Registry snapshotted at the window edges (may be null).
  eqsql::obs::MetricsRegistry* registry = nullptr;
};

/// A phase with a single client thread moves it to the next CPU of its
/// affinity mask every this many ns, warm-up included. Left alone, the
/// kernel keeps it on one core for most of a run, and on a shared host
/// that core's speed is set by whatever runs beside it (a busy
/// hyperthread sibling); rotating samples every core equally.
constexpr int64_t kRotateCpuNs = 250000000;

/// Runs `op(thread)` in a closed loop on `threads` threads: a warm-up,
/// then a timed window. Only ops that complete inside the window count.
PhaseResult RunPhase(const PhaseOptions& options,
                     const std::function<OpResult(int thread)>& op);

/// Linear-interpolated quantile of `values` (sorted in place).
double Quantile(std::vector<double>* values, double q);
double Quantile(std::deque<float>* values, double q);

/// Counter delta between two registry snapshots.
int64_t CounterDelta(const PhaseResult& phase, const std::string& name);
/// Quantile of a histogram's growth between two snapshots.
int64_t HistogramDeltaQuantile(const PhaseResult& phase,
                               const std::string& name, double q);

/// An ordered set of named metrics with units, printed as JSON.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// JSON number with all its digits (NaN/inf become 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
