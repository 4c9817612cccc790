// eqsql_perfbench: one real-clock run of one workload.
//
//   eqsql_perfbench --workload extract_cold|serve_mixed|analytic_scan
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--git-sha SHA] [--source-digest D]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics: an untraced half and a traced half (every op under
// an obs::Trace, the server's request sampling on), whose spans are
// written to DIR/spans-<workload>-<seed>.jsonl. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the lines before it
// record the pinned inputs and notes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

// Setups per --trace 0 run. A fixed count keeps the allocator history
// (and so peak_rss_mb) the same from run to run.
constexpr int kSetupRepeats = 15;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kTraceSample = 8;

/// Every per-layer metric, in output order, with its unit. Anything a
/// workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"frontend.parse_us", "us"},
      {"core.optimize_us", "us"},
      {"analysis.region_dir_us", "us"},
      {"rules.fir_us", "us"},
      {"sql.emit_us", "us"},
      {"core.optimize_self_us", "us"},
      {"rules.fired_per_program", "count"},
      {"core.extracted_ratio", "ratio"},
      {"core.emitted_sql_bytes_per_program", "bytes"},
      {"core.select_us", "us"},
      {"core.select_plan_us", "us"},
      {"core.plan_cache.hit_ratio", "ratio"},
      {"core.plan_cache.invalidations_per_kop", "count"},
      {"core.strategy.extracted_sql_share", "ratio"},
      {"core.strategy.batching_share", "ratio"},
      {"core.strategy.interpreted_share", "ratio"},
      {"interp.self_us", "us"},
      {"net.perform_us", "us"},
      {"net.queue_wait_us_p50", "us"},
      {"net.queue_wait_us_p99", "us"},
      {"net.round_trips_per_op", "count"},
      {"net.rows_per_op", "count"},
      {"net.bytes_per_op", "bytes"},
      {"exec.rows_in_per_op", "count"},
      {"exec.rows_in_per_s", "1/s"},
      {"exec.batch.fallback_ratio", "ratio"},
      {"exec.pool.tasks_per_op", "count"},
      {"exec.pool.task_us_p99", "us"},
      {"exec.index.probes_per_op", "count"},
      {"storage.commit_us", "us"},
      {"storage.vacuum_us", "us"},
      {"storage.mvcc.gc_reclaimed_per_kop", "count"},
      {"storage.mvcc.conflicts", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"write_p50_ms", "ms"},
      {"write_p99_ms", "ms"},
      {"fail_ratio", "ratio"},
  };
  return kList;
}

/// Operator labels with their own exec.op.<label>.self_us metric; other
/// labels fold into exec.op.other.self_us.
const std::vector<std::string>& ProfiledOperators() {
  static const std::vector<std::string> kOps = {
      "scan",    "select",    "project",   "join",
      "leftouterjoin", "outerapply", "groupby", "sort",
      "dedup",   "limit",     "keylookup", "indexscan",
      "indexnestedloopjoin",
  };
  return kOps;
}

struct Args {
  RunConfig cfg;
  bool ok = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      a.cfg.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.cfg.seconds = std::atof(val.c_str());
      have_seconds = a.cfg.seconds > 0;
    } else if (flag == "--trace") {
      a.cfg.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (flag == "--out-dir") {
      a.cfg.out_dir = val;
    } else if (flag == "--git-sha") {
      a.git_sha = val;
    } else if (flag == "--source-digest") {
      a.source_digest = val;
    } else {
      return a;
    }
  }
  a.ok = have_workload && have_seed && have_seconds && have_trace &&
         (argc % 2 == 1);
  return a;
}

std::unique_ptr<Workload> Make(const RunConfig& cfg, size_t trace_sample) {
  if (cfg.workload == "extract_cold") return MakeExtractCold(cfg);
  if (cfg.workload == "serve_mixed") return MakeServeMixed(cfg, trace_sample);
  if (cfg.workload == "analytic_scan") {
    return MakeAnalyticScan(cfg, trace_sample);
  }
  return nullptr;
}

void WriteSpans(const RunConfig& cfg, const SpanStats& spans) {
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const SpanRecord& s : spans.kept) {
    out << "{\"op\":" << s.op << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}\n";
  }
  if (spans.dropped > 0) out << "{\"dropped\":" << spans.dropped << "}\n";
}

int Run(const Args& args) {
  const RunConfig& cfg = args.cfg;
  // Pin the environment fallbacks of ServerOptions::exec_mode and
  // ::trace_sample: every option is set explicitly below, and these
  // must not leak in through the caller's environment.
  unsetenv("EQSQL_EXEC_MODE");
  unsetenv("EQSQL_TRACE_SAMPLE");

  // --trace 0 sets up several times (setup_s is the median) and
  // measures the last instance. --trace 1 sets up one untraced
  // instance, and the sampled one only after the first is gone, so a
  // single database is resident at a time.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> untraced;
  for (int i = 0; i < (cfg.trace ? 1 : kSetupRepeats); ++i) {
    untraced.reset();
    const int64_t t0 = NowNs();
    untraced = Make(cfg, 0);
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (untraced == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
      return 2;
    }
  }
  const double setup_rss_mb = PeakRssMb();
  const int64_t ref0 = NowNs();
  if (!untraced->BuildReference()) return 1;
  const double reference_s = (NowNs() - ref0) / 1e9;
  // The reference runs the original programs through the interpreter,
  // which can hold a whole table at once. That is the benchmark's
  // check, not the workload, so its memory is handed back and the peak
  // restarts: peak_rss_mb covers the setups and the measured phase.
  const double reference_rss_mb = PeakRssMb();
  const bool peak_restarted = !cfg.trace && RestartPeakRss();
  std::unique_ptr<Workload> traced;

  std::vector<std::string> notes;
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  MetricSet metrics;

  PhaseOptions popts;
  popts.threads = untraced->threads();
  popts.warmup_s = kWarmupSeconds;
  if (!cfg.trace) {
    popts.measure_s = cfg.seconds;
    popts.windows = untraced->windows();
    popts.registry = untraced->registry();
    PhaseResult phase = RunPhase(popts, [&](int t) { return untraced->Op(t); });
    correct = untraced->CheckPhase(phase, &notes) && correct;
    attempted = phase.attempted;
    failed = phase.failed;
    // Each figure is the median over the window's slices.
    std::vector<double> ops_per_s, p50, p99, cpu_per_op, steal_pct;
    const double ncpu = std::max<long>(sysconf(_SC_NPROCESSORS_ONLN), 1);
    for (SubWindow& w : phase.windows) {
      steal_pct.push_back(100.0 * w.steal_s / (w.seconds * ncpu));
      ops_per_s.push_back(w.ops / w.seconds);
      p50.push_back(Quantile(&w.op_ms, 0.50));
      p99.push_back(Quantile(&w.op_ms, 0.99));
      cpu_per_op.push_back(w.ops == 0 ? 0 : 1000.0 * w.cpu_s / w.ops);
    }
    auto by_window = [&](const char* name, const std::vector<double>& v) {
      std::ostringstream line;
      line << name << " by window:";
      for (double x : v) line << ' ' << JsonNumber(x);
      notes.push_back(line.str());
    };
    by_window("ops_per_s", ops_per_s);
    by_window("p50_ms", p50);
    by_window("p99_ms", p99);
    by_window("cpu_ms_per_op", cpu_per_op);
    // How much of the machine the hypervisor took: context for a run
    // that reads slow, not an input to any metric.
    by_window("machine_steal_pct", steal_pct);
    metrics.Add("ops_per_s", Quantile(&ops_per_s, 0.5), "1/s");
    metrics.Add("p50_ms", Quantile(&p50, 0.5), "ms");
    metrics.Add("p99_ms", Quantile(&p99, 0.5), "ms");
    metrics.Add("cpu_ms_per_op", Quantile(&cpu_per_op, 0.5), "ms");
    metrics.Add("peak_rss_mb", std::max(setup_rss_mb, PeakRssMb()), "MB");
    metrics.Add("setup_s", Quantile(&setup_s, 0.5), "s");
    std::vector<double> w = phase.write_ms;
    char buf[256];
    const size_t per_window =
        static_cast<size_t>(phase.reads) / phase.windows.size();
    std::snprintf(buf, sizeof(buf),
                  "samples: %zu in %zu windows, %zu beyond p99 per window; "
                  "write_p50_ms %.4f write_p99_ms %.4f (%zu writes); "
                  "fail_ratio %.6f",
                  static_cast<size_t>(phase.reads), phase.windows.size(),
                  per_window - static_cast<size_t>(0.99 * per_window),
                  Quantile(&w, 0.5), Quantile(&w, 0.99), w.size(),
                  attempted == 0 ? 0.0
                                 : static_cast<double>(failed) / attempted);
    notes.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "peak_rss_mb after setup %.2f, after reference %.2f "
                  "(peak restarted after the reference: %s)",
                  setup_rss_mb, reference_rss_mb,
                  peak_restarted ? "yes" : "no");
    notes.push_back(buf);
  } else {
    MetricSet exact;
    correct = untraced->Census(&exact) && correct;
    popts.measure_s = cfg.seconds / 2;
    popts.registry = untraced->registry();
    PhaseResult plain =
        RunPhase(popts, [&](int t) { return untraced->Op(t); });
    std::shared_ptr<const void> reference = untraced->Reference();
    for (const std::string& n : untraced->Notes()) notes.push_back(n);
    untraced.reset();
    traced = Make(cfg, kTraceSample);
    traced->AdoptReference(std::move(reference));
    popts.traced = true;
    popts.registry = traced->registry();
    PhaseResult spanned = RunPhase(popts, [&](int t) { return traced->Op(t); });
    attempted = plain.attempted + spanned.attempted;
    failed = plain.failed + spanned.failed;

    MetricSet layer;
    traced->LayerMetrics(plain, spanned, &layer);
    for (const auto& [name, vu] : exact.items()) {
      layer.Add(name, vu.first, vu.second);
    }
    const double traced_ops = std::max<int64_t>(spanned.ops(), 1);
    auto self_us = [&](const char* span) {
      auto it = spanned.spans.self_ns.find(span);
      return it == spanned.spans.self_ns.end() ? 0.0
                                               : it->second / 1e3 / traced_ops;
    };
    layer.Add("analysis.region_dir_us", self_us("region-analysis+dir"), "us");
    layer.Add("rules.fir_us", self_us("fir-rules"), "us");
    layer.Add("sql.emit_us", self_us("sql-emit"), "us");
    layer.Add("core.optimize_self_us", self_us("optimize"), "us");
    const double base = plain.cpu_ms_per_op();
    layer.Add("obs.trace_overhead_pct",
              base > 0 ? 100.0 * (spanned.cpu_ms_per_op() / base - 1) : 0,
              "%");
    layer.Add("fail_ratio",
              attempted == 0 ? 0 : static_cast<double>(failed) / attempted,
              "ratio");

    // Fixed output set: the listed metrics in order, then the profiled
    // operators (unlisted operators folded into exec.op.other).
    for (const auto& [name, unit] : PerLayerMetrics()) {
      double v = 0;
      for (const auto& [n, vu] : layer.items()) {
        if (n == name) v = vu.first;
      }
      metrics.Add(name, v, unit);
    }
    std::map<std::string, double> ops;
    for (const std::string& op : ProfiledOperators()) ops[op] = 0;
    double other = 0;
    for (const auto& [n, vu] : layer.items()) {
      if (n.rfind("exec.op.", 0) != 0) continue;
      const std::string label = n.substr(8, n.size() - 8 - 8);
      if (ops.count(label) > 0) {
        ops[label] = vu.first;
      } else {
        other += vu.first;
        notes.push_back("unlisted operator " + label);
      }
    }
    for (const std::string& op : ProfiledOperators()) {
      metrics.Add("exec.op." + op + ".self_us", ops[op], "us");
    }
    metrics.Add("exec.op.other.self_us", other, "us");
    WriteSpans(cfg, spanned.spans);
    for (const auto& [name, ns] : spanned.spans.self_ns) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "span %-28s self %10.2f us/op",
                    name.c_str(), ns / 1e3 / traced_ops);
      notes.push_back(buf);
    }
  }
  if (failed > 0) correct = false;

  Workload* last = traced != nullptr ? traced.get() : untraced.get();
  for (const std::string& n : last->Notes()) notes.push_back(n);
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  std::printf(
      "# provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"warmup_s\": %s, \"rotate_cpu_s\": %s, "
      "\"setup_repeats\": %d, "
      "\"reference_s\": %s, "
      "\"trace_sample_traced\": %zu, \"git_sha\": %s, "
      "\"source_digest\": %s, %s}\n",
      JsonString(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed),
      JsonNumber(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      JsonNumber(kWarmupSeconds).c_str(),
      JsonNumber(popts.threads == 1 ? kRotateCpuNs / 1e9 : 0).c_str(),
      static_cast<int>(setup_s.size()),
      JsonNumber(reference_s).c_str(), kTraceSample,
      JsonString(args.git_sha).c_str(),
      JsonString(args.source_digest).c_str(),
      last->Provenance().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: %s --workload extract_cold|serve_mixed|analytic_scan "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--git-sha SHA] [--source-digest D]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
