#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double MachineStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (long long& x : v) {
    if (!(in >> x)) return 0;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool RestartPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

const char* LayerSpanName(Layer layer) {
  switch (layer) {
    case kParse: return "bench.frontend.parse";
    case kOptimize: return "bench.core.optimize";
    case kSelect: return "bench.core.select";
    case kSelectPlan: return "bench.core.select_plan";
    case kInterpRun: return "bench.interp.run";
    case kPerform: return "bench.net.perform";
    case kExecute: return "bench.net.execute";
    case kCommit: return "bench.storage.commit";
    case kVacuum: return "bench.storage.vacuum";
    case kNumLayers: break;
  }
  return "bench.unknown";
}

namespace {

/// Self time of every span of one op: its duration minus the union of
/// its children's intervals (children may overlap when shard tasks run
/// in parallel under one operator).
void AccumulateOp(const std::vector<SpanRecord>& spans, SpanStats* out) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (cur_hi < cur_lo || lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out->self_ns[s.name] += std::max<int64_t>(0, dur - covered);
  }
}

std::vector<SpanRecord> Flatten(const eqsql::obs::Trace& trace,
                                int64_t origin_ns, int64_t op_id,
                                int64_t op_end_ns) {
  std::vector<eqsql::obs::TraceSpan> raw = trace.Snapshot();
  std::vector<SpanRecord> out;
  out.reserve(raw.size());
  for (const eqsql::obs::TraceSpan& s : raw) {
    SpanRecord r;
    r.op = op_id;
    r.name = s.name;
    r.start_ns = origin_ns + s.start_ns;
    r.end_ns = s.dur_ns >= 0 ? r.start_ns + s.dur_ns
                             : std::max(r.start_ns, op_end_ns);
    r.parent = s.parent;
    out.push_back(std::move(r));
  }
  return out;
}

/// The CPUs of the calling thread's affinity mask, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

struct ThreadOut {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<int64_t> window_ops;
  std::vector<std::deque<float>> window_ms;  // read latencies per slice
  std::vector<double> write_ms;
  int64_t layer_ns[kNumLayers] = {};
  int64_t layer_calls[kNumLayers] = {};
  SpanStats spans;
};

}  // namespace

PhaseResult RunPhase(const PhaseOptions& options,
                     const std::function<OpResult(int thread)>& op) {
  const int64_t t0 = NowNs();
  const int64_t win_start =
      t0 + static_cast<int64_t>(options.warmup_s * 1e9);
  const int64_t win_end =
      win_start + static_cast<int64_t>(options.measure_s * 1e9);
  const size_t kept_per_thread =
      options.max_kept_spans / std::max(1, options.threads);
  const int slices = std::max(1, options.windows);
  const int64_t slice_ns = (win_end - win_start) / slices;

  std::vector<ThreadOut> outs(options.threads);
  for (ThreadOut& out : outs) {
    out.window_ops.resize(slices);
    out.window_ms.resize(slices);
  }
  std::atomic<int64_t> next_op_id{0};
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (int t = 0; t < options.threads; ++t) {
    threads.emplace_back([&, t] {
      ThreadOut& out = outs[t];
      const std::vector<int> cpus =
          options.threads == 1 ? AllowedCpus() : std::vector<int>();
      int64_t turn = -1;
      while (NowNs() < win_end) {
        if (cpus.size() > 1) {
          const int64_t k = (NowNs() - t0) / kRotateCpuNs;
          if (k != turn) {
            turn = k;
            PinToCpu(cpus[k % cpus.size()]);
          }
        }
        OpResult r;
        std::unique_ptr<eqsql::obs::Trace> trace;
        int64_t origin = 0;
        if (options.traced) {
          origin = NowNs();
          trace = std::make_unique<eqsql::obs::Trace>();
          eqsql::obs::ScopedTrace scoped(trace.get());
          r = op(t);
        } else {
          r = op(t);
        }
        if (r.end_ns < win_start || r.end_ns >= win_end) continue;
        ++out.attempted;
        if (!r.ok) ++out.failed;
        const double ms = (r.end_ns - r.start_ns) / 1e6;
        const int64_t slice =
            std::min<int64_t>((r.end_ns - win_start) / slice_ns, slices - 1);
        ++out.window_ops[slice];
        if (r.write) {
          out.write_ms.push_back(ms);
        } else {
          out.window_ms[slice].push_back(static_cast<float>(ms));
        }
        for (int l = 0; l < kNumLayers; ++l) {
          out.layer_ns[l] += r.layer_ns[l];
          out.layer_calls[l] += r.layer_calls[l];
        }
        if (trace != nullptr) {
          const int64_t id = next_op_id.fetch_add(1);
          std::vector<SpanRecord> spans =
              Flatten(*trace, origin, id, r.end_ns);
          AccumulateOp(spans, &out.spans);
          for (SpanRecord& s : spans) {
            if (out.spans.kept.size() < kept_per_thread) {
              out.spans.kept.push_back(std::move(s));
            } else {
              ++out.spans.dropped;
            }
          }
        }
      }
    });
  }

  PhaseResult result;
  std::vector<double> cpu(slices + 1), steal(slices + 1);
  for (int i = 0; i <= slices; ++i) {
    const int64_t edge = i == slices ? win_end : win_start + i * slice_ns;
    std::this_thread::sleep_for(std::chrono::nanoseconds(edge - NowNs()));
    cpu[i] = ProcessCpuSeconds();
    steal[i] = MachineStealSeconds();
    if (options.registry != nullptr && i == 0) {
      result.before = options.registry->Snapshot();
    }
  }
  if (options.registry != nullptr) result.after = options.registry->Snapshot();
  for (std::thread& th : threads) th.join();

  result.seconds = options.measure_s;
  result.cpu_s = cpu[slices] - cpu[0];
  result.windows.resize(slices);
  for (int i = 0; i < slices; ++i) {
    result.windows[i].seconds =
        (i == slices - 1 ? win_end - (win_start + i * slice_ns) : slice_ns) /
        1e9;
    result.windows[i].cpu_s = cpu[i + 1] - cpu[i];
    result.windows[i].steal_s = steal[i + 1] - steal[i];
  }
  for (ThreadOut& out : outs) {
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.write_ms.insert(result.write_ms.end(), out.write_ms.begin(),
                           out.write_ms.end());
    for (int i = 0; i < slices; ++i) {
      SubWindow& w = result.windows[i];
      w.ops += out.window_ops[i];
      result.reads += static_cast<int64_t>(out.window_ms[i].size());
      if (w.op_ms.empty()) {
        w.op_ms = std::move(out.window_ms[i]);
      } else {
        w.op_ms.insert(w.op_ms.end(), out.window_ms[i].begin(),
                       out.window_ms[i].end());
      }
      out.window_ms[i] = std::deque<float>();
    }
    for (int l = 0; l < kNumLayers; ++l) {
      result.layer_ns[l] += out.layer_ns[l];
      result.layer_calls[l] += out.layer_calls[l];
    }
    for (const auto& [k, v] : out.spans.self_ns) result.spans.self_ns[k] += v;
    result.spans.dropped += out.spans.dropped;
    for (SpanRecord& s : out.spans.kept) {
      result.spans.kept.push_back(std::move(s));
    }
  }
  return result;
}

namespace {

template <typename Seq>
double SortedQuantile(Seq* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double pos = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>((*values)[lo]) * (1 - frac) +
         static_cast<double>((*values)[hi]) * frac;
}

}  // namespace

double Quantile(std::vector<double>* values, double q) {
  return SortedQuantile(values, q);
}

double Quantile(std::deque<float>* values, double q) {
  return SortedQuantile(values, q);
}

int64_t CounterDelta(const PhaseResult& phase, const std::string& name) {
  auto a = phase.after.counters.find(name);
  if (a == phase.after.counters.end()) return 0;
  auto b = phase.before.counters.find(name);
  return a->second - (b == phase.before.counters.end() ? 0 : b->second);
}

int64_t HistogramDeltaQuantile(const PhaseResult& phase,
                               const std::string& name, double q) {
  auto a = phase.after.histograms.find(name);
  if (a == phase.after.histograms.end()) return 0;
  eqsql::obs::HistogramSnapshot delta = a->second;
  auto b = phase.before.histograms.find(name);
  if (b != phase.before.histograms.end()) {
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
    for (auto& [bound, count] : delta.buckets) {
      for (const auto& [bb, bc] : b->second.buckets) {
        if (bb == bound) count -= bc;
      }
    }
  }
  return delta.ValueAtQuantile(q);
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(items_[i].first) + ": {\"value\": " +
           JsonNumber(items_[i].second.first) +
           ", \"unit\": " + JsonString(items_[i].second.second) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
