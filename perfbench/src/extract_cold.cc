// extract_cold: the compile-time cost every new or changed program
// pays. One client thread, closed loop; one op compiles one program
// from source with no plan cache: frontend::ParseProgram, then
// EqSqlOptimizer::Optimize (ExtractQueriesForKeywordSearch for the
// servlets), then AlternativeSelector::Select against fixed TableStats.
//
// Programs: the 33 Table-1 Wilos samples, the 112 RuBiS / RuBBoS /
// AcadPortal servlets, and a seeded draw of fuzz::GenerateCase programs
// (program families only: the txn and index schedule families are
// excluded). Ops take Wilos, servlet and fuzz programs in turn; the
// seed fixes the fuzz draw and the order within each source.
//
// Reference: every Wilos verdict must equal WilosSample::
// expect_extracted and every servlet verdict Servlet::expect_complete
// (24/33; 17/17, 16/16, 58/79), and the emitted SQL must be
// byte-identical to the first compile of the same program.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "frontend/parser.h"
#include "fuzz/program_gen.h"
#include "fuzz/scenario.h"
#include "sql/parser.h"
#include "workload.h"
#include "workloads/servlets.h"
#include "workloads/wilos_samples.h"

namespace perfbench {
namespace {

using eqsql::core::AlternativeKind;
using eqsql::core::AlternativeSelector;
using eqsql::core::EqSqlOptimizer;
using eqsql::core::OptimizeOptions;
using eqsql::core::OptimizeResult;
using eqsql::core::TableStats;

constexpr int kFuzzPrograms = 1024;
constexpr int kWilosScale = 1000;  // row counts in the fixed TableStats

enum class Source { kWilos, kServlet, kFuzz };

struct Program {
  Source source = Source::kWilos;
  std::string name;
  std::string text;
  std::string function;
  bool expect = false;  // Wilos: extracted; servlet: complete
  std::unique_ptr<EqSqlOptimizer> optimizer;
  std::unique_ptr<AlternativeSelector> selector;
};

/// What one compile produced, reduced to what the checks compare.
struct Compiled {
  bool ok = false;
  bool verdict = false;       // extracted (Optimize) / complete (keyword)
  uint64_t sql_digest = 0;    // over every emitted query, in order
  int64_t sql_bytes = 0;
  int64_t rules_fired = 0;
  int64_t vars = 0;
  int64_t vars_extracted = 0;
  AlternativeKind chosen = AlternativeKind::kInterpreted;
  bool selected = false;
};

TableStats WilosStats() {
  TableStats stats;
  for (const char* t : {"project", "wuser", "phase", "workproduct",
                        "guidance"}) {
    stats.table_rows[t] = kWilosScale;
  }
  stats.table_rows["activity"] = 2 * kWilosScale;
  stats.table_rows["participant"] = 2 * kWilosScale;
  stats.table_rows["role"] = kWilosScale / 40;
  return stats;
}

TableStats FuzzStats(const eqsql::fuzz::FuzzCase& c) {
  TableStats stats;
  for (const eqsql::fuzz::TableSpec& t : c.tables) {
    stats.table_rows[t.name] = static_cast<int64_t>(t.rows.size());
  }
  return stats;
}

class ExtractCold : public Workload {
 public:
  explicit ExtractCold(const RunConfig& cfg) {

    OptimizeOptions wilos_opts;
    wilos_opts.transform.table_keys = eqsql::workloads::WilosTableKeys();
    const TableStats wilos_stats = WilosStats();
    for (const auto& s : eqsql::workloads::WilosSamples()) {
      Program p;
      p.source = Source::kWilos;
      p.name = "wilos" + std::to_string(s.index);
      p.text = s.source;
      p.function = s.function;
      p.expect = s.expect_extracted;
      p.optimizer = std::make_unique<EqSqlOptimizer>(wilos_opts);
      p.selector =
          std::make_unique<AlternativeSelector>(wilos_stats, model_);
      programs_.push_back(std::move(p));
    }
    OptimizeOptions servlet_opts;
    servlet_opts.transform.table_keys = eqsql::workloads::ServletTableKeys();
    for (const auto& group : {eqsql::workloads::RubisServlets(),
                              eqsql::workloads::RubbosServlets(),
                              eqsql::workloads::AcadPortalServlets()}) {
      for (const auto& s : group) {
        Program p;
        p.source = Source::kServlet;
        p.name = s.name;
        p.text = s.source;
        p.function = s.function;
        p.expect = s.expect_complete;
        p.optimizer = std::make_unique<EqSqlOptimizer>(servlet_opts);
        programs_.push_back(std::move(p));
      }
    }
    Rng fuzz_rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 7);
    eqsql::fuzz::GenOptions gen;
    gen.w_txn = 0;
    gen.w_index = 0;
    for (int i = 0; i < kFuzzPrograms; ++i) {
      const uint64_t fs = fuzz_rng.Next();
      eqsql::fuzz::FuzzCase c = eqsql::fuzz::GenerateCase(fs, gen);
      OptimizeOptions opts;
      opts.transform.table_keys = eqsql::fuzz::TableKeys(c);
      Program p;
      p.source = Source::kFuzz;
      p.name = std::string("fuzz-") +
               eqsql::fuzz::FamilyName(eqsql::fuzz::FamilyForSeed(fs, gen));
      p.text = c.source;
      p.function = c.function;
      p.optimizer = std::make_unique<EqSqlOptimizer>(opts);
      p.selector = std::make_unique<AlternativeSelector>(FuzzStats(c), model_);
      programs_.push_back(std::move(p));
    }
    // Ops take the three sources in turn, so each is a third of the
    // work whatever the fuzz draw holds; within a source the order is a
    // seeded permutation, cycled.
    for (size_t i = 0; i < programs_.size(); ++i) {
      pools_[static_cast<int>(programs_[i].source)].push_back(i);
    }
    Rng order_rng(cfg.seed ^ 0xec01dULL);
    for (std::vector<size_t>& pool : pools_) {
      for (size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[order_rng.Next() % i]);
      }
    }
    // The first compile of every program is part of setup: it fixes the
    // SQL later compiles must reproduce byte for byte.
    reference_ok_ = CompileReference();
  }

  int threads() const override { return 1; }

  bool BuildReference() override { return reference_ok_; }

  // Every instance compiles its own reference in setup.
  std::shared_ptr<const void> Reference() const override { return nullptr; }
  void AdoptReference(std::shared_ptr<const void>) override {}

  OpResult Op(int) override {
    const std::vector<size_t>& pool = pools_[next_ % 3];
    const size_t idx = pool[(next_ / 3) % pool.size()];
    ++next_;
    OpResult r;
    r.start_ns = NowNs();
    Compiled c = Compile(programs_[idx], &r);
    r.end_ns = NowNs();
    r.ok = Check(idx, c);
    return r;
  }

  bool Census(MetricSet* out) override {
    // One pass over every program.
    int64_t programs = 0, optimized = 0, rules = 0, vars = 0, extracted = 0,
            sql_bytes = 0, selected = 0;
    int64_t chosen[3] = {};
    bool ok = true;
    for (size_t idx = 0; idx < programs_.size(); ++idx) {
      OpResult untimed;
      Compiled c = Compile(programs_[idx], &untimed);
      ok = ok && Check(idx, c);
      ++programs;
      sql_bytes += c.sql_bytes;
      if (programs_[idx].source != Source::kServlet) {
        ++optimized;
        rules += c.rules_fired;
        vars += c.vars;
        extracted += c.vars_extracted;
      }
      if (c.selected) {
        ++selected;
        ++chosen[static_cast<int>(c.chosen)];
      }
    }
    out->Add("rules.fired_per_program",
             static_cast<double>(rules) / optimized, "count");
    out->Add("core.extracted_ratio",
             vars == 0 ? 0 : static_cast<double>(extracted) / vars, "ratio");
    out->Add("core.emitted_sql_bytes_per_program",
             static_cast<double>(sql_bytes) / programs, "bytes");
    const double sel = std::max<int64_t>(selected, 1);
    out->Add("core.strategy.extracted_sql_share",
             chosen[static_cast<int>(AlternativeKind::kExtractedSql)] / sel,
             "ratio");
    out->Add("core.strategy.batching_share",
             chosen[static_cast<int>(AlternativeKind::kBatching)] / sel,
             "ratio");
    out->Add("core.strategy.interpreted_share",
             chosen[static_cast<int>(AlternativeKind::kInterpreted)] / sel,
             "ratio");
    return ok;
  }

  void LayerMetrics(const PhaseResult& untraced, const PhaseResult& traced,
                    MetricSet* out) override {
    const double ops = std::max<int64_t>(untraced.ops(), 1);
    out->Add("frontend.parse_us", untraced.layer_ns[kParse] / 1e3 / ops, "us");
    out->Add("core.optimize_us", untraced.layer_ns[kOptimize] / 1e3 / ops,
             "us");
    const double selects = std::max<int64_t>(untraced.layer_calls[kSelect], 1);
    out->Add("core.select_us", untraced.layer_ns[kSelect] / 1e3 / selects,
             "us");
  }

  std::string Provenance() const override {
    return "\"threads\": 1, \"programs\": " +
           std::to_string(programs_.size()) +
           ", \"fuzz_programs\": " + std::to_string(kFuzzPrograms) +
           ", \"fuzz_families\": \"all but txn, index\""
           ", \"plan_cache\": \"none\", \"table_stats\": \"fixed\"";
  }

  std::vector<std::string> Notes() const override { return notes_; }

 private:
  bool CompileReference() {
    reference_.resize(programs_.size());
    int wilos_ok = 0, servlet_ok = 0;
    for (size_t i = 0; i < programs_.size(); ++i) {
      OpResult untimed;
      reference_[i] = Compile(programs_[i], &untimed);
      if (!reference_[i].ok) {
        std::fprintf(stderr, "extract_cold: %s does not compile\n",
                     programs_[i].name.c_str());
        return false;
      }
      if (programs_[i].source == Source::kWilos &&
          reference_[i].verdict == programs_[i].expect) {
        ++wilos_ok;
      }
      if (programs_[i].source == Source::kServlet &&
          reference_[i].verdict == programs_[i].expect) {
        ++servlet_ok;
      }
    }
    notes_.push_back("extract_cold: " + std::to_string(programs_.size()) +
                     " programs; verdicts matching ground truth: Wilos " +
                     std::to_string(wilos_ok) + "/33, servlets " +
                     std::to_string(servlet_ok) + "/112");
    return true;
  }

  Compiled Compile(const Program& p, OpResult* r) {
    Compiled out;
    eqsql::Result<eqsql::frontend::Program> parsed =
        eqsql::Status::Internal("unparsed");
    {
      LayerTimer t(r, kParse);
      parsed = eqsql::frontend::ParseProgram(p.text);
    }
    if (!parsed.ok()) return out;
    std::string sql;
    if (p.source == Source::kServlet) {
      eqsql::Result<eqsql::core::KeywordSearchResult> ks =
          eqsql::Status::Internal("unrun");
      {
        LayerTimer t(r, kOptimize);
        ks = p.optimizer->ExtractQueriesForKeywordSearch(*parsed, p.function);
      }
      if (!ks.ok()) return out;
      out.verdict = ks->complete;
      for (const std::string& q : ks->queries) sql += q + ";\n";
    } else {
      eqsql::Result<OptimizeResult> res = eqsql::Status::Internal("unrun");
      {
        LayerTimer t(r, kOptimize);
        res = p.optimizer->Optimize(*parsed, p.function);
      }
      if (!res.ok()) return out;
      out.verdict = res->any_extracted();
      for (const auto& o : res->outcomes) {
        ++out.vars;
        if (o.extracted) ++out.vars_extracted;
        out.rules_fired += static_cast<int64_t>(o.rules.size());
        for (const std::string& q : o.sql) sql += q + ";\n";
      }
      auto shared = std::make_shared<const OptimizeResult>(std::move(*res));
      eqsql::core::ExtractionPlan plan;
      {
        LayerTimer t(r, kSelect);
        plan = p.selector->Select(
            shared, parsed->Find(p.function),
            [](const std::string& q) { return eqsql::sql::ParseSql(q); }, 0);
      }
      out.selected = true;
      out.chosen = plan.chosen;
      sql += std::string("chosen=") +
             eqsql::core::AlternativeKindName(plan.chosen) + "\n";
    }
    out.sql_bytes = static_cast<int64_t>(sql.size());
    out.sql_digest = HashString(sql);
    out.ok = true;
    return out;
  }

  bool Check(size_t idx, const Compiled& c) const {
    if (!c.ok) return false;
    const Program& p = programs_[idx];
    if (p.source != Source::kFuzz && c.verdict != p.expect) return false;
    return c.sql_digest == reference_[idx].sql_digest &&
           c.sql_bytes == reference_[idx].sql_bytes;
  }

  eqsql::net::CostModel model_;
  std::vector<Program> programs_;
  std::vector<size_t> pools_[3];  // program indices by Source
  std::vector<Compiled> reference_;
  bool reference_ok_ = false;
  size_t next_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace

std::unique_ptr<Workload> MakeExtractCold(const RunConfig& cfg) {
  return std::make_unique<ExtractCold>(cfg);
}

}  // namespace perfbench
