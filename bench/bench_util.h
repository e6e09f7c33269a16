#ifndef CURE_BENCH_BENCH_UTIL_H_
#define CURE_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction benches. Every bench
// binary runs stand-alone with no arguments and prints the series of one or
// more of the paper's figures; the serving/cluster benches additionally
// accept `--json-out=<file>` to dump their measurements as a flat JSON
// baseline (committed as BENCH_*.json, diffed by CI). Environment knobs:
//   CURE_BENCH_SCALE   — divides dataset sizes (default per bench; 1 =
//                        the paper's published sizes where feasible)
//   CURE_BENCH_QUERIES — number of random node queries for QRT figures
//   CURE_MEM_BUDGET_MB — engine memory budget in MB (default per bench)

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_temp_dir.h"
#include "common/bytes.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "engine/bubst.h"
#include "engine/buc.h"
#include "engine/cure.h"
#include "gen/datasets.h"
#include "query/node_query.h"
#include "query/workload.h"

namespace cure {
namespace bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintSubHeader(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// One measured cube build.
struct BuildRow {
  std::string label;
  double seconds = 0;
  uint64_t bytes = 0;
  uint64_t tuples = 0;
  bool skipped = false;
  std::string note;
};

inline void PrintBuildRows(const std::vector<BuildRow>& rows) {
  std::printf("%-14s %14s %14s %14s  %s\n", "method", "time", "size", "tuples",
              "note");
  for (const BuildRow& row : rows) {
    if (row.skipped) {
      std::printf("%-14s %14s %14s %14s  %s\n", row.label.c_str(), "-", "-", "-",
                  row.note.c_str());
    } else {
      std::printf("%-14s %12.3f s %14s %14llu  %s\n", row.label.c_str(),
                  row.seconds, FormatBytes(row.bytes).c_str(),
                  static_cast<unsigned long long>(row.tuples), row.note.c_str());
    }
  }
}

/// Builds CURE (and optionally applies the CURE+ post-processing) and
/// returns the cube plus a BuildRow. Post-processing time is included in
/// the reported time for "+" variants, as in the paper.
struct CureBuildResult {
  std::unique_ptr<engine::CureCube> cube;
  BuildRow row;
};

inline CureBuildResult BuildCureVariant(const std::string& label,
                                        const schema::CubeSchema& schema,
                                        const engine::FactInput& input,
                                        engine::CureOptions options,
                                        bool post_process) {
  CureBuildResult result;
  result.row.label = label;
  auto cube = engine::BuildCure(schema, input, options);
  CURE_CHECK(cube.ok()) << label << ": " << cube.status().ToString();
  if (post_process) {
    CURE_CHECK_OK(engine::CurePostProcess(cube->get()));
  }
  result.cube = std::move(cube).value();
  const engine::BuildStats& stats = result.cube->stats();
  result.row.seconds = stats.build_seconds + stats.postprocess_seconds;
  result.row.bytes = result.cube->TotalBytes();
  result.row.tuples = stats.tt + stats.nt + stats.cat;
  if (stats.external) {
    char note[128];
    std::snprintf(note, sizeof(note), "external: L=%d, %llu partitions, |N|=%llu",
                  stats.partition_level,
                  static_cast<unsigned long long>(stats.num_partitions),
                  static_cast<unsigned long long>(stats.n_rows));
    result.row.note = note;
  }
  return result;
}

/// Average QRT of a query engine over a random node workload. When
/// `latencies` is non-null, per-query micros are also recorded there (use a
/// MetricsRegistry histogram so the bench publishes the same distribution
/// the serving layer snapshots).
inline query::QrtStats MeasureEngineQrt(
    const std::vector<schema::NodeId>& workload,
    const std::function<Status(schema::NodeId, query::ResultSink*)>& fn,
    LogHistogram* latencies = nullptr) {
  Result<query::QrtStats> stats = query::MeasureQrt(workload, fn, latencies);
  CURE_CHECK(stats.ok()) << stats.status().ToString();
  return std::move(stats).value();
}

/// Prints a latency histogram in the exact `<name>_{count,avg_us,p50_us,
/// p95_us,p99_us,max_us}` shape the serving layer's STATS verb uses —
/// benches and serve report percentiles through one renderer.
inline void PrintLatencyHistogram(const std::string& name,
                                  const LogHistogram& histogram) {
  std::string text;
  AppendHistogramText(name, histogram, &text);
  std::fputs(text.c_str(), stdout);
}

/// Spills a CURE cube's store to a packed file (timed); queries then read
/// node relations from disk, as in the paper's setting.
inline double SpillCure(engine::CureCube* cube, const std::string& path) {
  Stopwatch watch;
  CURE_CHECK_OK(cube->SpillStoreToDisk(path));
  return watch.ElapsedSeconds();
}

/// Accumulates bench measurements for `--json-out=<file>`: one flat JSON
/// document {"bench": <name>, "series": [{"name": ..., "<metric>": N, ...}]}
/// so baselines can be committed (BENCH_*.json) and diffed mechanically.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void BeginSeries(const std::string& name) { series_.push_back({name, {}}); }

  /// Adds a metric to the series opened by the last BeginSeries call.
  void Add(const std::string& metric, double value) {
    CURE_CHECK(!series_.empty()) << "Add() before BeginSeries()";
    series_.back().metrics.emplace_back(metric, value);
  }

  std::string Render() const {
    std::string out = "{\n  \"bench\": \"" + bench_ + "\",\n  \"series\": [";
    for (size_t i = 0; i < series_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"name\": \"" + series_[i].name + "\"";
      for (const auto& metric : series_[i].metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.6g", metric.second);
        out += ", \"" + metric.first + "\": " + value;
      }
      out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
  }

  /// Writes the report; exits nonzero on I/O failure so CI catches it.
  void WriteOrDie(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    CURE_CHECK(file != nullptr) << "cannot open " << path;
    const std::string text = Render();
    CURE_CHECK(std::fwrite(text.data(), 1, text.size(), file) == text.size())
        << "short write to " << path;
    CURE_CHECK(std::fclose(file) == 0) << "close failed for " << path;
    std::printf("\njson baseline written to %s\n", path.c_str());
  }

 private:
  struct Series {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string bench_;
  std::vector<Series> series_;
};

/// Parses the one flag benches accept. Returns the `--json-out=` path ("" if
/// absent); any other argument prints usage and exits, keeping the benches'
/// no-surprise CLI contract.
inline std::string ParseJsonOutArg(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kFlag = "--json-out=";
    if (arg.rfind(kFlag, 0) == 0 && arg.size() > kFlag.size()) {
      path = arg.substr(kFlag.size());
    } else {
      std::fprintf(stderr, "usage: %s [--json-out=<file>]\n", argv[0]);
      std::exit(2);
    }
  }
  return path;
}

inline int64_t ScaleEnv(int64_t def) { return EnvInt64("CURE_BENCH_SCALE", def); }

inline int64_t QueriesEnv(int64_t def) {
  return EnvInt64("CURE_BENCH_QUERIES", def);
}

inline uint64_t MemBudgetEnv(uint64_t def_bytes) {
  const int64_t mb = EnvInt64("CURE_MEM_BUDGET_MB", 0);
  return mb > 0 ? static_cast<uint64_t>(mb) << 20 : def_bytes;
}

}  // namespace bench
}  // namespace cure

#endif  // CURE_BENCH_BENCH_UTIL_H_
