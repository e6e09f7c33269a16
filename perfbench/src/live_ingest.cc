// live_ingest: the drill-down schema served through maintain::LiveCube
// while rows stream in. An open-loop writer appends fixed-size batches on a
// fixed schedule (each Append fsyncs the WAL); every Append crosses the
// refresh threshold, so the server's pool refreshes in the background with
// a small delta (ApplyDelta) and every refresh bumps the cache epoch. A
// reader runs drill-down sessions through CubeServer::Submit meanwhile.
// The only workload where maintain works, so a read-path gain that slows
// refresh, or the reverse, shows here.
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "engine/cure.h"
#include "maintain/live_cube.h"
#include "serve/cube_server.h"

namespace perfbench {

namespace {

constexpr uint64_t kBaseRows = 20000;
constexpr uint64_t kBatchRows = 16;
constexpr int64_t kBatchPeriodUs = 100000;  // 10 batches per second
constexpr size_t kSessions = 1000;
constexpr size_t kStepsPerSession = 16;
constexpr int kSetups = 7;
// Cold builds of the base rows behind build_s.
constexpr int kBuilds = 21;
// The process runs on one CPU (PinToOneCpu), where a second reader would
// only queue behind the first.
constexpr int kReaders = 1;
// How often the observer looks for a new snapshot; each look wakes a thread
// on the readers' CPU.
constexpr int64_t kObservePeriodUs = 2000;
constexpr int kWorkers = 2;
constexpr uint64_t kCacheBytes = 64ull << 20;
// Answers are checked against cold rebuilds of this many sampled versions.
constexpr int kCheckedVersions = 3;
// Reader answers are grouped into slices of (at most) this length;
// throughput and the median latency are medians over slices (Rounds).
constexpr int64_t kMaxSliceUs = 1000000;

struct Live {
  std::unique_ptr<cure::maintain::LiveCube> live;
  std::unique_ptr<cure::serve::CubeServer> server;
  void Stop() {
    server.reset();
    live.reset();
  }
};

cure::maintain::MaintainOptions LiveOptions(const std::string& workdir) {
  cure::maintain::MaintainOptions o;
  o.wal_path = workdir + "/live.wal";
  o.build = BuildOptions(workdir);
  o.refresh_rows = kBatchRows;  // every Append schedules a refresh
  return o;
}

cure::serve::CubeServerOptions ServerOptions() {
  cure::serve::CubeServerOptions o;
  o.num_threads = kWorkers;
  o.cache_bytes = kCacheBytes;
  o.semantic_cache = true;
  // The cube is small, so the default scan-size gate would skip every
  // derivation attempt; probe on every exact miss instead.
  o.semantic_min_scan_rows = 0;
  return o;
}

struct ReaderAnswer {
  uint64_t version;
  uint32_t session;
  uint32_t step;
  Answer answer;
};

struct ReaderLog {
  Samples queue_us, execute_miss_us, derive_us, miss_probe_us;
  std::vector<Samples> slices;  // latencies by one-second slice of the phase
  std::vector<ReaderAnswer> answers;
  uint64_t attempted = 0, failed = 0, hit = 0, semantic = 0;
  std::string first_error;
};

cure::query::ResultSink::Row MakeRow(const cure::schema::FactTable& t, uint64_t r) {
  cure::query::ResultSink::Row row;
  for (int d = 0; d < t.num_dims(); ++d) row.dims.push_back(t.dim(d, r));
  for (int m = 0; m < t.num_measures(); ++m) row.aggrs.push_back(t.measure(m, r));
  return row;
}

// Cold rebuild over the first `rows` rows of base + appended: the
// reference for answers served at the version that reflected them.
std::unique_ptr<cure::engine::CureCube> ColdBuild(const cure::schema::CubeSchema& schema,
                                                  const cure::schema::FactTable& all,
                                                  uint64_t rows,
                                                  const std::string& workdir,
                                                  cure::schema::FactTable* scratch) {
  *scratch = cure::schema::FactTable(all.num_dims(), all.num_measures());
  scratch->Reserve(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    const cure::query::ResultSink::Row row = MakeRow(all, r);
    scratch->AppendRow(row.dims.data(), row.aggrs.data());
  }
  cure::engine::FactInput input{.table = scratch};
  Span span("engine.cold_build", "engine");
  auto built = cure::engine::BuildCure(schema, input, BuildOptions(workdir));
  CURE_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

}  // namespace

int RunLiveIngest(const Args& args, Report* report) {
  report->Note("pinned to cpu " + std::to_string(PinToOneCpu()));
  cure::gen::Dataset ds;
  Live live;
  Samples setup_s;
  // Every row of the served cube in WAL order, base rows first: the source
  // of the cold-rebuild references and of the recovery check.
  cure::schema::FactTable all(0, 0);
  cure::gen::Rng row_rng(0);
  const auto append_batch = [&](cure::maintain::RowBatch* batch) {
    batch->Clear();
    cure::schema::FactTable rows(4, 1);
    AppendDrillRows(&rows, kBatchRows, &row_rng);
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      const cure::query::ResultSink::Row row = MakeRow(rows, r);
      batch->Add(row.dims.data(), row.aggrs.data());
      all.AppendRow(row.dims.data(), row.aggrs.data());
    }
  };

  for (int k = 0; k < kSetups; ++k) {
    live.Stop();
    RemoveTree(LiveOptions(args.workdir).wal_path);
    const int64_t t0 = NowUs();
    {
      Span gen_span("gen.drill", "gen");
      ds = MakeDrillDataset(kBaseRows, args.seed);
    }
    all = ds.table;
    row_rng = cure::gen::Rng(args.seed * 104729 + 3);
    {
      Span open_span("maintain.open", "maintain");
      auto opened = cure::maintain::LiveCube::Open(ds.schema, ds.table, LiveOptions(args.workdir));
      CURE_CHECK(opened.ok()) << opened.status().ToString();
      live.live = std::move(opened).value();
    }
    {
      Span start_span("serve.start", "serve");
      auto server = cure::serve::CubeServer::Create(live.live.get(), ServerOptions());
      CURE_CHECK(server.ok()) << server.status().ToString();
      live.server = std::move(server).value();
    }
    // Warm-up: the first refresh of each of the two replicas rebuilds.
    cure::maintain::RowBatch batch(4, 1);
    for (int i = 0; i < 2; ++i) {
      append_batch(&batch);
      CURE_CHECK_OK(live.server->Append(batch));
      Span flush_span("maintain.flush", "maintain");
      auto flushed = live.server->Flush();
      CURE_CHECK(flushed.ok()) << flushed.status().ToString();
    }
    setup_s.Add(static_cast<double>(NowUs() - t0) * 1e-6);
  }

  // build_s and the cube's size: cold builds of the base rows, the build
  // LiveCube::Open runs in every set-up.
  const std::vector<cure::engine::FactInput> build_input = {{.table = &ds.table}};
  Samples build_s;
  double cube_bytes = 0;
  TimeBuilds(ds.schema, build_input, args.workdir, kBuilds / 2, &build_s, &cube_bytes);
  const double fact_bytes = static_cast<double>(ds.table.num_rows() * ds.table.RecordSize());

  const std::vector<cure::query::DrillSession> sessions =
      cure::query::DrillDownSessions(ds.schema, kSessions, kStepsPerSession, args.seed * 31 + 7);
  const cure::maintain::LiveCube::Counters c0 = live.live->counters();
  const uint64_t rows_before = all.num_rows();

  // --- timed phase.
  std::atomic<bool> stop{false};
  const int64_t phase_start = NowUs();
  const int64_t phase_end = phase_start + static_cast<int64_t>(args.seconds * 1e6);
  const int64_t slice_us = std::min<int64_t>(kMaxSliceUs, phase_end - phase_start);

  // Observer: the first moment each version is visible to new queries.
  struct Seen {
    uint64_t version;
    uint64_t rows;
    int64_t at_us;
    double refresh_s;
  };
  std::vector<Seen> seen;
  std::thread observer([&] {
    uint64_t last = 0;
    while (!stop.load()) {
      const auto snap = live.live->snapshot();
      if (snap->version != last) {
        const int64_t now = NowUs();
        last = snap->version;
        seen.push_back({snap->version, snap->rows, now,
                        live.live->freshness().last_refresh_seconds});
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kObservePeriodUs));
    }
  });

  // Writer: open loop, one batch due every period, timed from when due.
  struct Acked {
    uint64_t rows_after;
    int64_t ack_us;
  };
  std::vector<Acked> acked;
  Samples append_us, late_ms;
  uint64_t append_failed = 0;
  std::thread writer([&] {
    cure::maintain::RowBatch batch(4, 1);
    for (int64_t due = phase_start; due < phase_end; due += kBatchPeriodUs) {
      while (NowUs() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(std::max<int64_t>(due - NowUs(), 0)));
      }
      late_ms.Add(static_cast<double>(NowUs() - due) * 1e-3);
      append_batch(&batch);
      cure::Status s;
      {
        Span span("maintain.append", "maintain",
                  Spans::Get().on() ? Spans::Get().NewRequestId() : 0);
        s = live.server->Append(batch);
      }
      const int64_t now = NowUs();
      if (!s.ok()) {
        ++append_failed;
        continue;
      }
      append_us.Add(static_cast<double>(now - due));
      acked.push_back({all.num_rows(), now});
    }
  });

  std::vector<ReaderLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderLog& log = logs[r];
      size_t s = r;
      while (NowUs() < phase_end) {
        const auto& session = sessions[s % sessions.size()];
        for (size_t i = 0; i < session.size() && NowUs() < phase_end; ++i) {
          cure::serve::QueryRequest request;
          request.node = session[i].node;
          request.slices = session[i].slices;
          ++log.attempted;
          const uint64_t req = Spans::Get().on() ? Spans::Get().NewRequestId() : 0;
          const int64_t q0 = NowUs();
          const double q0_exact = NowUsExact();
          Span span("serve.submit", "serve", req);
          const cure::serve::QueryResponse resp = live.server->Submit(std::move(request)).get();
          span.End();
          const double us = NowUsExact() - q0_exact;
          if (!resp.status.ok()) {
            ++log.failed;
            if (log.first_error.empty()) log.first_error = resp.status.ToString();
            continue;
          }
          const size_t slice = static_cast<size_t>((NowUs() - phase_start) / slice_us);
          if (log.slices.size() <= slice) log.slices.resize(slice + 1);
          log.slices[slice].Add(us);
          log.answers.push_back({resp.version, static_cast<uint32_t>(s % sessions.size()),
                                 static_cast<uint32_t>(i), Answer{resp.count, resp.checksum}});
          if (resp.cache_hit) ++log.hit;
          if (resp.semantic_hit) ++log.semantic;
          if (!args.trace) continue;
          log.queue_us.Add(static_cast<double>(resp.queue_wait_us));
          if (resp.semantic_hit) log.derive_us.Add(static_cast<double>(resp.cache_us));
          if (!resp.cache_hit && !resp.semantic_hit) {
            log.miss_probe_us.Add(static_cast<double>(resp.cache_us));
            log.execute_miss_us.Add(static_cast<double>(resp.execute_us));
          }
          AddServeStageSpans(q0, req, span.id(), resp.queue_wait_us, resp.key_us, resp.cache_us,
                             resp.execute_us);
        }
        s += kReaders;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  // Let the last batches become visible before the observer stops.
  {
    const int64_t wait_until = NowUs() + 5000000;
    while (live.live->snapshot()->rows < all.num_rows() && NowUs() < wait_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  stop.store(true);
  observer.join();
  const cure::maintain::LiveCube::Counters c1 = live.live->counters();
  const uint64_t rejected = live.server->metrics()->counter("rejected_total")->value();
  TimeBuilds(ds.schema, build_input, args.workdir, kBuilds - kBuilds / 2, &build_s, &cube_bytes);

  // Freshness lag per acknowledged batch.
  Samples lag_ms;
  for (const Acked& a : acked) {
    for (const Seen& v : seen) {
      if (v.rows >= a.rows_after) {
        lag_ms.Add(static_cast<double>(std::max<int64_t>(v.at_us - a.ack_us, 0)) * 1e-3);
        break;
      }
    }
  }
  report->Check(lag_ms.size() == acked.size(),
                std::to_string(acked.size() - lag_ms.size()) + " batches never became visible");
  Samples refresh_ms;
  for (size_t i = 1; i < seen.size(); ++i) refresh_ms.Add(seen[i].refresh_s * 1e3);

  // --- correctness (untimed): cold rebuilds of sampled versions.
  ReaderLog total;
  for (ReaderLog& log : logs) {
    total.queue_us.Append(log.queue_us);
    total.execute_miss_us.Append(log.execute_miss_us);
    total.derive_us.Append(log.derive_us);
    total.miss_probe_us.Append(log.miss_probe_us);
    total.answers.insert(total.answers.end(), log.answers.begin(), log.answers.end());
    total.attempted += log.attempted;
    total.failed += log.failed;
    total.hit += log.hit;
    total.semantic += log.semantic;
    if (total.first_error.empty()) total.first_error = log.first_error;
  }
  std::map<uint64_t, uint64_t> version_rows;
  for (const Seen& v : seen) version_rows[v.version] = v.rows;
  std::map<uint64_t, size_t> answers_per_version;
  for (const ReaderAnswer& a : total.answers) ++answers_per_version[a.version];
  std::vector<uint64_t> known;
  for (const auto& [version, n] : answers_per_version) {
    if (version_rows.count(version) != 0) known.push_back(version);
  }
  report->Check(!known.empty(), "no answered version was observed");
  std::vector<uint64_t> sampled;
  for (int i = 0; i < kCheckedVersions && !known.empty(); ++i) {
    const uint64_t v = known[(known.size() - 1) * i / std::max(1, kCheckedVersions - 1)];
    if (sampled.empty() || sampled.back() != v) sampled.push_back(v);
  }
  uint64_t checked = 0, wrong = 0;
  for (uint64_t version : sampled) {
    cure::schema::FactTable scratch(0, 0);
    auto cube = ColdBuild(ds.schema, all, version_rows[version], args.workdir, &scratch);
    auto engine = cure::query::CureQueryEngine::Create(cube.get(), 1.0);
    CURE_CHECK(engine.ok()) << engine.status().ToString();
    std::map<std::pair<uint32_t, uint32_t>, Answer> memo;
    for (const ReaderAnswer& a : total.answers) {
      if (a.version != version) continue;
      auto key = std::make_pair(a.session, a.step);
      auto it = memo.find(key);
      if (it == memo.end()) {
        const cure::query::DrillStep& step = sessions[a.session][a.step];
        cure::query::ResultSink sink;
        CURE_CHECK_OK((*engine)->QueryNodeSliced(step.node, step.slices, &sink));
        it = memo.emplace(key, Answer{sink.count(), sink.checksum()}).first;
      }
      ++checked;
      if (!(it->second == a.answer)) ++wrong;
    }
  }
  report->Check(wrong == 0, std::to_string(wrong) + " of " + std::to_string(checked) +
                                " sampled answers differ from cold rebuilds");

  // --- recovery (untimed): reopen the WAL; every acknowledged row is back.
  live.Stop();
  {
    Span span("maintain.recover", "maintain");
    auto reopened = cure::maintain::LiveCube::Open(ds.schema, ds.table, LiveOptions(args.workdir));
    CURE_CHECK(reopened.ok()) << reopened.status().ToString();
    const auto snap = (*reopened)->snapshot();
    report->Check(snap->rows == all.num_rows(),
                  "WAL recovery restored " + std::to_string(snap->rows) + " of " +
                      std::to_string(all.num_rows()) + " acknowledged rows");
    cure::schema::FactTable scratch(0, 0);
    auto cold = ColdBuild(ds.schema, all, all.num_rows(), args.workdir, &scratch);
    auto cold_engine = cure::query::CureQueryEngine::Create(cold.get(), 1.0);
    CURE_CHECK(cold_engine.ok());
    const cure::schema::NodeIdCodec codec(ds.schema);
    const cure::schema::NodeId apex = codec.num_nodes() - 1;
    cure::query::ResultSink a, b;
    CURE_CHECK_OK(snap->engine->QueryNode(apex, &a));
    CURE_CHECK_OK((*cold_engine)->QueryNode(apex, &b));
    report->Check(a.checksum() == b.checksum() && a.count() == b.count(),
                  "recovered cube differs from a cold rebuild over all acknowledged rows");
  }

  const uint64_t writes = static_cast<uint64_t>(acked.size()) + append_failed;
  report->attempted = total.attempted + writes;
  report->failed = total.failed + append_failed;
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " failed operations, first: " +
                 total.first_error);
  }
  report->Metric("setup_s", setup_s.Median(), "s", true, setup_s.size());
  report->Metric("build_s", build_s.Median(), "s", true, build_s.size());
  report->Metric("cube_bytes_per_fact_byte", cube_bytes / fact_bytes, "ratio", true);
  // Whole slices only; answers completing after the phase belong to none.
  Rounds rounds;
  const size_t whole = static_cast<size_t>((phase_end - phase_start) / slice_us);
  for (size_t i = 0; i < whole; ++i) {
    Samples slice;
    for (const ReaderLog& log : logs) {
      if (i < log.slices.size()) slice.Append(log.slices[i]);
    }
    rounds.Add(slice.size(), static_cast<double>(slice_us) * 1e-6, slice);
  }
  rounds.Publish(report);
  const double attempts = static_cast<double>(total.attempted);
  const uint64_t refreshes = c1.refresh_total - c0.refresh_total;
  report->Note("batches=" + std::to_string(acked.size()) + "x" + std::to_string(kBatchRows) +
               " rows=" + std::to_string(rows_before) + "->" + std::to_string(all.num_rows()) +
               " refreshes=" + std::to_string(refreshes) + " delta=" +
               std::to_string(c1.refresh_delta - c0.refresh_delta) + " versions_checked=" +
               std::to_string(sampled.size()) + " answers_checked=" + std::to_string(checked) +
               " exact_hit_ratio=" + std::to_string(total.hit / attempts) +
               " semantic_hit_ratio=" + std::to_string(total.semantic / attempts));
  if (args.trace) {
    report->Percentiles("maintain.freshness_lag_ms", "", lag_ms, "ms", false);
    report->Percentiles("maintain.append_us_p50", "maintain.append_us_p99", append_us, "us",
                        false);
    report->Percentiles("maintain.refresh_ms_p50", "", refresh_ms, "ms", false);
    report->Metric("maintain.delta_ratio",
                   refreshes > 0 ? static_cast<double>(c1.refresh_delta - c0.refresh_delta) /
                                       static_cast<double>(refreshes)
                                 : 0,
                   "ratio", false);
    report->Metric("maintain.skipped_busy",
                   static_cast<double>(c1.refresh_skipped - c0.refresh_skipped), "count", false);
    report->Percentiles("maintain.generator_late_ms", "", late_ms, "ms", false);
    report->Percentiles("serve.queue_wait_us_p50", "serve.queue_wait_us_p99", total.queue_us,
                        "us", false);
    report->Percentiles("serve.execute_us_p50", "", total.execute_miss_us, "us", false);
    report->Metric("algebra.exact_hit_ratio", total.hit / attempts, "ratio", false);
    report->Metric("algebra.semantic_hit_ratio", total.semantic / attempts, "ratio", false);
    report->Percentiles("algebra.derive_us_p50", "", total.derive_us, "us", false);
    report->Percentiles("algebra.miss_probe_us_p50", "", total.miss_probe_us, "us", false);
    report->Metric("serve.rejected", static_cast<double>(rejected), "count", false);
    FinishTrace(args, {"gen.drill", "maintain.open", "maintain.append", "maintain.flush",
                       "serve.submit", "engine.cold_build"},
                report);
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB", true);
  return 0;
}

}  // namespace perfbench
