#include "common.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "common/metrics.h"
#include "common/trace.h"
#include "engine/cure.h"
#include "gen/zipf.h"

namespace perfbench {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NowUsExact() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) *
         1e-3;
}

// ---------------------------------------------------------------- Samples

void Samples::Sort() const {
  if (sorted_.size() == values_.size()) return;  // samples are only added
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted_.size())));
  if (rank < 1) rank = 1;
  if (rank > sorted_.size()) rank = sorted_.size();
  return sorted_[rank - 1];
}

size_t Samples::CountAbove(double q) const {
  if (values_.empty()) return 0;
  const double p = Percentile(q);
  return static_cast<size_t>(sorted_.end() -
                             std::upper_bound(sorted_.begin(), sorted_.end(), p));
}

// ----------------------------------------------------------------- Rounds

void Rounds::Add(uint64_t answers, double seconds, const Samples& latency) {
  qps_.Add(seconds > 0 ? static_cast<double>(answers) / seconds : 0);
  if (latency.empty()) return;
  p50_.Add(latency.Median());
  all_.Append(latency);
}

void Rounds::Publish(Report* report) const {
  if (p50_.empty()) {
    report->Fail("no answered queries");
    return;
  }
  report->Metric("qps", qps_.Median(), "1/s", true, all_.size());
  report->Metric("query_p50_us", p50_.Median(), "us", true, all_.size());
  report->Metric("query_p99_us", all_.Percentile(0.99), "us", true, all_.size());
  if (all_.CountAbove(0.99) < 10) {
    report->Note("query_p99_us: only " + std::to_string(all_.CountAbove(0.99)) +
                 " samples beyond it of " + std::to_string(all_.size()));
  }
  report->Note("rounds=" + std::to_string(size()) + " answers=" + std::to_string(all_.size()));
}

// ----------------------------------------------------------------- Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, bool e2e, size_t samples) {
  metrics_[name] = Entry{value, unit, e2e, samples};
}

void Report::Percentiles(const std::string& p50_name,
                         const std::string& p99_name, const Samples& s,
                         const std::string& unit, bool e2e) {
  if (s.empty()) {
    Fail("no samples for " + p50_name);
    return;
  }
  Metric(p50_name, s.Median(), unit, e2e, s.size());
  if (p99_name.empty()) return;
  Metric(p99_name, s.Percentile(0.99), unit, e2e, s.size());
  if (s.CountAbove(0.99) < 10) {
    Note(p99_name + ": only " + std::to_string(s.CountAbove(0.99)) + " samples beyond it of " +
         std::to_string(s.size()));
  }
}

void Report::Fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct = false;
  notes_.push_back("check failed: " + why);
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

namespace {
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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) +
           ", \"samples\": " + std::to_string(e.samples) +
           ", \"e2e\": " + (e.e2e ? "true" : "false") + "}";
  }
  out += "}, \"notes\": [";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(notes_[i]);
  }
  out += "]}";
  return out;
}

// ------------------------------------------------------------------ Spans

namespace {
thread_local uint64_t tls_current_span = 0;
std::atomic<uint32_t> next_tid{1};
thread_local uint32_t tls_tid = 0;
uint32_t Tid() {
  if (tls_tid == 0) tls_tid = next_tid.fetch_add(1);
  return tls_tid;
}
// Bounds memory of a long traced run; later spans are counted as dropped.
constexpr size_t kMaxSpans = 4u << 20;
}  // namespace

Spans& Spans::Get() {
  static Spans* spans = new Spans();
  return *spans;
}

uint64_t Spans::Add(const char* name, const char* layer, int64_t start_us,
                    int64_t dur_us, uint64_t req, uint64_t parent,
                    uint64_t id) {
  if (!on()) return 0;
  if (id == 0) id = NewSpanId();
  if (!Sampled(req)) return id;
  const uint32_t tid = Tid();
  std::lock_guard<std::mutex> lock(mu_);
  if (recs_.size() >= kMaxSpans) {
    ++dropped_;
    return id;
  }
  recs_.push_back(Rec{name, layer, start_us, std::max<int64_t>(dur_us, 0), req,
                      id, parent, tid});
  return id;
}

cure::Status Spans::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return cure::Status::IoError("cannot write " + path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << r.name << "\",\"cat\":\"" << r.layer
        << "\",\"ph\":\"X\",\"ts\":" << r.start_us << ",\"dur\":" << r.dur_us
        << ",\"pid\":1,\"tid\":" << r.tid << ",\"args\":{\"req\":" << r.req
        << ",\"span\":" << r.id << ",\"parent\":" << r.parent << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  out.close();
  if (!out) return cure::Status::IoError("short write to " + path);
  return cure::Status::OK();
}

std::map<std::string, double> Spans::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Rec& r : recs_) {
    if (r.parent != 0) kids[r.parent].push_back({r.start_us, r.start_us + r.dur_us});
  }
  std::map<std::string, double> self;
  for (const Rec& r : recs_) {
    const int64_t begin = r.start_us;
    const int64_t end = r.start_us + r.dur_us;
    int64_t covered = 0;
    auto it = kids.find(r.id);
    if (it != kids.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_b = 0, cur_e = -1;
      for (const auto& [b0, e0] : iv) {
        const int64_t b = std::max(b0, begin), e = std::min(e0, end);
        if (b >= e) continue;
        if (cur_e < b) {
          if (cur_e > cur_b) covered += cur_e - cur_b;
          cur_b = b;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      if (cur_e > cur_b) covered += cur_e - cur_b;
    }
    const double weight = r.req == 0 ? 1.0 : static_cast<double>(kSampleEvery);
    self[r.layer] += weight * static_cast<double>(r.dur_us - covered) * 1e-6;
  }
  return self;
}

Span::Span(const char* name, const char* layer, uint64_t req)
    : name_(name), layer_(layer), req_(req) {
  if (!Spans::Get().on()) return;
  open_ = true;
  parent_ = tls_current_span;
  id_ = Spans::Get().NewSpanId();
  tls_current_span = id_;
  start_us_ = NowUs();
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  Spans::Get().Add(name_, layer_, start_us_, NowUs() - start_us_, req_,
                   parent_, id_);
  tls_current_span = parent_;
}

void AddServeStageSpans(int64_t start_us, uint64_t req, uint64_t parent, int64_t queue_wait_us,
                        int64_t key_us, int64_t cache_us, int64_t execute_us) {
  const struct {
    const char* name;
    const char* layer;
    int64_t dur_us;
  } stages[4] = {{"serve.queue_wait", "serve", queue_wait_us},
                 {"serve.key", "serve", key_us},
                 {"algebra.cache", "algebra", cache_us},
                 {"query.execute", "query", execute_us}};
  for (const auto& stage : stages) {
    Spans::Get().Add(stage.name, stage.layer, start_us, stage.dur_us, req, parent);
    start_us += stage.dur_us;
  }
}

// ---------------------------------------------------------- process probes

namespace {
double StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtod(line.c_str() + n, nullptr);
    }
  }
  return 0;
}
}  // namespace

double PeakRssMb() { return StatusField("VmHWM:") / 1024.0; }

void ResetPeakRss() {
  // Hand freed heap back first, so the next peak starts from live memory.
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}
int ThreadCount() { return static_cast<int>(StatusField("Threads:")); }

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}


// ------------------------------------------------------------------ data

namespace {
struct DrillSamplers {
  cure::gen::ZipfSampler a{48, 1.1}, b{20, 0.9}, c{12, 0.8}, d{6, 0.5};
};
const DrillSamplers& Samplers() {
  static const DrillSamplers* s = new DrillSamplers();
  return *s;
}
}  // namespace

void AppendDrillRows(cure::schema::FactTable* table, uint64_t rows,
                     cure::gen::Rng* rng) {
  const DrillSamplers& z = Samplers();
  for (uint64_t t = 0; t < rows; ++t) {
    const uint32_t row[4] = {z.a.Sample(rng), z.b.Sample(rng), z.c.Sample(rng),
                             z.d.Sample(rng)};
    const int64_t m = static_cast<int64_t>(rng->NextRange(1000));
    table->AppendRow(row, &m);
  }
}

cure::gen::Dataset MakeDrillDataset(uint64_t tuples, uint64_t seed) {
  using cure::schema::Dimension;
  cure::gen::Dataset ds;
  ds.name = "drill-zipf";
  std::vector<Dimension> dims;
  dims.push_back(Dimension::Linear("A", {48, 12, 3}));
  dims.push_back(Dimension::Linear("B", {20, 5}));
  dims.push_back(Dimension::Linear("C", {12, 4}));
  dims.push_back(Dimension::Flat("D", 6));
  auto schema = cure::schema::CubeSchema::Create(
      std::move(dims), 1,
      {{cure::schema::AggFn::kSum, 0, "s"}, {cure::schema::AggFn::kCount, 0, "c"}});
  CURE_CHECK(schema.ok()) << schema.status().ToString();
  ds.schema = std::move(schema).value();
  ds.table = cure::schema::FactTable(4, 1);
  ds.table.Reserve(tuples);
  cure::gen::Rng rng(seed);
  AppendDrillRows(&ds.table, tuples, &rng);
  return ds;
}

void TimeBuilds(const cure::schema::CubeSchema& schema,
                const std::vector<cure::engine::FactInput>& inputs,
                const std::string& workdir, int builds, Samples* seconds,
                double* cube_bytes) {
  for (int b = 0; b < builds; ++b) {
    std::vector<std::unique_ptr<cure::engine::CureCube>> cubes;
    const double t0 = NowUsExact();
    for (const cure::engine::FactInput& input : inputs) {
      Span span("engine.build", "engine");
      auto built = cure::engine::BuildCure(schema, input, BuildOptions(workdir));
      CURE_CHECK(built.ok()) << built.status().ToString();
      cubes.push_back(std::move(built).value());
    }
    seconds->Add((NowUsExact() - t0) * 1e-6);
    *cube_bytes = 0;
    for (const auto& cube : cubes) *cube_bytes += static_cast<double>(cube->TotalBytes());
  }
}

std::string NodeSpec(const cure::schema::CubeSchema& schema,
                     cure::schema::NodeId node) {
  const cure::schema::NodeIdCodec codec(schema);
  const std::vector<int> levels = codec.Decode(node);
  std::string out;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (levels[d] == codec.all_level(d)) continue;
    if (!out.empty()) out += ',';
    out += schema.dim(d).level(levels[d]).name;
  }
  return out.empty() ? "ALL" : out;
}

std::string SliceSpecs(const cure::schema::CubeSchema& schema,
                       const std::vector<cure::query::CureQueryEngine::Slice>& s) {
  std::string out;
  for (const auto& slice : s) {
    out += ' ';
    out += schema.dim(slice.dim).level(slice.level).name + "=" +
           std::to_string(slice.code);
  }
  return out;
}

bool ParseOkHeader(const std::string& response, Answer* answer,
                   std::string* kind) {
  if (response.compare(0, 3, "OK ") != 0) return false;
  unsigned long long count = 0, checksum = 0;
  char buf[32] = {0};
  if (std::sscanf(response.c_str(), "OK %llu %llx %31s", &count, &checksum,
                  buf) != 3) {
    return false;
  }
  answer->count = count;
  answer->checksum = checksum;
  if (kind != nullptr) *kind = buf;
  return true;
}

void FinishTrace(const Args& args, const std::vector<std::string>& expected,
                 Report* report) {
  Spans& spans = Spans::Get();
  const std::string path = args.workdir + "/trace.json";
  cure::Status s = spans.WriteChromeTrace(path);
  report->Check(s.ok(), "trace export: " + s.ToString());
  cure::ChromeTraceSummary summary;
  s = cure::ValidateChromeTraceFile(path, &summary);
  report->Check(s.ok(), "trace validation: " + s.ToString());
  for (const std::string& name : expected) {
    report->Check(summary.CompleteCount(name) > 0,
                  "trace has no span named " + name);
  }
  report->Check(spans.dropped() == 0, "span recorder dropped spans");
  report->Metric("trace.spans", static_cast<double>(summary.complete_events),
                 "count", false);
  for (const auto& [layer, seconds] : spans.SelfSecondsByLayer()) {
    report->Metric(layer + ".self_s", seconds, "s", false);
  }
}

StorageCounters StorageCounters::Now() {
  cure::MetricsRegistry& m = cure::GlobalMetrics();
  StorageCounters c;
  c.read_bytes = m.counter("cure_storage_read_bytes_total")->value();
  c.written_bytes = m.counter("cure_storage_write_bytes_total")->value();
  c.fsyncs = m.counter("cure_storage_fsync_total")->value();
  c.spill_bytes = m.counter("cure_storage_sort_spill_bytes_total")->value();
  return c;
}

LineClient::~LineClient() { Close(); }

void LineClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool LineClient::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool LineClient::RoundTrip(const std::string& line, std::string* response) {
  if (fd_ < 0) return false;
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  response->clear();
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    response->append(buf, static_cast<size_t>(n));
    const size_t len = response->size();
    if ((len == 2 && *response == ".\n") ||
        (len >= 3 && response->compare(len - 3, 3, "\n.\n") == 0)) {
      return true;
    }
  }
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
