#include "serve/tcp_server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "algebra/rollup.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "schema/lattice.h"

namespace cure {
namespace serve {

Result<std::unique_ptr<TcpLineServer>> TcpLineServer::Start(
    CubeServer* server, const LineTransportOptions& options,
    ValueDecoder decoder,
    SliceValueResolver resolver) {
  auto self = std::unique_ptr<TcpLineServer>(
      new TcpLineServer(server, std::move(decoder), std::move(resolver)));
  CURE_ASSIGN_OR_RETURN(
      self->transport_,
      LineTransport::Start(
          [raw = self.get()](const std::string& line) {
            return raw->HandleLine(line);
          },
          options));
  return self;
}

TcpLineServer::~TcpLineServer() { Stop(); }

void TcpLineServer::Stop() { transport_->Stop(); }

std::string TcpLineServer::HandleLine(const std::string& line) {
  std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) {
    return ErrResponse(StatusCode::kInvalidArgument, "empty command");
  }
  const std::string cmd = ToUpper(tokens[0]);

  if (cmd == "STATS") {
    return "OK\n" + server_->StatsText() + ".\n";
  }
  if (cmd == "METRICS") {
    // Prometheus text exposition (server series + process-global storage
    // series); scrape with e.g. `printf 'METRICS\nQUIT\n' | nc host port`.
    return "OK\n" + server_->PrometheusText() + ".\n";
  }
  if (cmd == "SLOWLOG") {
    if (tokens.size() != 1) {
      return ErrResponse(StatusCode::kInvalidArgument,
                         "SLOWLOG takes no arguments");
    }
    return "OK\n" + server_->slowlog()->Dump() + ".\n";
  }
  if (cmd == "APPEND") {
    const schema::CubeSchema& schema = server_->schema();
    const size_t width =
        static_cast<size_t>(schema.num_dims() + schema.num_raw_measures());
    if (tokens.size() <= 1 || (tokens.size() - 1) % width != 0) {
      return ErrResponse(
          StatusCode::kInvalidArgument,
          "APPEND takes k*" + std::to_string(width) +
              " integers: <leaf codes...> <measures...> per row");
    }
    maintain::RowBatch batch(schema.num_dims(), schema.num_raw_measures());
    std::vector<uint32_t> dims(schema.num_dims());
    std::vector<int64_t> measures(schema.num_raw_measures());
    size_t t = 1;
    while (t < tokens.size()) {
      for (int d = 0; d < schema.num_dims(); ++d, ++t) {
        int64_t value = 0;
        if (!ParseInt64(tokens[t], &value) || value < 0 ||
            value > 0xFFFFFFFFll) {
          return ErrResponse(StatusCode::kInvalidArgument,
                             "'" + tokens[t] + "' is not a valid leaf code");
        }
        dims[d] = static_cast<uint32_t>(value);
      }
      for (int m = 0; m < schema.num_raw_measures(); ++m, ++t) {
        int64_t value = 0;
        if (!ParseInt64(tokens[t], &value)) {
          return ErrResponse(StatusCode::kInvalidArgument,
                             "'" + tokens[t] + "' is not a valid measure");
        }
        measures[m] = value;
      }
      batch.Add(dims.data(), measures.data());
    }
    const Status status = server_->Append(batch);
    if (!status.ok()) return ErrResponse(status);
    Result<maintain::Freshness> fresh = server_->GetFreshness();
    const uint64_t pending = fresh.ok() ? fresh->pending_rows : 0;
    char header[64];
    std::snprintf(header, sizeof(header), "OK %llu %llu\n.\n",
                  static_cast<unsigned long long>(batch.rows()),
                  static_cast<unsigned long long>(pending));
    return header;
  }
  if (cmd == "FLUSH") {
    if (tokens.size() != 1) {
      return ErrResponse(StatusCode::kInvalidArgument, "FLUSH takes no arguments");
    }
    Result<maintain::RefreshStats> result = server_->Flush();
    if (!result.ok()) return ErrResponse(result.status());
    char header[96];
    std::snprintf(header, sizeof(header), "OK %llu %llu %s\n.\n",
                  static_cast<unsigned long long>(result->version),
                  static_cast<unsigned long long>(result->rows_applied),
                  result->refreshed
                      ? (result->used_delta ? "DELTA" : "REBUILD")
                      : "NOOP");
    return header;
  }
  if (!IsQueryVerb(cmd)) {
    return ErrResponse(StatusCode::kInvalidArgument,
                       "unknown command '" + tokens[0] +
                           "' (expected QUERY, ICEBERG, SLICE, ROLLUP, DRILL, "
                           "TOPK, BATCH, APPEND, FLUSH, STATS, METRICS, "
                           "SLOWLOG or QUIT)");
  }

  Result<Request> parsed =
      ParseRequest(server_->schema(), server_->codec(), std::move(tokens));
  if (!parsed.ok()) return ErrResponse(parsed.status());
  if (parsed->verb == "BATCH") return ExecuteBatch(*parsed);
  // trace= is adopted so the router's fan-out shares one trace id;
  // deadline= is the client's remaining budget, enforced by CubeServer's
  // admission queue (a query still queued past it fails kDeadlineExceeded).
  QueryRequest request;
  request.retain_rows = true;
  request.node = parsed->node;
  request.min_count = parsed->min_count;
  request.trace_id = parsed->trace_id;
  request.deadline_seconds = parsed->deadline_seconds;
  request.profile = parsed->profile;
  for (const std::string& spec : parsed->slices) {
    Result<query::CureQueryEngine::Slice> slice =
        ParseSliceSpec(server_->schema(), spec, resolver_);
    if (!slice.ok()) return ErrResponse(slice.status());
    request.slices.push_back(*slice);
  }

  QueryResponse response = server_->Submit(std::move(request)).get();
  if (!response.status.ok()) return ErrResponse(response.status);

  if (parsed->top_k > 0) {
    // Selection happens over the full, already-deterministic result, so
    // TOPK answers are identical whether the rows came from the engine, an
    // exact cache hit, or a semantic derivation.
    if (response.result == nullptr) {
      return ErrResponse(StatusCode::kInternal,
                         "TOPK requires materialized rows");
    }
    const int order_aggregate =
        server_->count_aggregate() >= 0 ? server_->count_aggregate() : 0;
    std::vector<query::ResultSink::Row> rows = algebra::SelectTopK(
        response.result->rows, static_cast<size_t>(parsed->top_k),
        order_aggregate);
    query::ResultSink sink(/*retain=*/true);
    for (const query::ResultSink::Row& row : rows) {
      sink.Emit(row.dims.data(), static_cast<int>(row.dims.size()),
                row.aggrs.data(), static_cast<int>(row.aggrs.size()));
    }
    auto selected = std::make_shared<algebra::QueryResult>();
    selected->count = sink.count();
    selected->checksum = sink.checksum();
    selected->rows = sink.TakeRows();
    response.count = selected->count;
    response.checksum = selected->checksum;
    response.result = std::move(selected);
  }

  return FormatQueryResponse(parsed->node, response, parsed->node_echo,
                             parsed->profile, parsed->codes);
}

std::string TcpLineServer::ExecuteBatch(const Request& batch) {
  const std::vector<schema::NodeId>& nodes = batch.batch;
  const uint64_t trace_id = batch.trace_id != 0
                                ? batch.trace_id
                                : Tracer::Instance().NextTraceId();
  // Most-detailed-first execution order: once a fine node's result is
  // cached, every coarser member of the batch can be answered from it by
  // the semantic layer instead of its own cube scan. Sections are still
  // emitted in input order.
  std::vector<size_t> order(nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const schema::Lattice lattice(&server_->schema());
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return lattice.NumGroupingDims(nodes[a]) > lattice.NumGroupingDims(nodes[b]);
  });

  std::vector<std::string> sections(nodes.size());
  std::string profile_section;
  uint64_t combined_checksum = 0;
  for (const size_t idx : order) {
    QueryRequest request;
    request.node = nodes[idx];
    request.retain_rows = true;
    request.trace_id = trace_id;
    request.deadline_seconds = batch.deadline_seconds;
    QueryResponse response = server_->Submit(std::move(request)).get();
    if (!response.status.ok()) return ErrResponse(response.status);
    combined_checksum ^= response.checksum;
    const std::string spec =
        FormatNodeSpec(server_->schema(), server_->codec(), nodes[idx]);
    char section_header[128];
    std::snprintf(
        section_header, sizeof(section_header), "= %s %llu %016llx %s\n",
        spec.c_str(),
        static_cast<unsigned long long>(response.count),
        static_cast<unsigned long long>(response.checksum),
        response.cache_hit ? "HIT"
                           : response.semantic_hit ? "SEMANTIC" : "MISS");
    sections[idx] = section_header;
    int64_t encode_us = 0;
    if (response.result != nullptr) {
      Stopwatch encode_watch;
      AppendRows(nodes[idx], *response.result, batch.codes, &sections[idx]);
      encode_us = encode_watch.ElapsedMicros();
    }
    if (batch.profile) {
      profile_section += FormatProfileSection(response, encode_us, spec);
    }
  }

  char header[96];
  std::snprintf(header, sizeof(header), "OK %llu %016llx BATCH trace=%llu\n",
                static_cast<unsigned long long>(nodes.size()),
                static_cast<unsigned long long>(combined_checksum),
                static_cast<unsigned long long>(trace_id));
  std::string out = header;
  for (const std::string& section : sections) out += section;
  out += profile_section;
  out += ".\n";
  return out;
}

std::string TcpLineServer::FormatQueryResponse(
    schema::NodeId node, const QueryResponse& response,
    const std::string& extra_token, bool profile, bool codes) const {
  CURE_TRACE_SPAN("cure.serve.encode", "trace_id", response.trace_id);
  // The trace id is echoed so a slow response can be matched against the
  // slow-query log and exported trace spans.
  char header[96];
  std::snprintf(header, sizeof(header), "OK %llu %016llx %s trace=%llu",
                static_cast<unsigned long long>(response.count),
                static_cast<unsigned long long>(response.checksum),
                response.cache_hit ? "HIT"
                                   : response.semantic_hit ? "SEMANTIC"
                                                           : "MISS",
                static_cast<unsigned long long>(response.trace_id));
  std::string out = header;
  out += extra_token;
  out += '\n';

  int64_t encode_us = 0;
  if (response.result != nullptr) {
    Stopwatch encode_watch;
    AppendRows(node, *response.result, codes, &out);
    encode_us = encode_watch.ElapsedMicros();
  }
  if (profile) out += FormatProfileSection(response, encode_us, "");
  out += ".\n";
  return out;
}

std::string TcpLineServer::FormatProfileSection(
    const QueryResponse& response, int64_t encode_us,
    const std::string& node_label) const {
  // "% "-prefixed lines ride behind the rows so row-diffing clients and the
  // router's row merge can skip them wholesale (DESIGN.md §17). One
  // key=value grammar shared with the slow-query log.
  std::string out = "% profile stage=serve trace=" +
                    std::to_string(response.trace_id);
  if (!node_label.empty()) out += " node=" + node_label;
  out += " queue_wait_us=" + std::to_string(response.queue_wait_us) +
         " key_us=" + std::to_string(response.key_us) +
         " cache_us=" + std::to_string(response.cache_us) +
         " execute_us=" + std::to_string(response.execute_us) +
         " encode_us=" + std::to_string(encode_us) + " total_us=" +
         std::to_string(static_cast<int64_t>(response.latency_seconds * 1e6)) +
         " cache=";
  out += response.cache_hit ? "HIT"
         : response.semantic_hit ? "SEMANTIC"
                                 : "MISS";
  out += " version=" + std::to_string(response.version);
  out += '\n';
  if (Tracer::enabled()) {
    // The request's own spans, tagged by trace id, newest ring contents
    // only — the in-band sibling of the Chrome-trace export.
    for (const TraceEvent& event :
         Tracer::Instance().EventsForTraceId(response.trace_id)) {
      if (event.type != TraceEventType::kComplete) continue;
      out += "% span name=";
      out += event.name != nullptr ? event.name : "(null)";
      out += " ts_us=" + std::to_string(event.ts_us) +
             " dur_us=" + std::to_string(event.dur_us) + '\n';
    }
  }
  return out;
}

void TcpLineServer::AppendRows(schema::NodeId node,
                               const algebra::QueryResult& result, bool codes,
                               std::string* out) const {
  // Result rows carry one code per *grouped* dimension, in dimension
  // order; the node id recovers the (dim, level) of each column.
  static const ValueDecoder kRawCodes;
  AppendRowsText(GroupedColumns(server_->codec(), node), result.rows,
                 codes ? kRawCodes : decoder_, out);
}

}  // namespace serve
}  // namespace cure
