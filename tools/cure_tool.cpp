// cure_tool — command-line front end: build CURE cubes from CSV files and
// query them, with dictionary-encoded string dimensions and hierarchies
// inferred from roll-up columns.
//
//   cure_tool build <data.csv> <spec.txt> <outdir> [--dr] [--plus] [--minsup N]
//   cure_tool info  <outdir>
//   cure_tool query <outdir> <node> [--slice dim:level=value]... [--minsup N]
//                                          e.g.  country,category
//                                          or    city,category  or  ALL
//   cure_tool verify <outdir|cube.bin>
//
// The spec file (see etl/loader.h):
//   dim region city country continent
//   dim product sku category
//   measure price
//   agg sum price
//   agg count
//
// A query names, per dimension to group by, the *level column* to group at
// (absent dimensions stay at ALL).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/bytes.h"
#include "common/trace.h"
#include "cube/cube_store.h"
#include "common/logging.h"
#include "engine/cure.h"
#include "etl/loader.h"
#include "etl/schema_io.h"
#include "query/node_query.h"
#include "router/backend_client.h"
#include "router/profile.h"
#include "router/shard_map.h"
#include "serve/protocol.h"
#include "storage/file_io.h"
#include "storage/relation.h"
#include "tool_common.h"

namespace {

using cure::FormatBytes;
using cure::Result;
using cure::Status;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  cure_tool build <data.csv> <spec.txt> <outdir> [--dr] "
               "[--plus] [--minsup N] [--trace-out=<file>.json]\n"
               "  cure_tool shard <data.csv> <spec.txt> <outdir> <shards> "
               "[--replicas R] [--port-base P] [--dr] [--plus]\n"
               "  cure_tool send <host:port> [--timeout-ms D] [--retries N] "
               "<command>...\n"
               "        (one-shot line-protocol client; exit 1 on ERR, "
               "3 on transport failure)\n"
               "  cure_tool profile <host:port> [--trace-out=<file>.json] "
               "<command>...\n"
               "        (PROFILE via a router; --trace-out exports the "
               "merged cluster profile as a Chrome trace)\n"
               "  cure_tool info  <outdir>\n"
               "  cure_tool verify <outdir|cube.bin>   (checksum audit; exit "
               "1 on corruption)\n"
               "  cure_tool query <outdir> <level[,level...]|ALL> "
               "[--slice [dim:]level=value]... [--minsup N] "
               "[--trace-out=<file>.json]\n"
               "  cure_tool tracecheck <trace.json>    (validate a Chrome "
               "trace; exit 1 on malformed JSON)\n"
               "  cure_tool append <outdir> <dim>... <measure>...  "
               "(k rows of D+M values; dims by name or code)\n");
  return 2;
}

// Matches "--trace-out=PATH" or "--trace-out PATH" at argv[*i], advancing
// *i when the path is a separate argument.
bool ParseTraceOut(int argc, char** argv, int* i, std::string* path) {
  if (std::strncmp(argv[*i], "--trace-out=", 12) == 0) {
    *path = argv[*i] + 12;
    return true;
  }
  if (std::strcmp(argv[*i], "--trace-out") == 0 && *i + 1 < argc) {
    *path = argv[++*i];
    return true;
  }
  return false;
}

// Flushes the recorded trace to `path` as Chrome trace_event JSON.
int WriteTraceOut(const std::string& path) {
  cure::Tracer& tracer = cure::Tracer::Instance();
  tracer.Disable();
  Status s = tracer.WriteChromeTrace(path);
  if (!s.ok()) return Fail(s);
  std::fprintf(stderr, "trace: %llu events -> %s (%llu dropped)\n",
               static_cast<unsigned long long>(tracer.recorded_events()),
               path.c_str(),
               static_cast<unsigned long long>(tracer.dropped_events()));
  return 0;
}

// Persists a built cube as a serveable cube directory:
// {cube.bin, fact.bin, schema.txt, dict_<d>_<l>.txt}.
Status PersistCubeDir(
    const std::string& outdir, const cure::schema::CubeSchema& schema,
    const cure::schema::FactTable& table, cure::engine::CureCube* cube,
    const std::vector<std::vector<cure::etl::Dictionary>>& dictionaries) {
  CURE_RETURN_IF_ERROR(cure::storage::EnsureDir(outdir));
  CURE_ASSIGN_OR_RETURN(cure::storage::Relation fact,
                        cure::storage::Relation::CreateFile(
                            outdir + "/fact.bin", table.RecordSize()));
  CURE_RETURN_IF_ERROR(table.WriteTo(&fact));
  CURE_RETURN_IF_ERROR(fact.Seal());
  CURE_RETURN_IF_ERROR(
      cube->mutable_store().PersistPacked(outdir + "/cube.bin"));
  CURE_RETURN_IF_ERROR(cure::etl::WriteStringToFile(
      outdir + "/schema.txt", cure::etl::SerializeSchema(schema)));
  for (size_t d = 0; d < dictionaries.size(); ++d) {
    for (size_t l = 0; l < dictionaries[d].size(); ++l) {
      const std::string path = outdir + "/dict_" + std::to_string(d) + "_" +
                               std::to_string(l) + ".txt";
      CURE_RETURN_IF_ERROR(
          cure::etl::WriteStringToFile(path, dictionaries[d][l].Serialize()));
    }
  }
  return Status::OK();
}

int RunBuild(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string csv_path = argv[2];
  const std::string spec_path = argv[3];
  const std::string outdir = argv[4];
  cure::engine::CureOptions options;
  bool plus = false;
  std::string trace_out;
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dr") == 0) {
      options.dims_in_nt = true;
    } else if (std::strcmp(argv[i], "--plus") == 0) {
      plus = true;
    } else if (std::strcmp(argv[i], "--minsup") == 0 && i + 1 < argc) {
      options.min_support = std::strtoull(argv[++i], nullptr, 10);
    } else if (ParseTraceOut(argc, argv, &i, &trace_out)) {
      // Enable before the CSV load so cure.build.load is captured too.
      cure::Tracer::Instance().Enable();
      options.trace = true;
    } else {
      return Usage();
    }
  }

  Result<std::string> spec_text = cure::etl::ReadFileToString(spec_path);
  if (!spec_text.ok()) return Fail(spec_text.status());
  Result<cure::etl::LoadedDataset> loaded =
      cure::etl::LoadCsvFile(csv_path, *spec_text);
  if (!loaded.ok()) return Fail(loaded.status());
  std::printf("loaded %llu rows, %d dimensions, %d aggregates\n",
              static_cast<unsigned long long>(loaded->table.num_rows()),
              loaded->schema.num_dims(), loaded->schema.num_aggregates());

  cure::engine::FactInput input{.table = &loaded->table};
  Result<std::unique_ptr<cure::engine::CureCube>> cube =
      cure::engine::BuildCure(loaded->schema, input, options);
  if (!cube.ok()) return Fail(cube.status());
  if (plus) {
    Status s = cure::engine::CurePostProcess(cube->get());
    if (!s.ok()) return Fail(s);
  }
  std::printf("built cube: %.3f s, %s, TT=%llu NT=%llu CAT=%llu\n",
              (*cube)->stats().build_seconds,
              FormatBytes((*cube)->TotalBytes()).c_str(),
              static_cast<unsigned long long>((*cube)->stats().tt),
              static_cast<unsigned long long>((*cube)->stats().nt),
              static_cast<unsigned long long>((*cube)->stats().cat));

  Status s = PersistCubeDir(outdir, loaded->schema, loaded->table,
                            cube->get(), loaded->dictionaries);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s/{cube.bin, fact.bin, schema.txt, dictionaries}\n",
              outdir.c_str());
  if (!trace_out.empty()) return WriteTraceOut(trace_out);
  return 0;
}

// Builds a sharded cluster directory: the CSV is loaded ONCE (one dictionary
// set, so codes are consistent across every shard), the fact rows are split
// into <shards> contiguous disjoint ranges, and a complete cube is built per
// range into <outdir>/shard_<k>/ — each a full cube directory cure_serve can
// open. The top level gets the shared schema.txt + dictionaries (cure_router
// decodes its client replies through them) and cluster.txt, a shard-map
// template whose ports start at --port-base (edit it, or pass --shard to
// cure_router, to match the actual backend ports).
//
// Deliberately no --minsup: iceberg thresholds must be applied after the
// router's merge, so every shard cube is complete.
int RunShard(int argc, char** argv) {
  if (argc < 6) return Usage();
  const std::string csv_path = argv[2];
  const std::string spec_path = argv[3];
  const std::string outdir = argv[4];
  const int num_shards = std::atoi(argv[5]);
  if (num_shards < 1) {
    return Fail(Status::InvalidArgument("shard count must be >= 1"));
  }
  int replicas = 1;
  int port_base = 7101;
  cure::engine::CureOptions options;
  bool plus = false;
  for (int i = 6; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replicas") == 0 && i + 1 < argc) {
      replicas = std::atoi(argv[++i]);
      if (replicas < 1) {
        return Fail(Status::InvalidArgument("--replicas must be >= 1"));
      }
    } else if (std::strcmp(argv[i], "--port-base") == 0 && i + 1 < argc) {
      port_base = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--dr") == 0) {
      options.dims_in_nt = true;
    } else if (std::strcmp(argv[i], "--plus") == 0) {
      plus = true;
    } else {
      return Usage();
    }
  }

  Result<std::string> spec_text = cure::etl::ReadFileToString(spec_path);
  if (!spec_text.ok()) return Fail(spec_text.status());
  Result<cure::etl::LoadedDataset> loaded =
      cure::etl::LoadCsvFile(csv_path, *spec_text);
  if (!loaded.ok()) return Fail(loaded.status());
  const uint64_t total_rows = loaded->table.num_rows();
  if (total_rows < static_cast<uint64_t>(num_shards)) {
    return Fail(Status::InvalidArgument(
        "cannot split " + std::to_string(total_rows) + " rows into " +
        std::to_string(num_shards) + " shards"));
  }
  std::printf("loaded %llu rows; sharding into %d partitions\n",
              static_cast<unsigned long long>(total_rows), num_shards);

  Status s = cure::storage::EnsureDir(outdir);
  if (!s.ok()) return Fail(s);

  const int num_dims = loaded->schema.num_dims();
  const int num_measures = loaded->schema.num_raw_measures();
  std::vector<uint32_t> dims(num_dims);
  std::vector<int64_t> measures(num_measures);
  for (int k = 0; k < num_shards; ++k) {
    const uint64_t begin = total_rows * k / num_shards;
    const uint64_t end = total_rows * (k + 1) / num_shards;
    cure::schema::FactTable part(num_dims, num_measures);
    part.Reserve(end - begin);
    for (uint64_t row = begin; row < end; ++row) {
      for (int d = 0; d < num_dims; ++d) dims[d] = loaded->table.dim(d, row);
      for (int m = 0; m < num_measures; ++m) {
        measures[m] = loaded->table.measure(m, row);
      }
      part.AppendRow(dims.data(), measures.data());
    }
    cure::engine::FactInput input{.table = &part};
    Result<std::unique_ptr<cure::engine::CureCube>> cube =
        cure::engine::BuildCure(loaded->schema, input, options);
    if (!cube.ok()) return Fail(cube.status());
    if (plus) {
      if (!(s = cure::engine::CurePostProcess(cube->get())).ok()) {
        return Fail(s);
      }
    }
    const std::string shard_dir = outdir + "/shard_" + std::to_string(k);
    s = PersistCubeDir(shard_dir, loaded->schema, part, cube->get(),
                       loaded->dictionaries);
    if (!s.ok()) return Fail(s);
    std::printf("shard %d: rows [%llu, %llu) -> %s (%s)\n", k,
                static_cast<unsigned long long>(begin),
                static_cast<unsigned long long>(end), shard_dir.c_str(),
                FormatBytes((*cube)->TotalBytes()).c_str());
  }

  // Top-level: the router's schema + dictionaries + shard-map template.
  if (!(s = cure::etl::WriteStringToFile(
            outdir + "/schema.txt",
            cure::etl::SerializeSchema(loaded->schema)))
           .ok()) {
    return Fail(s);
  }
  for (size_t d = 0; d < loaded->dictionaries.size(); ++d) {
    for (size_t l = 0; l < loaded->dictionaries[d].size(); ++l) {
      const std::string path = outdir + "/dict_" + std::to_string(d) + "_" +
                               std::to_string(l) + ".txt";
      if (!(s = cure::etl::WriteStringToFile(
                path, loaded->dictionaries[d][l].Serialize()))
               .ok()) {
        return Fail(s);
      }
    }
  }
  cure::router::ShardMap map;
  map.shards.resize(num_shards);
  for (int k = 0; k < num_shards; ++k) {
    for (int r = 0; r < replicas; ++r) {
      map.shards[k].push_back(
          {.host = "127.0.0.1", .port = port_base + k * replicas + r});
    }
  }
  if (!(s = cure::etl::WriteStringToFile(outdir + "/cluster.txt",
                                         map.Serialize()))
           .ok()) {
    return Fail(s);
  }
  std::printf("wrote %s/{schema.txt, dictionaries, cluster.txt} + %d shard "
              "dirs (%d replicas each from port %d)\n",
              outdir.c_str(), num_shards, replicas, port_base);
  return 0;
}

// One-shot line-protocol client: sends one command to a cure_serve or
// cure_router endpoint and prints the response body. Exit codes separate
// the failure domains so scripts can branch on them: 0 = OK response,
// 1 = server-side ERR response, 2 = usage, 3 = transport failure
// (connect/send/recv, after --retries attempts). --timeout-ms bounds each
// socket op; --retries re-sends on transport failures only (an ERR came
// from a live server and would repeat).
int RunSend(int argc, char** argv) {
  double timeout_seconds = 30.0;
  int retries = 0;
  std::string endpoint;
  std::string line;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_seconds = std::atof(argv[++i]) / 1000.0;
      continue;
    }
    if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
      continue;
    }
    if (endpoint.empty()) {
      endpoint = argv[i];
      continue;
    }
    if (!line.empty()) line += ' ';
    line += argv[i];
  }
  if (endpoint.empty() || line.empty()) return Usage();
  Result<cure::router::BackendAddress> addr =
      cure::router::ParseBackendAddress(endpoint);
  if (!addr.ok()) {
    Fail(addr.status());
    return 3;
  }
  cure::router::BackendClient client(timeout_seconds);
  Result<std::string> response = client.RoundTrip(*addr, line);
  for (int attempt = 0; !response.ok() && attempt < retries; ++attempt) {
    response = client.RoundTrip(*addr, line);
  }
  if (!response.ok()) {
    Fail(response.status());
    return 3;
  }
  std::fputs(response->c_str(), stdout);
  return response->rfind("ERR", 0) == 0 ? 1 : 0;
}

// PROFILE client: sends `PROFILE <command>...` to a router, prints the
// cluster profile, and optionally converts it into a Chrome trace whose
// per-backend tracks are aligned to the router's attempt timeline.
int RunProfile(int argc, char** argv) {
  double timeout_seconds = 30.0;
  std::string trace_out;
  std::string endpoint;
  std::string line = "PROFILE";
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      timeout_seconds = std::atof(argv[++i]) / 1000.0;
      continue;
    }
    if (ParseTraceOut(argc, argv, &i, &trace_out)) continue;
    if (endpoint.empty()) {
      endpoint = argv[i];
      continue;
    }
    line += ' ';
    line += argv[i];
  }
  if (endpoint.empty() || line == "PROFILE") return Usage();
  Result<cure::router::BackendAddress> addr =
      cure::router::ParseBackendAddress(endpoint);
  if (!addr.ok()) {
    Fail(addr.status());
    return 3;
  }
  cure::router::BackendClient client(timeout_seconds);
  Result<std::string> response = client.RoundTrip(*addr, line);
  if (!response.ok()) {
    Fail(response.status());
    return 3;
  }
  std::fputs(response->c_str(), stdout);
  if (response->rfind("ERR", 0) == 0) return 1;
  if (!trace_out.empty()) {
    cure::router::ClusterProfile profile;
    if (!cure::router::ParseClusterProfile(*response, &profile)) {
      return Fail(Status::InvalidArgument(
          "response carries no cluster profile (is " + endpoint +
          " a cure_router?)"));
    }
    Status written = cure::etl::WriteStringToFile(
        trace_out, cure::router::ClusterProfileToChromeTrace(profile));
    if (!written.ok()) return Fail(written);
    std::fprintf(stderr, "cluster trace: %d shards -> %s\n",
                 profile.shards_total, trace_out.c_str());
  }
  return 0;
}

using cure::tools::OpenCubeDir;
using cure::tools::OpenedCube;

int RunInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<std::unique_ptr<OpenedCube>> opened = OpenCubeDir(argv[2]);
  if (!opened.ok()) return Fail(opened.status());
  const cure::engine::CureCube& cube = *(*opened)->cube;
  const cure::schema::CubeSchema& schema = (*opened)->schema;
  std::printf("fact rows:   %llu\n",
              static_cast<unsigned long long>((*opened)->fact.num_rows()));
  std::printf("cube size:   %s in %llu relations\n",
              FormatBytes(cube.TotalBytes()).c_str(),
              static_cast<unsigned long long>(cube.store().NumRelations()));
  std::printf("records:     %s\n", cube.store().layout().ToString().c_str());
  std::printf("tuples:      TT=%llu NT=%llu CAT=%llu (AGGREGATES rows: %llu)\n",
              static_cast<unsigned long long>(cube.stats().tt),
              static_cast<unsigned long long>(cube.stats().nt),
              static_cast<unsigned long long>(cube.stats().cat),
              static_cast<unsigned long long>(cube.stats().aggregates_rows));
  std::printf("lattice:     %llu nodes\n",
              static_cast<unsigned long long>(cube.store().codec().num_nodes()));
  for (int d = 0; d < schema.num_dims(); ++d) {
    std::printf("dimension %s:", schema.dim(d).name().c_str());
    for (int l = 0; l < schema.dim(d).num_levels(); ++l) {
      std::printf(" %s(%u)", schema.dim(d).level(l).name.c_str(),
                  schema.dim(d).cardinality(l));
    }
    std::printf("\n");
  }
  return 0;
}

int RunVerify(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string path = argv[2];
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) path += "/cube.bin";

  const cure::cube::CubeStore::PackedVerifyReport report =
      cure::cube::CubeStore::VerifyPacked(path);
  std::printf("file:        %s (%s)\n", path.c_str(),
              FormatBytes(report.file_size).c_str());
  if (report.manifest_ok) {
    std::printf("format:      v%u (%s)\n", report.version,
                report.layout.ToString().c_str());
  } else {
    std::printf("format:      v%u\n", report.version);
  }
  // A legacy (pre-v3) file is not corrupt: its manifest is simply not read.
  std::printf("manifest:    %s\n",
              report.manifest_ok ? "OK"
              : report.status.code() == cure::StatusCode::kInvalidArgument
                  ? "not read (legacy format)"
                  : "CORRUPT");
  uint64_t bad = 0;
  for (const auto& section : report.sections) {
    char id[32];
    if (section.node_id == ~0ull) {
      std::snprintf(id, sizeof(id), "-");
    } else {
      std::snprintf(id, sizeof(id), "%llu",
                    static_cast<unsigned long long>(section.node_id));
    }
    std::printf("  section node=%-8s %-10s rows=%-10llu %-10s @%-12llu %s\n",
                id, section.kind.c_str(),
                static_cast<unsigned long long>(section.rows),
                FormatBytes(section.bytes).c_str(),
                static_cast<unsigned long long>(section.offset),
                section.checksum_ok ? "OK" : "CORRUPT");
    if (!section.checksum_ok) ++bad;
  }
  if (!report.status.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n",
                 report.status.ToString().c_str());
    return 1;
  }
  std::printf("verify OK: %llu sections, %llu corrupt\n",
              static_cast<unsigned long long>(report.sections.size()),
              static_cast<unsigned long long>(bad));
  return 0;
}

int RunQuery(int argc, char** argv) {
  if (argc < 4) return Usage();
  Result<std::unique_ptr<OpenedCube>> opened = OpenCubeDir(argv[2]);
  if (!opened.ok()) return Fail(opened.status());
  const cure::schema::CubeSchema& schema = (*opened)->schema;
  const cure::schema::NodeIdCodec& codec = (*opened)->cube->store().codec();

  Result<cure::schema::NodeId> node =
      cure::serve::ParseNodeSpec(schema, codec, argv[3]);
  if (!node.ok()) return Fail(node.status());

  // Optional slice predicates and iceberg threshold.
  std::vector<cure::query::CureQueryEngine::Slice> slices;
  int64_t min_count = 0;
  std::string trace_out;
  const cure::serve::SliceValueResolver resolver =
      cure::tools::MakeDictResolver(opened->get());
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--slice") == 0 && i + 1 < argc) {
      Result<cure::query::CureQueryEngine::Slice> slice =
          cure::serve::ParseSliceSpec(schema, argv[++i], resolver);
      if (!slice.ok()) return Fail(slice.status());
      slices.push_back(*slice);
    } else if (std::strcmp(argv[i], "--minsup") == 0 && i + 1 < argc) {
      min_count = std::strtoll(argv[++i], nullptr, 10);
    } else if (ParseTraceOut(argc, argv, &i, &trace_out)) {
      cure::Tracer::Instance().Enable();
    } else {
      return Usage();
    }
  }
  int count_aggregate = -1;
  if (min_count > 1) {
    for (int y = 0; y < schema.num_aggregates(); ++y) {
      if (schema.aggregate(y).fn == cure::schema::AggFn::kCount) {
        count_aggregate = y;
        break;
      }
    }
    if (count_aggregate < 0) {
      return Fail(Status::InvalidArgument(
          "--minsup requires a COUNT aggregate in the schema"));
    }
  }

  const std::vector<int> levels = codec.Decode(*node);
  std::vector<int> grouped_dims;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (levels[d] != codec.all_level(d)) grouped_dims.push_back(d);
  }

  Result<std::unique_ptr<cure::query::CureQueryEngine>> engine =
      cure::query::CureQueryEngine::Create((*opened)->cube.get(), 1.0);
  if (!engine.ok()) return Fail(engine.status());
  cure::query::ResultSink sink(/*retain=*/true);
  Status s;
  {
    CURE_TRACE_SPAN("cure.query.execute", "node", *node);
    s = (*engine)->QueryNodeSlicedIceberg(*node, slices, count_aggregate,
                                          min_count, &sink);
  }
  if (!s.ok()) return Fail(s);

  // Header.
  for (int d : grouped_dims) {
    std::printf("%s\t", schema.dim(d).level(levels[d]).name.c_str());
  }
  for (int y = 0; y < schema.num_aggregates(); ++y) {
    std::printf("%s\t", schema.aggregate(y).name.c_str());
  }
  std::printf("\n");
  for (const auto& row : sink.rows()) {
    for (size_t i = 0; i < grouped_dims.size(); ++i) {
      const int d = grouped_dims[i];
      std::printf("%s\t",
                  (*opened)->dictionaries[d][levels[d]].Decode(row.dims[i]).c_str());
    }
    for (int64_t a : row.aggrs) std::printf("%lld\t", static_cast<long long>(a));
    std::printf("\n");
  }
  std::fprintf(stderr, "(%llu rows)\n",
               static_cast<unsigned long long>(sink.count()));
  if (!trace_out.empty()) return WriteTraceOut(trace_out);
  return 0;
}

// Validates a Chrome trace_event JSON file (our own exporter's output, or
// any externally produced trace) and prints what it contains. Exit 1 on
// malformed input — CI runs this on the smoke-test trace.
int RunTraceCheck(int argc, char** argv) {
  if (argc < 3) return Usage();
  cure::ChromeTraceSummary summary;
  Status s = cure::ValidateChromeTraceFile(argv[2], &summary);
  if (!s.ok()) {
    std::fprintf(stderr, "tracecheck FAILED: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("tracecheck OK: %llu events (%llu spans, %llu counters, "
              "%llu instants), %llu distinct names\n",
              static_cast<unsigned long long>(summary.total_events),
              static_cast<unsigned long long>(summary.complete_events),
              static_cast<unsigned long long>(summary.counter_events),
              static_cast<unsigned long long>(summary.instant_events),
              static_cast<unsigned long long>(summary.names.size()));
  for (const std::string& name : summary.names) {
    const size_t spans = summary.CompleteCount(name);
    if (spans > 0) {
      std::printf("  %-40s x%llu\n", name.c_str(),
                  static_cast<unsigned long long>(spans));
    } else {
      std::printf("  %s\n", name.c_str());
    }
  }
  return 0;
}

// Appends rows to a cube directory's delta WAL *offline* — no cube build,
// no server. The rows become durable immediately and are folded in by the
// next live serve session (WAL replay at open) or refresh. Dimension values
// resolve through the leaf-level dictionary; numeric codes also work.
int RunAppend(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string dir = argv[2];
  Result<std::string> schema_text = cure::etl::ReadFileToString(dir + "/schema.txt");
  if (!schema_text.ok()) return Fail(schema_text.status());
  Result<cure::schema::CubeSchema> schema =
      cure::etl::DeserializeSchema(*schema_text);
  if (!schema.ok()) return Fail(schema.status());
  Result<std::vector<std::vector<cure::etl::Dictionary>>> dictionaries =
      cure::tools::LoadDictionaries(dir, *schema);
  if (!dictionaries.ok()) return Fail(dictionaries.status());

  const int num_dims = schema->num_dims();
  const int num_measures = schema->num_raw_measures();
  const int width = num_dims + num_measures;
  const int num_values = argc - 3;
  if (num_values % width != 0) {
    return Fail(Status::InvalidArgument(
        "append takes k*" + std::to_string(width) + " values (" +
        std::to_string(num_dims) + " dims then " + std::to_string(num_measures) +
        " measures per row), got " + std::to_string(num_values)));
  }

  cure::maintain::RowBatch batch(num_dims, num_measures);
  std::vector<uint32_t> dims(num_dims);
  std::vector<int64_t> measures(num_measures);
  int arg = 3;
  for (int row = 0; row < num_values / width; ++row) {
    for (int d = 0; d < num_dims; ++d, ++arg) {
      const std::string value = argv[arg];
      Result<uint32_t> code = (*dictionaries)[d][0].Lookup(value);
      if (!code.ok()) {  // Not a dictionary word: accept a numeric leaf code.
        char* end = nullptr;
        const unsigned long long numeric = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') return Fail(code.status());
        code = static_cast<uint32_t>(numeric);
      }
      if (*code >= schema->dim(d).leaf_cardinality()) {
        return Fail(Status::OutOfRange(
            "leaf code " + std::to_string(*code) + " out of range for '" +
            schema->dim(d).name() + "'"));
      }
      dims[d] = *code;
    }
    for (int m = 0; m < num_measures; ++m, ++arg) {
      measures[m] = std::strtoll(argv[arg], nullptr, 10);
    }
    batch.Add(dims.data(), measures.data());
  }

  Result<std::unique_ptr<cure::maintain::DeltaWal>> wal =
      cure::maintain::DeltaWal::Open(cure::tools::WalPath(dir), num_dims,
                                     num_measures, nullptr);
  if (!wal.ok()) return Fail(wal.status());
  Status s = (*wal)->AppendBatch(batch);
  if (!s.ok()) return Fail(s);
  std::printf("appended %llu rows (WAL now %llu rows, %s)\n",
              static_cast<unsigned long long>(batch.rows()),
              static_cast<unsigned long long>((*wal)->total_rows()),
              FormatBytes((*wal)->file_bytes()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // CURE_TRACE=1 (+ CURE_TRACE_OUT=<file>) traces any subcommand without
  // touching its flags.
  cure::Tracer::ArmFromEnv();
  if (std::strcmp(argv[1], "build") == 0) return RunBuild(argc, argv);
  if (std::strcmp(argv[1], "shard") == 0) return RunShard(argc, argv);
  if (std::strcmp(argv[1], "send") == 0) return RunSend(argc, argv);
  if (std::strcmp(argv[1], "profile") == 0) return RunProfile(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return RunInfo(argc, argv);
  if (std::strcmp(argv[1], "verify") == 0) return RunVerify(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
  if (std::strcmp(argv[1], "append") == 0) return RunAppend(argc, argv);
  if (std::strcmp(argv[1], "tracecheck") == 0) return RunTraceCheck(argc, argv);
  return Usage();
}
