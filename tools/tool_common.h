// Shared helpers for the command-line tools: opening a persisted cube
// directory (cube + fact relation + schema + dictionaries) and running the
// TCP serving loop used by `cure_serve`.
#ifndef CURE_TOOLS_TOOL_COMMON_H_
#define CURE_TOOLS_TOOL_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/cure.h"
#include "etl/loader.h"
#include "etl/schema_io.h"
#include "maintain/live_cube.h"
#include "serve/cube_server.h"
#include "serve/tcp_server.h"
#include "storage/relation.h"

namespace cure {
namespace tools {

inline Result<std::vector<std::vector<etl::Dictionary>>> LoadDictionaries(
    const std::string& dir, const schema::CubeSchema& schema) {
  std::vector<std::vector<etl::Dictionary>> dictionaries(schema.num_dims());
  for (int d = 0; d < schema.num_dims(); ++d) {
    dictionaries[d].resize(schema.dim(d).num_levels());
    for (int l = 0; l < schema.dim(d).num_levels(); ++l) {
      const std::string path =
          dir + "/dict_" + std::to_string(d) + "_" + std::to_string(l) + ".txt";
      CURE_ASSIGN_OR_RETURN(std::string data, etl::ReadFileToString(path));
      CURE_ASSIGN_OR_RETURN(dictionaries[d][l],
                            etl::Dictionary::Deserialize(data));
    }
  }
  return dictionaries;
}

/// A persisted cube directory opened for querying: schema, fact relation,
/// the cube itself, and the per-(dim, level) string dictionaries.
struct OpenedCube {
  schema::CubeSchema schema;
  storage::Relation fact;
  std::unique_ptr<engine::CureCube> cube;
  std::vector<std::vector<etl::Dictionary>> dictionaries;
};

inline Result<std::unique_ptr<OpenedCube>> OpenCubeDir(const std::string& dir) {
  auto opened = std::make_unique<OpenedCube>();
  CURE_ASSIGN_OR_RETURN(std::string schema_text,
                        etl::ReadFileToString(dir + "/schema.txt"));
  CURE_ASSIGN_OR_RETURN(opened->schema, etl::DeserializeSchema(schema_text));
  const size_t fact_record = 4ull * opened->schema.num_dims() +
                             8ull * opened->schema.num_raw_measures();
  CURE_ASSIGN_OR_RETURN(
      opened->fact,
      storage::Relation::OpenFile(dir + "/fact.bin", fact_record));
  CURE_ASSIGN_OR_RETURN(opened->cube,
                        engine::CureCube::OpenPersisted(
                            opened->schema, dir + "/cube.bin", &opened->fact));
  CURE_ASSIGN_OR_RETURN(opened->dictionaries,
                        LoadDictionaries(dir, opened->schema));
  return opened;
}

/// The conventional WAL location inside a cube directory.
inline std::string WalPath(const std::string& dir) { return dir + "/wal.bin"; }

/// A cube directory opened for *live* serving: the fact table is loaded
/// into memory, the WAL at <dir>/wal.bin is replayed into it, and a fresh
/// in-memory cube is built — in-memory-built cubes are what the delta
/// refresh path requires (the persisted cube.bin only reopens read-only).
struct OpenedLiveCube {
  schema::CubeSchema schema;
  std::unique_ptr<maintain::LiveCube> live;
  std::vector<std::vector<etl::Dictionary>> dictionaries;
};

inline Result<std::unique_ptr<OpenedLiveCube>> OpenLiveCubeDir(
    const std::string& dir, maintain::MaintainOptions options) {
  auto opened = std::make_unique<OpenedLiveCube>();
  CURE_ASSIGN_OR_RETURN(std::string schema_text,
                        etl::ReadFileToString(dir + "/schema.txt"));
  CURE_ASSIGN_OR_RETURN(opened->schema, etl::DeserializeSchema(schema_text));
  const size_t fact_record = 4ull * opened->schema.num_dims() +
                             8ull * opened->schema.num_raw_measures();
  CURE_ASSIGN_OR_RETURN(
      storage::Relation fact,
      storage::Relation::OpenFile(dir + "/fact.bin", fact_record));
  CURE_ASSIGN_OR_RETURN(
      schema::FactTable table,
      schema::FactTable::ReadFrom(fact, opened->schema.num_dims(),
                                  opened->schema.num_raw_measures()));
  if (options.wal_path.empty()) options.wal_path = WalPath(dir);
  CURE_ASSIGN_OR_RETURN(
      opened->live,
      maintain::LiveCube::Open(opened->schema, std::move(table), options));
  CURE_ASSIGN_OR_RETURN(opened->dictionaries,
                        LoadDictionaries(dir, opened->schema));
  return opened;
}

/// Slice values like France in `country=France` resolve through the cube's
/// dictionaries. `dictionaries` must outlive the returned resolver.
inline serve::SliceValueResolver MakeDictResolver(
    const std::vector<std::vector<etl::Dictionary>>* dictionaries) {
  return [dictionaries](int dim, int level,
                        const std::string& value) -> Result<uint32_t> {
    return (*dictionaries)[dim][level].Lookup(value);
  };
}
inline serve::SliceValueResolver MakeDictResolver(const OpenedCube* opened) {
  return MakeDictResolver(&opened->dictionaries);
}

/// Row output decodes dimension codes back to their strings.
inline serve::TcpLineServer::ValueDecoder MakeDictDecoder(
    const std::vector<std::vector<etl::Dictionary>>* dictionaries) {
  return [dictionaries](int dim, int level, uint32_t code) -> std::string {
    const etl::Dictionary& dict = (*dictionaries)[dim][level];
    if (code < dict.size()) return dict.Decode(code);
    return std::to_string(code);
  };
}

/// Serves over the TCP line protocol until stdin reaches EOF (or a lone
/// "quit" line). Used by `cure_serve`.
inline int RunTcpLoop(
    serve::CubeServer* server, const serve::LineTransportOptions& tcp_options,
    const std::vector<std::vector<etl::Dictionary>>* dictionaries) {
  Result<std::unique_ptr<serve::TcpLineServer>> tcp = serve::TcpLineServer::Start(
      server, tcp_options, MakeDictDecoder(dictionaries),
      MakeDictResolver(dictionaries));
  if (!tcp.ok()) {
    std::fprintf(stderr, "error: %s\n", tcp.status().ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%d (%d workers, cache %llu bytes%s)\n",
              (*tcp)->port(), server->options().num_threads,
              static_cast<unsigned long long>(server->options().cache_bytes),
              server->live() != nullptr ? ", live" : "");
  std::printf("commands: QUERY <node> | ICEBERG <node> <minsup> | "
              "SLICE <node> <level=value>... [MINSUP n]%s | STATS | QUIT\n",
              server->live() != nullptr ? " | APPEND <row...> | FLUSH" : "");
  std::fflush(stdout);
  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::string(line) == "quit\n" || std::string(line) == "quit") break;
  }
  (*tcp)->Stop();
  std::printf("--- final stats ---\n%s", server->StatsText().c_str());
  return 0;
}

inline int RunServeLoop(const OpenedCube* opened,
                        const serve::CubeServerOptions& server_options,
                        const serve::LineTransportOptions& tcp_options) {
  Result<std::unique_ptr<serve::CubeServer>> server =
      serve::CubeServer::Create(opened->cube.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  return RunTcpLoop(server->get(), tcp_options, &opened->dictionaries);
}

/// Live-mode serving loop: APPEND/FLUSH enabled, zero-downtime refresh.
inline int RunLiveServeLoop(OpenedLiveCube* opened,
                            const serve::CubeServerOptions& server_options,
                            const serve::LineTransportOptions& tcp_options) {
  Result<std::unique_ptr<serve::CubeServer>> server =
      serve::CubeServer::Create(opened->live.get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }
  const maintain::WalRecoveryStats& recovery = opened->live->wal_recovery();
  std::printf("wal: recovered %llu rows in %llu batches%s\n",
              static_cast<unsigned long long>(recovery.rows),
              static_cast<unsigned long long>(recovery.batches),
              recovery.truncated_bytes > 0 ? " (torn tail truncated)" : "");
  return RunTcpLoop(server->get(), tcp_options, &opened->dictionaries);
}

}  // namespace tools
}  // namespace cure

#endif  // CURE_TOOLS_TOOL_COMMON_H_
