#include "router/profile.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/trace.h"

namespace cure {
namespace router {

namespace {

/// Returns the value of `key=` in a space-tokenized line, or "" if absent.
/// Keys match whole tokens only, so `execute_us=` never matches a span name
/// that happens to contain the substring.
std::string TokenValue(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.rfind(needle, 0) == 0) return token.substr(needle.size());
  }
  return std::string();
}

int64_t TokenInt64(const std::string& line, const std::string& key) {
  const std::string value = TokenValue(line, key);
  if (value.empty()) return 0;
  return std::strtoll(value.c_str(), nullptr, 10);
}

void AppendCompleteEvent(std::string* out, bool* first,
                         const std::string& name, int64_t ts_us,
                         int64_t dur_us, int tid, const std::string& args) {
  if (!*first) *out += ",\n";
  *first = false;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"ph\":\"X\",\"ts\":%" PRId64 ",\"dur\":%" PRId64
                ",\"pid\":1,\"tid\":%d",
                ts_us, dur_us < 0 ? 0 : dur_us, tid);
  *out += "{\"name\":\"";
  AppendJsonEscaped(name, out);
  *out += "\",";
  *out += buf;
  if (!args.empty()) *out += ",\"args\":{" + args + "}";
  *out += "}";
}

void AppendThreadName(std::string* out, bool* first, int tid,
                      const std::string& name) {
  if (!*first) *out += ",\n";
  *first = false;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"ts\":0,\"pid\":1,\"tid\":%d", tid);
  *out += "{\"name\":\"thread_name\",\"ph\":\"M\",";
  *out += buf;
  *out += ",\"args\":{\"name\":\"";
  AppendJsonEscaped(name, out);
  *out += "\"}}";
}

}  // namespace

BackendStageBreakdown ParseBackendProfileLine(const std::string& line) {
  BackendStageBreakdown stages;
  if (line.find("% profile ") == std::string::npos) return stages;
  stages.valid = true;
  stages.queue_wait_us = TokenInt64(line, "queue_wait_us");
  stages.key_us = TokenInt64(line, "key_us");
  stages.cache_us = TokenInt64(line, "cache_us");
  stages.execute_us = TokenInt64(line, "execute_us");
  stages.encode_us = TokenInt64(line, "encode_us");
  stages.total_us = TokenInt64(line, "total_us");
  stages.cache = TokenValue(line, "cache");
  return stages;
}

std::string FormatClusterProfile(const ClusterProfile& profile) {
  std::string out = "command " + profile.command + "\n";
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "cluster shards=%d shards_ok=%d total_us=%" PRId64
                " scatter_us=%" PRId64 " merge_us=%" PRId64
                " count=%llu checksum=%016llx trace=%llu\n",
                profile.shards_total, profile.shards_ok, profile.total_us,
                profile.scatter_us, profile.merge_us,
                static_cast<unsigned long long>(profile.result_count),
                static_cast<unsigned long long>(profile.result_checksum),
                static_cast<unsigned long long>(profile.trace_id));
  out += buf;
  for (const ShardProfile& shard : profile.shards) {
    std::snprintf(buf, sizeof(buf), "shard %d ok=%d attempts=%zu\n",
                  shard.shard, shard.ok ? 1 : 0, shard.attempts.size());
    out += buf;
    for (const AttemptRecord& attempt : shard.attempts) {
      std::snprintf(buf, sizeof(buf),
                    "shard %d attempt replica=%d kind=%s outcome=%s "
                    "launch_us=%" PRId64 " end_us=%" PRId64 "\n",
                    shard.shard, attempt.replica, attempt.kind.c_str(),
                    attempt.outcome.c_str(), attempt.launch_us,
                    attempt.end_us);
      out += buf;
    }
    for (const std::string& line : shard.backend_lines) {
      out += "shard " + std::to_string(shard.shard) + " " + line + "\n";
    }
  }
  return out;
}

bool ParseClusterProfile(const std::string& text, ClusterProfile* profile) {
  ClusterProfile parsed;
  bool saw_cluster = false;
  std::istringstream in(text);
  std::string line;
  auto shard_at = [&parsed](int s) -> ShardProfile* {
    for (ShardProfile& shard : parsed.shards) {
      if (shard.shard == s) return &shard;
    }
    parsed.shards.emplace_back();
    parsed.shards.back().shard = s;
    return &parsed.shards.back();
  };
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.rfind("command ", 0) == 0) {
      parsed.command = line.substr(8);
      continue;
    }
    if (line.rfind("cluster ", 0) == 0) {
      saw_cluster = true;
      parsed.shards_total = static_cast<int>(TokenInt64(line, "shards"));
      parsed.shards_ok = static_cast<int>(TokenInt64(line, "shards_ok"));
      parsed.total_us = TokenInt64(line, "total_us");
      parsed.scatter_us = TokenInt64(line, "scatter_us");
      parsed.merge_us = TokenInt64(line, "merge_us");
      parsed.result_count =
          static_cast<uint64_t>(TokenInt64(line, "count"));
      parsed.result_checksum =
          std::strtoull(TokenValue(line, "checksum").c_str(), nullptr, 16);
      parsed.trace_id = static_cast<uint64_t>(TokenInt64(line, "trace"));
      continue;
    }
    if (line.rfind("shard ", 0) != 0) continue;
    std::istringstream fields(line);
    std::string marker, rest;
    int s = 0;
    if (!(fields >> marker >> s)) continue;
    ShardProfile* shard = shard_at(s);
    if (!(fields >> rest)) continue;
    if (rest == "attempt") {
      AttemptRecord attempt;
      attempt.replica = static_cast<int>(TokenInt64(line, "replica"));
      attempt.kind = TokenValue(line, "kind");
      attempt.outcome = TokenValue(line, "outcome");
      attempt.launch_us = TokenInt64(line, "launch_us");
      attempt.end_us = TokenInt64(line, "end_us");
      shard->attempts.push_back(std::move(attempt));
    } else if (rest == "%") {
      // Re-create the backend line without the "shard <s> " prefix.
      const size_t percent = line.find(" % ");
      if (percent != std::string::npos) {
        shard->backend_lines.push_back(line.substr(percent + 1));
      }
    } else if (rest.rfind("ok=", 0) == 0) {
      shard->ok = rest == "ok=1";
    }
  }
  if (!saw_cluster) return false;
  if (profile != nullptr) *profile = std::move(parsed);
  return true;
}

std::string ClusterProfileToChromeTrace(const ClusterProfile& profile) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  AppendThreadName(&out, &first, 0, "cure_router");
  std::string query_args =
      "\"trace_id\":" + std::to_string(profile.trace_id) +
      ",\"shards_ok\":" + std::to_string(profile.shards_ok) +
      ",\"command\":\"";
  AppendJsonEscaped(profile.command, &query_args);
  query_args += '"';
  AppendCompleteEvent(&out, &first, "cure.router.profile_query", 0,
                      profile.total_us, 0, query_args);
  AppendCompleteEvent(&out, &first, "cure.router.scatter", 0,
                      profile.scatter_us, 0, "");
  AppendCompleteEvent(&out, &first, "cure.router.merge", profile.scatter_us,
                      profile.merge_us, 0, "");

  for (const ShardProfile& shard : profile.shards) {
    const int tid = 1 + shard.shard;
    AppendThreadName(&out, &first, tid,
                     "shard " + std::to_string(shard.shard));
    int64_t win_launch_us = 0;
    bool has_winner = false;
    for (const AttemptRecord& attempt : shard.attempts) {
      // A lost attempt has no recorded end; show it running until the
      // query resolved rather than as a zero-width sliver.
      const int64_t dur = attempt.end_us > attempt.launch_us
                              ? attempt.end_us - attempt.launch_us
                              : (attempt.outcome == "lost"
                                     ? profile.total_us - attempt.launch_us
                                     : 0);
      std::string args =
          "\"replica\":" + std::to_string(attempt.replica) + ",\"kind\":\"";
      AppendJsonEscaped(attempt.kind, &args);
      args += "\",\"outcome\":\"";
      AppendJsonEscaped(attempt.outcome, &args);
      args += '"';
      AppendCompleteEvent(&out, &first, "cure.router.attempt",
                          attempt.launch_us, dur, tid, args);
      if (attempt.outcome == "won" && !has_winner) {
        has_winner = true;
        win_launch_us = attempt.launch_us;
      }
    }
    if (!has_winner) continue;

    // The winning backend's stage spans, laid out sequentially from the
    // attempt's launch offset (the serve pipeline IS sequential:
    // queue wait -> key -> cache -> execute -> encode).
    for (const std::string& line : shard.backend_lines) {
      const BackendStageBreakdown stages = ParseBackendProfileLine(line);
      if (!stages.valid) continue;
      int64_t cursor = win_launch_us;
      const struct {
        const char* name;
        int64_t dur;
      } spans[] = {{"cure.serve.queue_wait", stages.queue_wait_us},
                   {"cure.serve.key", stages.key_us},
                   {"cure.serve.cache", stages.cache_us},
                   {"cure.serve.execute", stages.execute_us},
                   {"cure.serve.encode", stages.encode_us}};
      std::string args = "\"replica\":0,\"cache\":\"";
      AppendJsonEscaped(stages.cache, &args);
      args += '"';
      for (const auto& span : spans) {
        AppendCompleteEvent(&out, &first, span.name, cursor, span.dur, tid,
                            span.name == std::string("cure.serve.cache")
                                ? args
                                : std::string());
        cursor += span.dur < 0 ? 0 : span.dur;
      }
      break;  // one stage breakdown per shard
    }

    // Raw backend tracer spans, re-based so the earliest one starts at the
    // winning attempt's launch offset (backend clocks share no epoch with
    // the router; relative alignment is the honest mapping).
    int64_t min_ts = 0;
    bool saw_span = false;
    for (const std::string& line : shard.backend_lines) {
      if (line.find("% span ") == std::string::npos) continue;
      const int64_t ts = TokenInt64(line, "ts_us");
      if (!saw_span || ts < min_ts) min_ts = ts;
      saw_span = true;
    }
    for (const std::string& line : shard.backend_lines) {
      if (line.find("% span ") == std::string::npos) continue;
      const std::string name = TokenValue(line, "name");
      if (name.empty()) continue;
      const int64_t ts = TokenInt64(line, "ts_us");
      const int64_t dur = TokenInt64(line, "dur_us");
      AppendCompleteEvent(&out, &first, name,
                          win_launch_us + (ts - min_ts), dur, tid,
                          std::string());
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace router
}  // namespace cure
