#include "router/router.h"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "algebra/rollup.h"
#include "common/trace.h"
#include "router/federation.h"
#include "schema/lattice.h"
#include "serve/protocol.h"

namespace cure {
namespace router {

namespace {

using serve::ErrResponse;

int64_t NowMicros() { return SteadyNowMicros(); }

/// Appends the remaining deadline budget (at least 1ms so a backend never
/// sees deadline=0, which the protocol rejects) to a backend line.
std::string WithRemainingDeadline(const std::string& backend_line,
                                  int64_t deadline_us) {
  if (deadline_us <= 0) return backend_line;
  const int64_t remaining_ms = (deadline_us - NowMicros()) / 1000;
  return backend_line +
         " deadline=" + std::to_string(remaining_ms < 1 ? 1 : remaining_ms);
}

/// The decoder of a `codes=1` request: dimension fields go out as codes.
const serve::ValueDecoder kRawCodes;

/// Header suffix announcing a degraded answer; empty when complete.
std::string PartialToken(int shards_ok, int shards_total) {
  if (shards_ok >= shards_total) return "";
  return " PARTIAL shards=" + std::to_string(shards_ok) + "/" +
         std::to_string(shards_total);
}

}  // namespace

Result<std::unique_ptr<CureRouter>> CureRouter::Create(
    const schema::CubeSchema* schema, ShardMap map,
    const RouterOptions& options, ValueDecoder decoder) {
  CURE_RETURN_IF_ERROR(map.Validate());
  auto self = std::unique_ptr<CureRouter>(
      new CureRouter(schema, std::move(map), options, std::move(decoder)));
  if (options.health_period_seconds > 0) {
    self->health_thread_ = std::thread([raw = self.get()] {
      std::unique_lock<std::mutex> lock(raw->health_mu_);
      while (!raw->stopping_) {
        lock.unlock();
        raw->ProbeHealth();
        lock.lock();
        raw->health_cv_.wait_for(
            lock,
            std::chrono::duration<double>(raw->options_.health_period_seconds),
            [raw] { return raw->stopping_; });
      }
    });
  }
  return self;
}

CureRouter::CureRouter(const schema::CubeSchema* schema, ShardMap map,
                       const RouterOptions& options, ValueDecoder decoder)
    : schema_(schema),
      codec_(*schema),
      map_(std::move(map)),
      options_(options),
      decoder_(std::move(decoder)),
      client_(options.backend_timeout_seconds) {
  for (int y = 0; y < schema_->num_aggregates(); ++y) {
    if (schema_->aggregate(y).fn == schema::AggFn::kCount) {
      count_aggregate_ = y;
      break;
    }
  }
  replicas_.resize(map_.num_shards());
  rr_.assign(map_.num_shards(), 0);
  backend_latency_.resize(map_.num_shards());
  for (int s = 0; s < map_.num_shards(); ++s) {
    replicas_[s].resize(map_.num_replicas(s));
    for (int r = 0; r < map_.num_replicas(s); ++r) {
      backend_latency_[s].push_back(metrics_.histogram(
          "backend_s" + std::to_string(s) + "_r" + std::to_string(r) +
          "_latency"));
    }
  }
  queries_total_ = metrics_.counter("queries_total");
  queries_errors_ = metrics_.counter("queries_errors");
  backend_rpcs_total_ = metrics_.counter("backend_rpcs_total");
  backend_retries_total_ = metrics_.counter("backend_retries_total");
  replicas_ejected_total_ = metrics_.counter("replicas_ejected_total");
  health_probes_total_ = metrics_.counter("health_probes_total");
  health_probe_failures_total_ = metrics_.counter("health_probe_failures_total");
  hedges_total_ = metrics_.counter("hedges_total");
  retries_total_ = metrics_.counter("retries_total");
  partial_total_ = metrics_.counter("partial_total");
  breaker_trips_total_ = metrics_.counter("breaker_trips_total");
  query_latency_us_ = metrics_.histogram("query_latency_us");
}

CureRouter::~CureRouter() {
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    stopping_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
}

void CureRouter::ProbeHealth() {
  for (int s = 0; s < map_.num_shards(); ++s) {
    for (int r = 0; r < map_.num_replicas(s); ++r) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (replicas_[s][r].ejected) continue;  // tombstoned for good
      }
      health_probes_total_->Inc();
      auto fresh = client_.ProbeStats(map_.shards[s][r]);
      std::lock_guard<std::mutex> lock(mu_);
      ReplicaState& state = replicas_[s][r];
      if (fresh.ok()) {
        state.healthy = true;
        state.cube_version = fresh->cube_version;
        state.staleness_seconds = fresh->staleness_seconds;
        // A reachable backend is breaker evidence too: close it so the
        // replica rejoins the preferred candidates immediately.
        state.consecutive_failures = 0;
        state.open_until_us = 0;
      } else {
        health_probe_failures_total_->Inc();
        state.healthy = false;
      }
    }
  }
}

std::vector<int> CureRouter::PickOrder(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& states = replicas_[shard];
  const uint64_t rotation = rr_[shard]++;
  const int n = static_cast<int>(states.size());
  const int64_t now_us = NowMicros();
  // Partition, in round-robin rotation order, into: healthy with a closed
  // breaker (freshness-sorted, preferred), half-open breakers (cooldown
  // expired — eligible for a probe request), suspects (marked unhealthy but
  // breaker closed, e.g. by a stale probe), and open breakers (absolute
  // last resort: trying them beats failing the whole query).
  std::vector<int> closed, half_open, suspect, open;
  for (int i = 0; i < n; ++i) {
    const int r = static_cast<int>((rotation + i) % n);
    const ReplicaState& state = states[r];
    if (state.ejected) continue;
    if (state.open_until_us != 0) {
      (now_us >= state.open_until_us ? half_open : open).push_back(r);
    } else {
      (state.healthy ? closed : suspect).push_back(r);
    }
  }
  std::stable_sort(closed.begin(), closed.end(), [&](int a, int b) {
    if (states[a].cube_version != states[b].cube_version) {
      return states[a].cube_version > states[b].cube_version;
    }
    return states[a].staleness_seconds < states[b].staleness_seconds;
  });
  closed.insert(closed.end(), half_open.begin(), half_open.end());
  closed.insert(closed.end(), suspect.begin(), suspect.end());
  closed.insert(closed.end(), open.begin(), open.end());
  return closed;
}

double CureRouter::NextJitter() {
  // splitmix64 step over a shared atomic state: statistically fine for
  // de-synchronizing retry storms, no global RNG locks on the query path.
  uint64_t z = jitter_state_.fetch_add(0x9e3779b97f4a7c15ull,
                                       std::memory_order_relaxed);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

void CureRouter::RecordBackendSuccess(int shard, int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[shard][replica];
  state.healthy = true;
  state.consecutive_failures = 0;
  state.open_until_us = 0;
}

void CureRouter::RecordBackendFailure(int shard, int replica) {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[shard][replica];
  state.healthy = false;
  ++state.consecutive_failures;
  if (options_.breaker_failure_threshold > 0 &&
      state.consecutive_failures >= options_.breaker_failure_threshold) {
    // Consecutive failures trip (or, for a failed half-open probe, re-arm)
    // the breaker; count only the closed→open transitions.
    const int64_t now_us = NowMicros();
    if (state.open_until_us == 0) breaker_trips_total_->Inc();
    state.open_until_us =
        now_us +
        static_cast<int64_t>(options_.breaker_cooldown_seconds * 1e6);
  }
}

bool CureRouter::PartialEligible(StatusCode code) {
  // Shard-unavailable classes only: a deterministic request error
  // (InvalidArgument, NotFound, ...) means every shard would refuse it and
  // a partial answer would be wrong, not degraded.
  return code == StatusCode::kIoError || code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kDataLoss ||
         code == StatusCode::kResourceExhausted;
}

namespace {

/// One in-flight backend exchange of a scatter.
struct Attempt {
  int shard = 0;
  int replica = 0;
  int64_t start_us = 0;
  int64_t trace_start_us = 0;  ///< tracer clock, for the backend_rpc span
  BackendClient::Exchange exchange;
};

/// Logs a launch of replica `r` in a shard's attempt log, overwriting its
/// breaker-skip note in place when the picker fell back to it.
void NoteLaunch(ShardProfile* profile, int r, const char* kind,
                int64_t launch_us) {
  if (profile == nullptr) return;
  AttemptRecord* record = nullptr;
  for (AttemptRecord& existing : profile->attempts) {
    if (existing.replica == r) {
      record = &existing;
      break;
    }
  }
  if (record == nullptr) {
    record = &profile->attempts.emplace_back();
    record->replica = r;
  }
  record->kind = kind;
  record->outcome = "lost";
  record->launch_us = launch_us;
}

void NoteOutcome(ShardProfile* profile, int r, const char* outcome,
                 int64_t end_us) {
  if (profile == nullptr) return;
  for (AttemptRecord& record : profile->attempts) {
    if (record.replica == r && record.end_us == 0 && record.outcome == "lost") {
      record.outcome = outcome;
      record.end_us = end_us;
      return;
    }
  }
}

}  // namespace

std::vector<CureRouter::ShardReply> CureRouter::Scatter(
    const std::string& backend_line, int64_t deadline_us,
    ClusterProfile* profile, int64_t profile_base_us) {
  const int num_shards = map_.num_shards();
  CURE_TRACE_SPAN("cure.router.scatter", "shards",
                  static_cast<uint64_t>(num_shards));
  std::vector<ShardReply> replies(static_cast<size_t>(num_shards));
  if (profile != nullptr) {
    profile->shards.assign(static_cast<size_t>(num_shards), ShardProfile());
    for (int s = 0; s < num_shards; ++s) profile->shards[s].shard = s;
  }
  const auto shard_profile = [profile](int s) {
    return profile != nullptr ? &profile->shards[s] : nullptr;
  };

  // Per-shard failover policy. Every attempt of every shard is one entry of
  // `attempts`, advanced by the single poll loop below on this thread.
  struct ShardCall {
    std::vector<int> order;  ///< candidate replicas (PickOrder)
    size_t next_candidate = 0;
    int launches = 0;
    int in_flight = 0;
    bool hedged = false;
    bool done = false;
    int64_t last_launch_us = 0;
    int64_t retry_at_us = 0;  ///< > 0: the backoff before a retry ends here
    double backoff = 0;
    Status last_error;
  };
  std::vector<ShardCall> calls(static_cast<size_t>(num_shards));
  std::vector<std::unique_ptr<Attempt>> attempts;
  const int max_launches = 1 + std::max(0, options_.retry_budget);
  const double hedge_delay = options_.hedge_seconds;

  const auto finish = [&](int s, Status status) {
    calls[s].done = true;
    replies[s].status = std::move(status);
    // The shard's other attempts (a hedge loser, or everything at the
    // deadline) are abandoned by closing their connections: the backend
    // sees EOF, and nothing waits on them.
    attempts.erase(std::remove_if(attempts.begin(), attempts.end(),
                                  [s](const std::unique_ptr<Attempt>& a) {
                                    return a->shard == s;
                                  }),
                   attempts.end());
  };

  const auto launch = [&](int s, const char* kind) {
    ShardCall& call = calls[s];
    const int r = call.order[call.next_candidate++];
    ++call.launches;
    ++call.in_flight;
    call.last_launch_us = NowMicros();
    NoteLaunch(shard_profile(s), r, kind,
               call.last_launch_us - profile_base_us);
    backend_rpcs_total_->Inc();
    Attempt& attempt = *attempts.emplace_back(std::make_unique<Attempt>());
    attempt.shard = s;
    attempt.replica = r;
    attempt.start_us = call.last_launch_us;
    attempt.trace_start_us = Tracer::enabled() ? Tracer::NowMicros() : 0;
    // No exchange deadline: the loop enforces the request deadline itself,
    // closing the shard's attempts without charging their replicas'
    // breakers for the client's budget running out.
    client_.Begin(map_.shards[s][r],
                  WithRemainingDeadline(backend_line, deadline_us),
                  /*deadline_seconds=*/0, &attempt.exchange);
  };

  // An attempt finished: first OK answer wins the shard; failover-class
  // errors feed the breaker and leave the shard to retry; a deterministic
  // error fails the shard at once (every replica would answer the same).
  const auto settle = [&](Attempt& attempt) {
    const int s = attempt.shard;
    const int r = attempt.replica;
    ShardCall& call = calls[s];
    --call.in_flight;
    const int64_t now_us = NowMicros();
    backend_latency_[s][r]->Record(now_us - attempt.start_us);
    if (attempt.trace_start_us > 0 && Tracer::enabled()) {
      TraceEvent event;
      event.name = "cure.router.backend_rpc";
      event.ts_us = attempt.trace_start_us;
      event.dur_us = Tracer::NowMicros() - attempt.trace_start_us;
      event.arg0_name = "shard";
      event.arg0 = static_cast<uint64_t>(s);
      event.arg1_name = "replica";
      event.arg1 = static_cast<uint64_t>(r);
      Tracer::Instance().Record(event);
    }
    ShardProfile* sp = shard_profile(s);
    const int64_t end_us = now_us - profile_base_us;
    ShardReply reply;
    reply.status = attempt.exchange.status();
    const bool transport_error = !reply.status.ok();
    if (!transport_error) {
      reply.text = std::move(attempt.exchange.response());
      BackendReply header;
      reply.body = ParseBackendHeader(reply.text, &header);
      reply.status = header.status;
    }
    const StatusCode code = reply.status.code();
    if (reply.status.ok()) {
      NoteOutcome(sp, r, "won", end_us);
      if (sp != nullptr) {
        sp->ok = true;
        sp->backend_lines = ParseBackendReply(reply.text).profile_lines;
      }
      RecordBackendSuccess(s, r);
      replies[s] = std::move(reply);
      finish(s, Status::OK());
    } else if (code == StatusCode::kDataLoss) {
      // The replica's storage is corrupt; take it out of rotation for good
      // (a health probe reaching the process again proves nothing about
      // the data).
      NoteOutcome(sp, r, "data-loss", end_us);
      replicas_ejected_total_->Inc();
      {
        std::lock_guard<std::mutex> lock(mu_);
        replicas_[s][r].ejected = true;
        replicas_[s][r].healthy = false;
      }
      call.last_error = reply.status;
    } else if (transport_error || code == StatusCode::kIoError ||
               code == StatusCode::kDeadlineExceeded) {
      // Failover class: transport failure, backend I/O error, or a spent
      // per-attempt budget — breaker bookkeeping, then another replica.
      NoteOutcome(sp, r, "failover", end_us);
      RecordBackendFailure(s, r);
      call.last_error = reply.status;
    } else {
      NoteOutcome(sp, r, "fail-fast", end_us);
      finish(s, reply.status);
    }
  };

  for (int s = 0; s < num_shards; ++s) {
    ShardCall& call = calls[s];
    call.order = PickOrder(s);
    call.backoff = options_.backoff_initial_seconds;
    if (call.order.empty()) {
      finish(s, Status::IoError("shard " + std::to_string(s) +
                                " has no serving replicas (all ejected)"));
      continue;
    }
    if (deadline_us > 0 && NowMicros() >= deadline_us) {
      finish(s, Status::DeadlineExceeded(
                    "shard " + std::to_string(s) +
                    ": deadline exhausted before any attempt"));
      continue;
    }
    if (ShardProfile* sp = shard_profile(s)) {
      // Pre-note candidates whose breaker is open right now: if they never
      // launch, the profile shows WHY the picker passed them over. A later
      // launch (last-resort pick) overwrites the record in place.
      const int64_t now_us = NowMicros();
      std::lock_guard<std::mutex> lock(mu_);
      for (const int r : call.order) {
        if (replicas_[s][r].open_until_us > now_us) {
          AttemptRecord record;
          record.replica = r;
          record.kind = "skip";
          record.outcome = "breaker-skip";
          sp->attempts.push_back(std::move(record));
        }
      }
    }
    launch(s, "primary");
  }

  std::vector<std::unique_ptr<Attempt>> finished;
  std::vector<pollfd> fds;
  for (;;) {
    // Settle finished attempts — including ones that failed inside Begin
    // (a refused connect fails at once).
    for (size_t i = 0; i < attempts.size();) {
      if (attempts[i]->exchange.done()) {
        finished.push_back(std::move(attempts[i]));
        attempts.erase(attempts.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    for (const std::unique_ptr<Attempt>& attempt : finished) {
      if (!calls[attempt->shard].done) settle(*attempt);
    }
    finished.clear();

    // Per-shard timers: the deadline, a sequential retry once its backoff
    // ends, the hedge once the newest attempt has been slow for the delay.
    const int64_t now_us = NowMicros();
    int64_t wake_us = 0;
    const auto wake_at = [&wake_us](int64_t at_us) {
      if (wake_us == 0 || at_us < wake_us) wake_us = at_us;
    };
    for (int s = 0; s < num_shards; ++s) {
      ShardCall& call = calls[s];
      if (call.done) continue;
      if (deadline_us > 0 && now_us >= deadline_us) {
        const Status& last = call.last_error;
        finish(s, Status::DeadlineExceeded(
                      "shard " + std::to_string(s) +
                      " deadline exhausted after " +
                      std::to_string(call.launches) + " attempt(s)" +
                      (last.ok() ? "" : ": " + last.message())));
        continue;
      }
      if (deadline_us > 0) wake_at(deadline_us);
      const bool can_launch = call.next_candidate < call.order.size() &&
                              call.launches < max_launches;
      if (call.in_flight == 0) {
        if (!can_launch) {
          const Status& last = call.last_error;
          finish(s, Status(last.ok() ? StatusCode::kIoError : last.code(),
                           "shard " + std::to_string(s) +
                               " exhausted all replicas: " + last.message()));
          continue;
        }
        if (call.retry_at_us == 0) {
          // Sequential retry: back off first — jittered, capped, truncated
          // to the remaining deadline.
          const double wait = call.backoff * (0.5 + 0.5 * NextJitter());
          int64_t at_us = now_us + static_cast<int64_t>(wait * 1e6);
          if (deadline_us > 0 && at_us > deadline_us) at_us = deadline_us;
          call.retry_at_us = at_us;
          call.backoff =
              std::min(call.backoff * 2, options_.backoff_cap_seconds);
        }
        if (now_us < call.retry_at_us) {
          wake_at(call.retry_at_us);
          continue;
        }
        call.retry_at_us = 0;
        backend_retries_total_->Inc();
        retries_total_->Inc();
        CURE_TRACE_SPAN("cure.router.retry", "shard", static_cast<uint64_t>(s),
                        "attempt", static_cast<uint64_t>(call.launches));
        launch(s, "retry");
      } else if (!call.hedged && hedge_delay >= 0 && can_launch) {
        const int64_t hedge_at_us =
            call.last_launch_us + static_cast<int64_t>(hedge_delay * 1e6);
        if (now_us < hedge_at_us) {
          wake_at(hedge_at_us);
          continue;
        }
        // The attempt is slow, not (yet) failed: hedge once to the next
        // candidate and let the first answer win.
        call.hedged = true;
        hedges_total_->Inc();
        CURE_TRACE_SPAN("cure.router.hedge", "shard", static_cast<uint64_t>(s));
        launch(s, "hedge");
      }
    }
    if (std::all_of(calls.begin(), calls.end(),
                    [](const ShardCall& call) { return call.done; })) {
      break;
    }
    if (std::any_of(attempts.begin(), attempts.end(),
                    [](const std::unique_ptr<Attempt>& a) {
                      return a->exchange.done();
                    })) {
      continue;  // a fresh launch already failed; settle it first
    }

    fds.clear();
    for (const std::unique_ptr<Attempt>& attempt : attempts) {
      const BackendClient::Exchange& exchange = attempt->exchange;
      fds.push_back(pollfd{exchange.fd(), exchange.events(), 0});
      if (exchange.expires_us() > 0) wake_at(exchange.expires_us());
    }
    const int rc = ::poll(fds.data(), fds.size(), PollTimeoutMs(wake_us));
    for (size_t i = 0; i < attempts.size(); ++i) {
      client_.Advance(&attempts[i]->exchange, rc > 0 ? fds[i].revents : 0);
    }
  }
  return replies;
}

std::string CureRouter::Route(std::vector<std::string> tokens,
                              ClusterProfile* profile) {
  queries_total_->Inc();
  // A malformed line fails here with the ERR a backend would send, and
  // reaches no backend.
  Result<serve::Request> parsed =
      serve::ParseRequest(*schema_, codec_, std::move(tokens));
  if (!parsed.ok()) {
    queries_errors_->Inc();
    return ErrResponse(parsed.status());
  }
  const serve::Request& request = *parsed;
  if (request.min_count > 1 && count_aggregate_ < 0) {
    queries_errors_->Inc();
    return ErrResponse(StatusCode::kFailedPrecondition,
                       "iceberg queries require a COUNT aggregate in the "
                       "schema");
  }
  const uint64_t trace_id = request.trace_id != 0
                                ? request.trace_id
                                : Tracer::Instance().NextTraceId();
  CURE_TRACE_SPAN("cure.router.query", "trace_id", trace_id);
  const int64_t start_us = NowMicros();
  const int64_t deadline_us =
      request.deadline_seconds > 0
          ? start_us + static_cast<int64_t>(request.deadline_seconds * 1e6)
          : 0;

  // BATCH forwards its whole member list in one round trip (the backends
  // keep their most-detailed-first order, so their semantic caches still
  // chain within the batch). Every other verb scatters as the plain node
  // query on the landed node: the iceberg threshold and the top-k cut wait
  // for the merge, because a group can clear either globally while
  // clearing it on no single shard.
  const bool batch = request.verb == "BATCH";
  const std::vector<schema::NodeId> nodes =
      batch ? request.batch : std::vector<schema::NodeId>{request.node};
  std::vector<std::string> specs;
  std::vector<query::GroupFold> mergers;
  std::string backend_line =
      batch ? "BATCH" : request.slices.empty() ? "QUERY" : "SLICE";
  for (const schema::NodeId node : nodes) {
    specs.push_back(serve::FormatNodeSpec(*schema_, codec_, node));
    backend_line += ' ' + specs.back();
    mergers.emplace_back(
        *schema_, static_cast<int>(serve::GroupedColumns(codec_, node).size()));
  }
  for (const std::string& slice : request.slices) backend_line += ' ' + slice;
  backend_line += " trace=" + std::to_string(trace_id) + " codes=1";
  if (profile != nullptr) backend_line += " profile=1";

  const int64_t scatter_start_us = NowMicros();
  const std::vector<ShardReply> replies =
      Scatter(backend_line, deadline_us, profile, start_us);
  const int64_t merge_start_us = NowMicros();
  int shards_ok = 0;
  Status status;
  std::string body;
  uint64_t count = 0, checksum = 0;
  {
    CURE_TRACE_SPAN("cure.router.merge");
    status = Gather(replies, batch ? &specs : nullptr, &mergers, &shards_ok);
    const ValueDecoder& decoder = request.codes ? kRawCodes : decoder_;
    for (size_t i = 0; status.ok() && i < nodes.size(); ++i) {
      query::ResultSink sink;
      std::string rows;
      status =
          EmitMerged(request, nodes[i], &mergers[i], decoder, &sink, &rows);
      if (batch) {
        // One section per member; the top checksum is xor'd over them.
        checksum ^= sink.checksum();
        char section_header[128];
        std::snprintf(section_header, sizeof(section_header),
                      "= %s %llu %016llx SCATTER\n", specs[i].c_str(),
                      static_cast<unsigned long long>(sink.count()),
                      static_cast<unsigned long long>(sink.checksum()));
        body += section_header;
      } else {
        count = sink.count();
        checksum = sink.checksum();
      }
      body += rows;
    }
    if (batch) count = nodes.size();
  }

  const int64_t end_us = NowMicros();
  if (profile != nullptr) {
    profile->trace_id = trace_id;
    profile->shards_total = map_.num_shards();
    profile->shards_ok = shards_ok;
    profile->total_us = end_us - start_us;
    profile->merge_us = end_us - merge_start_us;
    profile->scatter_us = merge_start_us - scatter_start_us;
    profile->result_count = count;
    profile->result_checksum = checksum;
  }
  MaybeRecordSlow(request.verb.c_str(), trace_id, end_us - start_us, shards_ok,
                  status);
  query_latency_us_->Record(end_us - start_us);
  if (!status.ok()) {
    queries_errors_->Inc();
    return ErrResponse(status);
  }
  const std::string partial = PartialToken(shards_ok, map_.num_shards());
  if (!partial.empty()) partial_total_->Inc();

  char header[96];
  std::snprintf(header, sizeof(header), "OK %llu %016llx %s trace=%llu",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(checksum),
                batch ? "BATCH" : "SCATTER",
                static_cast<unsigned long long>(trace_id));
  std::string out = header;
  out += request.node_echo;
  out += partial;
  out += '\n';
  out += body;
  out += ".\n";
  return out;
}

Status CureRouter::Gather(const std::vector<ShardReply>& replies,
                          const std::vector<std::string>* sections,
                          std::vector<query::GroupFold>* mergers,
                          int* shards_ok) const {
  Status degraded_error = Status::OK();
  for (int s = 0; s < map_.num_shards(); ++s) {
    const ShardReply& reply = replies[s];
    if (!reply.status.ok()) {
      // Opt-in degradation: an unavailable shard is skipped and the answer
      // marked PARTIAL (every BATCH section loses its rows uniformly);
      // deterministic errors still fail the whole query (every shard would
      // refuse the same way).
      if (options_.allow_partial && PartialEligible(reply.status.code())) {
        degraded_error = reply.status;
        continue;
      }
      return reply.status;
    }
    CURE_RETURN_IF_ERROR(
        MergeShardReply(s, reply.text, reply.body, sections, mergers));
    ++*shards_ok;
  }
  // Nothing survived: still an error.
  return *shards_ok == 0 ? degraded_error : Status::OK();
}

Status CureRouter::EmitMerged(const serve::Request& request,
                              schema::NodeId node, query::GroupFold* merger,
                              const ValueDecoder& decoder,
                              query::ResultSink* sink,
                              std::string* rows) const {
  const std::vector<std::pair<int, int>> columns =
      serve::GroupedColumns(codec_, node);
  const size_t num_dims = columns.size();
  const size_t num_aggrs = static_cast<size_t>(merger->num_aggregates());
  if (request.top_k == 0) {
    return merger->ForEachGroup(
        count_aggregate_, request.min_count,
        [&](const uint32_t* dims, const int64_t* aggrs) {
          sink->Emit(dims, static_cast<int>(num_dims), aggrs,
                     static_cast<int>(num_aggrs));
          serve::AppendRowText(columns, dims, num_dims, aggrs, num_aggrs,
                               decoder, rows);
        });
  }
  query::ResultSink all(/*retain=*/true);
  CURE_RETURN_IF_ERROR(
      merger->Finish(count_aggregate_, request.min_count, &all));
  const std::vector<query::ResultSink::Row> top = algebra::SelectTopK(
      all.TakeRows(), static_cast<size_t>(request.top_k),
      count_aggregate_ >= 0 ? count_aggregate_ : 0);
  for (const query::ResultSink::Row& row : top) {
    sink->Emit(row.dims.data(), static_cast<int>(row.dims.size()),
               row.aggrs.data(), static_cast<int>(row.aggrs.size()));
  }
  serve::AppendRowsText(columns, top, decoder, rows);
  return Status::OK();
}

std::string CureRouter::HandleProfile(const std::vector<std::string>& tokens) {
  if (tokens.size() < 2) {
    return ErrResponse(StatusCode::kInvalidArgument,
                       "usage: PROFILE <QUERY|ICEBERG|SLICE|ROLLUP|DRILL|"
                       "TOPK> ...");
  }
  const std::vector<std::string> inner(tokens.begin() + 1, tokens.end());
  const std::string cmd = serve::ToUpper(inner[0]);
  if (!serve::IsQueryVerb(cmd) || cmd == "BATCH") {
    return ErrResponse(StatusCode::kInvalidArgument,
                       "PROFILE wraps QUERY, ICEBERG, SLICE, ROLLUP, DRILL "
                       "or TOPK, not '" + inner[0] + "'");
  }
  ClusterProfile profile;
  const std::string response = Route(inner, &profile);
  // A failed wrapped query keeps its ERR verbatim — the caller learns the
  // real error, not a profile of a non-answer.
  if (response.rfind("ERR", 0) == 0) return response;
  for (const std::string& token : inner) {
    if (!profile.command.empty()) profile.command += ' ';
    profile.command += token;
  }
  char header[96];
  std::snprintf(header, sizeof(header), "OK %llu %016llx PROFILE trace=%llu\n",
                static_cast<unsigned long long>(profile.result_count),
                static_cast<unsigned long long>(profile.result_checksum),
                static_cast<unsigned long long>(profile.trace_id));
  return header + FormatClusterProfile(profile) + ".\n";
}

void CureRouter::MaybeRecordSlow(const char* verb, uint64_t trace_id,
                                 int64_t total_us, int shards_ok,
                                 const Status& status) {
  if (options_.slow_query_seconds <= 0) return;
  if (total_us < static_cast<int64_t>(options_.slow_query_seconds * 1e6)) {
    return;
  }
  slowlog_.Record("trace=" + std::to_string(trace_id) + " verb=" + verb +
                  " status=" + StatusCodeName(status.code()) +
                  " total_us=" + std::to_string(total_us) +
                  " shards_ok=" + std::to_string(shards_ok) + "/" +
                  std::to_string(map_.num_shards()));
}

std::string CureRouter::HealthText() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now_us = NowMicros();
  std::string out = "OK\n";
  char line[224];
  for (int s = 0; s < map_.num_shards(); ++s) {
    for (int r = 0; r < map_.num_replicas(s); ++r) {
      const ReplicaState& state = replicas_[s][r];
      const char* breaker =
          state.open_until_us == 0
              ? "closed"
              : (now_us >= state.open_until_us ? "half-open" : "open");
      std::snprintf(
          line, sizeof(line),
          "shard %d replica %d %s %s version=%llu staleness=%s breaker=%s\n",
          s, r, map_.shards[s][r].ToString().c_str(),
          state.ejected ? "EJECTED" : (state.healthy ? "UP" : "DOWN"),
          static_cast<unsigned long long>(state.cube_version),
          FormatMetricValue(state.staleness_seconds).c_str(), breaker);
      out += line;
    }
  }
  out += ".\n";
  return out;
}

void CureRouter::UpdateDerivedMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  int healthy = 0, ejected = 0, total = 0;
  for (size_t s = 0; s < replicas_.size(); ++s) {
    for (size_t r = 0; r < replicas_[s].size(); ++r) {
      const ReplicaState& state = replicas_[s][r];
      ++total;
      if (state.ejected) {
        ++ejected;
      } else if (state.healthy) {
        ++healthy;
      }
      // Breaker state is rendered by PrometheusText() as one labelled
      // series instead of a metric NAME per replica (a 16×4 cluster would
      // mint 64 metric names and clutter every dashboard's series browser).
    }
  }
  metrics_.gauge("shards")->Set(map_.num_shards());
  metrics_.gauge("replicas_total")->Set(total);
  metrics_.gauge("replicas_healthy")->Set(healthy);
  metrics_.gauge("replicas_ejected")->Set(ejected);
  const BackendClient::PoolStats conns = client_.pool_stats();
  metrics_.gauge("backend_pool_connects")
      ->Set(static_cast<double>(conns.connects));
  metrics_.gauge("backend_pool_reuses")
      ->Set(static_cast<double>(conns.reuses));
  metrics_.gauge("backend_pool_discards_idle")
      ->Set(static_cast<double>(conns.discards_idle));
  metrics_.gauge("backend_pool_retries_stale")
      ->Set(static_cast<double>(conns.retries_stale));
  metrics_.gauge("backend_pool_open")->Set(static_cast<double>(conns.open));
}

void CureRouter::MergeBackendLatency(LogHistogram* out) const {
  for (const auto& shard : backend_latency_) {
    for (const LogHistogram* histogram : shard) out->Merge(*histogram);
  }
}

std::string CureRouter::StatsText() const {
  UpdateDerivedMetrics();
  std::string out = metrics_.TextSnapshot();
  LogHistogram cluster;
  MergeBackendLatency(&cluster);
  AppendHistogramText("backend_all_latency", cluster, &out);
  return out;
}

std::string CureRouter::PrometheusText() const {
  UpdateDerivedMetrics();
  std::string out = metrics_.PrometheusText("cure_router_");
  LogHistogram cluster;
  MergeBackendLatency(&cluster);
  AppendPrometheusHistogram("cure_router_backend_all_latency", cluster, &out);
  // Breaker state as ONE series with shard/replica labels (0 = closed,
  // 1 = half-open, 2 = open) — constant metric-name cardinality no matter
  // how big the map is. HEALTH keeps the human-readable per-replica view.
  out += "# TYPE cure_router_breaker_state gauge\n";
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now_us = NowMicros();
    for (size_t s = 0; s < replicas_.size(); ++s) {
      for (size_t r = 0; r < replicas_[s].size(); ++r) {
        const ReplicaState& state = replicas_[s][r];
        const double breaker =
            state.open_until_us == 0 ? 0
            : (now_us >= state.open_until_us ? 1 : 2);
        out += PrometheusSampleLine("cure_router_breaker_state",
                                    {{"shard", std::to_string(s)},
                                     {"replica", std::to_string(r)}},
                                    breaker);
      }
    }
  }
  return out;
}

std::string CureRouter::ClusterMetricsText() {
  std::string out = PrometheusText();
  // Scrape every non-ejected replica; the federator re-labels the samples
  // and merges the `# BUCKETS` histograms cluster-wide. Ejected replicas
  // are skipped on purpose (their data is condemned); unreachable ones are
  // reported as comments rather than silently dropped.
  MetricsFederator federator;
  for (int s = 0; s < map_.num_shards(); ++s) {
    for (int r = 0; r < map_.num_replicas(s); ++r) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (replicas_[s][r].ejected) continue;
      }
      const BackendAddress& addr = map_.shards[s][r];
      Result<std::string> scraped = client_.RoundTrip(addr, "METRICS");
      if (!scraped.ok()) {
        federator.AddUnreachable(s, r, addr.ToString(),
                                 scraped.status().message());
        continue;
      }
      // Strip the protocol's "OK" status line; the exposition body follows.
      std::string body = std::move(scraped).value();
      const size_t first_newline = body.find('\n');
      if (body.rfind("OK", 0) == 0 && first_newline != std::string::npos) {
        body.erase(0, first_newline + 1);
      }
      federator.AddBackend(s, r, body);
    }
  }
  out += federator.Render();
  return out;
}

std::string CureRouter::HandleLine(const std::string& line) {
  std::vector<std::string> tokens = serve::SplitTokens(line);
  if (tokens.empty()) {
    return ErrResponse(StatusCode::kInvalidArgument, "empty command");
  }
  const std::string cmd = serve::ToUpper(tokens[0]);
  if (cmd == "STATS") return "OK\n" + StatsText() + ".\n";
  if (cmd == "METRICS") {
    if (tokens.size() == 2 && serve::ToUpper(tokens[1]) == "CLUSTER") {
      return "OK\n" + ClusterMetricsText() + ".\n";
    }
    return "OK\n" + PrometheusText() + ".\n";
  }
  if (cmd == "SLOWLOG") return "OK\n" + slowlog_.Dump() + ".\n";
  if (cmd == "HEALTH") return HealthText();
  if (cmd == "PROFILE") return HandleProfile(tokens);
  if (serve::IsQueryVerb(cmd)) return Route(std::move(tokens));
  return ErrResponse(StatusCode::kInvalidArgument,
                     "unknown command '" + tokens[0] +
                         "' (expected QUERY, ICEBERG, SLICE, ROLLUP, DRILL, "
                         "TOPK, BATCH, PROFILE, STATS, METRICS, SLOWLOG, "
                         "HEALTH or QUIT)");
}

void CureRouter::OverrideReplicaFreshnessForTest(int shard, int replica,
                                                 uint64_t version,
                                                 double staleness) {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[shard][replica];
  state.healthy = true;
  state.cube_version = version;
  state.staleness_seconds = staleness;
}

std::vector<int> CureRouter::ReplicaOrderForTest(int shard) {
  return PickOrder(shard);
}

}  // namespace router
}  // namespace cure
