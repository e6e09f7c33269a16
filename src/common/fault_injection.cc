#include "common/fault_injection.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

namespace cure {

FaultInjector& FaultInjector::Disk() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

FaultInjector& FaultInjector::Net() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  ops_matched_ = 0;
  faults_injected_ = 0;
  fired_once_ = false;
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  plan_ = FaultPlan{};
  fired_once_ = false;
}

uint64_t FaultInjector::ops_matched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_matched_;
}

uint64_t FaultInjector::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

int FaultInjector::ConsultArmed(const char* op, const std::string& target,
                                size_t* len) {
  double delay_seconds;
  int error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!armed_.load(std::memory_order_relaxed)) return 0;
    if (!plan_.op.empty() && plan_.op != op) return 0;
    if (!plan_.target_substr.empty() &&
        target.find(plan_.target_substr) == std::string::npos) {
      return 0;
    }
    const uint64_t index = ops_matched_++;
    if (plan_.fail_index == UINT64_MAX) return 0;  // counting mode
    const bool fires =
        plan_.once ? (index == plan_.fail_index && !fired_once_)
                   : (index >= plan_.fail_index);
    if (!fires) return 0;
    fired_once_ = true;
    ++faults_injected_;
    if (len != nullptr && plan_.short_fraction > 0 &&
        plan_.short_fraction < 1 && *len > 1) {
      *len = static_cast<size_t>(static_cast<double>(*len) *
                                 plan_.short_fraction);
      if (*len == 0) *len = 1;
    }
    delay_seconds = plan_.delay_seconds;
    error = plan_.error;
  }
  if (delay_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(delay_seconds));
  }
  return error;
}

namespace {

/// The network fault kinds as plan fields. A stall sleeps (standing in for
/// the caller's full timeout, so sweeps stay fast) and then reports exactly
/// what the socket timeout would.
struct NetKind {
  const char* name;
  int error;
  bool shortens;
  bool delays;
};

constexpr NetKind kNetKinds[] = {
    {"refused", ECONNREFUSED, false, false},
    {"reset", ECONNRESET, false, false},
    {"shortwrite", 0, true, false},
    {"delay", 0, false, true},
    {"stall", ETIMEDOUT, false, true},
};

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return *end == '\0' && std::isfinite(*out);
}

}  // namespace

Result<FaultPlan> ParseNetFaultSpec(const std::string& text) {
  FaultPlan plan;
  const NetKind* kind = &kNetKinds[1];  // reset
  double delay_ms = 20;
  double fraction = 0.5;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(start, end - start);
    start = end + 1;
    if (pair.empty()) continue;
    const auto bad = [&pair](const char* why) {
      return Status::InvalidArgument("CURE_NET_FAULT pair '" + pair +
                                     "': " + why);
    };
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) return bad("expected key=value");
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "op") {
      if (value != "connect" && value != "read" && value != "write" &&
          value != "accept") {
        return bad("op must be connect, read, write or accept");
      }
      plan.op = value;
    } else if (key == "endpoint") {
      plan.target_substr = value;
    } else if (key == "index") {
      char* rest = nullptr;
      plan.fail_index = std::strtoull(value.c_str(), &rest, 10);
      if (value.empty() || value[0] == '-' || *rest != '\0') {
        return bad("index must be a non-negative integer");
      }
    } else if (key == "once") {
      if (value != "0" && value != "1" && value != "true" &&
          value != "false") {
        return bad("once must be 0, 1, true or false");
      }
      plan.once = value == "1" || value == "true";
    } else if (key == "delay_ms") {
      if (!ParseDouble(value, &delay_ms) || delay_ms < 0) {
        return bad("delay_ms must be a non-negative number");
      }
    } else if (key == "frac") {
      if (!ParseDouble(value, &fraction) || fraction <= 0 || fraction >= 1) {
        return bad("frac must be a number in (0,1)");
      }
    } else if (key == "kind") {
      kind = nullptr;
      for (const NetKind& k : kNetKinds) {
        if (value == k.name) kind = &k;
      }
      if (kind == nullptr) {
        return bad("kind must be refused, reset, shortwrite, delay or stall");
      }
    } else {
      return bad("unknown key");
    }
  }
  plan.error = kind->error;
  if (kind->shortens) plan.short_fraction = fraction;
  if (kind->delays) plan.delay_seconds = delay_ms / 1000.0;
  return plan;
}

}  // namespace cure
