#include "common/net_fault.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace cure {
namespace net {

NetFaultInjector& NetFaultInjector::Instance() {
  static NetFaultInjector* injector = new NetFaultInjector();
  return *injector;
}

void NetFaultInjector::Arm(const NetFaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = plan;
  ops_matched_ = 0;
  faults_injected_ = 0;
  fired_once_ = false;
  armed_.store(true, std::memory_order_release);
}

void NetFaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  plan_ = NetFaultPlan{};
  fired_once_ = false;
}

uint64_t NetFaultInjector::ops_matched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_matched_;
}

uint64_t NetFaultInjector::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

int NetFaultInjector::Consult(const char* op, const std::string& endpoint) {
  if (!armed_.load(std::memory_order_relaxed)) return 0;
  double sleep_seconds = 0;
  int err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = Decide(op, endpoint, nullptr, &sleep_seconds);
  }
  if (sleep_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  return err;
}

int NetFaultInjector::ConsultWrite(const std::string& endpoint, size_t* len) {
  if (!armed_.load(std::memory_order_relaxed)) return 0;
  double sleep_seconds = 0;
  int err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    err = Decide("write", endpoint, len, &sleep_seconds);
  }
  if (sleep_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  return err;
}

int NetFaultInjector::Decide(const char* op, const std::string& endpoint,
                             size_t* len, double* sleep_seconds) {
  if (!armed_.load(std::memory_order_relaxed)) return 0;
  if (!plan_.op.empty() && plan_.op != op) return 0;
  if (!plan_.endpoint_substr.empty() &&
      endpoint.find(plan_.endpoint_substr) == std::string::npos) {
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
  switch (plan_.kind) {
    case NetFaultKind::kRefused:
      return ECONNREFUSED;
    case NetFaultKind::kReset:
      return ECONNRESET;
    case NetFaultKind::kShortWrite:
      if (len != nullptr && plan_.short_fraction > 0 &&
          plan_.short_fraction < 1 && *len > 1) {
        *len = static_cast<size_t>(static_cast<double>(*len) *
                                   plan_.short_fraction);
        if (*len == 0) *len = 1;
      }
      return 0;
    case NetFaultKind::kDelay:
      *sleep_seconds = plan_.delay_seconds;
      return 0;
    case NetFaultKind::kStall:
      // The stand-in sleep keeps sweeps fast; ETIMEDOUT is exactly what the
      // caller's receive timeout reports on a peer that never answers.
      *sleep_seconds = plan_.delay_seconds;
      return ETIMEDOUT;
  }
  return 0;
}

bool NetFaultInjector::ArmFromEnv() {
  const char* spec = std::getenv("CURE_NET_FAULT");
  if (spec == nullptr || spec[0] == '\0') return false;
  NetFaultPlan plan;
  plan.fail_index = 0;
  plan.once = false;
  std::string text(spec);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(start, end - start);
    start = end + 1;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "op") {
      plan.op = value;
    } else if (key == "endpoint") {
      plan.endpoint_substr = value;
    } else if (key == "index") {
      plan.fail_index = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "once") {
      plan.once = value == "1" || value == "true";
    } else if (key == "delay_ms") {
      plan.delay_seconds = std::atof(value.c_str()) / 1000.0;
    } else if (key == "frac") {
      plan.short_fraction = std::atof(value.c_str());
    } else if (key == "kind") {
      if (value == "refused") plan.kind = NetFaultKind::kRefused;
      else if (value == "reset") plan.kind = NetFaultKind::kReset;
      else if (value == "shortwrite") plan.kind = NetFaultKind::kShortWrite;
      else if (value == "delay") plan.kind = NetFaultKind::kDelay;
      else if (value == "stall") plan.kind = NetFaultKind::kStall;
    }
  }
  Instance().Arm(plan);
  return true;
}

}  // namespace net
}  // namespace cure
