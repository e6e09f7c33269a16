#include "common/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/env.h"

namespace cure {

std::atomic<bool> Tracer::enabled_{false};

namespace {

thread_local int tls_span_depth = 0;

int64_t SteadyEpochMicros() {
  // One process-wide epoch so timestamps from every thread share an origin.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

void AppendJsonEscaped(std::string_view text, std::string* out) {
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
}

struct Tracer::ThreadBuffer {
  ThreadBuffer(size_t capacity, int tid_in) : ring(capacity), tid(tid_in) {}

  // Uncontended on the record path (only the owning thread records); an
  // exporter racing with live writers takes the same mutex so snapshots
  // are well-defined.
  std::mutex mu;
  std::vector<TraceEvent> ring;
  size_t next = 0;       // write cursor
  uint64_t written = 0;  // total events ever recorded
  int tid;
};

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();  // leaked: usable during atexit
  return *tracer;
}

int64_t Tracer::NowMicros() { return SteadyEpochMicros(); }

void Tracer::Enable(size_t events_per_thread) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_per_thread_ = std::max<size_t>(1, events_per_thread);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  next_tid_ = 1;
  // Release pairs with the acquire in BufferForThisThread so a thread that
  // observes the new epoch also observes the cleared registry.
  epoch_.fetch_add(1, std::memory_order_release);
}

uint64_t Tracer::NextTraceId() {
  const uint64_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  return id == 0 ? next_trace_id_.fetch_add(1, std::memory_order_relaxed) : id;
}

std::shared_ptr<Tracer::ThreadBuffer> Tracer::BufferForThisThread() {
  struct TlsSlot {
    uint64_t epoch = 0;
    std::shared_ptr<ThreadBuffer> buffer;
  };
  thread_local TlsSlot slot;
  const uint64_t current = epoch_.load(std::memory_order_acquire);
  if (slot.buffer == nullptr || slot.epoch != current) {
    std::lock_guard<std::mutex> lock(mu_);
    slot.buffer = std::make_shared<ThreadBuffer>(events_per_thread_, next_tid_++);
    slot.epoch = epoch_.load(std::memory_order_relaxed);
    buffers_.push_back(slot.buffer);
  }
  return slot.buffer;
}

void Tracer::Record(const TraceEvent& event) {
  if (!enabled()) return;
  const std::shared_ptr<ThreadBuffer> buffer = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->ring[buffer->next] = event;
  buffer->next = (buffer->next + 1) % buffer->ring.size();
  ++buffer->written;
}

std::vector<TraceEvent> Tracer::EventsForTraceId(uint64_t trace_id) const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> matched;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const size_t capacity = buffer->ring.size();
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(buffer->written, capacity));
    const size_t start = buffer->written > capacity ? buffer->next : 0;
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& event = buffer->ring[(start + i) % capacity];
      const bool hit =
          (event.arg0_name != nullptr &&
           std::strcmp(event.arg0_name, "trace_id") == 0 &&
           event.arg0 == trace_id) ||
          (event.arg1_name != nullptr &&
           std::strcmp(event.arg1_name, "trace_id") == 0 &&
           event.arg1 == trace_id);
      if (hit) matched.push_back(event);
    }
  }
  std::sort(matched.begin(), matched.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  return matched;
}

uint64_t Tracer::recorded_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += std::min<uint64_t>(buffer->written, buffer->ring.size());
  }
  return total;
}

uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (buffer->written > buffer->ring.size()) {
      dropped += buffer->written - buffer->ring.size();
    }
  }
  return dropped;
}

std::string Tracer::ExportChromeTraceJson() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  const long pid = static_cast<long>(::getpid());

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[192];
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    const size_t capacity = buffer->ring.size();
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(buffer->written, capacity));
    // Oldest event first: when the ring has wrapped, the write cursor
    // points at the oldest slot.
    const size_t start = buffer->written > capacity ? buffer->next : 0;
    for (size_t i = 0; i < count; ++i) {
      const TraceEvent& event = buffer->ring[(start + i) % capacity];
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      AppendJsonEscaped(event.name != nullptr ? event.name : "(null)", &out);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"%c\",\"ts\":%lld,\"pid\":%ld,\"tid\":%d",
                    static_cast<char>(event.type),
                    static_cast<long long>(event.ts_us), pid, buffer->tid);
      out += buf;
      if (event.type == TraceEventType::kComplete) {
        std::snprintf(buf, sizeof(buf), ",\"dur\":%lld",
                      static_cast<long long>(event.dur_us));
        out += buf;
      }
      if (event.type == TraceEventType::kInstant) out += ",\"s\":\"t\"";
      if (event.arg0_name != nullptr || event.arg1_name != nullptr) {
        out += ",\"args\":{";
        bool first_arg = true;
        const char* names[2] = {event.arg0_name, event.arg1_name};
        const uint64_t values[2] = {event.arg0, event.arg1};
        for (int a = 0; a < 2; ++a) {
          if (names[a] == nullptr) continue;
          if (!first_arg) out += ',';
          first_arg = false;
          out += '"';
          AppendJsonEscaped(names[a], &out);
          std::snprintf(buf, sizeof(buf), "\":%llu",
                        static_cast<unsigned long long>(values[a]));
          out += buf;
        }
        out += '}';
      }
      out += '}';
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ExportChromeTraceJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("trace export: open " + path + ": " +
                           std::strerror(errno));
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const int close_rc = std::fclose(file);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("trace export: short write to " + path);
  }
  return Status::OK();
}

bool Tracer::ArmFromEnv() {
  if (EnvInt64("CURE_TRACE", 0) <= 0) return false;
  const int64_t capacity =
      EnvInt64("CURE_TRACE_BUFFER",
               static_cast<int64_t>(kDefaultEventsPerThread));
  Instance().Enable(capacity > 0 ? static_cast<size_t>(capacity)
                                 : kDefaultEventsPerThread);
  static std::string* out_path = nullptr;
  const std::string path = EnvString("CURE_TRACE_OUT", "");
  if (!path.empty() && out_path == nullptr) {
    out_path = new std::string(path);
    std::atexit([] {
      const Status status = Tracer::Instance().WriteChromeTrace(*out_path);
      if (!status.ok()) {
        std::fprintf(stderr, "CURE_TRACE_OUT: %s\n",
                     status.ToString().c_str());
      }
    });
  }
  return true;
}

int TraceDepth() { return tls_span_depth; }

void TraceSpan::Start(const char* name) {
  name_ = name;
  start_us_ = Tracer::NowMicros();
  ++tls_span_depth;
}

void TraceSpan::Finish() {
  --tls_span_depth;
  TraceEvent event;
  event.name = name_;
  event.type = TraceEventType::kComplete;
  event.ts_us = start_us_;
  event.dur_us = Tracer::NowMicros() - start_us_;
  event.arg0_name = arg_names_[0];
  event.arg1_name = arg_names_[1];
  event.arg0 = args_[0];
  event.arg1 = args_[1];
  Tracer::Instance().Record(event);
}

void TraceCounter(const char* name, uint64_t value) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.type = TraceEventType::kCounter;
  event.ts_us = Tracer::NowMicros();
  event.arg0_name = "value";
  event.arg0 = value;
  Tracer::Instance().Record(event);
}

void TraceInstant(const char* name) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.type = TraceEventType::kInstant;
  event.ts_us = Tracer::NowMicros();
  Tracer::Instance().Record(event);
}

void TraceInstant(const char* name, const char* arg0_name, uint64_t arg0) {
  if (!Tracer::enabled()) return;
  TraceEvent event;
  event.name = name;
  event.type = TraceEventType::kInstant;
  event.ts_us = Tracer::NowMicros();
  event.arg0_name = arg0_name;
  event.arg0 = arg0;
  Tracer::Instance().Record(event);
}

// ---------------------------------------------------------------------------
// Chrome-trace validation: a strict minimal JSON parser (objects, arrays,
// strings, numbers, booleans, null; no NaN/Infinity, bounded nesting)
// specialized for the trace_event schema.
// ---------------------------------------------------------------------------

namespace {

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  bool number_is_integer = false;
  int64_t integer = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  Status Parse(JsonValue* out) {
    CURE_RETURN_IF_ERROR(ParseValue(out, 0));
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return Error("trailing data after top-level value");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("invalid JSON at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= input_.size()) return Error("unexpected end of input");
    const char c = input_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseKeyword(c == 't' ? "true" : "false", out);
      case 'n':
        return ParseKeyword("null", out);
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Status ParseKeyword(const char* keyword, JsonValue* out) {
    const size_t len = std::strlen(keyword);
    if (input_.compare(pos_, len, keyword) != 0) {
      return Error(std::string("expected '") + keyword + "'");
    }
    pos_ += len;
    if (keyword[0] == 'n') {
      out->kind = JsonValue::kNull;
    } else {
      out->kind = JsonValue::kBool;
      out->boolean = keyword[0] == 't';
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') ++pos_;
    bool saw_digit = false;
    bool integral = true;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c >= '0' && c <= '9') {
        saw_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = integral && c != '.' && c != 'e' && c != 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (!saw_digit) return Error("malformed number");
    const std::string token = input_.substr(start, pos_ - start);
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE ||
        !std::isfinite(value)) {
      return Error("malformed or non-finite number '" + token + "'");
    }
    out->kind = JsonValue::kNumber;
    out->number = value;
    out->number_is_integer = integral;
    if (integral) out->integer = static_cast<int64_t>(value);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    // pos_ is at the opening quote.
    ++pos_;
    out->clear();
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= input_.size()) return Error("dangling escape");
        const char esc = input_[pos_];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 >= input_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = input_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad \\u escape");
              }
            }
            pos_ += 4;
            // Validation only needs round-trippable bytes, not full UTF-8;
            // encode the code point minimally.
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
        ++pos_;
      } else {
        *out += c;
        ++pos_;
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < input_.size() && input_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      JsonValue element;
      CURE_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->array.push_back(std::move(element));
      SkipWhitespace();
      if (pos_ >= input_.size()) return Error("unterminated array");
      if (input_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (input_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < input_.size() && input_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      CURE_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= input_.size() || input_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      JsonValue value;
      CURE_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= input_.size()) return Error("unterminated object");
      if (input_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (input_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& input_;
  size_t pos_ = 0;
};

}  // namespace

bool ChromeTraceSummary::Contains(const std::string& name) const {
  return std::binary_search(names.begin(), names.end(), name);
}

size_t ChromeTraceSummary::CompleteCount(const std::string& name) const {
  return static_cast<size_t>(
      std::count(complete_names_.begin(), complete_names_.end(), name));
}

std::vector<uint64_t> ChromeTraceSummary::ArgValues(
    const std::string& name, const std::string& arg_name) const {
  std::vector<uint64_t> values;
  for (const ArgSample& sample : args_) {
    if (sample.event_name == name && sample.arg_name == arg_name) {
      values.push_back(sample.value);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

Status ValidateChromeTrace(const std::string& json,
                           ChromeTraceSummary* summary) {
  JsonValue root;
  CURE_RETURN_IF_ERROR(JsonParser(json).Parse(&root));
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("trace: top-level value is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    return Status::InvalidArgument("trace: missing traceEvents array");
  }
  ChromeTraceSummary local;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const std::string where = "trace event " + std::to_string(i) + ": ";
    if (event.kind != JsonValue::kObject) {
      return Status::InvalidArgument(where + "not an object");
    }
    const JsonValue* name = event.Find("name");
    if (name == nullptr || name->kind != JsonValue::kString ||
        name->string.empty()) {
      return Status::InvalidArgument(where + "missing string name");
    }
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->kind != JsonValue::kString ||
        ph->string.size() != 1) {
      return Status::InvalidArgument(where + "missing one-char ph");
    }
    const char phase = ph->string[0];
    if (std::strchr("XCiIMBEbens", phase) == nullptr) {
      return Status::InvalidArgument(where + "unknown phase '" + ph->string +
                                     "'");
    }
    const JsonValue* ts = event.Find("ts");
    if (ts == nullptr || ts->kind != JsonValue::kNumber) {
      return Status::InvalidArgument(where + "missing numeric ts");
    }
    for (const char* key : {"pid", "tid"}) {
      const JsonValue* id = event.Find(key);
      if (id == nullptr || id->kind != JsonValue::kNumber ||
          !id->number_is_integer) {
        return Status::InvalidArgument(where + "missing integer " + key);
      }
    }
    if (phase == 'X') {
      const JsonValue* dur = event.Find("dur");
      if (dur == nullptr || dur->kind != JsonValue::kNumber ||
          dur->number < 0) {
        return Status::InvalidArgument(where +
                                       "X event missing non-negative dur");
      }
    }
    const JsonValue* args = event.Find("args");
    if (args != nullptr) {
      if (args->kind != JsonValue::kObject) {
        return Status::InvalidArgument(where + "args is not an object");
      }
      for (const auto& [arg_name, arg_value] : args->object) {
        if (arg_value.kind == JsonValue::kNumber &&
            arg_value.number_is_integer && arg_value.integer >= 0) {
          local.args_.push_back(
              {name->string, arg_name,
               static_cast<uint64_t>(arg_value.integer)});
        }
      }
    }
    ++local.total_events;
    switch (phase) {
      case 'X':
        ++local.complete_events;
        local.complete_names_.push_back(name->string);
        break;
      case 'C':
        ++local.counter_events;
        break;
      case 'i':
      case 'I':
        ++local.instant_events;
        break;
      default:
        break;
    }
    local.names.push_back(name->string);
  }
  std::sort(local.names.begin(), local.names.end());
  local.names.erase(std::unique(local.names.begin(), local.names.end()),
                    local.names.end());
  if (summary != nullptr) *summary = std::move(local);
  return Status::OK();
}

Status ValidateChromeTraceFile(const std::string& path,
                               ChromeTraceSummary* summary) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("trace check: open " + path + ": " +
                           std::strerror(errno));
  }
  std::string contents;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    contents.append(buf, n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("trace check: read " + path);
  }
  return ValidateChromeTrace(contents, summary);
}

}  // namespace cure
