#include "serve/protocol.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "schema/lattice.h"

namespace cure {
namespace serve {

namespace {

/// Finds the (dim, level) of a level-column name; `dim_name` (optional)
/// restricts the search to one dimension.
Result<std::pair<int, int>> FindLevel(const schema::CubeSchema& schema,
                                      const std::string& dim_name,
                                      const std::string& level_name) {
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (!dim_name.empty() && schema.dim(d).name() != dim_name) continue;
    for (int l = 0; l < schema.dim(d).num_levels(); ++l) {
      if (schema.dim(d).level(l).name == level_name) {
        return std::make_pair(d, l);
      }
    }
  }
  if (!dim_name.empty()) {
    return Status::NotFound("no level '" + level_name + "' in dimension '" +
                            dim_name + "'");
  }
  return Status::NotFound("no hierarchy level named '" + level_name + "'");
}

/// The (dim, level) a slice spec `[dim:]level=value` filters on, with the
/// value text in *value.
Result<std::pair<int, int>> SliceLevel(const schema::CubeSchema& schema,
                                       const std::string& spec,
                                       std::string* value) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size()) {
    return Status::InvalidArgument("slice spec '" + spec +
                                   "' is not level=value");
  }
  std::string target = spec.substr(0, eq);
  *value = spec.substr(eq + 1);
  std::string dim_name;
  const size_t colon = target.find(':');
  if (colon != std::string::npos) {
    dim_name = target.substr(0, colon);
    target = target.substr(colon + 1);
  }
  return FindLevel(schema, dim_name, target);
}

}  // namespace

std::string ToUpper(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

bool ParseInt64(const std::string& text, int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

std::string ErrResponse(const Status& status) {
  return ErrResponse(status.code(), status.message());
}

std::string ErrResponse(StatusCode code, const std::string& message) {
  return "ERR " + std::string(StatusCodeName(code)) + " " + message + "\n.\n";
}

std::vector<std::string> SplitTokens(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

bool TakeRequestTokens(std::vector<std::string>* tokens, uint64_t* trace_id,
                       double* deadline_seconds, std::string* error,
                       bool* profile, bool* codes) {
  // The control tokens trail the command, so peel from the back; each kind
  // is consumed at most once and an unknown trailing token stops the scan
  // (it belongs to the verb's own grammar).
  bool saw_trace = false;
  bool saw_deadline = false;
  bool saw_profile = false;
  bool saw_codes = false;
  while (!tokens->empty()) {
    const std::string& last = tokens->back();
    if (!saw_codes && last.rfind("codes=", 0) == 0) {
      if (last != "codes=1") {
        if (error != nullptr) *error = "codes=<v> supports only codes=1";
        return false;
      }
      if (codes != nullptr) *codes = true;
      saw_codes = true;
      tokens->pop_back();
      continue;
    }
    if (!saw_profile && last.rfind("profile=", 0) == 0) {
      const std::string value = last.substr(8);
      if (value != "1") {
        if (error != nullptr) {
          *error = "profile=<v> supports only profile=1";
        }
        return false;
      }
      if (profile != nullptr) *profile = true;
      saw_profile = true;
      tokens->pop_back();
      continue;
    }
    if (!saw_trace && last.rfind("trace=", 0) == 0) {
      const std::string value = last.substr(6);
      char* end = nullptr;
      const unsigned long long id = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == value.c_str() || *end != '\0' || id == 0) {
        if (error != nullptr) {
          *error = "trace=<id> requires a positive integer id";
        }
        return false;
      }
      *trace_id = id;
      saw_trace = true;
      tokens->pop_back();
      continue;
    }
    if (!saw_deadline && last.rfind("deadline=", 0) == 0) {
      const std::string value = last.substr(9);
      char* end = nullptr;
      const unsigned long long ms = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end == value.c_str() || *end != '\0' || ms == 0) {
        if (error != nullptr) {
          *error = "deadline=<ms> requires a positive integer millisecond "
                   "budget";
        }
        return false;
      }
      *deadline_seconds = static_cast<double>(ms) / 1000.0;
      saw_deadline = true;
      tokens->pop_back();
      continue;
    }
    break;
  }
  return true;
}

std::vector<std::pair<int, int>> GroupedColumns(
    const schema::NodeIdCodec& codec, schema::NodeId node) {
  const std::vector<int> levels = codec.Decode(node);
  std::vector<std::pair<int, int>> columns;
  for (int d = 0; d < codec.num_dims(); ++d) {
    if (levels[d] != codec.all_level(d)) columns.emplace_back(d, levels[d]);
  }
  return columns;
}

void AppendRowText(const std::vector<std::pair<int, int>>& columns,
                   const uint32_t* dims, size_t num_dims,
                   const int64_t* aggrs, size_t num_aggrs,
                   const ValueDecoder& decoder, std::string* out) {
  // Every field is at most 20 digits plus a sign; format into a stack
  // buffer and append once per field.
  char buf[24];
  for (size_t i = 0; i < num_dims; ++i) {
    if (i > 0) out->push_back('\t');
    if (decoder != nullptr && i < columns.size()) {
      out->append(decoder(columns[i].first, columns[i].second, dims[i]));
    } else {
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), dims[i]).ptr);
    }
  }
  for (size_t y = 0; y < num_aggrs; ++y) {
    if (num_dims + y > 0) out->push_back('\t');
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), aggrs[y]).ptr);
  }
  out->push_back('\n');
}

void AppendRowsText(const std::vector<std::pair<int, int>>& columns,
                    const std::vector<query::ResultSink::Row>& rows,
                    const ValueDecoder& decoder, std::string* out) {
  if (!rows.empty()) {
    const size_t fields = rows[0].dims.size() + rows[0].aggrs.size();
    out->reserve(out->size() + rows.size() * 8 * fields);
  }
  for (const query::ResultSink::Row& row : rows) {
    AppendRowText(columns, row.dims.data(), row.dims.size(), row.aggrs.data(),
                  row.aggrs.size(), decoder, out);
  }
}

Result<schema::NodeId> ParseNodeSpec(const schema::CubeSchema& schema,
                                     const schema::NodeIdCodec& codec,
                                     const std::string& text) {
  std::vector<int> levels(schema.num_dims());
  for (int d = 0; d < schema.num_dims(); ++d) levels[d] = codec.all_level(d);
  if (text != "ALL" && text != "all") {
    size_t start = 0;
    while (start <= text.size()) {
      size_t end = text.find(',', start);
      if (end == std::string::npos) end = text.size();
      const std::string level_name = text.substr(start, end - start);
      start = end + 1;
      if (!level_name.empty()) {
        CURE_ASSIGN_OR_RETURN(auto found, FindLevel(schema, "", level_name));
        levels[found.first] = found.second;
      }
      if (start > text.size()) break;
    }
  }
  return codec.Encode(levels);
}

std::string FormatNodeSpec(const schema::CubeSchema& schema,
                           const schema::NodeIdCodec& codec,
                           schema::NodeId node) {
  const std::vector<int> levels = codec.Decode(node);
  std::string out;
  for (int d = 0; d < schema.num_dims(); ++d) {
    if (levels[d] == codec.all_level(d)) continue;
    if (!out.empty()) out += ',';
    out += schema.dim(d).level(levels[d]).name;
  }
  return out.empty() ? "ALL" : out;
}

Result<query::CureQueryEngine::Slice> ParseSliceSpec(
    const schema::CubeSchema& schema, const std::string& spec,
    const SliceValueResolver& resolver) {
  std::string value;
  CURE_ASSIGN_OR_RETURN(auto found, SliceLevel(schema, spec, &value));
  query::CureQueryEngine::Slice slice;
  slice.dim = found.first;
  slice.level = found.second;
  if (resolver != nullptr) {
    CURE_ASSIGN_OR_RETURN(slice.code, resolver(slice.dim, slice.level, value));
    return slice;
  }
  char* end = nullptr;
  const unsigned long long code = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("slice value '" + value +
                                   "' is not a numeric code (no dictionary)");
  }
  const uint32_t cardinality = schema.dim(slice.dim).cardinality(slice.level);
  if (code >= cardinality) {
    return Status::OutOfRange("slice code " + value + " out of range for '" +
                              schema.dim(slice.dim).level(slice.level).name +
                              "' (cardinality " +
                              std::to_string(cardinality) + ")");
  }
  slice.code = static_cast<uint32_t>(code);
  return slice;
}

bool IsQueryVerb(const std::string& upper_verb) {
  return upper_verb == "QUERY" || upper_verb == "ICEBERG" ||
         upper_verb == "SLICE" || upper_verb == "ROLLUP" ||
         upper_verb == "DRILL" || upper_verb == "TOPK" || upper_verb == "BATCH";
}

Result<Request> ParseRequest(const schema::CubeSchema& schema,
                             const schema::NodeIdCodec& codec,
                             std::vector<std::string> tokens) {
  Request request;
  if (tokens.empty()) return Status::InvalidArgument("empty command");
  request.verb = ToUpper(tokens[0]);
  const std::string& cmd = request.verb;
  if (!IsQueryVerb(cmd)) {
    return Status::InvalidArgument("'" + tokens[0] + "' is not a query verb");
  }
  std::string token_error;
  if (!TakeRequestTokens(&tokens, &request.trace_id, &request.deadline_seconds,
                         &token_error, &request.profile, &request.codes)) {
    return Status::InvalidArgument(token_error);
  }
  if (tokens.size() < 2) {
    return Status::InvalidArgument(cmd + " requires a node spec, e.g. " + cmd +
                                   " city,category");
  }
  if (cmd == "BATCH") {
    for (size_t i = 1; i < tokens.size(); ++i) {
      CURE_ASSIGN_OR_RETURN(const schema::NodeId node,
                            ParseNodeSpec(schema, codec, tokens[i]));
      request.batch.push_back(node);
    }
    return request;
  }
  CURE_ASSIGN_OR_RETURN(request.node, ParseNodeSpec(schema, codec, tokens[1]));

  size_t arg = 2;
  if (cmd == "ICEBERG") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("usage: ICEBERG <node> <minsup>");
    }
    if (!ParseInt64(tokens[2], &request.min_count) || request.min_count < 1) {
      return Status::InvalidArgument("minsup '" + tokens[2] +
                                     "' is not a positive integer");
    }
    arg = 3;
  } else if (cmd == "ROLLUP" || cmd == "DRILL") {
    if (tokens.size() < 3) {
      return Status::InvalidArgument(
          "usage: " + cmd + " <node> <dim> [<level=value>...] [MINSUP <n>]");
    }
    int dim = -1;
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (schema.dim(d).name() == tokens[2]) dim = d;
    }
    if (dim < 0) {
      return Status::NotFound("no dimension named '" + tokens[2] + "'");
    }
    const schema::Lattice lattice(&schema);
    CURE_ASSIGN_OR_RETURN(request.node,
                          cmd == "ROLLUP"
                              ? lattice.RollUpDim(request.node, dim)
                              : lattice.DrillDownDim(request.node, dim));
    request.node_echo = " node=" + FormatNodeSpec(schema, codec, request.node);
    arg = 3;
  } else if (cmd == "TOPK") {
    if (tokens.size() < 3 || !ParseInt64(tokens[2], &request.top_k) ||
        request.top_k < 1) {
      return Status::InvalidArgument(
          "usage: TOPK <node> <k> [<level=value>...] with a positive k");
    }
    arg = 3;
  }
  if (cmd != "QUERY" && cmd != "ICEBERG") {
    if (cmd == "SLICE" && tokens.size() < 3) {
      return Status::InvalidArgument(
          "usage: SLICE <node> <level=value>... [MINSUP <n>]");
    }
    for (; arg < tokens.size(); ++arg) {
      if (ToUpper(tokens[arg]) == "MINSUP") {
        if (cmd == "TOPK") {
          return Status::InvalidArgument("TOPK does not take MINSUP");
        }
        if (arg + 2 != tokens.size() ||
            !ParseInt64(tokens[arg + 1], &request.min_count) ||
            request.min_count < 1) {
          return Status::InvalidArgument(
              "MINSUP must be followed by a single positive integer at the "
              "end of the command");
        }
        arg = tokens.size();
        break;
      }
      std::string value;
      CURE_RETURN_IF_ERROR(SliceLevel(schema, tokens[arg], &value).status());
      request.slices.push_back(tokens[arg]);
    }
    if (cmd == "SLICE" && request.slices.empty()) {
      return Status::InvalidArgument(
          "SLICE requires at least one level=value predicate");
    }
  }
  if (arg != tokens.size()) {
    return Status::InvalidArgument("unexpected argument '" + tokens[arg] + "'");
  }
  return request;
}

}  // namespace serve
}  // namespace cure
