#include "router/merge.h"

#include <algorithm>
#include <charconv>
#include <string>

namespace cure {
namespace router {

bool NextReplyLine(std::string_view text, size_t* pos, std::string_view* line) {
  while (*pos < text.size()) {
    size_t end = text.find('\n', *pos);
    if (end == std::string_view::npos) end = text.size();
    *line = text.substr(*pos, end - *pos);
    *pos = end < text.size() ? end + 1 : end;
    if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
    if (line->substr(0, 2) != "% ") return true;
  }
  return false;
}

Result<uint64_t> MergeShardRows(int shard, std::string_view text, size_t* pos,
                                uint64_t max_rows, query::GroupFold* merger) {
  const size_t num_dims = static_cast<size_t>(std::max(merger->num_dims(), 0));
  const size_t num_aggrs = static_cast<size_t>(merger->num_aggregates());
  const size_t width = num_dims + num_aggrs;
  std::vector<uint32_t> dims(num_dims);
  std::vector<int64_t> aggrs(num_aggrs);
  uint64_t rows = 0;
  std::string_view line;
  while (rows < max_rows && NextReplyLine(text, pos, &line)) {
    const size_t fields =
        1 + static_cast<size_t>(std::count(line.begin(), line.end(), '\t'));
    if (fields != width) {
      return Status::Internal("shard " + std::to_string(shard) +
                              " returned a row with " + std::to_string(fields) +
                              " fields, expected " + std::to_string(width));
    }
    const char* p = line.data();
    const char* const end = p + line.size();
    for (size_t i = 0; i < width; ++i) {
      const char* stop = std::find(p, end, '\t');
      const std::string_view field(p, static_cast<size_t>(stop - p));
      std::from_chars_result parsed;
      if (i < num_dims) {
        parsed = std::from_chars(p, stop, dims[i]);
        if (parsed.ec == std::errc::result_out_of_range) {
          return Status::Internal("shard " + std::to_string(shard) +
                                  " returned dim code '" + std::string(field) +
                                  "' above UINT32_MAX");
        }
        if (parsed.ec != std::errc() || parsed.ptr != stop || p == stop) {
          return Status::Internal("shard " + std::to_string(shard) +
                                  " returned a non-numeric dim code '" +
                                  std::string(field) + "'");
        }
      } else {
        parsed = std::from_chars(p, stop, aggrs[i - num_dims]);
        if (parsed.ec != std::errc() || parsed.ptr != stop || p == stop) {
          return Status::Internal("shard " + std::to_string(shard) +
                                  " returned a non-numeric aggregate '" +
                                  std::string(field) + "'");
        }
      }
      p = stop == end ? end : stop + 1;
    }
    merger->Add(dims.data(), aggrs.data());
    ++rows;
  }
  return rows;
}

namespace {

/// One BATCH section header line of a backend reply:
/// "= <spec> <count> <checksum-hex> <token>".
struct BatchSectionHeader {
  std::string_view spec;
  uint64_t count = 0;
};

/// Parses a BATCH section header in place; false unless the line is the
/// "=" marker then exactly a spec, a decimal count, a hex checksum and a
/// token.
bool ParseBatchSectionHeader(std::string_view line, BatchSectionHeader* out) {
  std::string_view fields[5];
  size_t n = 0;
  size_t pos = 0;
  while (pos < line.size()) {
    if (line[pos] == ' ') {
      ++pos;
      continue;
    }
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    if (n == 5) return false;
    fields[n++] = line.substr(pos, end - pos);
    pos = end;
  }
  if (n != 5 || fields[0] != "=") return false;
  const std::string_view count = fields[2];
  const std::string_view checksum = fields[3];
  uint64_t ignored = 0;
  const auto count_parsed =
      std::from_chars(count.data(), count.data() + count.size(), out->count);
  const auto checksum_parsed = std::from_chars(
      checksum.data(), checksum.data() + checksum.size(), ignored, 16);
  if (count_parsed.ec != std::errc() ||
      count_parsed.ptr != count.data() + count.size() ||
      checksum_parsed.ec != std::errc() ||
      checksum_parsed.ptr != checksum.data() + checksum.size()) {
    return false;
  }
  out->spec = fields[1];
  return true;
}

}  // namespace

Status MergeShardReply(int shard, std::string_view text, size_t pos,
                       const std::vector<std::string>* sections,
                       std::vector<query::GroupFold>* mergers) {
  if (sections == nullptr) {
    return MergeShardRows(shard, text, &pos, UINT64_MAX, &(*mergers)[0])
        .status();
  }
  // Sections arrive in input order, each framed by its header; the count
  // delimits its rows.
  const std::string name = "shard " + std::to_string(shard);
  size_t section = 0;
  std::string_view line;
  while (NextReplyLine(text, &pos, &line)) {
    BatchSectionHeader header;
    if (!ParseBatchSectionHeader(line, &header)) {
      return Status::Internal(name + " returned a malformed BATCH section "
                                     "header '" + std::string(line) + "'");
    }
    if (section >= sections->size() || header.spec != (*sections)[section]) {
      return Status::Internal(name + " returned unexpected BATCH section '" +
                              std::string(header.spec) + "'");
    }
    CURE_ASSIGN_OR_RETURN(const uint64_t merged,
                          MergeShardRows(shard, text, &pos, header.count,
                                         &(*mergers)[section]));
    if (merged != header.count) {
      return Status::Internal(name + " truncated BATCH section '" +
                              std::string(header.spec) + "'");
    }
    ++section;
  }
  if (section != sections->size()) {
    return Status::Internal(name + " returned " + std::to_string(section) +
                            " BATCH sections, expected " +
                            std::to_string(sections->size()));
  }
  return Status::OK();
}

}  // namespace router
}  // namespace cure
