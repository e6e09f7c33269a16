#ifndef CURE_SERVE_PROTOCOL_H_
#define CURE_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/node_query.h"
#include "schema/cube_schema.h"
#include "schema/node_id.h"

namespace cure {
namespace serve {

/// Splits `text` on whitespace (any run of spaces/tabs).
std::vector<std::string> SplitTokens(const std::string& text);

/// Strips the optional trailing request-control tokens `trace=<id>`,
/// `deadline=<ms>`, `profile=1` and `codes=1` (in any order) from a query
/// command's token list. A well-formed trace id is adopted so a router's
/// fan-out shares one trace end-to-end; a deadline is the client's
/// remaining budget in milliseconds; `profile=1` asks the server to attach
/// a per-request stage profile to the reply; `codes=1` asks for raw
/// dimension codes instead of dictionary-decoded values (what a router
/// scatters, so it can merge without re-encoding). Returns false with
/// *error set on a malformed token; untouched outputs keep their
/// caller-supplied defaults.
bool TakeRequestTokens(std::vector<std::string>* tokens, uint64_t* trace_id,
                       double* deadline_seconds, std::string* error,
                       bool* profile = nullptr, bool* codes = nullptr);

/// Decodes a dimension code for row output (e.g. dictionary lookup); codes
/// print numerically when absent.
using ValueDecoder =
    std::function<std::string(int dim, int level, uint32_t code)>;

/// The grouped (dim, level) columns of a node, in dimension order — the
/// shape of its result rows.
std::vector<std::pair<int, int>> GroupedColumns(
    const schema::NodeIdCodec& codec, schema::NodeId node);

/// Appends one result row as a protocol body line: the dims (decoded
/// through `decoder` when set, else decimal codes), then the aggregates in
/// decimal, tab-separated, newline-terminated.
void AppendRowText(const std::vector<std::pair<int, int>>& columns,
                   const uint32_t* dims, size_t num_dims,
                   const int64_t* aggrs, size_t num_aggrs,
                   const ValueDecoder& decoder, std::string* out);

/// AppendRowText over every row — the one row text encoder both the server
/// and the router reply with.
void AppendRowsText(const std::vector<std::pair<int, int>>& columns,
                    const std::vector<query::ResultSink::Row>& rows,
                    const ValueDecoder& decoder, std::string* out);

/// Parses a node spec — comma-separated hierarchy level names, or "ALL" —
/// into a node id, e.g. "city,category". Absent dimensions stay at ALL.
/// This is the <node> operand of the QUERY/ICEBERG/SLICE commands and of
/// `cure_tool query`.
Result<schema::NodeId> ParseNodeSpec(const schema::CubeSchema& schema,
                                     const schema::NodeIdCodec& codec,
                                     const std::string& text);

/// Inverse of ParseNodeSpec: renders a node id as its comma-separated level
/// names ("ALL" for the apex). Round-trips through ParseNodeSpec. Used by
/// the ROLLUP/DRILL response header (`node=<spec>`) and the BATCH section
/// headers.
std::string FormatNodeSpec(const schema::CubeSchema& schema,
                           const schema::NodeIdCodec& codec,
                           schema::NodeId node);

/// Resolves a slice value string to a dimension code at (dim, level) —
/// typically a dictionary lookup when the cube has string dimensions.
using SliceValueResolver =
    std::function<Result<uint32_t>(int dim, int level, const std::string& value)>;

/// Parses one slice spec of the form `level=value` or `dim:level=value`
/// (the explicit form disambiguates level names reused across dimensions).
/// `value` goes through `resolver` when provided, else it must be a numeric
/// code.
Result<query::CureQueryEngine::Slice> ParseSliceSpec(
    const schema::CubeSchema& schema, const std::string& spec,
    const SliceValueResolver& resolver = nullptr);

}  // namespace serve
}  // namespace cure

#endif  // CURE_SERVE_PROTOCOL_H_
