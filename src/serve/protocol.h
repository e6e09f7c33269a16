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

/// ASCII upper-case copy: verbs and keywords are case-insensitive.
std::string ToUpper(std::string s);

/// Parses a whole token as a signed decimal; false on empty input or any
/// trailing character.
bool ParseInt64(const std::string& text, int64_t* out);

/// The error response of both tiers: "ERR <CodeName> <message>\n.\n".
std::string ErrResponse(const Status& status);
std::string ErrResponse(StatusCode code, const std::string& message);

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

/// One parsed query-verb line. Every verb is the paper's one query shape,
/// a CURE node query (a lattice node, optional slices, optional iceberg
/// threshold; Sec. 6), plus a navigation step before it (ROLLUP/DRILL) or
/// a selection step after it (TOPK), or several whole-node queries at once
/// (BATCH).
struct Request {
  std::string verb;  ///< upper-cased: QUERY, ICEBERG, SLICE, ROLLUP, ...
  /// The node to query; for ROLLUP/DRILL the node the step landed on.
  schema::NodeId node = 0;
  /// " node=<spec>" header token announcing a navigation verb's landed
  /// node; empty for every other verb.
  std::string node_echo;
  /// Slice predicates as their `[dim:]level=value` text. The level is
  /// checked here; the value is resolved only by the tier that owns a
  /// dictionary (ParseSliceSpec), a router forwards the text.
  std::vector<std::string> slices;
  int64_t min_count = 0;  ///< iceberg threshold (ICEBERG, MINSUP); 0 = none
  int64_t top_k = 0;      ///< TOPK's k; 0 = no selection
  std::vector<schema::NodeId> batch;  ///< BATCH members, input order
  /// Control tokens, as TakeRequestTokens peels them.
  uint64_t trace_id = 0;
  double deadline_seconds = 0;
  bool profile = false;
  bool codes = false;
};

/// True for the verbs ParseRequest accepts.
bool IsQueryVerb(const std::string& upper_verb);

/// Parses a query-verb line, split into tokens — the one request grammar
/// of cure_serve and cure_router:
///
///   QUERY <node>                      e.g. QUERY city,category  |  QUERY ALL
///   ICEBERG <node> <minsup>           count-iceberg query
///   SLICE <node> <level=value>... [MINSUP <n>]   sliced (optionally iceberg)
///   ROLLUP <node> <dim> [<level=value>...] [MINSUP <n>]
///                                     one roll-up step along <dim> (to the
///                                     next coarser level, or ALL from the
///                                     top), resolved here on the lattice;
///                                     the landed node is queried and echoed
///                                     as a trailing `node=<spec>` header
///                                     token
///   DRILL <node> <dim> [<level=value>...] [MINSUP <n>]
///                                     the inverse step (one level finer;
///                                     from ALL the dimension enters at its
///                                     coarsest level)
///   TOPK <node> <k> [<level=value>...]
///                                     the k groups with the largest COUNT
///                                     (deterministic ties: ascending dim
///                                     codes), selected from the full
///                                     result, so the selection is the same
///                                     whichever path produced the rows
///   BATCH <node> [<node>...]          several whole-node queries in one
///                                     round trip; the response carries one
///                                     "= <spec> <count> <checksum-hex>
///                                     <token>" section per node, in input
///                                     order, each followed by exactly
///                                     <count> rows
///
/// A slice is `level=value` or `dim:level=value` (the explicit form
/// disambiguates level names reused across dimensions). Every verb takes
/// the optional trailing control tokens of TakeRequestTokens: `trace=<id>`
/// (adopted for the trace spans and echoed in the header, so a router's
/// fan-out shares one trace id), `deadline=<ms>` (the client's remaining
/// budget), `profile=1` (stage profile lines after the rows) and `codes=1`
/// (raw dimension codes instead of dictionary-decoded values).
///
/// Errors are what the client receives, on either tier: kInvalidArgument
/// for a malformed line, kNotFound for an unknown level or dimension, and
/// the lattice's error for a step off its edge.
Result<Request> ParseRequest(const schema::CubeSchema& schema,
                             const schema::NodeIdCodec& codec,
                             std::vector<std::string> tokens);

}  // namespace serve
}  // namespace cure

#endif  // CURE_SERVE_PROTOCOL_H_
