#ifndef CURE_ROUTER_MERGE_H_
#define CURE_ROUTER_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/fold.h"

namespace cure {
namespace router {

/// The router's gather folds per-shard partial relations with
/// query::GroupFold (query/fold.h). The benchmark's scatter workload
/// (perfbench/src/scatter_3shard.cc) names the fold by its former router
/// name, so that name stays.
using PartialMerger = query::GroupFold;

/// Reads the body line starting at `*pos` of a backend reply and advances
/// past it. A trailing '\r' is stripped and "% " profile lines are skipped,
/// exactly as ParseBackendReply treats them. False at the end of `text`.
bool NextReplyLine(std::string_view text, size_t* pos, std::string_view* line);

/// Parses up to `max_rows` body rows (all that remain for UINT64_MAX) of a
/// backend reply straight out of its text, starting at `*pos`, and folds
/// them into `merger`: each row is merger->num_dims() decimal dim codes then
/// num_aggregates() decimal aggregates, tab-separated. No per-row or
/// per-field strings are built. Returns the number of rows merged; a row of
/// the wrong width, a non-numeric field or a code above UINT32_MAX is
/// kInternal naming `shard`.
Result<uint64_t> MergeShardRows(int shard, std::string_view text, size_t* pos,
                                uint64_t max_rows, query::GroupFold* merger);

/// Merges the body of one shard's reply, starting at `pos`: a node query's
/// rows into mergers[0], or, when `sections` is non-null (a BATCH reply),
/// one framed section per requested node, in order. Section i must carry
/// the spec (*sections)[i] and exactly its announced row count, and every
/// requested section must be present. A malformed header, an unexpected
/// spec, a short section or a missing section is kInternal naming `shard`.
Status MergeShardReply(int shard, std::string_view text, size_t pos,
                       const std::vector<std::string>* sections,
                       std::vector<query::GroupFold>* mergers);

}  // namespace router
}  // namespace cure

#endif  // CURE_ROUTER_MERGE_H_
