#ifndef CURE_ALGEBRA_QUERY_DESC_H_
#define CURE_ALGEBRA_QUERY_DESC_H_

#include <cstdint>
#include <vector>

#include "query/node_query.h"
#include "schema/cube_schema.h"
#include "schema/lattice.h"
#include "schema/node_id.h"

namespace cure {
namespace algebra {

/// Canonical description of one cube query: the queried lattice node, the
/// slice predicates in canonical (sorted) order, and the iceberg threshold.
/// This is the epoch-free core of the serving layer's cache key and the
/// operand of the containment algebra below (Vassiliadis-style containment
/// between cube queries over CURE's hierarchical lattice).
struct QueryDesc {
  schema::NodeId node = 0;
  std::vector<query::CureQueryEngine::Slice> slices;  // sorted (dim, level, code)
  int count_aggregate = -1;  ///< -1 when not an iceberg query
  int64_t min_count = 0;     ///< 0 when not an iceberg query

  /// Sorts the slices and collapses every spelling of "no threshold" onto
  /// min_count = 0 / count_aggregate = -1, so logically equal queries
  /// compare equal.
  void Canonicalize();

  bool operator==(const QueryDesc& other) const;
  uint64_t Hash() const;
};

/// Outcome of the containment test between a cached result and a request.
enum class Containment {
  /// The request cannot be derived from the cached result.
  kNo,
  /// Canonically identical descriptors — an exact-key cache hit.
  kIdentical,
  /// The request is strictly contained: its rows derive from the cached
  /// relation by projecting dim codes through the hierarchy level maps,
  /// filtering by the request's slices, re-combining with the distributive
  /// aggregates, and applying the request's iceberg threshold post-rollup
  /// (see query::RollUp).
  kDerivable,
};

/// Decides whether query `request` is answerable from the materialized rows
/// of query `cached` over the same cube snapshot. The rules (terminology
/// follows the paper: an *ancestor* node is MORE detailed — DESIGN.md §15):
///
///  1. Node: cached.node must be an ancestor of (or equal to) request.node —
///     every grouping level of the request must be derivable from the
///     cached node's level on that dimension.
///  2. Slices: the cached slice predicate must contain the request's, i.e.
///     every cached slice must be implied by some request slice on the same
///     dimension (equal, or a finer request slice whose code rolls up to
///     the cached slice's code). The request's own slices are re-applied
///     during derivation, which is sound because the cached node is at
///     least as detailed as every request slice level.
///  3. Iceberg: an untruncated cached result (min_count <= 1) answers any
///     threshold (applied post-rollup). A truncated cached result is only
///     reusable at the SAME node with the same count aggregate and
///     request.min_count >= cached.min_count — counts add across merged
///     groups, so groups truncated out of a finer relation could push a
///     coarser group over the request's threshold, making any strict
///     roll-up from a truncated relation unsound.
Containment Classify(const schema::CubeSchema& schema,
                     const schema::Lattice& lattice, const QueryDesc& cached,
                     const QueryDesc& request);

}  // namespace algebra
}  // namespace cure

#endif  // CURE_ALGEBRA_QUERY_DESC_H_
