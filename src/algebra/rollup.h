#ifndef CURE_ALGEBRA_ROLLUP_H_
#define CURE_ALGEBRA_ROLLUP_H_

#include <cstddef>
#include <vector>

#include "query/node_query.h"

namespace cure {
namespace algebra {

/// Deterministic top-k selection over result rows: the k rows with the
/// largest `order_aggregate` value, ties broken by ascending dim codes (so
/// the selection — and with it the TOPK verb's response — is identical no
/// matter which path produced the rows). Returns rows sorted by
/// (aggregate desc, dims asc).
std::vector<query::ResultSink::Row> SelectTopK(
    std::vector<query::ResultSink::Row> rows, size_t k, int order_aggregate);

}  // namespace algebra
}  // namespace cure

#endif  // CURE_ALGEBRA_ROLLUP_H_
