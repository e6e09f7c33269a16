#include "algebra/rollup.h"

#include <algorithm>

namespace cure {
namespace algebra {

std::vector<query::ResultSink::Row> SelectTopK(
    std::vector<query::ResultSink::Row> rows, size_t k, int order_aggregate) {
  const auto less = [order_aggregate](const query::ResultSink::Row& a,
                                      const query::ResultSink::Row& b) {
    const size_t y = static_cast<size_t>(order_aggregate);
    const int64_t av = y < a.aggrs.size() ? a.aggrs[y] : 0;
    const int64_t bv = y < b.aggrs.size() ? b.aggrs[y] : 0;
    if (av != bv) return av > bv;
    if (a.dims != b.dims) return a.dims < b.dims;
    return a.aggrs < b.aggrs;
  };
  if (rows.size() > k) {
    std::partial_sort(rows.begin(), rows.begin() + static_cast<long>(k),
                      rows.end(), less);
    rows.resize(k);
  } else {
    std::sort(rows.begin(), rows.end(), less);
  }
  return rows;
}

}  // namespace algebra
}  // namespace cure
