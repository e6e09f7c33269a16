#include "plan/execution_plan.h"

#include <algorithm>

#include "common/logging.h"

namespace cure {
namespace plan {

using schema::CubeSchema;
using schema::NodeId;
using schema::NodeIdCodec;

Cursor::Cursor(const CubeSchema& schema, Style style)
    : schema_(&schema), style_(style), codec_(schema) {
  Reset();
}

void Cursor::Reset(const std::vector<int>& base_levels) {
  const int num_dims = schema_->num_dims();
  levels_.resize(num_dims);
  for (int d = 0; d < num_dims; ++d) levels_[d] = codec_.all_level(d);
  node_ = codec_.Encode(levels_);
  if (base_levels.empty()) {
    base_levels_.assign(num_dims, 0);
  } else {
    CURE_CHECK_EQ(base_levels.size(), levels_.size());
    base_levels_ = base_levels;
  }
}

std::vector<NodeId> PathFromRoot(const CubeSchema& schema,
                                 const NodeIdCodec& codec, NodeId id) {
  const std::vector<int> levels = codec.Decode(id);
  std::vector<NodeId> path = {id};
  for (int d = codec.num_dims() - 1; d >= 0; --d) {
    const NodeId factor = codec.factor(d);
    for (int level = levels[d]; level != codec.all_level(d);) {
      const int up = schema.dim(d).plan_parent(level);
      const int next = up < 0 ? codec.all_level(d) : up;
      id = id - factor * static_cast<NodeId>(level) +
           factor * static_cast<NodeId>(next);
      level = next;
      path.push_back(id);
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace plan
}  // namespace cure
