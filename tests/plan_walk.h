#ifndef CURE_TESTS_PLAN_WALK_H_
#define CURE_TESTS_PLAN_WALK_H_

// Test helper: walks plan::Cursor from the ALL node the way construction
// does and records the tree it traces, so plan tests can assert coverage,
// heights and edge rules although the library never stores a plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "plan/execution_plan.h"

namespace cure {
namespace plan {

/// How a node is entered from its plan parent: a solid edge (Rule 1, or
/// P2) adds a dimension, a dashed edge (Rule 2) refines the rightmost one.
enum class EdgeType { kSolid, kDashed };

struct WalkedNode {
  int visits = 0;
  schema::NodeId parent = 0;
  EdgeType edge = EdgeType::kSolid;
  int depth = 0;
};

struct WalkedPlan {
  schema::NodeIdCodec codec;
  schema::NodeId root = 0;
  std::vector<WalkedNode> nodes;       // indexed by NodeId
  std::vector<schema::NodeId> order;   // depth-first visit order
  int height = 0;
};

inline Status WalkFrom(Cursor* cursor, int next_dim, int depth,
                       WalkedPlan* out) {
  const schema::NodeId parent = cursor->node();
  const std::vector<int> parent_levels = out->codec.Decode(parent);
  return cursor->ForEachChild(next_dim, [&](int d) {
    WalkedNode& node = out->nodes[cursor->node()];
    ++node.visits;
    node.parent = parent;
    node.edge = parent_levels[d] == out->codec.all_level(d)
                    ? EdgeType::kSolid
                    : EdgeType::kDashed;
    node.depth = depth + 1;
    out->order.push_back(cursor->node());
    out->height = std::max(out->height, depth + 1);
    return WalkFrom(cursor, d + 1, depth + 1, out);
  });
}

inline WalkedPlan WalkPlan(const schema::CubeSchema& schema, Style style) {
  WalkedPlan out;
  out.codec = schema::NodeIdCodec(schema);
  out.nodes.resize(out.codec.num_nodes());
  Cursor cursor(schema, style);
  out.root = cursor.node();
  out.nodes[out.root].visits = 1;
  out.order.push_back(out.root);
  EXPECT_TRUE(WalkFrom(&cursor, 0, 0, &out).ok());
  EXPECT_EQ(cursor.node(), out.root);
  return out;
}

/// Every lattice node reached exactly once, and every edge obeys Rule 1 /
/// (modified) Rule 2 — or P2's every-level solid edges.
inline testing::AssertionResult ValidateWalk(const schema::CubeSchema& schema,
                                             Style style,
                                             const WalkedPlan& plan) {
  const schema::NodeIdCodec& codec = plan.codec;
  for (schema::NodeId id = 0; id < codec.num_nodes(); ++id) {
    const WalkedNode& node = plan.nodes[id];
    if (node.visits != 1) {
      return testing::AssertionFailure()
             << codec.Name(id, schema) << " visited " << node.visits
             << " times";
    }
    if (id == plan.root) continue;
    const std::vector<int> child = codec.Decode(id);
    const std::vector<int> parent = codec.Decode(node.parent);
    int differing = -1;
    for (int d = 0; d < codec.num_dims(); ++d) {
      if (child[d] == parent[d]) continue;
      if (differing >= 0) {
        return testing::AssertionFailure() << "edge changes two dimensions";
      }
      differing = d;
    }
    if (differing < 0) return testing::AssertionFailure() << "self edge";
    const schema::Dimension& dim = schema.dim(differing);
    if (node.edge == EdgeType::kSolid) {
      if (parent[differing] != codec.all_level(differing)) {
        return testing::AssertionFailure() << "solid edge from non-ALL level";
      }
      const std::vector<int>& roots = dim.plan_roots();
      if (style == Style::kTall &&
          std::find(roots.begin(), roots.end(), child[differing]) ==
              roots.end()) {
        return testing::AssertionFailure() << "solid edge to non-root level";
      }
    } else if (dim.plan_parent(child[differing]) != parent[differing]) {
      return testing::AssertionFailure()
             << "dashed edge not matching plan_parent";
    }
    // Either edge kind adds or refines the rightmost grouping dimension.
    for (int d = differing + 1; d < codec.num_dims(); ++d) {
      if (parent[d] != codec.all_level(d)) {
        return testing::AssertionFailure()
               << "edge not on the rightmost dimension";
      }
    }
  }
  return testing::AssertionSuccess();
}

}  // namespace plan
}  // namespace cure

#endif  // CURE_TESTS_PLAN_WALK_H_
