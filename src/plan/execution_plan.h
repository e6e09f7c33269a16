#ifndef CURE_PLAN_EXECUTION_PLAN_H_
#define CURE_PLAN_EXECUTION_PLAN_H_

#include <vector>

#include "common/status.h"
#include "schema/cube_schema.h"
#include "schema/node_id.h"

namespace cure {
namespace plan {

/// The BUC-style execution plan over the hierarchical lattice (Sec. 3.1).
///
/// kTall is the paper's P3 (Fig. 4): solid edges introduce each dimension at
/// its plan-root (top) levels, dashed edges refine the rightmost dimension
/// step by step, pushing expensive sorts to the bottom where they are shared.
/// kShort is the paper's P2 (Fig. 3): every level of a dimension is
/// introduced directly via solid edges, so each refinement re-sorts from
/// scratch; implemented for the plan ablation benchmark.
///
/// The plan is a rule, never a stored tree: a walk derives each node's
/// children from Rule 1 and (modified) Rule 2 as it reaches the node, so
/// lattices far beyond what fits in memory node-per-node are walked in
/// O(D) state.
enum class Style { kTall, kShort };

/// The state of one depth-first walk of the execution plan — the paper's
/// ExecutePlan/FollowEdge recursion (Fig. 13): the level of every dimension
/// (its ALL level when the dimension is not grouped), the lattice node
/// those levels name, and the lowest level each dimension may be entered
/// at. Construction, delta maintenance and the plan tests all walk the
/// plan through ForEachChild, so they visit the same nodes in the same
/// order.
class Cursor {
 public:
  /// A cursor at the ALL node with no level bounds.
  Cursor(const schema::CubeSchema& schema, Style style);

  /// Moves back to the ALL node. Dimension d is never entered below
  /// `base_levels[d]`; its ALL level leaves d out of the walk altogether.
  /// The external path (Sec. 4) walks node N this way: dimension 0 bounded
  /// above the partition level, or left out when N projected it away.
  /// Empty means no bounds.
  void Reset(const std::vector<int>& base_levels = {});

  schema::NodeId node() const { return node_; }
  int level(int d) const { return levels_[d]; }
  bool included(int d) const { return levels_[d] != codec_.all_level(d); }
  int base_level(int d) const { return base_levels_[d]; }

  /// Moves dimension d to `level`; its ALL level ungroups d.
  void Set(int d, int level) {
    const schema::NodeId factor = codec_.factor(d);
    node_ = node_ - factor * static_cast<schema::NodeId>(levels_[d]) +
            factor * static_cast<schema::NodeId>(level);
    levels_[d] = level;
  }

  /// Calls `visit(d)` once per plan child of the current node, in plan
  /// order, with the cursor moved onto the child: `d` is the dimension the
  /// edge set, so the child's own next dimension is d + 1. `next_dim` is
  /// the current node's next dimension (0 at the root): Rule 1's solid
  /// edges introduce dimensions >= next_dim, Rule 2's dashed edges refine
  /// next_dim - 1. Stops at the first non-OK status of `visit` and returns
  /// it; the cursor is back on the current node either way.
  template <typename Visit>
  Status ForEachChild(int next_dim, Visit&& visit);

 private:
  const schema::CubeSchema* schema_;
  Style style_;
  schema::NodeIdCodec codec_;
  std::vector<int> levels_;
  std::vector<int> base_levels_;
  schema::NodeId node_ = 0;
};

/// Node ids on the tall plan's path ALL -> id, inclusive, in O(D + path
/// length): walking up, Rule 2 is reversed while the rightmost grouping
/// dimension sits below a plan root and Rule 1 (that dimension back to ALL)
/// once it sits at one. Query answering collects TT relations along this
/// path (the paper's sub-tree sharing of TTs).
std::vector<schema::NodeId> PathFromRoot(const schema::CubeSchema& schema,
                                         const schema::NodeIdCodec& codec,
                                         schema::NodeId id);

template <typename Visit>
Status Cursor::ForEachChild(int next_dim, Visit&& visit) {
  const int num_dims = schema_->num_dims();
  // Rule 1 (solid edges): every dimension >= next_dim enters at each of its
  // plan-root (top) levels; P2 enters it at every level instead.
  for (int d = next_dim; d < num_dims; ++d) {
    const schema::Dimension& dim = schema_->dim(d);
    const int all = dim.all_level();
    if (style_ == Style::kTall) {
      for (int root : dim.plan_roots()) {
        if (root < base_levels_[d]) continue;
        Set(d, root);
        Status status = visit(d);
        Set(d, all);
        CURE_RETURN_IF_ERROR(status);
      }
    } else {
      for (int level = base_levels_[d]; level < all; ++level) {
        Set(d, level);
        Status status = visit(d);
        Set(d, all);
        CURE_RETURN_IF_ERROR(status);
      }
    }
  }
  // Rule 2 (dashed edges, P3 only): the rightmost grouping dimension steps
  // down to each of its plan children (modified Rule 2 is already folded
  // into Dimension::plan_children()).
  const int d = next_dim - 1;
  if (style_ != Style::kTall || d < 0 || !included(d)) return Status::OK();
  const int current = levels_[d];
  for (int child : schema_->dim(d).plan_children(current)) {
    if (child < base_levels_[d]) continue;
    Set(d, child);
    Status status = visit(d);
    Set(d, current);
    CURE_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

}  // namespace plan
}  // namespace cure

#endif  // CURE_PLAN_EXECUTION_PLAN_H_
