#ifndef CURE_SCHEMA_NODE_ID_H_
#define CURE_SCHEMA_NODE_ID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/cube_schema.h"

namespace cure {
namespace schema {

/// Unique identifier of a cube-lattice node (Sec. 3.3 of the paper).
using NodeId = uint64_t;

/// Mixed-radix codec implementing formulas (1) and (2) of the paper.
///
/// For a D-dimensional schema where dimension i has L_i levels *including
/// the implicit ALL level*, the factor F_1 = 1 and F_i = F_{i-1} * L_{i-1};
/// a node whose i-th dimension sits at level l_i (with l_i = L_i - 1 meaning
/// ALL) has id  Σ F_i * l_i . Decoding uses div/mod, exactly as in the
/// paper's example (id 21 -> node A1 for the A0→A1→A2, B0→B1, C0 hierarchy).
class NodeIdCodec {
 public:
  explicit NodeIdCodec(const CubeSchema& schema);
  NodeIdCodec() = default;

  int num_dims() const { return static_cast<int>(radix_.size()); }

  /// Total number of lattice nodes, Π (L_i + 1) in paper notation
  /// (their L_i excludes ALL).
  NodeId num_nodes() const { return num_nodes_; }

  /// Encodes per-dimension levels; levels[d] == all_level(d) means the
  /// dimension is absent (at ALL).
  NodeId Encode(const std::vector<int>& levels) const;

  /// Decodes a node id into per-dimension levels.
  std::vector<int> Decode(NodeId id) const;
  void DecodeInto(NodeId id, std::vector<int>* levels) const;

  /// Level count of dimension d including ALL (the codec's radix).
  int radix(int d) const { return radix_[d]; }

  /// The ALL level index for dimension d (= radix - 1).
  int all_level(int d) const { return radix_[d] - 1; }

  /// Dimension d's factor F_d: moving d one level changes the id by F_d.
  NodeId factor(int d) const { return factor_[d]; }

  /// Human-readable node name like "A1B0" or "ALL" (paper's ∅).
  std::string Name(NodeId id, const CubeSchema& schema) const;

 private:
  std::vector<int> radix_;     // L_i including ALL
  std::vector<NodeId> factor_; // F_i
  NodeId num_nodes_ = 0;
};

}  // namespace schema
}  // namespace cure

#endif  // CURE_SCHEMA_NODE_ID_H_
