#ifndef CURE_ENGINE_BUBST_H_
#define CURE_ENGINE_BUBST_H_

#include <cstring>
#include <memory>

#include "common/status.h"
#include "cube/record_layout.h"
#include "engine/cube_build.h"
#include "engine/sorters.h"
#include "schema/cube_schema.h"
#include "schema/fact_table.h"
#include "schema/node_id.h"
#include "storage/relation.h"
#include "storage/row_block.h"

namespace cure {
namespace engine {

/// Options for the BU-BST baseline [Wang et al., ICDE'02].
struct BubstOptions {
  uint64_t min_support = 1;
  SortPolicy sort_policy = SortPolicy::kAuto;
};

/// Monolithic record of the condensed cube: all D leaf/grouping codes (ALL
/// marker for absent dimensions of non-BST rows), Y aggregates at the
/// widths CURE's width rule picks for the same data, and a node-id tag
/// whose top bit flags a BST (base single tuple). Like CURE's row-ids, the
/// tag is 4 bytes (flag in bit 31) whenever the lattice's node ids fit 31
/// bits; in memory it is always the 8-byte form with the flag in bit 63.
struct BubstRecord {
  static constexpr uint32_t kAllCode = 0xFFFFFFFFu;
  static constexpr uint64_t kBstFlag = uint64_t{1} << 63;

  static size_t TagWidth(uint64_t num_nodes) {
    return num_nodes <= (uint64_t{1} << 31) ? 4 : 8;
  }
  static size_t Size(int num_dims, const cube::RecordLayout& layout,
                     size_t tag_width) {
    return 4ull * num_dims + layout.aggregates_bytes() + tag_width;
  }
  static void PutTag(uint8_t* p, uint64_t tag, size_t tag_width) {
    if (tag_width == 8) {
      std::memcpy(p, &tag, 8);
      return;
    }
    const uint32_t narrow = static_cast<uint32_t>(tag & ~kBstFlag) |
                            ((tag & kBstFlag) != 0 ? 0x80000000u : 0);
    std::memcpy(p, &narrow, 4);
  }
  /// Gathers the tag at `byte_offset` of every record of `block` in its
  /// 8-byte in-memory form.
  static void GatherTags(const storage::RowBlock& block, size_t byte_offset,
                         size_t tag_width, uint64_t* out) {
    if (tag_width == 8) {
      storage::GatherBlockU64(block, byte_offset, out);
      return;
    }
    storage::GatherBlockU32ToU64(block, byte_offset, out);
    for (size_t i = 0; i < block.rows; ++i) out[i] = Widen(out[i]);
  }
  static uint64_t GetTag(const uint8_t* p, size_t tag_width) {
    if (tag_width == 8) {
      uint64_t tag;
      std::memcpy(&tag, p, 8);
      return tag;
    }
    uint32_t narrow;
    std::memcpy(&narrow, p, 4);
    return Widen(narrow);
  }

 private:
  static uint64_t Widen(uint64_t narrow) {
    return (narrow & 0x7FFFFFFFu) | ((narrow & 0x80000000u) != 0 ? kBstFlag : 0);
  }
};

/// A cube built by BU-BST: BSTs are detected (our TTs) and stored once, but
/// everything lives in one monolithic D-wide relation — the storage scheme
/// whose query cost the paper's Fig. 16 exposes (every query scans the whole
/// cube).
class BubstCube {
 public:
  const schema::CubeSchema& schema() const { return schema_; }
  const storage::Relation& monolithic() const { return monolithic_; }
  const cube::RecordLayout& layout() const { return layout_; }
  size_t tag_width() const { return tag_width_; }
  const BuildStats& stats() const { return stats_; }
  uint64_t TotalBytes() const { return monolithic_.bytes(); }

  /// Persists the monolithic relation to disk and reopens it in place, so
  /// every query's full scan really reads storage.
  Status SpillToDisk(const std::string& path) {
    CURE_ASSIGN_OR_RETURN(storage::Relation file, storage::Relation::CreateFile(
                                                      path, monolithic_.record_size()));
    storage::Relation::Scanner scan(monolithic_);
    while (const uint8_t* rec = scan.Next()) {
      CURE_RETURN_IF_ERROR(file.Append(rec));
    }
    CURE_RETURN_IF_ERROR(scan.status());
    CURE_RETURN_IF_ERROR(file.Seal());
    monolithic_ = std::move(file);
    return Status::OK();
  }

 private:
  friend Result<std::unique_ptr<BubstCube>> BuildBubst(const schema::CubeSchema&,
                                                       const schema::FactTable&,
                                                       const BubstOptions&);
  BubstCube() = default;

  schema::CubeSchema schema_;
  cube::RecordLayout layout_;
  size_t tag_width_ = 8;
  storage::Relation monolithic_;
  BuildStats stats_;
};

/// Runs BU-BST over the leaf levels of `schema` (flat cubes only, like BUC).
Result<std::unique_ptr<BubstCube>> BuildBubst(const schema::CubeSchema& schema,
                                              const schema::FactTable& table,
                                              const BubstOptions& options);

}  // namespace engine
}  // namespace cure

#endif  // CURE_ENGINE_BUBST_H_
