#ifndef CURE_CUBE_CUBE_STORE_H_
#define CURE_CUBE_CUBE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cube/record_layout.h"
#include "cube/rowid.h"
#include "cube/source.h"
#include "schema/cube_schema.h"
#include "schema/node_id.h"
#include "storage/bitmap.h"
#include "storage/relation.h"

namespace cure {
namespace cube {

/// Storage format chosen for common-aggregate tuples (CATs), Sec. 5.1.
enum class CatFormat {
  kUndecided,
  /// Figure 10a: AGGREGATES rows are (R-rowid, Aggr...); per-node CAT rows
  /// hold just an A-rowid. Best when common-source CATs prevail.
  kFormatA,
  /// Figure 10b: AGGREGATES rows are (Aggr...); per-node CAT rows hold
  /// (R-rowid, A-rowid). Best when coincidental CATs prevail and Y > 1.
  kFormatB,
  /// Store CATs as NTs — optimal when Y = 1 and coincidental CATs prevail.
  kAsNT,
};

const char* CatFormatName(CatFormat format);

/// Statistics over CAT combos gathered during signature sorting (the k / n /
/// m quantities of the paper's cost model in Fig. 11). k̄ = cats / combos,
/// n̄ = source_groups / combos; format (a) wins when k̄ > (Y+1)·n̄.
struct CatStats {
  uint64_t cats = 0;           ///< Σ k: CAT signatures seen
  uint64_t source_groups = 0;  ///< Σ n: distinct (aggr, rowid) groups
  uint64_t combos = 0;         ///< m: distinct aggregate combinations
};

/// Relational cube container implementing CURE's storage schemes (Sec. 5):
/// up to three relations per node (NT, TT, CAT) plus one global AGGREGATES
/// relation, and a plain (uncondensed) per-node relation for the BUC
/// baseline. Tracks logical byte footprints, per-class tuple counts, and
/// the number of materialized relations.
class CubeStore {
 public:
  struct Options {
    /// CURE_DR: NT rows store the actual grouping-dimension codes instead of
    /// a row-id reference (trades space for query speed, Sec. 5.3).
    bool dims_in_nt = false;
    /// Test hook: force the CAT format instead of deciding from statistics.
    CatFormat forced_cat_format = CatFormat::kUndecided;
  };

  /// Per-node storage. NT/TT/CAT/plain relations are created lazily.
  struct NodeData {
    storage::Relation nt;
    storage::Relation tt;
    storage::Relation cat;
    storage::Relation plain;
    bool has_nt = false;
    bool has_tt = false;
    bool has_cat = false;
    bool has_plain = false;
    /// CURE+ bitmap replacement of the TT row-id list; when set, `tt` has
    /// been dropped and the bitmap is authoritative.
    std::unique_ptr<storage::Bitmap> tt_bitmap;
    /// Source tag of this node's TT row-ids (needed for the bitmap universe).
    uint32_t tt_source = kSourceFact;
    bool post_processed = false;
    /// Cached decode of the node id: grouping dims and their levels.
    std::vector<int> levels;
    std::vector<int> grouping_dims;
  };

  /// A store with all-8-byte fields (no width bounds known).
  CubeStore(const schema::CubeSchema* schema, const Options& options);
  /// A store whose records use `layout` (ChooseRecordLayout over the build's
  /// bounds); its aggregate count must match the schema's.
  CubeStore(const schema::CubeSchema* schema, const Options& options,
            const RecordLayout& layout);

  CubeStore(CubeStore&&) = default;
  CubeStore& operator=(CubeStore&&) = default;

  const schema::CubeSchema& schema() const { return *schema_; }
  const schema::NodeIdCodec& codec() const { return codec_; }
  const Options& options() const { return options_; }
  const RecordLayout& layout() const { return layout_; }

  // ------- write path (engines + signature-pool flushes) -------

  /// Appends a trivial tuple: just the row-id (Fig. 8b).
  Status WriteTT(schema::NodeId node, RowId rowid);

  /// Appends a normal tuple (Fig. 8a): (R-rowid, Aggr...), or with
  /// dims_in_nt (CURE_DR) the grouping codes + aggregates. `full_dims` must
  /// then carry D projected codes (ALL positions ignored).
  Status WriteNT(schema::NodeId node, RowId rowid, const int64_t* aggrs,
                 const uint32_t* full_dims);

  /// Fixes the CAT format from first-flush statistics using the paper's
  /// rule; subsequent calls only accumulate reporting stats.
  void DecideCatFormat(const CatStats& stats);
  CatFormat cat_format() const { return cat_format_; }
  const CatStats& cat_stats() const { return cat_stats_; }

  /// The paper's Sec. 5.1 rule as a pure function: format (a) when common-
  /// source CATs prevail (k > (Y+1)·n), otherwise NT storage when Y = 1,
  /// else format (b). Requires stats.combos > 0.
  static CatFormat ChooseCatFormat(const CatStats& stats, int num_aggregates);

  /// Sets the CAT format from the outside (parallel shard builds receive the
  /// cube-wide decision through the CatFormatArbiter instead of deciding
  /// from their own flush statistics). Only valid while still undecided or
  /// when re-forcing the same format.
  void ForceCatFormat(CatFormat format);

  /// Adds flush statistics for reporting without touching the format
  /// decision (used together with ForceCatFormat).
  void AccumulateCatStats(const CatStats& stats);

  /// Appends every relation of `shard` — a per-partition store built over
  /// the same schema, options and record layout — into this store, in shard call order.
  /// Format A/B A-rowid references inside shard CAT relations are rebased
  /// past this store's current AGGREGATES rows, so merging shards in
  /// partition order reproduces byte-for-byte the store a serial build
  /// (flushing its pool at partition boundaries) would have produced.
  /// Adopts the shard's CAT format when this store is still undecided;
  /// decided shards must agree with each other. The shard must not be
  /// post-processed (no TT bitmaps).
  Status MergeShard(CubeStore&& shard);

  /// Format (a): appends (rowid, aggrs) to AGGREGATES, returns the A-rowid.
  Result<uint64_t> AppendAggregateA(RowId rowid, const int64_t* aggrs);
  Status WriteCatA(schema::NodeId node, uint64_t arowid);

  /// Format (b): appends (aggrs) to AGGREGATES, returns the A-rowid.
  Result<uint64_t> AppendAggregateB(const int64_t* aggrs);
  Status WriteCatB(schema::NodeId node, RowId rowid, uint64_t arowid);

  /// Uncondensed row (grouping codes + aggregates); the BUC baseline's
  /// storage format. `full_dims` carries D projected codes.
  Status WritePlain(schema::NodeId node, const uint32_t* full_dims,
                    const int64_t* aggrs);

  // ------- CURE+ post-processing (Sec. 5.3) -------

  struct PostProcessOptions {
    /// Replace a TT row-id list by a bitmap when the bitmap is smaller.
    bool use_bitmaps = true;
  };

  /// Sorts TT row-id lists (and CAT format-(a) A-rowid lists) into access
  /// order and optionally converts TT lists to bitmap indexes where the
  /// bitmap is smaller than the list at this layout's row-id width.
  /// `sources` provides the bitmap universes.
  Status PostProcess(const SourceSet& sources, const PostProcessOptions& options);

  // ------- persistence -------

  /// Writes every node relation, TT bitmap and the AGGREGATES relation into
  /// one packed file (single-file cube, checksummed manifest + data
  /// sections). Crash-consistent: the image is staged at `path + ".tmp"`,
  /// fsynced, atomically renamed onto `path`, and the parent directory is
  /// fsynced — a crash at any point leaves either the old cube or the
  /// complete new one, never a torn file. On failure the temp file is
  /// removed and `path` is untouched. See DESIGN.md §11.
  Status PersistPacked(const std::string& path) const;

  /// Opens a packed cube file; node relations become read-only views served
  /// by a shared pread-based reader, so node scans hit storage (bitmaps are
  /// loaded eagerly — they are small by construction). Verifies the
  /// manifest and every section checksum before returning: any mismatch,
  /// truncation, or garbage yields kDataLoss (legacy pre-manifest cubes get
  /// a distinct "legacy packed cube" kInvalidArgument), never a misread.
  static Result<CubeStore> OpenPacked(const std::string& path,
                                      const schema::CubeSchema* schema);

  /// One section's verification outcome (`cure_tool verify`).
  struct PackedSectionReport {
    uint64_t node_id = 0;   ///< ~0 for the AGGREGATES relation
    std::string kind;       ///< "NT", "TT", "CAT", "PLAIN", "TTBITMAP", "AGGREGATES"
    uint64_t rows = 0;
    uint64_t bytes = 0;
    uint64_t offset = 0;
    bool checksum_ok = false;
  };
  struct PackedVerifyReport {
    Status status;          ///< OK only when the whole file verified
    uint32_t version = 0;
    RecordLayout layout;    ///< the record widths the manifest records
    uint64_t file_size = 0;
    bool manifest_ok = false;
    std::vector<PackedSectionReport> sections;
  };

  /// Verifies a packed cube file without building a store: manifest
  /// structure + checksum, then every section checksum (unlike OpenPacked
  /// it keeps going after a bad section to report them all).
  static PackedVerifyReport VerifyPacked(const std::string& path);

  // ------- read path -------

  const NodeData* node(schema::NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  /// Mutable access for maintenance (incremental updates rewrite node
  /// relations in place). Returns nullptr when the node has no storage.
  NodeData* mutable_node(schema::NodeId id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  const storage::Relation& aggregates() const { return aggregates_; }

  // ------- accounting -------

  /// Total logical bytes of all node relations, bitmaps and AGGREGATES.
  uint64_t TotalBytes() const;

  /// Number of materialized relations (the paper reports 88,932 for D=28).
  uint64_t NumRelations() const;

  struct ClassCounts {
    uint64_t nt = 0;
    uint64_t tt = 0;
    uint64_t cat = 0;
    uint64_t plain = 0;
    uint64_t aggregates = 0;
  };
  ClassCounts Counts() const;

  /// Number of nodes with at least one relation.
  uint64_t NumNonEmptyNodes() const { return nodes_.size(); }

  // Record widths (from the layout).
  size_t NtRecordSize(int num_grouping) const;
  size_t TtRecordSize() const { return layout_.rowid_width(); }
  size_t CatRecordSize() const;
  size_t PlainRecordSize(int num_grouping) const;
  size_t AggregatesRecordSize(CatFormat format) const;
  /// Offset of the aggregate block inside an NT record.
  size_t NtAggregatesOffset(int num_grouping) const;
  /// Offset of the aggregate block inside an AGGREGATES record.
  size_t AggregatesAggrOffset() const;
  /// Offset of the A-rowid inside a CAT record.
  size_t CatArowidOffset() const;

  int num_aggregates() const { return num_aggregates_; }

 private:
  NodeData* GetNode(schema::NodeId id);
  /// Record size this store's layout gives a packed section of `kind` at
  /// `node` (0 for a node id outside the lattice).
  size_t PackedRecordSize(uint32_t kind, uint64_t node) const;

  const schema::CubeSchema* schema_;
  schema::NodeIdCodec codec_;
  Options options_;
  RecordLayout layout_;
  int num_aggregates_ = 0;
  std::unordered_map<schema::NodeId, NodeData> nodes_;
  storage::Relation aggregates_;
  bool aggregates_init_ = false;
  CatFormat cat_format_ = CatFormat::kUndecided;
  CatStats cat_stats_;
};

}  // namespace cube
}  // namespace cure

#endif  // CURE_CUBE_CUBE_STORE_H_
