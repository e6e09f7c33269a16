#include "engine/incremental.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "cube/measures.h"
#include "cube/signature.h"
#include "plan/execution_plan.h"

namespace cure {
namespace engine {

namespace {

using cube::CubeStore;
using cube::RowId;
using schema::CubeSchema;
using schema::Dimension;
using schema::FactTable;
using schema::NodeId;

/// One pre-existing cube tuple of a node, indexed by its grouping codes.
struct OldTuple {
  enum Kind { kNt, kTt, kCat } kind = kNt;
  std::vector<int64_t> aggrs;  // NT/CAT only
  RowId rowid_ref = 0;
  uint64_t relation_row = 0;  // index within its relation, for tombstoning
  bool consumed = false;
};

/// Lazily loaded probe structure over one node's existing storage. Keys are
/// the raw bytes of the grouping codes (small-string optimized: up to three
/// grouping dims allocate nothing).
struct NodeProbe {
  std::unordered_map<std::string, OldTuple> tuples;
  std::set<uint64_t> consumed_nt;
  std::set<uint64_t> consumed_tt;  // relation rows (or bitmap ordinals)
  std::set<uint64_t> consumed_cat;
  bool tt_was_bitmap = false;
};

std::string PackKey(const uint32_t* codes, size_t n) {
  return std::string(reinterpret_cast<const char*>(codes), n * 4);
}

struct PendingSignature {
  NodeId node;
  std::vector<int64_t> aggrs;
  RowId rowid;
  std::vector<uint32_t> dr_dims;  // D projected codes (DR mode only)
};

class DeltaUpdater {
 public:
  DeltaUpdater(CureCube* cube, CubeStore* store, const FactTable& table,
               uint64_t old_rows)
      : store_(store),
        schema_(cube->schema()),
        codec_(store->codec()),
        table_(table),
        old_rows_(old_rows),
        num_dims_(schema_.num_dims()),
        y_(schema_.num_aggregates()),
        aggregator_(schema_),
        cursor_(schema_, plan::Style::kTall) {}

  Result<UpdateStats> Run() {
    delta_rows_.resize(table_.num_rows() - old_rows_);
    for (size_t i = 0; i < delta_rows_.size(); ++i) delta_rows_[i] = old_rows_ + i;
    stats_.delta_rows = delta_rows_.size();
    CURE_RETURN_IF_ERROR(Visit(delta_rows_, 0));
    CURE_RETURN_IF_ERROR(RewriteTombstonedRelations());
    // Materialize new TTs and re-classify pending signatures.
    for (const auto& [node, rowid] : pending_tts_) {
      CURE_RETURN_IF_ERROR(store_->WriteTT(node, rowid));
    }
    if (!pending_sigs_.empty()) {
      const bool dr = store_->options().dims_in_nt;
      cube::SignaturePool pool(y_, dr ? num_dims_ : 0, pending_sigs_.size());
      for (const PendingSignature& sig : pending_sigs_) {
        pool.Add(sig.aggrs.data(), sig.rowid, sig.node,
                 dr ? sig.dr_dims.data() : nullptr);
      }
      CURE_RETURN_IF_ERROR(pool.Flush(store_));
    }
    return stats_;
  }

 private:
  std::string KeyOf(uint64_t row) const {
    uint32_t codes[64];
    size_t n = 0;
    for (int d = 0; d < num_dims_; ++d) {
      if (!cursor_.included(d)) continue;
      codes[n++] = schema_.dim(d).CodeAt(table_.dim(d, row), cursor_.level(d));
    }
    return PackKey(codes, n);
  }

  /// Lifts one fact row's measures into aggregate space on demand.
  void LiftRow(uint64_t row, int64_t* out) const {
    int64_t raw[16];
    CURE_CHECK_LE(schema_.num_raw_measures(), 16);
    for (int m = 0; m < schema_.num_raw_measures(); ++m) {
      raw[m] = table_.measure(m, row);
    }
    aggregator_.Lift(raw, out);
  }

  /// Builds (once) the probe for `node` from its existing storage. Only
  /// tuples whose grouping codes match some *delta* row are indexed: groups
  /// that contain no delta row are never looked up (a group consisting only
  /// of an absorbed old TT row is provably unmatched — the TT's sub-tree
  /// holds no other storage for its codes), which keeps the probe O(delta)
  /// instead of O(node).
  Result<NodeProbe*> Probe(NodeId node) {
    auto it = probes_.find(node);
    if (it != probes_.end()) return &it->second;
    NodeProbe& probe = probes_[node];
    const CubeStore::NodeData* data = store_->node(node);
    if (data == nullptr) return &probe;
    const std::vector<int> node_levels = codec_.Decode(node);
    std::vector<int> grouping;
    for (int d = 0; d < num_dims_; ++d) {
      if (node_levels[d] != codec_.all_level(d)) grouping.push_back(d);
    }
    // Candidate keys from the delta rows (Probe is first called while the
    // traversal sits at `node`, so the cursor's levels match node_levels).
    std::unordered_set<std::string> candidates;
    candidates.reserve(delta_rows_.size());
    for (uint64_t r : delta_rows_) candidates.insert(KeyOf(r));
    auto relevant = [&](const std::string& key) {
      return candidates.count(key) != 0;
    };
    auto key_of_rowid = [&](RowId rowid) {
      uint32_t codes[64];
      size_t n = 0;
      const uint64_t row = cube::RowIdOrdinal(rowid);
      for (int d : grouping) {
        codes[n++] = schema_.dim(d).CodeAt(table_.dim(d, row), node_levels[d]);
      }
      return PackKey(codes, n);
    };

    const cube::RecordLayout& layout = store_->layout();
    if (data->has_nt) {
      storage::Relation::Scanner scan(data->nt);
      const bool dr = store_->options().dims_in_nt;
      const size_t aggrs_offset =
          store_->NtAggregatesOffset(static_cast<int>(grouping.size()));
      while (const uint8_t* rec = scan.Next()) {
        OldTuple tuple;
        tuple.kind = OldTuple::kNt;
        tuple.relation_row = scan.row();
        tuple.aggrs.resize(y_);
        layout.GetAggregates(rec + aggrs_offset, tuple.aggrs.data());
        std::string key;
        if (dr) {
          key.assign(reinterpret_cast<const char*>(rec), 4 * grouping.size());
          tuple.rowid_ref = std::numeric_limits<RowId>::max();
        } else {
          tuple.rowid_ref = layout.GetRowId(rec);
          key = key_of_rowid(tuple.rowid_ref);
        }
        if (!relevant(key)) continue;
        probe.tuples.emplace(std::move(key), std::move(tuple));
      }
      CURE_RETURN_IF_ERROR(scan.status());
    }
    if (data->has_cat) {
      const storage::Relation& aggregates = store_->aggregates();
      storage::Relation::Scanner scan(data->cat);
      std::vector<uint8_t> agg_rec(aggregates.record_size());
      const size_t arowid_offset = store_->CatArowidOffset();
      const size_t agg_offset = store_->AggregatesAggrOffset();
      const bool format_a = store_->cat_format() == cube::CatFormat::kFormatA;
      while (const uint8_t* rec = scan.Next()) {
        OldTuple tuple;
        tuple.kind = OldTuple::kCat;
        tuple.relation_row = scan.row();
        tuple.aggrs.resize(y_);
        CURE_RETURN_IF_ERROR(aggregates.Read(
            layout.GetArowid(rec + arowid_offset), agg_rec.data()));
        tuple.rowid_ref = layout.GetRowId(format_a ? agg_rec.data() : rec);
        layout.GetAggregates(agg_rec.data() + agg_offset, tuple.aggrs.data());
        std::string key = key_of_rowid(tuple.rowid_ref);
        if (!relevant(key)) continue;
        probe.tuples.emplace(std::move(key), std::move(tuple));
      }
      CURE_RETURN_IF_ERROR(scan.status());
    }
    if (data->tt_bitmap != nullptr) {
      probe.tt_was_bitmap = true;
      data->tt_bitmap->ForEach([&](uint64_t ordinal) {
        OldTuple tuple;
        tuple.kind = OldTuple::kTt;
        tuple.relation_row = ordinal;  // bitmap: identify by ordinal
        tuple.rowid_ref = cube::MakeRowId(data->tt_source, ordinal);
        std::string key = key_of_rowid(tuple.rowid_ref);
        if (!relevant(key)) return;
        probe.tuples.emplace(std::move(key), std::move(tuple));
      });
    } else if (data->has_tt) {
      storage::Relation::Scanner scan(data->tt);
      while (const uint8_t* rec = scan.Next()) {
        OldTuple tuple;
        tuple.kind = OldTuple::kTt;
        tuple.relation_row = scan.row();
        tuple.rowid_ref = layout.GetRowId(rec);
        std::string key = key_of_rowid(tuple.rowid_ref);
        if (!relevant(key)) continue;
        probe.tuples.emplace(std::move(key), std::move(tuple));
      }
      CURE_RETURN_IF_ERROR(scan.status());
    }
    return &probe;
  }

  Status Visit(std::vector<uint64_t> rows, int dim) {
    const NodeId node = cursor_.node();
    CURE_ASSIGN_OR_RETURN(NodeProbe * probe, Probe(node));
    const std::string key = KeyOf(rows[0]);
    auto it = probe->tuples.find(key);
    OldTuple* old = it == probe->tuples.end() || it->second.consumed
                        ? nullptr
                        : &it->second;

    if (old == nullptr && rows.size() == 1) {
      // Brand-new trivial tuple at its least detailed node; prune.
      pending_tts_.push_back({node, cube::MakeRowId(cube::kSourceFact, rows[0])});
      ++stats_.new_tts;
      return Status::OK();
    }

    if (old != nullptr && old->kind == OldTuple::kTt) {
      // The old TT's group grows: absorb its source row; the combined rows
      // regenerate this node and the whole sub-tree above it.
      old->consumed = true;
      switch (old->kind) {
        case OldTuple::kTt:
          probe->consumed_tt.insert(old->relation_row);
          break;
        default:
          break;
      }
      rows.push_back(cube::RowIdOrdinal(old->rowid_ref));
      old = nullptr;
      ++stats_.absorbed_tts;
    }

    // Aggregate the (possibly extended) row set.
    PendingSignature sig;
    sig.node = node;
    sig.aggrs.resize(y_);
    aggregator_.Init(sig.aggrs.data());
    RowId min_rowid = std::numeric_limits<RowId>::max();
    int64_t lifted[16];
    CURE_CHECK_LE(y_, 16);
    for (uint64_t r : rows) {
      LiftRow(r, lifted);
      aggregator_.Combine(sig.aggrs.data(), lifted);
      min_rowid = std::min(min_rowid, cube::MakeRowId(cube::kSourceFact, r));
    }
    if (old != nullptr) {
      // Merge with the existing NT/CAT tuple and tombstone it.
      aggregator_.Combine(sig.aggrs.data(), old->aggrs.data());
      min_rowid = std::min(min_rowid, old->rowid_ref);
      old->consumed = true;
      if (old->kind == OldTuple::kNt) {
        probe->consumed_nt.insert(old->relation_row);
      } else {
        probe->consumed_cat.insert(old->relation_row);
      }
      ++stats_.merged_tuples;
    }
    sig.rowid = min_rowid;
    if (store_->options().dims_in_nt) {
      sig.dr_dims.resize(num_dims_, 0);
      for (int d = 0; d < num_dims_; ++d) {
        if (cursor_.included(d)) {
          sig.dr_dims[d] =
              schema_.dim(d).CodeAt(table_.dim(d, rows[0]), cursor_.level(d));
        }
      }
    }
    pending_sigs_.push_back(std::move(sig));
    ++stats_.new_signatures;

    // Descend the tall plan exactly like construction.
    return cursor_.ForEachChild(dim, [&](int d) {
      return Partition(rows, d);
    });
  }

  /// FollowEdge equivalent: groups `rows` by dimension d at its cursor level
  /// and visits each group.
  Status Partition(const std::vector<uint64_t>& rows, int d) {
    std::map<uint32_t, std::vector<uint64_t>> groups;
    for (uint64_t r : rows) {
      groups[schema_.dim(d).CodeAt(table_.dim(d, r), cursor_.level(d))]
          .push_back(r);
    }
    for (auto& [code, group] : groups) {
      (void)code;
      CURE_RETURN_IF_ERROR(Visit(std::move(group), d + 1));
    }
    return Status::OK();
  }

  Status RewriteTombstonedRelations() {
    for (auto& [node_id, probe] : probes_) {
      if (probe.consumed_nt.empty() && probe.consumed_tt.empty() &&
          probe.consumed_cat.empty()) {
        continue;
      }
      CubeStore::NodeData* data = store_->mutable_node(node_id);
      CURE_CHECK(data != nullptr);
      if (!probe.consumed_nt.empty()) {
        storage::Relation rebuilt =
            storage::Relation::Memory(data->nt.record_size());
        storage::Relation::Scanner scan(data->nt);
        while (const uint8_t* rec = scan.Next()) {
          if (probe.consumed_nt.count(scan.row()) != 0) continue;
          CURE_RETURN_IF_ERROR(rebuilt.Append(rec));
        }
        CURE_RETURN_IF_ERROR(scan.status());
        data->has_nt = rebuilt.num_rows() > 0;
        data->nt = std::move(rebuilt);
      }
      if (!probe.consumed_cat.empty()) {
        storage::Relation rebuilt =
            storage::Relation::Memory(data->cat.record_size());
        storage::Relation::Scanner scan(data->cat);
        while (const uint8_t* rec = scan.Next()) {
          if (probe.consumed_cat.count(scan.row()) != 0) continue;
          CURE_RETURN_IF_ERROR(rebuilt.Append(rec));
        }
        CURE_RETURN_IF_ERROR(scan.status());
        data->has_cat = rebuilt.num_rows() > 0;
        data->cat = std::move(rebuilt);
      }
      if (!probe.consumed_tt.empty()) {
        storage::Relation rebuilt =
            storage::Relation::Memory(store_->TtRecordSize());
        if (probe.tt_was_bitmap) {
          Status status = Status::OK();
          uint8_t rec[8];
          data->tt_bitmap->ForEach([&](uint64_t ordinal) {
            if (!status.ok() || probe.consumed_tt.count(ordinal) != 0) return;
            store_->layout().PutRowId(rec,
                                      cube::MakeRowId(data->tt_source, ordinal));
            status = rebuilt.Append(rec);
          });
          CURE_RETURN_IF_ERROR(status);
          data->tt_bitmap.reset();
        } else {
          storage::Relation::Scanner scan(data->tt);
          while (const uint8_t* rec = scan.Next()) {
            if (probe.consumed_tt.count(scan.row()) != 0) continue;
            CURE_RETURN_IF_ERROR(rebuilt.Append(rec));
          }
          CURE_RETURN_IF_ERROR(scan.status());
        }
        data->has_tt = rebuilt.num_rows() > 0;
        data->tt = std::move(rebuilt);
      }
    }
    return Status::OK();
  }

  CubeStore* store_;
  const CubeSchema& schema_;
  const schema::NodeIdCodec& codec_;
  const FactTable& table_;
  uint64_t old_rows_;
  int num_dims_;
  int y_;
  cube::Aggregator aggregator_;

  plan::Cursor cursor_;
  std::vector<uint64_t> delta_rows_;
  std::unordered_map<NodeId, NodeProbe> probes_;
  std::vector<std::pair<NodeId, RowId>> pending_tts_;
  std::vector<PendingSignature> pending_sigs_;
  UpdateStats stats_;
};

}  // namespace

Result<UpdateStats> ApplyDelta(CureCube* cube, const FactTable& table,
                               uint64_t old_rows) {
  if (cube->fact_table() != &table) {
    return Status::InvalidArgument(
        "ApplyDelta requires the fact table the cube was built from (with "
        "delta rows appended)");
  }
  // Precondition failures are distinct (kFailedPrecondition) from argument
  // errors: the serving layer's refresh path keys its delta-vs-rebuild
  // decision on this code (a violated precondition means "rebuild instead",
  // a bad argument means "fail the refresh").
  if (cube->spilled()) {
    return Status::FailedPrecondition(
        "ApplyDelta requires an in-memory cube: this cube is spilled "
        "(disk-resident) and cannot be updated in place");
  }
  if (cube->partition_level() >= 0) {
    return Status::FailedPrecondition(
        "ApplyDelta requires an in-memory-built cube: this cube was built "
        "externally (partitioned, partition_level >= 0)");
  }
  if (cube->stats().min_support > 1) {
    return Status::FailedPrecondition(
        "ApplyDelta requires a complete cube: this cube is an iceberg cube "
        "(min_support > 1)");
  }
  if (cube->plan_style() != plan::Style::kTall) {
    return Status::FailedPrecondition(
        "ApplyDelta requires the tall execution plan: this cube was built "
        "with the short plan");
  }
  if (table.num_rows() < old_rows) {
    return Status::InvalidArgument("old_rows exceeds the table size");
  }
  if (table.num_rows() == old_rows) return UpdateStats{};
  // Width precondition, checked before the first mutation: the post-delta
  // bounds must still fit the cube's record widths. Every new AGGREGATES
  // row comes from a delta row's signature at some node.
  const cube::CubeStore& store = cube->store();
  cube::WidthBounds bounds =
      cube::BoundsForTable(table, store.codec().num_nodes());
  const uint64_t old_aggregates = store.aggregates().num_rows();
  const uint64_t new_aggregates =
      cube::BoundsForRows(table.num_rows() - old_rows,
                          store.codec().num_nodes(), {})
          .aggregate_rows;
  bounds.aggregate_rows =
      new_aggregates > std::numeric_limits<uint64_t>::max() - old_aggregates
          ? std::numeric_limits<uint64_t>::max()
          : old_aggregates + new_aggregates;
  const std::string wider = store.layout().FirstWiderField(
      cube::ChooseRecordLayout(cube->schema().aggregates(), bounds),
      cube->schema());
  if (!wider.empty()) {
    return Status::FailedPrecondition(
        "ApplyDelta requires the post-delta bounds to fit the cube's record "
        "widths: " + wider + " no longer fits " + store.layout().ToString());
  }

  Stopwatch watch;
  DeltaUpdater updater(cube, &cube->mutable_store(), table, old_rows);
  CURE_ASSIGN_OR_RETURN(UpdateStats stats, updater.Run());
  stats.seconds = watch.ElapsedSeconds();
  // Refresh cube statistics (ApplyDelta is a friend of CureCube).
  BuildStats& build_stats = cube->stats_;
  build_stats.input_rows = table.num_rows();
  const cube::CubeStore::ClassCounts counts = cube->store().Counts();
  build_stats.tt = counts.tt;
  build_stats.nt = counts.nt;
  build_stats.cat = counts.cat;
  build_stats.aggregates_rows = counts.aggregates;
  build_stats.cube_bytes = cube->TotalBytes();
  build_stats.num_relations = cube->store().NumRelations();
  return stats;
}

}  // namespace engine
}  // namespace cure
