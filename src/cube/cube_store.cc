#include "cube/cube_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/logging.h"
#include "storage/file_io.h"

namespace cure {
namespace cube {

using schema::NodeId;

const char* CatFormatName(CatFormat format) {
  switch (format) {
    case CatFormat::kUndecided:
      return "undecided";
    case CatFormat::kFormatA:
      return "format-a(common-source)";
    case CatFormat::kFormatB:
      return "format-b(coincidental)";
    case CatFormat::kAsNT:
      return "as-NT";
  }
  return "?";
}

CubeStore::CubeStore(const schema::CubeSchema* schema, const Options& options)
    : CubeStore(schema, options,
                RecordLayout::Wide(schema != nullptr ? schema->num_aggregates()
                                                     : 0)) {}

CubeStore::CubeStore(const schema::CubeSchema* schema, const Options& options,
                     const RecordLayout& layout)
    : schema_(schema), options_(options), layout_(layout) {
  // A null schema builds an empty placeholder store (move-assign target).
  if (schema != nullptr) {
    codec_ = schema::NodeIdCodec(*schema);
    num_aggregates_ = schema->num_aggregates();
  }
  CURE_CHECK_EQ(layout_.num_aggregates(), num_aggregates_)
      << "record layout / schema aggregate count mismatch";
  if (options.forced_cat_format != CatFormat::kUndecided) {
    cat_format_ = options.forced_cat_format;
  }
}

CubeStore::NodeData* CubeStore::GetNode(NodeId id) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) return &it->second;
  NodeData& node = nodes_[id];
  node.levels = codec_.Decode(id);
  for (int d = 0; d < schema_->num_dims(); ++d) {
    if (node.levels[d] != codec_.all_level(d)) node.grouping_dims.push_back(d);
  }
  return &node;
}

size_t CubeStore::NtAggregatesOffset(int num_grouping) const {
  return options_.dims_in_nt ? 4ull * num_grouping : layout_.rowid_width();
}

size_t CubeStore::NtRecordSize(int num_grouping) const {
  return NtAggregatesOffset(num_grouping) + layout_.aggregates_bytes();
}

size_t CubeStore::CatArowidOffset() const {
  return cat_format_ == CatFormat::kFormatB ? layout_.rowid_width() : 0;
}

size_t CubeStore::CatRecordSize() const {
  return CatArowidOffset() + layout_.arowid_width();
}

size_t CubeStore::PlainRecordSize(int num_grouping) const {
  return 4ull * num_grouping + layout_.aggregates_bytes();
}

size_t CubeStore::AggregatesAggrOffset() const {
  return cat_format_ == CatFormat::kFormatA ? layout_.rowid_width() : 0;
}

size_t CubeStore::AggregatesRecordSize(CatFormat format) const {
  return (format == CatFormat::kFormatA ? layout_.rowid_width() : 0) +
         layout_.aggregates_bytes();
}

Status CubeStore::WriteTT(NodeId id, RowId rowid) {
  NodeData* node = GetNode(id);
  if (!node->has_tt) {
    node->tt = storage::Relation::Memory(TtRecordSize());
    node->has_tt = true;
    node->tt_source = RowIdSource(rowid);
  } else {
    CURE_CHECK_EQ(node->tt_source, RowIdSource(rowid))
        << "TT source mismatch within a node";
  }
  uint8_t rec[8];
  layout_.PutRowId(rec, rowid);
  return node->tt.Append(rec);
}

Status CubeStore::WriteNT(NodeId id, RowId rowid, const int64_t* aggrs,
                          const uint32_t* full_dims) {
  NodeData* node = GetNode(id);
  const int g = static_cast<int>(node->grouping_dims.size());
  if (!node->has_nt) {
    node->nt = storage::Relation::Memory(NtRecordSize(g));
    node->has_nt = true;
  }
  uint8_t rec[512];
  CURE_CHECK_LE(NtRecordSize(g), sizeof(rec));
  uint8_t* p = rec;
  if (options_.dims_in_nt) {
    CURE_CHECK(full_dims != nullptr) << "CURE_DR needs projected dims";
    for (int d : node->grouping_dims) {
      std::memcpy(p, &full_dims[d], 4);
      p += 4;
    }
  } else {
    layout_.PutRowId(p, rowid);
    p += layout_.rowid_width();
  }
  layout_.PutAggregates(p, aggrs);
  return node->nt.Append(rec);
}

CatFormat CubeStore::ChooseCatFormat(const CatStats& stats, int num_aggregates) {
  // Paper's rule (Sec. 5.1): format (a) when k̄ > (Y+1)·n̄, i.e. common-source
  // CATs prevail; otherwise NTs when Y = 1, else format (b).
  const uint64_t y = static_cast<uint64_t>(num_aggregates);
  if (stats.cats > (y + 1) * stats.source_groups) return CatFormat::kFormatA;
  if (y == 1) return CatFormat::kAsNT;
  return CatFormat::kFormatB;
}

void CubeStore::DecideCatFormat(const CatStats& stats) {
  AccumulateCatStats(stats);
  if (cat_format_ != CatFormat::kUndecided) return;
  if (stats.combos == 0) return;  // No CATs yet; postpone.
  cat_format_ = ChooseCatFormat(stats, num_aggregates_);
  CURE_LOG(kDebug) << "CAT format decided: " << CatFormatName(cat_format_)
                   << " (k=" << stats.cats << " n=" << stats.source_groups
                   << " m=" << stats.combos << " Y=" << num_aggregates_ << ")";
}

void CubeStore::ForceCatFormat(CatFormat format) {
  CURE_CHECK(cat_format_ == CatFormat::kUndecided || cat_format_ == format)
      << "conflicting CAT format forcing";
  cat_format_ = format;
}

void CubeStore::AccumulateCatStats(const CatStats& stats) {
  cat_stats_.cats += stats.cats;
  cat_stats_.source_groups += stats.source_groups;
  cat_stats_.combos += stats.combos;
}

Result<uint64_t> CubeStore::AppendAggregateA(RowId rowid, const int64_t* aggrs) {
  CURE_CHECK(cat_format_ == CatFormat::kFormatA);
  if (!aggregates_init_) {
    aggregates_ = storage::Relation::Memory(AggregatesRecordSize(cat_format_));
    aggregates_init_ = true;
  }
  uint8_t rec[512];
  CURE_CHECK_LE(aggregates_.record_size(), sizeof(rec));
  layout_.PutRowId(rec, rowid);
  layout_.PutAggregates(rec + layout_.rowid_width(), aggrs);
  const uint64_t arowid = aggregates_.num_rows();
  CURE_RETURN_IF_ERROR(aggregates_.Append(rec));
  return arowid;
}

Status CubeStore::WriteCatA(NodeId id, uint64_t arowid) {
  NodeData* node = GetNode(id);
  if (!node->has_cat) {
    node->cat = storage::Relation::Memory(CatRecordSize());
    node->has_cat = true;
  }
  uint8_t rec[8];
  layout_.PutArowid(rec, arowid);
  return node->cat.Append(rec);
}

Result<uint64_t> CubeStore::AppendAggregateB(const int64_t* aggrs) {
  CURE_CHECK(cat_format_ == CatFormat::kFormatB);
  if (!aggregates_init_) {
    aggregates_ = storage::Relation::Memory(AggregatesRecordSize(cat_format_));
    aggregates_init_ = true;
  }
  uint8_t rec[512];
  CURE_CHECK_LE(aggregates_.record_size(), sizeof(rec));
  layout_.PutAggregates(rec, aggrs);
  const uint64_t arowid = aggregates_.num_rows();
  CURE_RETURN_IF_ERROR(aggregates_.Append(rec));
  return arowid;
}

Status CubeStore::WriteCatB(NodeId id, RowId rowid, uint64_t arowid) {
  NodeData* node = GetNode(id);
  if (!node->has_cat) {
    node->cat = storage::Relation::Memory(CatRecordSize());
    node->has_cat = true;
  }
  uint8_t rec[16];
  layout_.PutRowId(rec, rowid);
  layout_.PutArowid(rec + layout_.rowid_width(), arowid);
  return node->cat.Append(rec);
}

Status CubeStore::WritePlain(NodeId id, const uint32_t* full_dims,
                             const int64_t* aggrs) {
  NodeData* node = GetNode(id);
  const int g = static_cast<int>(node->grouping_dims.size());
  if (!node->has_plain) {
    node->plain = storage::Relation::Memory(PlainRecordSize(g));
    node->has_plain = true;
  }
  uint8_t rec[512];
  CURE_CHECK_LE(PlainRecordSize(g), sizeof(rec));
  uint8_t* p = rec;
  for (int d : node->grouping_dims) {
    std::memcpy(p, &full_dims[d], 4);
    p += 4;
  }
  layout_.PutAggregates(p, aggrs);
  return node->plain.Append(rec);
}

namespace {

/// Appends every record of `from` to `to` (same record size).
Status AppendAllRecords(const storage::Relation& from, storage::Relation* to) {
  CURE_CHECK_EQ(from.record_size(), to->record_size());
  storage::Relation::Scanner scan(from);
  while (const uint8_t* rec = scan.Next()) {
    CURE_RETURN_IF_ERROR(to->Append(rec));
  }
  return scan.status();
}

}  // namespace

Status CubeStore::MergeShard(CubeStore&& shard) {
  CURE_CHECK_EQ(options_.dims_in_nt, shard.options_.dims_in_nt)
      << "shard/store option mismatch";
  CURE_CHECK(layout_ == shard.layout_) << "shard/store record layout mismatch";
  if (shard.cat_format_ != CatFormat::kUndecided) {
    if (cat_format_ == CatFormat::kUndecided) {
      cat_format_ = shard.cat_format_;
    } else if (cat_format_ != shard.cat_format_) {
      return Status::Internal("CAT format mismatch between partition shards");
    }
  }
  AccumulateCatStats(shard.cat_stats_);

  // AGGREGATES rows append after ours; shard-local A-rowids shift by the
  // current row count.
  const uint64_t arowid_base = aggregates_init_ ? aggregates_.num_rows() : 0;
  if (shard.aggregates_init_ && shard.aggregates_.num_rows() > 0) {
    if (!aggregates_init_) {
      aggregates_ = storage::Relation::Memory(shard.aggregates_.record_size());
      aggregates_init_ = true;
    }
    CURE_RETURN_IF_ERROR(AppendAllRecords(shard.aggregates_, &aggregates_));
  }

  for (auto& [id, snode] : shard.nodes_) {
    if (snode.tt_bitmap != nullptr || snode.post_processed) {
      return Status::Internal("cannot merge a post-processed shard");
    }
    NodeData* node = GetNode(id);
    if (snode.has_nt) {
      if (!node->has_nt) {
        node->nt = storage::Relation::Memory(snode.nt.record_size());
        node->has_nt = true;
      }
      CURE_RETURN_IF_ERROR(AppendAllRecords(snode.nt, &node->nt));
    }
    if (snode.has_tt) {
      if (!node->has_tt) {
        node->tt = storage::Relation::Memory(snode.tt.record_size());
        node->has_tt = true;
        node->tt_source = snode.tt_source;
      } else {
        CURE_CHECK_EQ(node->tt_source, snode.tt_source)
            << "TT source mismatch across shards";
      }
      CURE_RETURN_IF_ERROR(AppendAllRecords(snode.tt, &node->tt));
    }
    if (snode.has_cat) {
      if (!node->has_cat) {
        node->cat = storage::Relation::Memory(snode.cat.record_size());
        node->has_cat = true;
      }
      // Rebase the A-rowid reference: format (a) rows are [arowid],
      // format (b) rows are [R-rowid][arowid].
      const size_t arowid_offset = CatArowidOffset();
      uint8_t rec[16];
      CURE_CHECK_LE(snode.cat.record_size(), sizeof(rec));
      storage::Relation::Scanner scan(snode.cat);
      while (const uint8_t* src = scan.Next()) {
        std::memcpy(rec, src, snode.cat.record_size());
        layout_.PutArowid(rec + arowid_offset,
                          layout_.GetArowid(rec + arowid_offset) + arowid_base);
        CURE_RETURN_IF_ERROR(node->cat.Append(rec));
      }
      CURE_RETURN_IF_ERROR(scan.status());
    }
    if (snode.has_plain) {
      if (!node->has_plain) {
        node->plain = storage::Relation::Memory(snode.plain.record_size());
        node->has_plain = true;
      }
      CURE_RETURN_IF_ERROR(AppendAllRecords(snode.plain, &node->plain));
    }
  }
  return Status::OK();
}

Status CubeStore::PostProcess(const SourceSet& sources,
                              const PostProcessOptions& options) {
  for (auto& [id, node] : nodes_) {
    (void)id;
    if (node.post_processed) continue;
    node.post_processed = true;
    if (node.has_tt) {
      const uint64_t count = node.tt.num_rows();
      std::vector<RowId> rowids;
      rowids.reserve(count);
      storage::Relation::Scanner scan(node.tt);
      while (const uint8_t* rec = scan.Next()) {
        rowids.push_back(layout_.GetRowId(rec));
      }
      CURE_RETURN_IF_ERROR(scan.status());
      std::sort(rowids.begin(), rowids.end());
      const SourceAccessor* src = sources.Get(node.tt_source);
      const uint64_t universe = src != nullptr ? src->num_rows() : 0;
      // Compare stored bytes: the bitmap's whole words against the list at
      // this layout's row-id width.
      const bool bitmap_wins = options.use_bitmaps && universe > 0 &&
                               (universe + 63) / 64 * 8 < count * TtRecordSize();
      if (bitmap_wins) {
        node.tt_bitmap = std::make_unique<storage::Bitmap>(universe);
        for (RowId r : rowids) node.tt_bitmap->Set(RowIdOrdinal(r));
        node.tt = storage::Relation();  // Dropped; the bitmap replaces it.
        node.has_tt = false;
      } else {
        storage::Relation sorted = storage::Relation::Memory(TtRecordSize());
        uint8_t rec[8];
        for (RowId r : rowids) {
          layout_.PutRowId(rec, r);
          CURE_RETURN_IF_ERROR(sorted.Append(rec));
        }
        node.tt = std::move(sorted);
      }
    }
    if (node.has_cat && cat_format_ == CatFormat::kFormatA) {
      std::vector<uint64_t> arowids;
      arowids.reserve(node.cat.num_rows());
      storage::Relation::Scanner scan(node.cat);
      while (const uint8_t* rec = scan.Next()) {
        arowids.push_back(layout_.GetArowid(rec));
      }
      CURE_RETURN_IF_ERROR(scan.status());
      std::sort(arowids.begin(), arowids.end());
      storage::Relation sorted = storage::Relation::Memory(CatRecordSize());
      uint8_t rec[8];
      for (uint64_t a : arowids) {
        layout_.PutArowid(rec, a);
        CURE_RETURN_IF_ERROR(sorted.Append(rec));
      }
      node.cat = std::move(sorted);
    }
  }
  return Status::OK();
}

namespace {

// Packed cube file layout: header, manifest (section table), data sections.
// Version 2 added crash consistency: per-section FNV-1a checksums, a
// checksummed manifest, and the total file size, all verified at open.
// Version 3 records the record widths (RecordLayout::WidthBits) in the
// header; older files have all-8-byte records and are rejected with a
// rebuild hint.
constexpr uint64_t kPackedMagic = 0x4342554345525543ull;  // "CURECUBC"
constexpr uint32_t kPackedVersion = 3;

enum PackedKind : uint32_t {
  kPackedNt = 0,
  kPackedTt = 1,
  kPackedCat = 2,
  kPackedPlain = 3,
  kPackedTtBitmap = 4,
  kPackedAggregates = 5,
};

const char* PackedKindName(uint32_t kind) {
  switch (kind) {
    case kPackedNt: return "NT";
    case kPackedTt: return "TT";
    case kPackedCat: return "CAT";
    case kPackedPlain: return "PLAIN";
    case kPackedTtBitmap: return "TTBITMAP";
    case kPackedAggregates: return "AGGREGATES";
  }
  return "?";
}

// Both structs are padding-free (checked below): their raw bytes are the
// on-disk manifest, hashed as written.
struct PackedHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t dims_in_nt;
  uint32_t cat_format;
  uint32_t widths;             ///< RecordLayout::WidthBits()
  uint64_t num_entries;
  uint64_t total_size;         ///< whole-file byte length (truncation check)
  uint64_t manifest_checksum;  ///< FNV-1a of header (this field zeroed) + entries
};
static_assert(sizeof(PackedHeader) == 48, "PackedHeader must be packed");

struct PackedEntry {
  uint64_t node_id;
  uint32_t kind;
  uint32_t record_size;  // bitmap entries: unused (0)
  uint64_t rows;         // bitmap entries: number of 64-bit words
  uint64_t offset;
  uint64_t extra;        // bitmap universe / TT source tag packed
  uint64_t checksum;     // FNV-1a of the section's bytes
};
static_assert(sizeof(PackedEntry) == 48, "PackedEntry must be packed");

uint64_t EntryBytes(const PackedEntry& entry) {
  return entry.kind == kPackedTtBitmap ? entry.rows * 8
                                       : entry.rows * entry.record_size;
}

Status WriteRelationBlob(const storage::Relation& rel, storage::FileWriter* out) {
  if (rel.memory_backed() && rel.num_rows() > 0) {
    return out->Append(rel.RawRecord(0), rel.bytes());
  }
  storage::Relation::Scanner scan(rel);
  while (const uint8_t* rec = scan.Next()) {
    CURE_RETURN_IF_ERROR(out->Append(rec, rel.record_size()));
  }
  return scan.status();
}

Result<uint64_t> ChecksumRelation(const storage::Relation& rel) {
  if (rel.memory_backed() && rel.num_rows() > 0) {
    return Fnv1a64(rel.RawRecord(0), rel.bytes());
  }
  uint64_t h = kFnv1a64Offset;
  storage::Relation::Scanner scan(rel);
  while (const uint8_t* rec = scan.Next()) {
    h = Fnv1a64(rec, rel.record_size(), h);
  }
  CURE_RETURN_IF_ERROR(scan.status());
  return h;
}

/// FNV-1a over the manifest: the header with manifest_checksum zeroed,
/// then every entry, in file order.
uint64_t ManifestChecksum(PackedHeader header,
                          const std::vector<PackedEntry>& entries) {
  header.manifest_checksum = 0;
  uint64_t h = Fnv1a64(reinterpret_cast<const uint8_t*>(&header),
                       sizeof(header));
  if (!entries.empty()) {
    h = Fnv1a64(reinterpret_cast<const uint8_t*>(entries.data()),
                entries.size() * sizeof(PackedEntry), h);
  }
  return h;
}

/// Streams `len` bytes at `offset` through FNV-1a in bounded chunks.
Status ChecksumFileSection(const storage::FileReader& reader, uint64_t offset,
                           uint64_t len, uint64_t* out) {
  std::vector<uint8_t> buf(
      static_cast<size_t>(std::min<uint64_t>(std::max<uint64_t>(len, 1), 1 << 20)));
  uint64_t h = kFnv1a64Offset;
  while (len > 0) {
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(len, buf.size()));
    CURE_RETURN_IF_ERROR(reader.ReadAt(offset, buf.data(), chunk));
    h = Fnv1a64(buf.data(), chunk, h);
    offset += chunk;
    len -= chunk;
  }
  *out = h;
  return Status::OK();
}

Status DataLossAt(const std::string& path, const std::string& what) {
  return Status::DataLoss("packed cube '" + path + "': " + what);
}

/// Reads and structurally verifies the manifest: magic, version (legacy
/// v1/v2 get a distinct actionable error), total size vs the real file
/// size, manifest checksum, record widths, and per-entry bounds. Section
/// *data* checksums are the caller's job (OpenPacked fails fast;
/// VerifyPacked reports each).
Status ReadPackedManifest(const storage::FileReader& reader,
                          const std::string& path, PackedHeader* header,
                          std::vector<PackedEntry>* entries,
                          RecordLayout* layout) {
  const uint64_t file_size = reader.file_size();
  // Magic + version first: they sit at the same offsets in every version,
  // so a legacy cube is told apart from garbage before the v2-sized header
  // read can fail.
  struct {
    uint64_t magic;
    uint32_t version;
  } prefix;
  if (file_size < sizeof(prefix)) {
    return DataLossAt(path, "file is " + std::to_string(file_size) +
                                " bytes, too small for a packed cube header");
  }
  CURE_RETURN_IF_ERROR(reader.ReadAt(0, &prefix, sizeof(prefix)));
  if (prefix.magic != kPackedMagic) {
    return DataLossAt(path, "bad magic: not a packed cube file or its header "
                            "was overwritten");
  }
  header->version = prefix.version;
  if (prefix.version < kPackedVersion) {
    return Status::InvalidArgument(
        "'" + path + "' is a legacy packed cube (format v" +
        std::to_string(prefix.version) + ", all-8-byte records" +
        (prefix.version < 2 ? ", no checksummed manifest" : "") +
        "); this build reads only v" + std::to_string(kPackedVersion) +
        " — rebuild it with `cure_tool build` to upgrade");
  }
  if (prefix.version != kPackedVersion) {
    return DataLossAt(path, "unsupported format version " +
                                std::to_string(prefix.version));
  }
  if (file_size < sizeof(PackedHeader)) {
    return DataLossAt(path, "file truncated inside the header");
  }
  CURE_RETURN_IF_ERROR(reader.ReadAt(0, header, sizeof(PackedHeader)));
  if (header->total_size != file_size) {
    return DataLossAt(path, "file is " + std::to_string(file_size) +
                                " bytes but the manifest records " +
                                std::to_string(header->total_size) +
                                " (truncated or appended-to)");
  }
  const uint64_t manifest_end =
      sizeof(PackedHeader) + header->num_entries * sizeof(PackedEntry);
  if (header->num_entries > file_size / sizeof(PackedEntry) ||
      manifest_end > file_size) {
    return DataLossAt(path, "manifest section table exceeds the file");
  }
  entries->assign(header->num_entries, PackedEntry{});
  if (!entries->empty()) {
    CURE_RETURN_IF_ERROR(reader.ReadAt(sizeof(PackedHeader), entries->data(),
                                       entries->size() * sizeof(PackedEntry)));
  }
  if (ManifestChecksum(*header, *entries) != header->manifest_checksum) {
    return DataLossAt(path, "manifest checksum mismatch (header or section "
                            "table corrupted)");
  }
  Result<RecordLayout> widths = RecordLayout::FromWidthBits(header->widths);
  if (!widths.ok()) return DataLossAt(path, widths.status().message());
  *layout = std::move(widths).value();
  // Entry bounds: every section must lie inside [manifest_end, total_size)
  // without arithmetic wrap-around.
  for (size_t i = 0; i < entries->size(); ++i) {
    const PackedEntry& entry = (*entries)[i];
    const std::string where = "section " + std::to_string(i) + " (" +
                              PackedKindName(entry.kind) + ")";
    if (entry.kind > kPackedAggregates) {
      return DataLossAt(path, where + ": unknown section kind");
    }
    if (entry.kind != kPackedTtBitmap && entry.rows > 0 &&
        entry.record_size == 0) {
      return DataLossAt(path, where + ": zero record size");
    }
    const uint64_t per_row =
        entry.kind == kPackedTtBitmap ? 8 : entry.record_size;
    if (entry.offset < manifest_end || entry.offset > file_size) {
      return DataLossAt(path, where + ": offset outside the file");
    }
    if (entry.rows > 0 && per_row > (file_size - entry.offset) / entry.rows) {
      return DataLossAt(path, where + ": section extends past end of file");
    }
  }
  return Status::OK();
}

}  // namespace

size_t CubeStore::PackedRecordSize(uint32_t kind, uint64_t node) const {
  if (kind == kPackedAggregates) return AggregatesRecordSize(cat_format_);
  if (node >= codec_.num_nodes()) return 0;
  int g = 0;
  const std::vector<int> levels = codec_.Decode(node);
  for (int d = 0; d < schema_->num_dims(); ++d) {
    if (levels[d] != codec_.all_level(d)) ++g;
  }
  switch (kind) {
    case kPackedNt: return NtRecordSize(g);
    case kPackedTt: return TtRecordSize();
    case kPackedCat: return CatRecordSize();
    case kPackedPlain: return PlainRecordSize(g);
  }
  return 0;
}

Status CubeStore::PersistPacked(const std::string& path) const {
  // Manifest first (sizes of everything are known up front).
  std::vector<PackedEntry> entries;
  std::vector<std::pair<const storage::Relation*, const storage::Bitmap*>> blobs;
  auto add_relation = [&](uint64_t node_id, PackedKind kind,
                          const storage::Relation& rel) {
    PackedEntry entry{};
    entry.node_id = node_id;
    entry.kind = kind;
    entry.record_size = static_cast<uint32_t>(rel.record_size());
    entry.rows = rel.num_rows();
    entries.push_back(entry);
    blobs.push_back({&rel, nullptr});
  };
  // Emit nodes in node-id order: the packed image must be a deterministic
  // function of the cube contents (unordered_map iteration depends on
  // insertion history, which differs between serial and shard-merged
  // builds of the very same cube).
  std::vector<std::pair<uint64_t, const NodeData*>> ordered;
  ordered.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ordered.emplace_back(id, &node);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, node_ptr] : ordered) {
    const NodeData& node = *node_ptr;
    if (node.has_nt) add_relation(id, kPackedNt, node.nt);
    if (node.has_tt) {
      add_relation(id, kPackedTt, node.tt);
      entries.back().extra = node.tt_source;
    }
    if (node.has_cat) add_relation(id, kPackedCat, node.cat);
    if (node.has_plain) add_relation(id, kPackedPlain, node.plain);
    if (node.tt_bitmap != nullptr) {
      PackedEntry entry{};
      entry.node_id = id;
      entry.kind = kPackedTtBitmap;
      entry.rows = node.tt_bitmap->words().size();
      entry.extra = (static_cast<uint64_t>(node.tt_source) << 48) |
                    node.tt_bitmap->universe();
      entries.push_back(entry);
      blobs.push_back({nullptr, node.tt_bitmap.get()});
    }
  }
  if (aggregates_init_) add_relation(~uint64_t{0}, kPackedAggregates, aggregates_);

  // Assign offsets and compute per-section checksums (for file-backed
  // relations this is a first streaming pass; the write below is the
  // second).
  uint64_t offset = sizeof(PackedHeader) + entries.size() * sizeof(PackedEntry);
  for (size_t i = 0; i < entries.size(); ++i) {
    PackedEntry& entry = entries[i];
    entry.offset = offset;
    offset += EntryBytes(entry);
    if (blobs[i].second != nullptr) {
      const auto& words = blobs[i].second->words();
      entry.checksum = Fnv1a64(reinterpret_cast<const uint8_t*>(words.data()),
                               words.size() * 8);
    } else {
      CURE_ASSIGN_OR_RETURN(entry.checksum, ChecksumRelation(*blobs[i].first));
    }
  }

  PackedHeader header{};
  header.magic = kPackedMagic;
  header.version = kPackedVersion;
  header.dims_in_nt = options_.dims_in_nt ? 1 : 0;
  header.cat_format = static_cast<uint32_t>(cat_format_);
  header.widths = layout_.WidthBits();
  header.num_entries = entries.size();
  header.total_size = offset;
  header.manifest_checksum = ManifestChecksum(header, entries);

  // Crash-consistent publish: stage the complete image at a temp path,
  // fsync it, atomically rename onto `path`, then fsync the parent
  // directory so the new name itself is durable. Readers racing a crash
  // see either the old file or the complete new one.
  const std::string tmp = path + ".tmp";
  auto write_image = [&]() -> Status {
    storage::FileWriter writer;
    CURE_RETURN_IF_ERROR(writer.Open(tmp));
    CURE_RETURN_IF_ERROR(writer.Append(&header, sizeof(header)));
    for (const PackedEntry& entry : entries) {
      CURE_RETURN_IF_ERROR(writer.Append(&entry, sizeof(entry)));
    }
    for (size_t i = 0; i < blobs.size(); ++i) {
      if (blobs[i].second != nullptr) {
        const auto& words = blobs[i].second->words();
        CURE_RETURN_IF_ERROR(writer.Append(words.data(), words.size() * 8));
      } else {
        CURE_RETURN_IF_ERROR(WriteRelationBlob(*blobs[i].first, &writer));
      }
    }
    CURE_RETURN_IF_ERROR(writer.Sync());
    return writer.Close();
  };
  Status s = write_image();
  if (s.ok()) s = storage::RenameFile(tmp, path);
  if (s.ok()) s = storage::SyncDir(storage::DirName(path));
  if (!s.ok()) {
    // Leave no stale temp image behind. Deliberately not the (fault-
    // injectable) RemoveFile shim: cleanup must succeed even mid-sweep.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
  }
  return s;
}

Result<CubeStore> CubeStore::OpenPacked(const std::string& path,
                                        const schema::CubeSchema* schema) {
  auto reader = std::make_shared<storage::FileReader>();
  CURE_RETURN_IF_ERROR(reader->Open(path));
  PackedHeader header;
  std::vector<PackedEntry> entries;
  RecordLayout layout;
  CURE_RETURN_IF_ERROR(
      ReadPackedManifest(*reader, path, &header, &entries, &layout));
  if (layout.num_aggregates() != schema->num_aggregates()) {
    return Status::InvalidArgument(
        "packed cube '" + path + "' stores " +
        std::to_string(layout.num_aggregates()) +
        " aggregates but the schema declares " +
        std::to_string(schema->num_aggregates()));
  }
  // Verify every section's checksum before handing out views: a bit flip
  // or torn write must surface as kDataLoss at open, never as wrong rows
  // at query time.
  for (size_t i = 0; i < entries.size(); ++i) {
    uint64_t actual = 0;
    CURE_RETURN_IF_ERROR(ChecksumFileSection(*reader, entries[i].offset,
                                             EntryBytes(entries[i]), &actual));
    if (actual != entries[i].checksum) {
      return DataLossAt(path, "section " + std::to_string(i) + " (" +
                                  PackedKindName(entries[i].kind) +
                                  ") checksum mismatch: data corrupted");
    }
  }
  Options options;
  options.dims_in_nt = header.dims_in_nt != 0;
  CubeStore store(schema, options, layout);
  store.cat_format_ = static_cast<CatFormat>(header.cat_format);
  for (const PackedEntry& entry : entries) {
    if (entry.kind != kPackedTtBitmap &&
        entry.record_size != store.PackedRecordSize(entry.kind, entry.node_id)) {
      return DataLossAt(path, std::string(PackedKindName(entry.kind)) +
                                  " section of node " +
                                  std::to_string(entry.node_id) +
                                  " has record size " +
                                  std::to_string(entry.record_size) +
                                  ", not the " + layout.ToString() +
                                  " layout's");
    }
    if (entry.kind == kPackedAggregates) {
      store.aggregates_ = storage::Relation::FileView(reader, entry.offset,
                                                      entry.rows,
                                                      entry.record_size);
      store.aggregates_init_ = true;
      continue;
    }
    NodeData* node = store.GetNode(entry.node_id);
    node->post_processed = true;  // Disk cubes are final.
    switch (entry.kind) {
      case kPackedNt:
        node->nt = storage::Relation::FileView(reader, entry.offset, entry.rows,
                                               entry.record_size);
        node->has_nt = true;
        break;
      case kPackedTt:
        node->tt = storage::Relation::FileView(reader, entry.offset, entry.rows,
                                               entry.record_size);
        node->has_tt = true;
        node->tt_source = static_cast<uint32_t>(entry.extra);
        break;
      case kPackedCat:
        node->cat = storage::Relation::FileView(reader, entry.offset, entry.rows,
                                                entry.record_size);
        node->has_cat = true;
        break;
      case kPackedPlain:
        node->plain = storage::Relation::FileView(reader, entry.offset,
                                                  entry.rows, entry.record_size);
        node->has_plain = true;
        break;
      case kPackedTtBitmap: {
        node->tt_bitmap = std::make_unique<storage::Bitmap>(
            entry.extra & ((uint64_t{1} << 48) - 1));
        node->tt_source = static_cast<uint32_t>(entry.extra >> 48);
        node->tt_bitmap->mutable_words().resize(entry.rows);
        CURE_RETURN_IF_ERROR(reader->ReadAt(entry.offset,
                                            node->tt_bitmap->mutable_words().data(),
                                            entry.rows * 8));
        break;
      }
      default:
        return Status::InvalidArgument("unknown packed entry kind");
    }
  }
  return store;
}

CubeStore::PackedVerifyReport CubeStore::VerifyPacked(const std::string& path) {
  PackedVerifyReport report;
  storage::FileReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) {
    report.status = s;
    return report;
  }
  report.file_size = reader.file_size();
  PackedHeader header{};
  std::vector<PackedEntry> entries;
  s = ReadPackedManifest(reader, path, &header, &entries, &report.layout);
  report.version = header.version;
  if (!s.ok()) {
    report.status = s;
    return report;
  }
  report.manifest_ok = true;
  uint64_t bad_sections = 0;
  for (const PackedEntry& entry : entries) {
    PackedSectionReport section;
    section.node_id = entry.node_id;
    section.kind = PackedKindName(entry.kind);
    section.rows = entry.rows;
    section.bytes = EntryBytes(entry);
    section.offset = entry.offset;
    uint64_t actual = 0;
    s = ChecksumFileSection(reader, entry.offset, section.bytes, &actual);
    section.checksum_ok = s.ok() && actual == entry.checksum;
    if (!section.checksum_ok) ++bad_sections;
    report.sections.push_back(std::move(section));
  }
  report.status =
      bad_sections == 0
          ? Status::OK()
          : DataLossAt(path, std::to_string(bad_sections) + " of " +
                                 std::to_string(report.sections.size()) +
                                 " sections failed checksum verification");
  return report;
}

uint64_t CubeStore::TotalBytes() const {
  uint64_t total = aggregates_init_ ? aggregates_.bytes() : 0;
  for (const auto& [id, node] : nodes_) {
    (void)id;
    if (node.has_nt) total += node.nt.bytes();
    if (node.has_tt) total += node.tt.bytes();
    if (node.has_cat) total += node.cat.bytes();
    if (node.has_plain) total += node.plain.bytes();
    if (node.tt_bitmap != nullptr) total += node.tt_bitmap->SerializedBytes();
  }
  return total;
}

uint64_t CubeStore::NumRelations() const {
  uint64_t count = aggregates_init_ ? 1 : 0;
  for (const auto& [id, node] : nodes_) {
    (void)id;
    count += (node.has_nt ? 1 : 0) + (node.has_tt ? 1 : 0) + (node.has_cat ? 1 : 0) +
             (node.has_plain ? 1 : 0) + (node.tt_bitmap != nullptr ? 1 : 0);
  }
  return count;
}

CubeStore::ClassCounts CubeStore::Counts() const {
  ClassCounts counts;
  counts.aggregates = aggregates_init_ ? aggregates_.num_rows() : 0;
  for (const auto& [id, node] : nodes_) {
    (void)id;
    if (node.has_nt) counts.nt += node.nt.num_rows();
    if (node.has_tt) counts.tt += node.tt.num_rows();
    if (node.tt_bitmap != nullptr) counts.tt += node.tt_bitmap->Count();
    if (node.has_cat) counts.cat += node.cat.num_rows();
    if (node.has_plain) counts.plain += node.plain.num_rows();
  }
  return counts;
}

}  // namespace cube
}  // namespace cure
