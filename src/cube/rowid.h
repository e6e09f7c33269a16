#ifndef CURE_CUBE_ROWID_H_
#define CURE_CUBE_ROWID_H_

#include <cstdint>

namespace cure {
namespace cube {

/// Namespaced row-id: the paper's R-rowid generalized so that references can
/// point into more than one source relation. CURE's external path (Sec. 4)
/// produces cube nodes whose tuples reference the fact table R *or* the
/// partition-pass node N; packing a source tag into the top bits keeps
/// common-source CAT detection exact (equal RowIds <=> same source tuple)
/// and lets query answering dereference through the right relation.
using RowId = uint64_t;

inline constexpr int kRowIdSourceShift = 48;
inline constexpr RowId kRowIdOrdinalMask = (RowId{1} << kRowIdSourceShift) - 1;

/// Source tags.
inline constexpr uint32_t kSourceFact = 0;   ///< the original fact table R
inline constexpr uint32_t kSourceNodeN = 1;  ///< the partition-pass node N
inline constexpr uint32_t kNumSourceTags = 2;

inline RowId MakeRowId(uint32_t source, uint64_t ordinal) {
  return (RowId{source} << kRowIdSourceShift) | ordinal;
}

inline uint32_t RowIdSource(RowId id) {
  return static_cast<uint32_t>(id >> kRowIdSourceShift);
}

inline uint64_t RowIdOrdinal(RowId id) { return id & kRowIdOrdinalMask; }

}  // namespace cube
}  // namespace cure

#endif  // CURE_CUBE_ROWID_H_
