#include "core/session_store.h"

#include <string>

namespace csm {
namespace {

uint64_t HashString(uint64_t h, const std::string& s) {
  h = MixFingerprint(h, s.size());
  for (char c : s) h = MixFingerprint(h, static_cast<unsigned char>(c));
  return h;
}

}  // namespace

uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t FingerprintDatabase(const Database& db) {
  uint64_t h = HashString(0x811c9dc5u, db.name());
  h = MixFingerprint(h, db.tables().size());
  for (const Table& table : db.tables()) {
    h = HashString(h, table.name());
    h = HashString(h, table.schema().ToString());
    h = MixFingerprint(h, table.num_rows());
    // Row-major over the column segments: the same hash sequence the old
    // row-store loop produced (Column::CellHash == Value::Hash), without
    // boxing a Value per cell.
    const size_t num_cols = table.schema().num_attributes();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) {
        h = MixFingerprint(h, table.column(c).CellHash(r));
      }
    }
  }
  return h;
}

}  // namespace csm
