#include "common/crc32.h"

#include <array>

namespace sgq {
namespace {

// Slicing-by-8 tables over the reflected polynomial: kTables[0] is the
// classic byte-at-a-time table, and kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight bytes fold in with eight lookups and
// no loop-carried dependency between them. Checkpoints checksum every
// payload byte twice (section and footer) on the ingest thread, where a
// byte-at-a-time loop is a measurable share of a checkpoint's stall.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const Tables kTables = MakeTables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; len -= 8, p += 8) {
    // Little-endian assembly from bytes: independent of host byte order
    // and alignment.
    const std::uint32_t lo = (crc ^ (std::uint32_t{p[0]} |
                                     std::uint32_t{p[1]} << 8 |
                                     std::uint32_t{p[2]} << 16 |
                                     std::uint32_t{p[3]} << 24));
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; len > 0; --len, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sgq
