/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum real
 * persistent-memory libraries use for media-fault detection (Pangolin;
 * hardware-accelerated by SSE4.2 crc32q). This is the portable
 * slicing-by-8 software form, byte-reflected like the hardware
 * instruction: eight 256-entry tables fold one 8-byte little-endian
 * block per step, with a bytewise tail. It yields exactly the values of
 * the classic one-table bytewise loop for every seed, length and
 * alignment (the block words are assembled from bytes, so there is no
 * alignment or byte-order dependence), several times faster.
 *
 * The primitive here is the *raw* rolling form: `crc32c(data, n, seed)`
 * starts from @p seed and applies no final inversion, so checksums can
 * be computed incrementally — crc32c(a+b) == crc32c(b, crc32c(a)) —
 * and a structure can pick a nonzero seed to keep the all-zero image
 * from checksumming to zero (or seed 0 where all-zero *should* be
 * self-consistent, e.g. an idle undo-log header in a fresh pool).
 *
 * The conventional CRC-32C value (init 0xFFFFFFFF, final xor, e.g.
 * "123456789" -> 0xE3069283) is `~crc32c(data, n, 0xFFFFFFFF)`;
 * crc32cStd() wraps that for interoperability checks and the
 * known-answer tests.
 */
#ifndef POAT_COMMON_CRC32C_H
#define POAT_COMMON_CRC32C_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace poat {

namespace detail {

/**
 * Slicing tables: kCrc32cTables[0] is the bytewise table of the
 * reflected polynomial; kCrc32cTables[k][i] is the CRC of byte i
 * followed by k zero bytes, so one lookup per table folds a byte k
 * positions back from the end of an 8-byte block.
 */
constexpr std::array<std::array<uint32_t, 256>, 8>
makeCrc32cTables()
{
    // Reflected polynomial of 0x1EDC6F41.
    constexpr uint32_t kPoly = 0x82F63B78u;
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
    return t;
}

inline constexpr std::array<std::array<uint32_t, 256>, 8> kCrc32cTables =
    makeCrc32cTables();

/** Little-endian 32-bit word from four bytes (no alignment needed). */
inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace detail

/** Raw rolling CRC32C: continue from @p seed, no final inversion. */
inline uint32_t
crc32c(const void *data, size_t n, uint32_t seed = 0)
{
    const auto &t = detail::kCrc32cTables;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed;
    for (; n >= 8; n -= 8, p += 8) {
        const uint32_t lo = c ^ detail::loadLe32(p);
        const uint32_t hi = detail::loadLe32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

/** Conventional CRC-32C (init 0xFFFFFFFF, final inversion). */
inline uint32_t
crc32cStd(const void *data, size_t n)
{
    return ~crc32c(data, n, 0xFFFFFFFFu);
}

} // namespace poat

#endif // POAT_COMMON_CRC32C_H
