#include "sketch/hash.h"

#include <array>

namespace newton {
namespace {

template <uint32_t Poly>
constexpr std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (Poly ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

constexpr auto kCrc32Table = make_crc_table<0xEDB88320u>();
constexpr auto kCrc32cTable = make_crc_table<0x82F63B78u>();

// Slicing-by-4 companion tables: T[0] is the byte table above, and
// T[k][i] advances T[k-1][i] by one zero byte, so a whole 32-bit word is
// absorbed with four independent lookups instead of four chained
// byte steps.  Bit-identical to the byte-at-a-time loop.
template <uint32_t Poly>
constexpr std::array<std::array<uint32_t, 256>, 4> make_crc_slices() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  t[0] = make_crc_table<Poly>();
  for (std::size_t k = 1; k < 4; ++k)
    for (uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kCrc32Slices = make_crc_slices<0xEDB88320u>();
constexpr auto kCrc32cSlices = make_crc_slices<0x82F63B78u>();

uint32_t crc(const std::array<uint32_t, 256>& table, uint32_t seed,
             std::span<const uint8_t> data) {
  uint32_t c = ~seed;
  for (uint8_t b : data) c = table[(c ^ b) & 0xff] ^ (c >> 8);
  return ~c;
}

// CRC of one little-endian 32-bit word: equals crc(table, seed, 4 LE bytes).
inline uint32_t crc_word(const std::array<std::array<uint32_t, 256>, 4>& t,
                         uint32_t seed, uint32_t word) {
  const uint32_t x = ~seed ^ word;
  return ~(t[3][x & 0xff] ^ t[2][(x >> 8) & 0xff] ^ t[1][(x >> 16) & 0xff] ^
           t[0][x >> 24]);
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Seed-keyed multiplicative finalizer shared by hash_words and the
// multi-lane path (see the affinity note in hash_words).
inline uint32_t words_finalize(uint32_t h, uint32_t seed) {
  uint64_t x = (uint64_t{h} << 32) ^ (seed * 0x9E3779B9ull + 0x7F4A7C15ull);
  x = splitmix64(x);
  return static_cast<uint32_t>(x ^ (x >> 32));
}

// Multi-lane CRC word absorption: four independent accumulator chains per
// block, so the four serially-dependent table-lookup chains issue in
// parallel.  Each lane's math is exactly hash_words' per-word chaining.
void crc_words_lanes(const std::array<std::array<uint32_t, 256>, 4>& t,
                     uint32_t seed, const uint32_t* base, std::size_t nwords,
                     std::size_t stride, std::size_t lanes,
                     const uint32_t* masks, uint32_t* out) {
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    const uint32_t* p0 = base + (l + 0) * stride;
    const uint32_t* p1 = base + (l + 1) * stride;
    const uint32_t* p2 = base + (l + 2) * stride;
    const uint32_t* p3 = base + (l + 3) * stride;
    uint32_t h0 = seed, h1 = seed, h2 = seed, h3 = seed;
    for (std::size_t j = 0; j < nwords; ++j) {
      const uint32_t m = masks == nullptr ? 0xffffffffu : masks[j];
      h0 = crc_word(t, h0 ^ 0x5bd1e995u, p0[j] & m);
      h1 = crc_word(t, h1 ^ 0x5bd1e995u, p1[j] & m);
      h2 = crc_word(t, h2 ^ 0x5bd1e995u, p2[j] & m);
      h3 = crc_word(t, h3 ^ 0x5bd1e995u, p3[j] & m);
    }
    out[l + 0] = words_finalize(h0, seed);
    out[l + 1] = words_finalize(h1, seed);
    out[l + 2] = words_finalize(h2, seed);
    out[l + 3] = words_finalize(h3, seed);
  }
  for (; l < lanes; ++l) {
    const uint32_t* p = base + l * stride;
    uint32_t h = seed;
    for (std::size_t j = 0; j < nwords; ++j) {
      const uint32_t m = masks == nullptr ? 0xffffffffu : masks[j];
      h = crc_word(t, h ^ 0x5bd1e995u, p[j] & m);
    }
    out[l] = words_finalize(h, seed);
  }
}

}  // namespace

uint32_t hash_bytes(HashAlgo algo, uint32_t seed,
                    std::span<const uint8_t> data) {
  switch (algo) {
    case HashAlgo::Crc32:
      return crc(kCrc32Table, seed, data);
    case HashAlgo::Crc32c:
      return crc(kCrc32cTable, seed, data);
    case HashAlgo::Mix64: {
      uint64_t h = seed;
      for (uint8_t b : data) h = splitmix64(h ^ b);
      return static_cast<uint32_t>(h ^ (h >> 32));
    }
    case HashAlgo::Identity: {
      uint32_t v = 0;
      const std::size_t n = data.size() < 4 ? data.size() : 4;
      for (std::size_t i = 0; i < n; ++i) v |= uint32_t{data[i]} << (8 * i);
      return v;
    }
  }
  return 0;
}

uint32_t hash_u32(HashAlgo algo, uint32_t seed, uint32_t value) {
  switch (algo) {
    case HashAlgo::Identity:
      return value;
    case HashAlgo::Crc32:
      return crc_word(kCrc32Slices, seed, value);
    case HashAlgo::Crc32c:
      return crc_word(kCrc32cSlices, seed, value);
    case HashAlgo::Mix64:
      break;
  }
  std::array<uint8_t, 4> bytes{
      static_cast<uint8_t>(value), static_cast<uint8_t>(value >> 8),
      static_cast<uint8_t>(value >> 16), static_cast<uint8_t>(value >> 24)};
  return hash_bytes(algo, seed, bytes);
}

uint32_t hash_words(HashAlgo algo, uint32_t seed,
                    std::span<const uint32_t> words) {
  if (algo == HashAlgo::Identity)
    return words.empty() ? 0 : words.front();
  uint32_t h = seed;
  switch (algo) {
    case HashAlgo::Crc32:
      for (uint32_t w : words) h = crc_word(kCrc32Slices, h ^ 0x5bd1e995u, w);
      break;
    case HashAlgo::Crc32c:
      for (uint32_t w : words)
        h = crc_word(kCrc32cSlices, h ^ 0x5bd1e995u, w);
      break;
    default:
      for (uint32_t w : words) h = hash_u32(algo, h ^ 0x5bd1e995u, w);
      break;
  }
  // CRC is affine over GF(2): two seeds yield XOR-shifted copies of the
  // same function, which would make sketch rows perfectly correlated (the
  // min over rows degenerates to one row).  Hardware uses a DIFFERENT
  // polynomial per row; we model that with a seed-keyed multiplicative
  // finalizer, which breaks the affinity.
  return words_finalize(h, seed);
}

void hash_words_lanes(HashAlgo algo, uint32_t seed, const uint32_t* base,
                      std::size_t nwords, std::size_t stride_words,
                      std::size_t lanes, const uint32_t* masks,
                      uint32_t* out) {
  switch (algo) {
    case HashAlgo::Crc32:
      crc_words_lanes(kCrc32Slices, seed, base, nwords, stride_words, lanes,
                      masks, out);
      return;
    case HashAlgo::Crc32c:
      crc_words_lanes(kCrc32cSlices, seed, base, nwords, stride_words, lanes,
                      masks, out);
      return;
    case HashAlgo::Identity:
      for (std::size_t l = 0; l < lanes; ++l)
        out[l] = nwords == 0 ? 0
                             : base[l * stride_words] &
                                   (masks == nullptr ? 0xffffffffu : masks[0]);
      return;
    case HashAlgo::Mix64:
      break;
  }
  // Mix64 keys per-byte state through splitmix64 — no profitable lane
  // interleave; absorb each lane's masked words in place, exactly as
  // hash_words' per-word chaining does.
  for (std::size_t l = 0; l < lanes; ++l) {
    const uint32_t* p = base + l * stride_words;
    uint32_t h = seed;
    for (std::size_t j = 0; j < nwords; ++j) {
      const uint32_t m = masks == nullptr ? 0xffffffffu : masks[j];
      h = hash_u32(algo, h ^ 0x5bd1e995u, p[j] & m);
    }
    out[l] = words_finalize(h, seed);
  }
}

}  // namespace newton
