#ifndef HYDRA_COMMON_CRC32_H_
#define HYDRA_COMMON_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define HYDRA_CRC32C_HAS_SSE42_PATH 1
#else
#define HYDRA_CRC32C_HAS_SSE42_PATH 0
#endif

namespace hydra {

// CRC-32C (Castagnoli polynomial, reflected 0x82F63B78) — the checksum
// production storage engines use for page integrity. Integrity
// verification here guards against storage returning wrong bytes, not
// against adversaries.
//
// Dispatch: on x86-64, Crc32c runs the SSE4.2 `crc32` instruction (eight
// bytes per step; about 1.0 µs per 8 KiB against 22 µs for the table
// loop on one x86-64 AVX2 core) when CPUID reports SSE4.2. The
// check runs once per process, on the first call; the SSE4.2 function
// is compiled with a per-function target attribute, so the rest of the
// build stays at the portable baseline. Everywhere else — older x86 CPUs,
// non-x86 targets, compilers without the attribute — the byte-at-a-time
// table loop runs. Both paths compute the same function, so files
// checksummed by either verify under the other. There is no override
// knob; tests call the two paths in `internal` directly.
namespace internal {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

// Portable path: one table lookup per byte.
inline uint32_t Crc32cTable(const void* data, size_t bytes, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < bytes; ++i) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if HYDRA_CRC32C_HAS_SSE42_PATH
// Hardware path: bytes up to the first 8-byte boundary, then one
// `crc32 r64` per aligned word, then the tail. Call only when
// Crc32cHardwareAvailable().
__attribute__((target("sse4.2"))) inline uint32_t Crc32cSse42(
    const void* data, size_t bytes, uint32_t crc) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (bytes > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --bytes;
  }
  uint64_t c64 = c;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; bytes > 0; --bytes) c = _mm_crc32_u8(c, *p++);
  return ~c;
}
#endif

// True when Crc32c runs the SSE4.2 instruction on this machine.
inline bool Crc32cHardwareAvailable() {
#if HYDRA_CRC32C_HAS_SSE42_PATH
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

}  // namespace internal

// Extends `crc` (a previous Crc32c result, or 0 to start) over `bytes`.
inline uint32_t Crc32c(const void* data, size_t bytes, uint32_t crc = 0) {
#if HYDRA_CRC32C_HAS_SSE42_PATH
  if (internal::Crc32cHardwareAvailable()) {
    return internal::Crc32cSse42(data, bytes, crc);
  }
#endif
  return internal::Crc32cTable(data, bytes, crc);
}

}  // namespace hydra

#endif  // HYDRA_COMMON_CRC32_H_
