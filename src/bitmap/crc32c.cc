#include "bitmap/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <nmmintrin.h>
#define BIX_CRC32C_HAVE_SSE42 1
#endif

namespace bix {

namespace crc32c_internal {

// The reflected Castagnoli polynomial.
constexpr uint32_t kPolyReflected = 0x82F63B78u;

namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial, built once
// at first use.  Table 0 is the classic byte-at-a-time table; table k maps
// a byte processed k positions earlier.
struct Tables {
  std::array<std::array<uint32_t, 256>, 8> t;

  Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPolyReflected : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFF] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Tables& GetTables() {
  static const Tables tables;
  return tables;
}

}  // namespace

uint32_t PortableUpdate(uint32_t state, const uint8_t* data, size_t n) {
  const Tables& tab = GetTables();
  while (n >= 8) {
    uint32_t low = state ^ (static_cast<uint32_t>(data[0]) |
                            static_cast<uint32_t>(data[1]) << 8 |
                            static_cast<uint32_t>(data[2]) << 16 |
                            static_cast<uint32_t>(data[3]) << 24);
    state = tab.t[7][low & 0xFF] ^ tab.t[6][(low >> 8) & 0xFF] ^
            tab.t[5][(low >> 16) & 0xFF] ^ tab.t[4][low >> 24] ^
            tab.t[3][data[4]] ^ tab.t[2][data[5]] ^ tab.t[1][data[6]] ^
            tab.t[0][data[7]];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    state = tab.t[0][(state ^ *data++) & 0xFF] ^ (state >> 8);
  }
  return state;
}

#if defined(BIX_CRC32C_HAVE_SSE42)

__attribute__((target("sse4.2"))) uint32_t HardwareUpdate(uint32_t state,
                                                          const uint8_t* data,
                                                          size_t n) {
  // Align to 8 bytes, then fold 8 bytes per instruction.
  while (n > 0 && (reinterpret_cast<uintptr_t>(data) & 7) != 0) {
    state = _mm_crc32_u8(state, *data++);
    --n;
  }
  uint64_t state64 = state;
  while (n >= 8) {
    state64 = _mm_crc32_u64(state64,
                            *reinterpret_cast<const uint64_t*>(data));
    data += 8;
    n -= 8;
  }
  state = static_cast<uint32_t>(state64);
  while (n-- > 0) {
    state = _mm_crc32_u8(state, *data++);
  }
  return state;
}

__attribute__((target("sse4.2"))) void HardwareUpdate3(
    uint32_t state[3], const uint8_t* const data[3], size_t n) {
  // Three independent dependency chains: each CRC32 has a 3-cycle latency
  // but issues once per cycle, so interleaving fills the pipeline.
  // Unaligned 8-byte loads cost the same as aligned ones here.
  const uint8_t* a = data[0];
  const uint8_t* b = data[1];
  const uint8_t* c = data[2];
  uint64_t sa = state[0];
  uint64_t sb = state[1];
  uint64_t sc = state[2];
  for (; n >= 8; n -= 8, a += 8, b += 8, c += 8) {
    uint64_t wa, wb, wc;
    std::memcpy(&wa, a, 8);
    std::memcpy(&wb, b, 8);
    std::memcpy(&wc, c, 8);
    sa = _mm_crc32_u64(sa, wa);
    sb = _mm_crc32_u64(sb, wb);
    sc = _mm_crc32_u64(sc, wc);
  }
  uint32_t ta = static_cast<uint32_t>(sa);
  uint32_t tb = static_cast<uint32_t>(sb);
  uint32_t tc = static_cast<uint32_t>(sc);
  for (; n > 0; --n) {
    ta = _mm_crc32_u8(ta, *a++);
    tb = _mm_crc32_u8(tb, *b++);
    tc = _mm_crc32_u8(tc, *c++);
  }
  state[0] = ta;
  state[1] = tb;
  state[2] = tc;
}

bool HardwareAvailable() {
  static const bool available = __builtin_cpu_supports("sse4.2");
  return available;
}

#else  // !BIX_CRC32C_HAVE_SSE42

uint32_t HardwareUpdate(uint32_t state, const uint8_t* data, size_t n) {
  return PortableUpdate(state, data, n);
}

void HardwareUpdate3(uint32_t state[3], const uint8_t* const data[3],
                     size_t n) {
  for (int k = 0; k < 3; ++k) state[k] = PortableUpdate(state[k], data[k], n);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFu;
  state = crc32c_internal::HardwareAvailable()
              ? crc32c_internal::HardwareUpdate(state, bytes, n)
              : crc32c_internal::PortableUpdate(state, bytes, n);
  return state ^ 0xFFFFFFFFu;
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

void Crc32cTriple(const uint8_t* const data[3], size_t n, uint32_t crcs[3]) {
  uint32_t state[3] = {~0u, ~0u, ~0u};
  if (crc32c_internal::HardwareAvailable()) {
    crc32c_internal::HardwareUpdate3(state, data, n);
  } else {
    for (int k = 0; k < 3; ++k) {
      state[k] = crc32c_internal::PortableUpdate(state[k], data[k], n);
    }
  }
  for (int k = 0; k < 3; ++k) crcs[k] = ~state[k];
}

namespace {

// Polynomial arithmetic mod P on reflected 32-bit values (bit 31 is x^0),
// after zlib's crc32_combine.  With pre- and post-inversion cancelling,
// crc(A ‖ B) = crc(A) * x^(8|B|) + crc(B) mod P.
// Branch-free per bit (the bits of a CRC are coin flips); stops after
// a's last set coefficient, so multiplying by x^0 takes one step.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t p = 0;
  for (; a != 0; a <<= 1) {
    p ^= b & (0u - (a >> 31));
    b = (b >> 1) ^ (crc32c_internal::kPolyReflected & (0u - (b & 1)));
  }
  return p;
}

// x^(2^k) mod P for k = 0..63, by repeated squaring.
struct PowerTable {
  std::array<uint32_t, 64> x2n;

  PowerTable() {
    uint32_t p = 1u << 30;  // x^1
    for (uint32_t& entry : x2n) {
      entry = p;
      p = MultModP(p, p);
    }
  }
};

}  // namespace

uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  static const PowerTable table;
  // x^(8 * len_b): one table power per set bit of len_b, starting at 2^3.
  uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0 && k < table.x2n.size(); len_b >>= 1, ++k) {
    if (len_b & 1) shift = MultModP(shift, table.x2n[k]);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace bix
