#include "compress/wah_codec.h"

#include <cstring>

namespace bix {

namespace {

constexpr size_t kHeaderBytes = sizeof(uint64_t);

std::vector<uint8_t> EncodeWah(const WahBitvector& wah) {
  const std::vector<uint32_t>& words = wah.code_words();
  std::vector<uint8_t> out(kHeaderBytes + words.size() * 4);
  uint64_t num_bits = wah.size();
  std::memcpy(out.data(), &num_bits, kHeaderBytes);
  if (!words.empty()) {
    std::memcpy(out.data() + kHeaderBytes, words.data(), words.size() * 4);
  }
  return out;
}

// Reads the bit-length header; false when the payload is not a header plus
// whole code words.
bool ReadHeader(std::span<const uint8_t> payload, uint64_t* num_bits) {
  if (payload.size() < kHeaderBytes ||
      (payload.size() - kHeaderBytes) % 4 != 0) {
    return false;
  }
  std::memcpy(num_bits, payload.data(), kHeaderBytes);
  return true;
}

}  // namespace

std::vector<uint8_t> WahCodec::EncodeBits(const Bitvector& bits) {
  return EncodeWah(WahBitvector::FromBitvector(bits));
}

bool WahCodec::DecodeToWah(std::span<const uint8_t> payload,
                           WahBitvector* out) {
  uint64_t num_bits = 0;
  if (!ReadHeader(payload, &num_bits)) return false;
  return WahBitvector::TryFromCodeWords(payload.subspan(kHeaderBytes),
                                        static_cast<size_t>(num_bits), out);
}

bool WahCodec::DecodeToDense(std::span<const uint8_t> payload, size_t num_bits,
                             Bitvector* out) {
  uint64_t header_bits = 0;
  if (!ReadHeader(payload, &header_bits) || header_bits != num_bits) {
    return false;
  }
  return WahBitvector::InflateCodeWords(payload.subspan(kHeaderBytes),
                                        num_bits, out);
}

std::vector<uint8_t> WahCodec::Compress(std::span<const uint8_t> data) const {
  return EncodeWah(WahBitvector::FromBitvector(
      Bitvector::FromBytes(data, data.size() * 8)));
}

bool WahCodec::Decompress(std::span<const uint8_t> data,
                          std::vector<uint8_t>* out) const {
  uint64_t num_bits = 0;
  Bitvector dense;
  if (!ReadHeader(data, &num_bits) ||
      !WahBitvector::InflateCodeWords(data.subspan(kHeaderBytes),
                                      static_cast<size_t>(num_bits), &dense)) {
    return false;
  }
  *out = dense.ToBytes();
  return true;
}

}  // namespace bix
