// WAH storage codec: bitmap files compressed as WAH code words.
//
// Unlike the byte-stream codecs (lz77/rle/...), a WAH payload is *also* the
// compressed-domain engine's operand format: a bitmap-level (BS) index
// stored with this codec can hand its payload straight to
// BitmapSource::FetchWah as a WahBitvector — zero decompression on the
// fetch path — which closes the ROADMAP follow-up where `--engine=wah`
// over a disk-backed cBS index inflated and re-compressed every fetch.
// A dense fetch of the same payload inflates it straight into a Bitvector
// (DecodeToDense: one validating pass, no byte round trip); generic
// readers (the CS/IS schemes) Decompress to raw bytes like any codec.
//
// Payload layout: u64 num_bits (little-endian) then the u32 code words.
// Compress treats its input as a bit string of 8 * size bits; the storage
// layer writes BS bitmap files via EncodeBits with the exact record count
// so the decoded WahBitvector's length matches the index (a WAH operand's
// size must equal N, not the byte-padded 8 * ceil(N / 8)).

#ifndef BIX_COMPRESS_WAH_CODEC_H_
#define BIX_COMPRESS_WAH_CODEC_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "compress/codec.h"

namespace bix {

class WahCodec final : public Codec {
 public:
  std::string_view name() const override { return "wah"; }
  std::vector<uint8_t> Compress(std::span<const uint8_t> data) const override;
  bool Decompress(std::span<const uint8_t> data,
                  std::vector<uint8_t>* out) const override;

  /// Encodes an exact-length bitvector (the BS write path).
  static std::vector<uint8_t> EncodeBits(const Bitvector& bits);

  /// Parses a payload into the compressed form without inflating it.
  /// Validates structure (see WahBitvector::TryFromCodeWords); returns
  /// false on malformed input.
  static bool DecodeToWah(std::span<const uint8_t> payload, WahBitvector* out);

  /// Inflates a payload straight into a dense bitvector in one validating
  /// pass (WahBitvector::InflateCodeWords).  Rejects what DecodeToWah
  /// rejects, and a payload whose header length is not `num_bits` before
  /// allocating anything.  Decompress inflates the same way (taking the
  /// header's length) and returns the bytes.
  static bool DecodeToDense(std::span<const uint8_t> payload, size_t num_bits,
                            Bitvector* out);
};

}  // namespace bix

#endif  // BIX_COMPRESS_WAH_CODEC_H_
