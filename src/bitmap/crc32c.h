// CRC32C (Castagnoli, polynomial 0x1EDC6F41) checksums for the storage
// layer's fault-detection format (storage/format.h).
//
// CRC32C is chosen over CRC32 (zlib's polynomial) because commodity x86
// CPUs compute it in hardware: the SSE4.2 CRC32 instruction folds 8 bytes
// per cycle-ish, so checksumming a 4 KiB block costs well under the time
// the block took to read.  The implementation dispatches once per process
// to the hardware path when the CPU supports SSE4.2 and otherwise to a
// portable slicing-by-8 table kernel with identical output.
//
// Values are "masked-free": Crc32c returns the standard CRC32C of the
// bytes (init 0xFFFFFFFF, final xor 0xFFFFFFFF), so test vectors from RFC
// 3720 apply directly (e.g. Crc32c("123456789") == 0xE3069283).

#ifndef BIX_BITMAP_CRC32C_H_
#define BIX_BITMAP_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bix {

/// CRC32C of `n` bytes at `data`.
uint32_t Crc32c(const void* data, size_t n);

/// Streaming form: extends `crc` (a previous Crc32c/Crc32cExtend result;
/// use 0 to start) with `n` more bytes.  Crc32cExtend(0, d, n) == Crc32c(d, n)
/// and chaining over a split buffer equals the one-shot checksum.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC32C of a concatenation from its parts' checksums:
/// Crc32cCombine(Crc32c(a, na), Crc32c(b, nb), nb) == Crc32c(a ‖ b).
/// Costs O(log len_b) carry-less multiplications mod P (zlib's
/// crc32_combine scheme), independent of the bytes themselves.  Lengths
/// are exact below 2^61 bytes.
uint32_t Crc32cCombine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

/// Three one-shot checksums of equal-length buffers in one pass:
/// crcs[k] = Crc32c(data[k], n).  The hardware kernel interleaves the
/// three independent CRC32 streams, hiding the instruction's 3-cycle
/// latency that bounds a single stream.
void Crc32cTriple(const uint8_t* const data[3], size_t n, uint32_t crcs[3]);

namespace crc32c_internal {

/// True when the SSE4.2 hardware kernel is in use on this CPU.
bool HardwareAvailable();

/// The two kernels, exposed so tests can cross-check them on every seam
/// length.  Both take and return the *inverted* running state.
uint32_t PortableUpdate(uint32_t state, const uint8_t* data, size_t n);
uint32_t HardwareUpdate(uint32_t state, const uint8_t* data, size_t n);

/// Three-stream hardware kernel: updates each inverted `state[k]` with `n`
/// bytes at `data[k]`, exactly as three HardwareUpdate calls would.
void HardwareUpdate3(uint32_t state[3], const uint8_t* const data[3],
                     size_t n);

}  // namespace crc32c_internal

}  // namespace bix

#endif  // BIX_BITMAP_CRC32C_H_
