// On-disk file format and index manifest for StoredIndex (V2, checksummed).
//
// V2 blob file layout (little-endian):
//   [ 0,  4)  magic "BIX2"
//   [ 4, 12)  u64 raw_size       decoded (pre-codec) payload size
//   [12, 20)  u64 payload_size   encoded payload size
//   [20, 24)  u32 block_size     bytes covered by each payload CRC
//   [24, 28)  u32 num_blocks     ceil(payload_size / block_size)
//   [28, 28+4B) u32 crc[i]       CRC32C of payload block i
//   next 4    u32 header_crc     CRC32C of everything above
//   then      payload bytes
//
// A flipped bit anywhere is detected: in the payload by its block CRC, in
// the header or CRC array by header_crc.  Block granularity means a scrub
// can say *which* 4 KiB of a file rotted, and a query touching other
// bitmaps in a CS/IS file still learns about the damage before decoding.
//
// V1 files (magic "BIXF": u64 raw_size then payload, no checksums) from
// pre-fault-tolerance indexes still load; they are flagged unverified.
//
// The manifest ("index.manifest") lists every file the index consists of
// with its size and whole-file CRC32C, ends with a CRC line over its own
// bytes, and is written write-temp-fsync-rename *after* every other file:
// a crash anywhere mid-materialize leaves either no manifest (the index
// refuses to open as verified) or a complete, consistent one — never a
// readable-but-wrong index.
//
// Manifest text format:
//   bix_manifest_v1\n
//   gen <generation>\n                   (only when generation > 0)
//   file <name> <size> <crc32c hex8>\n   (one per file, sorted)
//   crc <hex8 of all preceding bytes>\n
//
// The generation line is how compaction commits: generation-N blobs carry
// a "gN_" name prefix, the rewritten index is materialized entirely under
// the next generation's names, and the atomic manifest rename is the one
// instant the directory flips from all-old to all-new.  Generation 0
// (the build-once path) omits the line, so pre-mutation manifests are
// byte-identical to what this code always wrote.

#ifndef BIX_STORAGE_FORMAT_H_
#define BIX_STORAGE_FORMAT_H_

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/env.h"

namespace bix::format {

inline constexpr uint32_t kDefaultBlockSize = 4096;
inline constexpr const char* kManifestFile = "index.manifest";

/// Row-order sidecar: the sort permutation of a row-reordered index
/// (perm[physical] = logical; see core/row_order.h).  Written only when the
/// permutation is non-identity, so unsorted indexes stay byte-identical to
/// what this code always wrote.  The payload below is wrapped in a V2 blob
/// file like every other index file and listed in the manifest.
inline constexpr const char* kRowOrderFile = "roworder.perm";
inline constexpr uint32_t kRowOrderVersion = 1;

class CheckedBlob;

/// Serializes payload + checksummed header into one file image.  The block
/// CRCs are computed three blocks at a time; when `file_crc` is non-null it
/// receives the image's whole-file CRC32C (what the manifest records),
/// combined from the header and block CRCs instead of a second pass.
std::vector<uint8_t> EncodeBlobFile(std::span<const uint8_t> payload,
                                    uint64_t raw_size,
                                    uint32_t block_size = kDefaultBlockSize,
                                    uint32_t* file_crc = nullptr);

/// Parses a V2 or V1 file image, verifying header and per-block CRCs for
/// V2, and takes ownership of the image: `out` exposes the payload as a
/// view into it, so no byte is copied.  On a checksum mismatch returns
/// Corruption naming the bad block(s) and bumps storage.checksum_failures.
///
/// With `manifest_crc`, the image's whole-file CRC is also compared against
/// it, first: a mismatch is "checksum differs from manifest: <name>" ahead
/// of any header or block error, counted once.  A parsable V2 image gets
/// that CRC from the same single pass that checks its header and blocks
/// (Crc32cCombine over them); any other image falls back to a one-shot CRC.
Status DecodeBlobFile(std::vector<uint8_t> file_bytes, const std::string& name,
                      CheckedBlob* out,
                      std::optional<uint32_t> manifest_crc = std::nullopt);

/// A decoded blob file: the verified file image and, as a view into it, the
/// still-codec-compressed payload plus the recorded raw size.  Move-only,
/// so the view cannot outlive or be duplicated apart from its image; it
/// stays valid across moves (the image's heap buffer moves with it) and
/// ends when the blob is destroyed or assigned over.
class CheckedBlob {
 public:
  CheckedBlob() = default;
  CheckedBlob(CheckedBlob&&) noexcept = default;
  CheckedBlob& operator=(CheckedBlob&&) noexcept = default;
  CheckedBlob(const CheckedBlob&) = delete;
  CheckedBlob& operator=(const CheckedBlob&) = delete;

  std::span<const uint8_t> payload() const {
    return std::span<const uint8_t>(image_).subspan(payload_offset_);
  }
  uint64_t raw_size() const { return raw_size_; }
  /// False for V1 files (no checksums).
  bool verified() const { return verified_; }

 private:
  friend Status DecodeBlobFile(std::vector<uint8_t> file_bytes,
                               const std::string& name, CheckedBlob* out,
                               std::optional<uint32_t> manifest_crc);

  std::vector<uint8_t> image_;
  size_t payload_offset_ = 0;
  uint64_t raw_size_ = 0;
  bool verified_ = false;
};

/// Reads and decodes `path` through `env` (one whole-file read).
Status ReadBlobFile(const Env& env, const std::filesystem::path& path,
                    CheckedBlob* out);

/// Serializes a row permutation into the sidecar payload:
///   [ 0,  4)  magic "BIXP"
///   [ 4,  8)  u32 version (kRowOrderVersion)
///   [ 8, 16)  u64 rows
///   [16, 16+4*rows)  u32 perm[i]
///   last 4    u32 crc32c of everything above
/// The inner CRC is defense in depth under the blob file's block CRCs: a
/// decode from any byte source yields a typed error, never garbage rows.
std::vector<uint8_t> EncodeRowOrderPayload(std::span<const uint32_t> perm);

/// Parses + validates a row-order payload: magic, version, exact length,
/// CRC, and that the entries form a permutation of [0, rows).  Every
/// failure is Corruption naming `name`; truncated or bit-rotted input can
/// never crash or return a partial permutation.
Status DecodeRowOrderPayload(std::span<const uint8_t> payload,
                             const std::string& name,
                             std::vector<uint32_t>* perm);

struct ManifestEntry {
  uint64_t size = 0;
  uint32_t crc = 0;
};

/// name -> entry, sorted by name (map keeps serialization deterministic).
using Manifest = std::map<std::string, ManifestEntry>;

std::vector<uint8_t> EncodeManifest(const Manifest& manifest,
                                    uint32_t generation = 0);

/// Parses + verifies the manifest's own CRC line.  `generation` (optional)
/// receives the manifest's generation tag, 0 when the line is absent.
Status DecodeManifest(std::span<const uint8_t> bytes, Manifest* out,
                      uint32_t* generation = nullptr);

/// Writes the manifest atomically (write-temp-fsync-rename).
Status WriteManifest(const Env& env, const std::filesystem::path& dir,
                     const Manifest& manifest, uint32_t generation = 0);

/// Reads <dir>/index.manifest; NotFound when absent (a V1 index).
Status ReadManifest(const Env& env, const std::filesystem::path& dir,
                    Manifest* out, uint32_t* generation = nullptr);

/// Per-file verdict from a scrub pass.  kRecoverable marks damage the
/// open path repairs losslessly by construction (a torn delta-log tail:
/// the unsynced suffix of a crashed append) — the index is still clean.
struct FileCheck {
  enum class State { kOk, kUnverified, kCorrupt, kMissing, kRecoverable };
  std::string name;
  State state = State::kOk;
  std::string detail;
};

const char* ToString(FileCheck::State state);

struct ScrubReport {
  bool has_manifest = false;
  bool manifest_ok = false;
  std::vector<FileCheck> files;

  bool clean() const {
    if (has_manifest && !manifest_ok) return false;
    for (const FileCheck& f : files) {
      if (f.state == FileCheck::State::kCorrupt ||
          f.state == FileCheck::State::kMissing) {
        return false;
      }
    }
    return true;
  }
};

/// Reads every file named by the manifest, verifying manifest size +
/// whole-file CRC and (for V2 blobs) per-block CRCs.  Without a manifest
/// the directory's .bm/.meta files get basic V1 header checks and are
/// reported kUnverified.  Mutation sidecars (g<N>.delta append logs and
/// g<N>.tomb tombstone blobs) are scrubbed too: current-generation logs
/// are record-parsed (torn tail -> kRecoverable, rot -> kCorrupt), stale
/// generations are flagged kUnverified orphans.  The report is filled
/// even when the returned status is non-OK (an unreadable manifest still
/// yields a report saying so).
Status ScrubIndexDir(const Env& env, const std::filesystem::path& dir,
                     ScrubReport* report);

}  // namespace bix::format

#endif  // BIX_STORAGE_FORMAT_H_
