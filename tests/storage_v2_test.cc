// Fault-tolerant storage format: V2 blob round-trips, checksum detection,
// manifest atomicity under injected crash faults, V1 compatibility, retry
// against transient errors, sibling reconstruction, and the direct
// stored-WAH fetch path.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/crc32c.h"
#include "compress/wah_codec.h"
#include "core/bitmap_index.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/format.h"
#include "storage/stored_index.h"
#include "workload/generators.h"
#include "workload/queries.h"

namespace bix {
namespace {

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "bix_v2_test_XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    path_ = mkdtemp(buf.data());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

// XORs one byte of a file in place (out-of-band, as bit rot would).
void FlipByteOnDisk(const std::filesystem::path& path, uint64_t offset,
                    uint8_t mask = 0x01) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char b;
  f.read(&b, 1);
  b = static_cast<char>(b ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

uint64_t FileSize(const std::filesystem::path& path) {
  return std::filesystem::file_size(path);
}

RetryPolicy NoSleepRetry(int max_attempts = 4) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  policy.sleep = [](int64_t) {};
  return policy;
}

BitmapIndex MakeIndex(Encoding encoding, uint32_t c = 10, size_t n = 400,
                      uint64_t seed = 11) {
  std::vector<uint32_t> values = GenerateUniform(n, c, seed);
  values[7] = kNullValue;
  return BitmapIndex::Build(values, c, BaseSequence::SingleComponent(c),
                            encoding);
}

// --- format unit tests ----------------------------------------------------

TEST(FormatTest, BlobFileRoundTripsAcrossBlockBoundaries) {
  for (size_t payload_size :
       {size_t{0}, size_t{1}, size_t{4095}, size_t{4096}, size_t{4097},
        size_t{3 * 4096 + 17}}) {
    std::vector<uint8_t> payload(payload_size);
    for (size_t i = 0; i < payload_size; ++i) {
      payload[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    std::vector<uint8_t> image = format::EncodeBlobFile(payload, 12345);
    format::CheckedBlob blob;
    ASSERT_TRUE(format::DecodeBlobFile(image, "t", &blob).ok())
        << payload_size;
    EXPECT_TRUE(std::ranges::equal(blob.payload(), payload));
    EXPECT_EQ(blob.raw_size(), 12345u);
    EXPECT_TRUE(blob.verified());
  }
}

TEST(FormatTest, EveryFlippedBitIsDetected) {
  std::vector<uint8_t> payload(5000, 0xC3);
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, 5000);
  // Probe a byte in the header, the CRC array, each payload block, and the
  // final byte; every single-bit flip must be caught.
  const size_t probes[] = {0, 5, 22, 29, 40, 4000, image.size() - 1};
  for (size_t byte : probes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = image;
      bad[byte] ^= static_cast<uint8_t>(1 << bit);
      format::CheckedBlob blob;
      Status s = format::DecodeBlobFile(bad, "t", &blob);
      EXPECT_EQ(s.code(), Status::Code::kCorruption)
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(FormatTest, CorruptionNamesTheBadBlock) {
  std::vector<uint8_t> payload(3 * 4096, 0x11);
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, payload.size());
  // Header is 32 + 3*4 bytes; flip a byte inside payload block 1.
  size_t header = 32 + 3 * 4;
  std::vector<uint8_t> bad = image;
  bad[header + 4096 + 100] ^= 0x80;
  format::CheckedBlob blob;
  Status s = format::DecodeBlobFile(bad, "c0_b3.bm", &blob);
  ASSERT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("block 1"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("c0_b3.bm"), std::string::npos);
}

TEST(FormatTest, V1FilesDecodeUnverified) {
  std::vector<uint8_t> image = {'B', 'I', 'X', 'F'};
  uint64_t raw_size = 3;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&raw_size);
  image.insert(image.end(), p, p + 8);
  image.insert(image.end(), {0xAA, 0xBB, 0xCC});
  format::CheckedBlob blob;
  ASSERT_TRUE(format::DecodeBlobFile(image, "t", &blob).ok());
  EXPECT_FALSE(blob.verified());
  EXPECT_EQ(blob.raw_size(), 3u);
  EXPECT_TRUE(std::ranges::equal(blob.payload(),
                                 std::vector<uint8_t>{0xAA, 0xBB, 0xCC}));
}

// Whole-file CRC32C of the pinned image below, as the serial encoder wrote
// it before block CRCs were computed three at a time.
constexpr uint32_t kPinnedImageCrc = 0x503AAC8Bu;

// The V2 encoder as it was first written: one serial CRC per block, the
// header CRC, then the payload.  The three-stream encoder must produce the
// same bytes, so files stay readable and manifests unchanged.
std::vector<uint8_t> SerialEncodeBlobFile(std::span<const uint8_t> payload,
                                          uint64_t raw_size,
                                          uint32_t block_size) {
  auto put = [](std::vector<uint8_t>* out, const void* v, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(v);
    out->insert(out->end(), p, p + n);
  };
  const uint64_t size = payload.size();
  const uint32_t num_blocks =
      static_cast<uint32_t>((size + block_size - 1) / block_size);
  std::vector<uint8_t> out = {'B', 'I', 'X', '2'};
  put(&out, &raw_size, 8);
  put(&out, &size, 8);
  put(&out, &block_size, 4);
  put(&out, &num_blocks, 4);
  for (uint64_t begin = 0; begin < size; begin += block_size) {
    const uint32_t crc = Crc32c(payload.data() + begin,
                                std::min<uint64_t>(block_size, size - begin));
    put(&out, &crc, 4);
  }
  const uint32_t header_crc = Crc32c(out.data(), out.size());
  put(&out, &header_crc, 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(FormatTest, EncodedImagesAreByteIdenticalToTheSerialEncoder) {
  for (uint32_t block_size : {1u, 7u, 512u, 4096u}) {
    for (size_t payload_size :
         {size_t{0}, size_t{1}, size_t{4095}, size_t{4096}, size_t{4097},
          size_t{3 * 4096}, size_t{3 * 4096 + 17}, size_t{7 * 4096 + 5}}) {
      std::vector<uint8_t> payload(payload_size);
      for (size_t i = 0; i < payload_size; ++i) {
        payload[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
      }
      uint32_t file_crc = 0;
      const std::vector<uint8_t> image =
          format::EncodeBlobFile(payload, 99, block_size, &file_crc);
      ASSERT_EQ(image, SerialEncodeBlobFile(payload, 99, block_size))
          << "block_size=" << block_size << " payload=" << payload_size;
      // The combined whole-file CRC is the one-shot CRC of the image.
      ASSERT_EQ(file_crc, Crc32c(image.data(), image.size()))
          << "block_size=" << block_size << " payload=" << payload_size;
    }
  }
  // A pinned image: 10000 bytes of i * 7 at the default block size.
  std::vector<uint8_t> payload(10000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  const std::vector<uint8_t> image = format::EncodeBlobFile(payload, 80000);
  EXPECT_EQ(image.size(), 10000u + 32 + 3 * 4);
  EXPECT_EQ(Crc32c(image.data(), image.size()), kPinnedImageCrc);
}

TEST(FormatTest, ManifestCrcIsComparedFirstInTheSinglePass) {
  std::vector<uint8_t> payload(3 * 4096 + 100, 0x5A);
  uint32_t crc = 0;
  const std::vector<uint8_t> image =
      format::EncodeBlobFile(payload, payload.size(), 4096, &crc);
  format::CheckedBlob blob;
  ASSERT_TRUE(format::DecodeBlobFile(image, "f.bm", &blob, crc).ok());
  EXPECT_EQ(blob.payload().size(), payload.size());
  // A stale manifest CRC on an intact image.
  Status s = format::DecodeBlobFile(image, "f.bm", &blob, crc ^ 1);
  EXPECT_NE(s.ToString().find("checksum differs from manifest: f.bm"),
            std::string::npos)
      << s.ToString();
  // A flipped payload byte under the original manifest CRC: the manifest
  // mismatch wins over the block mismatch, counted once.
  std::vector<uint8_t> bad = image;
  bad[32 + 4 * 4 + 2 * 4096 + 9] ^= 0x10;
  const int64_t before = CounterValue("storage.checksum_failures");
  s = format::DecodeBlobFile(bad, "f.bm", &blob, crc);
  EXPECT_NE(s.ToString().find("checksum differs from manifest"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(CounterValue("storage.checksum_failures"), before + 1);
  // Without a manifest the same image names its block.
  s = format::DecodeBlobFile(bad, "f.bm", &blob);
  EXPECT_NE(s.ToString().find("block 2"), std::string::npos) << s.ToString();
  // An image whose header does not parse is checked by a one-shot CRC,
  // still ahead of its own error.
  std::vector<uint8_t> cut(image.begin(), image.end() - 1);
  s = format::DecodeBlobFile(cut, "f.bm", &blob, crc);
  EXPECT_NE(s.ToString().find("checksum differs from manifest"),
            std::string::npos)
      << s.ToString();
  s = format::DecodeBlobFile(cut, "f.bm", &blob,
                             Crc32c(cut.data(), cut.size()));
  EXPECT_NE(s.ToString().find("inconsistent header"), std::string::npos)
      << s.ToString();
}

TEST(FormatTest, ManifestRoundTripAndSelfChecksum) {
  format::Manifest manifest;
  manifest["a.bm"] = {100, 0xDEADBEEF};
  manifest["index.meta"] = {37, 0x01020304};
  std::vector<uint8_t> bytes = format::EncodeManifest(manifest);
  format::Manifest back;
  ASSERT_TRUE(format::DecodeManifest(bytes, &back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back["a.bm"].size, 100u);
  EXPECT_EQ(back["a.bm"].crc, 0xDEADBEEFu);
  // Any altered byte breaks the trailing self-checksum.  (Flip bit 0, not
  // 0x20: case-flipping a hex digit of the CRC line itself parses to the
  // same value.)
  for (size_t i = 0; i < bytes.size() - 1; ++i) {
    std::vector<uint8_t> bad = bytes;
    bad[i] ^= 0x01;
    format::Manifest m;
    EXPECT_FALSE(format::DecodeManifest(bad, &m).ok()) << "byte " << i;
  }
}

// --- stored index: verified writes ---------------------------------------

TEST(StorageV2Test, WriteProducesVerifiedManifestedIndex) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  EXPECT_TRUE(stored->verified());
  EXPECT_TRUE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));

  format::ScrubReport report;
  ASSERT_TRUE(
      format::ScrubIndexDir(*Env::Default(), dir.path() / "idx", &report)
          .ok());
  EXPECT_TRUE(report.has_manifest);
  EXPECT_TRUE(report.manifest_ok);
  EXPECT_TRUE(report.clean());
  for (const auto& f : report.files) {
    EXPECT_EQ(f.state, format::FileCheck::State::kOk) << f.name;
  }
}

TEST(StorageV2Test, FlippedPayloadByteFailsTheQueryLoudly) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  // Flip one payload byte of a range bitmap (header is 36 bytes for a
  // single-block file); range encodings have no sibling redundancy, so the
  // query must fail with Corruption — never return a wrong foundset.
  FlipByteOnDisk(dir.path() / "idx" / "c0_b5.bm", 40);
  int64_t failures_before = CounterValue("storage.checksum_failures");
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_TRUE(result.empty());
  EXPECT_GT(CounterValue("storage.checksum_failures"), failures_before);
  // Untouched bitmaps still serve queries.
  Status ok_status;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 2,
                                   nullptr, nullptr, &ok_status);
  EXPECT_TRUE(ok_status.ok());
  EXPECT_EQ(got, index.Evaluate(CompareOp::kLe, 2));
  // A scrub pinpoints the damaged file.
  format::ScrubReport report;
  ASSERT_TRUE(
      format::ScrubIndexDir(*Env::Default(), dir.path() / "idx", &report)
          .ok());
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const auto& f : report.files) {
    if (f.name == "c0_b5.bm") {
      found = true;
      EXPECT_EQ(f.state, format::FileCheck::State::kCorrupt);
    }
  }
  EXPECT_TRUE(found);
}

// Points the manifest entry of `name` at the file's current bytes, as a
// forger who also rewrote the manifest would.
void RelistInManifest(const std::filesystem::path& idx,
                      const std::string& name) {
  const Env& env = *Env::Default();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(env.ReadFileBytes(idx / name, &bytes).ok());
  format::Manifest manifest;
  uint32_t generation = 0;
  ASSERT_TRUE(format::ReadManifest(env, idx, &manifest, &generation).ok());
  manifest[name] =
      format::ManifestEntry{bytes.size(), Crc32c(bytes.data(), bytes.size())};
  ASSERT_TRUE(format::WriteManifest(env, idx, manifest, generation).ok());
}

// Every verified BS fetch makes each comparison the format promises —
// manifest size and CRC, header CRC, every block CRC — in that order of
// precedence, with one storage.checksum_failures bump per failed fetch.
TEST(StorageV2Test, FetchReportsEachChecksumFailureOnceInPrecedenceOrder) {
  // 100k records: each range bitmap is 12.5 KB raw, four 4 KiB blocks.
  BitmapIndex index = MakeIndex(Encoding::kRange, 10, 100000);
  const NullCodec none;
  TempDir dir;
  const std::filesystem::path idx = dir.path() / "idx";
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, idx, StorageScheme::kBitmapLevel,
                                 none, &stored)
                  .ok());
  auto fetch = [&](uint32_t slot, int64_t* failures) {
    std::unique_ptr<StoredIndex> opened;
    Status s = StoredIndex::Open(idx, &opened);
    if (!s.ok()) return s;
    const int64_t before = CounterValue("storage.checksum_failures");
    FetchedOperand op;
    s = opened->FetchBitmapOperand(0, slot, /*wah=*/false, &op);
    *failures = CounterValue("storage.checksum_failures") - before;
    return s;
  };
  const size_t header = 32 + 4 * 4;
  int64_t failures = 0;

  // Intact fetches verify and decode.
  ASSERT_TRUE(fetch(5, &failures).ok());
  EXPECT_EQ(failures, 0);

  // A flipped payload byte in block 2: the manifest check reports it.
  FlipByteOnDisk(idx / "c0_b5.bm", header + 2 * 4096 + 77);
  Status s = fetch(5, &failures);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("checksum differs from manifest: c0_b5.bm"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures, 1);

  // The same rot under a manifest rewritten to match: the block CRC names
  // the block.
  RelistInManifest(idx, "c0_b5.bm");
  s = fetch(5, &failures);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("block checksum mismatch (block 2)"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures, 1);

  // A forged block CRC entry under a rewritten manifest: the header CRC.
  FlipByteOnDisk(idx / "c0_b4.bm", 28 + 4 * 1);
  RelistInManifest(idx, "c0_b4.bm");
  s = fetch(4, &failures);
  EXPECT_NE(s.ToString().find("header checksum mismatch"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures, 1);

  // A truncated file: a size mismatch, then, under a manifest rewritten to
  // the cut size, the inconsistent header.  Typed errors either way.
  std::filesystem::resize_file(idx / "c0_b3.bm",
                               FileSize(idx / "c0_b3.bm") - 5);
  s = fetch(3, &failures);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("size differs from manifest"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures, 1);
  RelistInManifest(idx, "c0_b3.bm");
  s = fetch(3, &failures);
  EXPECT_EQ(s.code(), Status::Code::kCorruption);
  EXPECT_NE(s.ToString().find("inconsistent header"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(failures, 1);

  // Untouched bitmaps still verify and equal the source.
  FetchedOperand op;
  ASSERT_TRUE(stored->FetchBitmapOperand(0, 2, false, &op).ok());
  EXPECT_EQ(op.dense, index.Fetch(0, 2, nullptr));
}

TEST(StorageV2Test, ManifestWriteIsAtomicUnderCrash) {
  // Simulate a crash between the manifest temp-write and its rename: the
  // Write fails, and the directory must refuse to open (v2 meta, no
  // manifest) rather than serve whatever subset of files landed.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  FaultPlan plan;
  plan.faults.push_back(
      {FaultSpec::Kind::kRenameFail, format::kManifestFile, 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry();
  std::unique_ptr<StoredIndex> stored;
  Status s = StoredIndex::Write(index, dir.path() / "idx",
                                StorageScheme::kBitmapLevel, none, &stored,
                                options);
  EXPECT_EQ(s.code(), Status::Code::kIoError) << s.ToString();
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));

  std::unique_ptr<StoredIndex> reopened;
  Status open_status = StoredIndex::Open(dir.path() / "idx", &reopened);
  EXPECT_EQ(open_status.code(), Status::Code::kCorruption)
      << open_status.ToString();

  // Re-materializing over the torn directory (fault healed) recovers fully.
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  EXPECT_TRUE(stored->verified());
  EXPECT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 4),
            index.Evaluate(CompareOp::kLe, 4));
}

TEST(StorageV2Test, StaleManifestIsRemovedBeforeOverwrite) {
  // Crash mid-overwrite of an existing index: the old manifest must not
  // make the half-overwritten directory look complete.
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back(
      {FaultSpec::Kind::kRenameFail, format::kManifestFile, 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  std::unique_ptr<StoredIndex> rewritten;
  EXPECT_FALSE(StoredIndex::Write(index, dir.path() / "idx",
                                  StorageScheme::kBitmapLevel, none,
                                  &rewritten, options)
                   .ok());
  // The stale manifest is gone, so the torn state is detectable.
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() / "idx" / format::kManifestFile));
  std::unique_ptr<StoredIndex> reopened;
  EXPECT_FALSE(StoredIndex::Open(dir.path() / "idx", &reopened).ok());
}

// --- V1 compatibility -----------------------------------------------------

void WriteV1File(const std::filesystem::path& path,
                 std::span<const uint8_t> payload, uint64_t raw_size) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write("BIXF", 4);
  f.write(reinterpret_cast<const char*>(&raw_size), 8);
  f.write(reinterpret_cast<const char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  ASSERT_TRUE(f.good());
}

TEST(StorageV2Test, LegacyV1IndexStillLoadsUnverified) {
  // Hand-write a pre-fault-tolerance BS index: "BIXF" blob files, a v1
  // meta, no manifest.
  BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/8, /*n=*/300);
  TempDir dir;
  std::filesystem::path idx = dir.path() / "idx";
  std::filesystem::create_directories(idx);
  int64_t stored_bytes = 0;
  const IndexComponent& comp = index.component(0);
  for (int j = 0; j < comp.num_stored_bitmaps(); ++j) {
    std::vector<uint8_t> raw = comp.stored(static_cast<uint32_t>(j)).ToBytes();
    WriteV1File(idx / ("c0_b" + std::to_string(j) + ".bm"), raw, raw.size());
    stored_bytes += static_cast<int64_t>(raw.size());
  }
  std::vector<uint8_t> nn = index.non_null().ToBytes();
  WriteV1File(idx / "nonnull.bm", nn, nn.size());
  std::ofstream meta(idx / "index.meta");
  meta << "bix_index_meta_v1\n"
       << "records " << index.num_records() << "\n"
       << "cardinality " << index.cardinality() << "\n"
       << "encoding range\nscheme BS\ncodec none\n"
       << "stored_bytes " << stored_bytes << "\n"
       << "uncompressed_bytes " << stored_bytes << "\nbases_lsb 8\n";
  meta.close();

  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Open(idx, &stored).ok());
  EXPECT_FALSE(stored->verified());
  for (const Query& q : AllSelectionQueries(index.cardinality())) {
    EXPECT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v),
              index.Evaluate(q.op, q.v))
        << ToString(q.op) << " " << q.v;
  }
}

// --- retry ----------------------------------------------------------------

TEST(StorageV2Test, TransientReadErrorsAreRetriedToSuccess) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> written;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &written)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kTransient, "c0_b5.bm", 0, 0, 2});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry(4);
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &stored, options).ok());
  int64_t retries_before = CounterValue("storage.retries");
  Status status;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                   nullptr, nullptr, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, index.Evaluate(CompareOp::kLe, 5));
  EXPECT_GE(CounterValue("storage.retries") - retries_before, 2);
  EXPECT_EQ(env.injected_errors(), 2);
}

TEST(StorageV2Test, StickyReadErrorsExhaustRetriesAndFail) {
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> written;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &written)
                  .ok());
  FaultPlan plan;
  plan.faults.push_back({FaultSpec::Kind::kSticky, "c0_b5.bm", 0, 0, 1});
  FaultInjectingEnv env(Env::Default(), std::move(plan));
  StoredIndexOptions options;
  options.env = &env;
  options.retry = NoSleepRetry(3);
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &stored, options).ok());
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kIoError);
  EXPECT_TRUE(result.empty());
}

// --- reconstruction -------------------------------------------------------

TEST(StorageV2Test, CorruptEqualitySliceIsReconstructedFromSiblings) {
  BitmapIndex index = MakeIndex(Encoding::kEquality);  // base 10 > 2
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b4.bm", 40);
  int64_t reconstructions_before = CounterValue("storage.reconstructions");
  int64_t degraded_before = CounterValue("storage.degraded_queries");
  Status status;
  EvalStats stats;
  Bitvector got = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 4,
                                   &stats, nullptr, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(got, index.Evaluate(CompareOp::kEq, 4));
  EXPECT_EQ(CounterValue("storage.reconstructions"), reconstructions_before + 1);
  EXPECT_EQ(CounterValue("storage.degraded_queries"), degraded_before + 1);

  // Queries not touching the damaged slice are not degraded.
  Status clean_status;
  Bitvector other = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 7,
                                     nullptr, nullptr, &clean_status);
  EXPECT_TRUE(clean_status.ok());
  EXPECT_EQ(other, index.Evaluate(CompareOp::kEq, 7));
  EXPECT_EQ(CounterValue("storage.degraded_queries"), degraded_before + 1);
}

TEST(StorageV2Test, ReconstructionGivesUpWhenTwoSlicesAreDamaged) {
  // E^4 = B_nn AND NOT(OR of siblings) needs every sibling; with two slices
  // rotted the query must fail, not guess.
  BitmapIndex index = MakeIndex(Encoding::kEquality);
  const NullCodec none;
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, none, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b4.bm", 40);
  FlipByteOnDisk(dir.path() / "idx" / "c0_b6.bm", 40);
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kEq, 4,
                                      nullptr, nullptr, &status);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_TRUE(result.empty());
}

// --- stored-WAH direct fetch ----------------------------------------------

TEST(StorageV2Test, WahCodecServesCompressedDomainEngineDirectly) {
  for (Encoding encoding : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index = MakeIndex(encoding, /*c=*/12, /*n=*/777, /*seed=*/29);
    const Codec* wah = CodecByName("wah");
    ASSERT_NE(wah, nullptr);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                   StorageScheme::kBitmapLevel, *wah, &stored)
                    .ok());
    ExecOptions wah_exec;
    wah_exec.engine = EngineKind::kWah;
    ExecOptions plain_exec;
    plain_exec.engine = EngineKind::kPlain;
    int64_t direct_before = CounterValue("storage.wah_direct_fetches");
    for (const Query& q : AllSelectionQueries(index.cardinality())) {
      EvalStats wah_stats, plain_stats;
      Status ws, ps;
      Bitvector via_wah = stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v,
                                           &wah_stats, nullptr, &ws, &wah_exec);
      Bitvector via_plain =
          stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v, &plain_stats,
                           nullptr, &ps, &plain_exec);
      ASSERT_TRUE(ws.ok());
      ASSERT_TRUE(ps.ok());
      ASSERT_EQ(via_wah, via_plain) << ToString(q.op) << " " << q.v;
      ASSERT_EQ(via_wah, index.Evaluate(q.op, q.v));
      // Same accounting on both fetch paths.
      EXPECT_EQ(wah_stats.bitmap_scans, plain_stats.bitmap_scans);
      EXPECT_EQ(wah_stats.bytes_read, plain_stats.bytes_read);
    }
    EXPECT_GT(CounterValue("storage.wah_direct_fetches"), direct_before)
        << "stored WAH payloads were never handed to the engine directly";
  }
}

TEST(StorageV2Test, WahCodecWorksAsPlainCodecOnAllSchemes) {
  const Codec* wah = CodecByName("wah");
  ASSERT_NE(wah, nullptr);
  for (StorageScheme scheme :
       {StorageScheme::kBitmapLevel, StorageScheme::kComponentLevel,
        StorageScheme::kIndexLevel}) {
    BitmapIndex index = MakeIndex(Encoding::kRange, /*c=*/9, /*n=*/500);
    TempDir dir;
    std::unique_ptr<StoredIndex> stored;
    ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx", scheme, *wah,
                                   &stored)
                    .ok());
    for (const Query& q : AllSelectionQueries(index.cardinality())) {
      ASSERT_EQ(stored->Evaluate(EvalAlgorithm::kAuto, q.op, q.v),
                index.Evaluate(q.op, q.v))
          << ToString(scheme) << " " << ToString(q.op) << " " << q.v;
    }
  }
}

TEST(StorageV2Test, CorruptWahPayloadFallsBackAndFails) {
  // A corrupt stored-WAH file must not crash the compressed-domain engine:
  // FetchWah declines, Fetch re-reads, and the query fails with Corruption
  // (range encoding: no reconstruction).
  BitmapIndex index = MakeIndex(Encoding::kRange);
  const Codec* wah = CodecByName("wah");
  TempDir dir;
  std::unique_ptr<StoredIndex> stored;
  ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                 StorageScheme::kBitmapLevel, *wah, &stored)
                  .ok());
  FlipByteOnDisk(dir.path() / "idx" / "c0_b5.bm",
                 FileSize(dir.path() / "idx" / "c0_b5.bm") - 1);
  ExecOptions exec;
  exec.engine = EngineKind::kWah;
  Status status;
  Bitvector result = stored->Evaluate(EvalAlgorithm::kAuto, CompareOp::kLe, 5,
                                      nullptr, nullptr, &status, &exec);
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << status.ToString();
  EXPECT_TRUE(result.empty());
}

// Rewrites one stored bitmap with a forged payload inside a well-formed V2
// blob (valid block CRCs, the original raw_size) and updates the manifest
// entry to match, so only the payload's own structure is wrong.
void ForgeBitmapPayload(const std::filesystem::path& idx,
                        const std::string& name,
                        const std::vector<uint8_t>& payload) {
  const Env& env = *Env::Default();
  format::CheckedBlob blob;
  ASSERT_TRUE(format::ReadBlobFile(env, idx / name, &blob).ok());
  std::vector<uint8_t> image = format::EncodeBlobFile(payload, blob.raw_size());
  ASSERT_TRUE(env.WriteFile(idx / name, image).ok());
  format::Manifest manifest;
  uint32_t generation = 0;
  ASSERT_TRUE(format::ReadManifest(env, idx, &manifest, &generation).ok());
  ASSERT_TRUE(manifest.count(name));
  manifest[name] =
      format::ManifestEntry{image.size(), Crc32c(image.data(), image.size())};
  ASSERT_TRUE(format::WriteManifest(env, idx, manifest, generation).ok());
}

// Structurally invalid WAH payloads for an n-bit bitmap (n % 31 != 0),
// each of which the one-pass dense decoder must refuse.
std::vector<std::pair<std::string, std::vector<uint8_t>>> ForgedWahPayloads(
    const Bitvector& bits) {
  const size_t n = bits.size();
  const WahBitvector wah = WahBitvector::FromBitvector(bits);
  auto make = [&](uint64_t num_bits, const std::vector<uint32_t>& words) {
    std::vector<uint8_t> out(8 + 4 * words.size());
    std::memcpy(out.data(), &num_bits, 8);
    if (!words.empty()) {
      std::memcpy(out.data() + 8, words.data(), 4 * words.size());
    }
    return out;
  };
  std::vector<uint32_t> zero_count = wah.code_words();
  zero_count.insert(zero_count.begin(), 0x80000000u);  // zeros fill, count 0
  std::vector<uint32_t> overflow = wah.code_words();
  overflow.push_back(0x1u);
  std::vector<uint32_t> underflow = wah.code_words();
  underflow.pop_back();
  // Final group rebuilt from the dense bits: a literal with a bit past n
  // set, and a ones-fill over the partial group.
  std::vector<uint32_t> body =
      WahBitvector::FromBitvector(
          Bitvector::FromBytes(bits.ToBytes(), n - n % 31))
          .code_words();
  std::vector<uint32_t> tail_bit = body;
  tail_bit.push_back(1u << 30);
  std::vector<uint32_t> ones_tail = body;
  ones_tail.push_back(0xC0000001u);
  std::vector<uint8_t> ragged = make(n, wah.code_words());
  ragged.pop_back();  // not a whole number of code words
  return {{"fill count 0", make(n, zero_count)},
          {"group overflow", make(n, overflow)},
          {"group underflow", make(n, underflow)},
          {"bit past N", make(n, tail_bit)},
          {"trailing ones-fill", make(n, ones_tail)},
          {"header N off by one", make(n - 1, wah.code_words())},
          {"ragged length", ragged},
          {"bare header", make(n, {})}};
}

// The dense fetch inflates stored WAH payloads itself (no Codec::
// Decompress), so its refusals must still surface as typed Corruption —
// or, for equality slices, as a degraded answer rebuilt from siblings.
TEST(StorageV2Test, ForgedWahPayloadOnDenseFetchStaysTyped) {
  const Codec* wah = CodecByName("wah");
  const size_t n = 400;  // 400 % 31 == 28: a partial final group
  for (Encoding encoding : {Encoding::kRange, Encoding::kEquality}) {
    BitmapIndex index = MakeIndex(encoding, /*c=*/10, n);
    const Bitvector stored_bits = index.Fetch(0, 4, nullptr);
    auto forged = ForgedWahPayloads(stored_bits);
    for (const auto& [what, payload] : forged) {
      SCOPED_TRACE(std::string(encoding == Encoding::kRange ? "range "
                                                            : "equality ") +
                   what);
      TempDir dir;
      std::unique_ptr<StoredIndex> stored;
      ASSERT_TRUE(StoredIndex::Write(index, dir.path() / "idx",
                                     StorageScheme::kBitmapLevel, *wah,
                                     &stored)
                      .ok());
      ForgeBitmapPayload(dir.path() / "idx", "c0_b4.bm", payload);
      std::unique_ptr<StoredIndex> reopened;
      ASSERT_TRUE(StoredIndex::Open(dir.path() / "idx", &reopened).ok());

      int64_t degraded_before = CounterValue("storage.degraded_queries");
      FetchedOperand op;
      Status fetch = reopened->FetchBitmapOperand(0, 4, /*wah=*/false, &op);
      FetchedOperand direct;
      EXPECT_FALSE(
          reopened->FetchBitmapOperand(0, 4, /*wah=*/true, &direct).ok());
      for (EngineKind engine : {EngineKind::kPlain, EngineKind::kWah}) {
        ExecOptions exec;
        exec.engine = engine;
        const CompareOp qop =
            encoding == Encoding::kRange ? CompareOp::kLe : CompareOp::kEq;
        Status status;
        Bitvector got = reopened->Evaluate(EvalAlgorithm::kAuto, qop, 4,
                                           nullptr, nullptr, &status, &exec);
        if (encoding == Encoding::kRange) {
          EXPECT_EQ(status.code(), Status::Code::kCorruption)
              << status.ToString();
          EXPECT_TRUE(got.empty());
        } else {
          EXPECT_TRUE(status.ok()) << status.ToString();
          EXPECT_EQ(got, index.Evaluate(qop, 4));
        }
      }
      if (encoding == Encoding::kRange) {
        EXPECT_EQ(fetch.code(), Status::Code::kCorruption) << fetch.ToString();
        EXPECT_FALSE(op.degraded);
      } else {
        ASSERT_TRUE(fetch.ok()) << fetch.ToString();
        EXPECT_TRUE(op.degraded);
        EXPECT_EQ(op.dense, stored_bits);
        EXPECT_EQ(CounterValue("storage.degraded_queries"),
                  degraded_before + 2);  // one per engine's query
      }
    }
  }
}

}  // namespace
}  // namespace bix
