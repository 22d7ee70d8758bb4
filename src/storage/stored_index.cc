#include "storage/stored_index.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <deque>
#include <sstream>
#include <string>
#include <utility>

#include "bitmap/crc32c.h"
#include "bitmap/wah_bitvector.h"
#include "compress/wah_codec.h"
#include "core/bitmap_source.h"
#include "core/check.h"
#include "core/eval.h"
#include "exec/segmented_eval.h"
#include "exec/wah_engine.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace bix {

namespace {

// Base file names; every one is prefixed with GenerationPrefix(generation)
// ("" at generation 0, so pre-mutation directories keep their exact names).
constexpr const char* kMetaFile = "index.meta";
constexpr const char* kNonNullFile = "nonnull.bm";

std::string BitmapFileName(const std::string& prefix, int component,
                           uint32_t slot) {
  return prefix + "c" + std::to_string(component) + "_b" +
         std::to_string(slot) + ".bm";
}

std::string ComponentFileName(const std::string& prefix, int component) {
  return prefix + "c" + std::to_string(component) + ".bm";
}

constexpr const char* kIndexFileName = "index.bm";

/// A BS index stored with the "wah" codec keeps each bitmap file's payload
/// in the compressed-domain engine's operand format (exact N bits), so
/// FetchWah can hand it over without inflating.
bool UsesWahOperandPayloads(StorageScheme scheme, const Codec& codec) {
  return scheme == StorageScheme::kBitmapLevel && codec.name() == "wah";
}

/// Wraps `payload` in a checksummed V2 file image, writes it through `env`,
/// and records the file in `manifest`.
Status WriteBlobFile(const Env& env, const std::filesystem::path& dir,
                     const std::string& name, std::span<const uint8_t> payload,
                     uint64_t raw_size, format::Manifest* manifest) {
  uint32_t crc = 0;
  std::vector<uint8_t> image = format::EncodeBlobFile(
      payload, raw_size, format::kDefaultBlockSize, &crc);
  Status s = env.WriteFile(dir / name, image);
  if (!s.ok()) return s;
  (*manifest)[name] = format::ManifestEntry{image.size(), crc};
  return Status::OK();
}

// Packs rows of `width` bits per record, bit j of record r taken from
// stored bitmap j of `source` components [first, last] (or, for IS, from
// the global slot layout).  Used for the row-major CS and IS payloads.
std::vector<uint8_t> PackRowMajor(const BitmapSource& source,
                                  int first_component, int last_component,
                                  uint32_t width) {
  const size_t n = source.num_records();
  std::vector<uint8_t> raw((n * width + 7) / 8, 0);
  // Materialize the columns first (FetchView when the source is in-memory,
  // Fetch otherwise); `holders` keeps fetched copies alive while `columns`
  // points at them, and is pre-sized so pointers into it stay valid.
  std::vector<Bitvector> holders(width);
  std::vector<const Bitvector*> columns;
  columns.reserve(width);
  for (int c = first_component; c <= last_component; ++c) {
    uint32_t stored =
        NumStoredBitmaps(source.encoding(), source.base().base(c));
    for (uint32_t j = 0; j < stored; ++j) {
      const Bitvector* view = source.FetchView(c, j, nullptr);
      if (view == nullptr) {
        holders[columns.size()] = source.Fetch(c, j, nullptr);
        view = &holders[columns.size()];
      }
      columns.push_back(view);
    }
  }
  BIX_CHECK(columns.size() == width);
  uint64_t bit = 0;
  for (size_t r = 0; r < n; ++r) {
    for (uint32_t j = 0; j < width; ++j, ++bit) {
      if (columns[j]->Get(r)) raw[bit >> 3] |= uint8_t{1} << (bit & 7);
    }
  }
  return raw;
}

Bitvector ExtractColumn(const std::vector<uint8_t>& raw, size_t num_records,
                        uint32_t stride, uint32_t column) {
  Bitvector out(num_records);
  uint64_t bit = column;
  for (size_t r = 0; r < num_records; ++r, bit += stride) {
    if ((raw[bit >> 3] >> (bit & 7)) & 1) out.Set(r);
  }
  return out;
}

}  // namespace

std::string_view ToString(StorageScheme scheme) {
  switch (scheme) {
    case StorageScheme::kBitmapLevel: return "BS";
    case StorageScheme::kComponentLevel: return "CS";
    case StorageScheme::kIndexLevel: return "IS";
  }
  return "?";
}

Status StoredIndex::ReadListedFile(const std::string& name,
                                   std::vector<uint8_t>* bytes,
                                   std::optional<uint32_t>* crc) const {
  Status s = RunWithRetry(retry_, name, [&] {
    return env_->ReadFileBytes(dir_ / name, bytes);
  });
  if (!s.ok()) return s;
  crc->reset();
  if (!verified_) return Status::OK();
  auto it = manifest_.find(name);
  if (it == manifest_.end()) {
    return Status::Corruption("file not in manifest: " + name);
  }
  if (bytes->size() != it->second.size) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("size differs from manifest: " + name);
  }
  *crc = it->second.crc;
  return Status::OK();
}

Status StoredIndex::ReadCheckedFile(const std::string& name,
                                    std::vector<uint8_t>* bytes) const {
  std::optional<uint32_t> crc;
  Status s = ReadListedFile(name, bytes, &crc);
  if (!s.ok()) return s;
  if (crc.has_value() && Crc32c(bytes->data(), bytes->size()) != *crc) {
    recovery_internal::CountChecksumFailure();
    return Status::Corruption("checksum differs from manifest: " + name);
  }
  return Status::OK();
}

Status StoredIndex::ReadPayload(const std::string& name,
                                format::CheckedBlob* blob) const {
  std::vector<uint8_t> bytes;
  std::optional<uint32_t> crc;
  Status s = ReadListedFile(name, &bytes, &crc);
  if (!s.ok()) return s;
  // The whole-file CRC comparison rides on the blob's own single
  // verification pass (format::DecodeBlobFile).
  return format::DecodeBlobFile(std::move(bytes), name, blob, crc);
}

Status StoredIndex::ReadBlob(const std::string& name, std::vector<uint8_t>* raw,
                             EvalStats* stats,
                             double* decompress_seconds) const {
  format::CheckedBlob blob;
  Status s = ReadPayload(name, &blob);
  if (!s.ok()) return s;
  if (stats != nullptr) {
    stats->bytes_read += static_cast<int64_t>(blob.payload().size());
  }
  auto start = std::chrono::steady_clock::now();
  if (!codec_->Decompress(blob.payload(), raw)) {
    return Status::Corruption("decode failed: " + name);
  }
  if (decompress_seconds != nullptr) {
    *decompress_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  if (raw->size() != blob.raw_size()) {
    return Status::Corruption("size mismatch: " + name);
  }
  return Status::OK();
}

Status StoredIndex::ReadBitmap(const std::string& name, Bitvector* out,
                               int64_t* payload_bytes,
                               double* decompress_seconds) const {
  const size_t num_bytes = (num_records_ + 7) / 8;
  if (!UsesWahOperandPayloads(scheme_, *codec_)) {
    std::vector<uint8_t> raw;
    EvalStats io;
    Status s = ReadBlob(name, &raw, &io, decompress_seconds);
    *payload_bytes += io.bytes_read;
    if (!s.ok()) return s;
    if (raw.size() < num_bytes) {
      return Status::Corruption("bitmap file shorter than N bits: " + name);
    }
    *out = Bitvector::FromBytes(raw, num_records_);
    return Status::OK();
  }
  format::CheckedBlob blob;
  Status s = ReadPayload(name, &blob);
  if (!s.ok()) return s;
  *payload_bytes += static_cast<int64_t>(blob.payload().size());
  // The writer records raw_size as the byte image of the N-bit bitmap.
  if (blob.raw_size() != num_bytes) {
    return Status::Corruption("size mismatch: " + name);
  }
  auto start = std::chrono::steady_clock::now();
  if (!WahCodec::DecodeToDense(blob.payload(), num_records_, out)) {
    return Status::Corruption("decode failed: " + name);
  }
  if (decompress_seconds != nullptr) {
    *decompress_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return Status::OK();
}

// Rebuilds equality slice E^slot as B_nn AND NOT (OR of the sibling
// slices): every non-null record sets exactly one slice, nulls set none.
// Only possible for BS equality components with base > 2 (base == 2
// stores a single slice; range bitmaps are prefix-ORs of each other and
// a lost one cannot be recovered from its neighbors).
bool StoredIndex::ReconstructSlice(int component, uint32_t slot,
                                   Bitvector* out, int64_t* payload_bytes,
                                   double* decompress_seconds) const {
  if (encoding_ != Encoding::kEquality) return false;
  uint32_t base = base_.base(component);
  if (base <= 2) return false;
  obs::TraceSpan span("storage", "reconstruct");
  span.set_component(component);
  span.set_slot(slot);
  Bitvector siblings_or = Bitvector::Zeros(num_records_);
  Bitvector sibling;
  for (uint32_t j = 0; j < base; ++j) {
    if (j == slot) continue;
    if (!ReadBitmap(BitmapFileName(prefix_, component, j), &sibling,
                    payload_bytes, decompress_seconds)
             .ok()) {
      return false;  // a sibling is damaged too; surface the original error
    }
    siblings_or.OrWith(sibling);
  }
  *out = non_null_;
  out->AndNotWith(siblings_or);
  recovery_internal::CountReconstruction();
  return true;
}

Status StoredIndex::FetchBitmapOperand(int component, uint32_t slot,
                                       bool wah, FetchedOperand* out) const {
  BIX_CHECK(scheme_ == StorageScheme::kBitmapLevel);
  const std::string name = BitmapFileName(prefix_, component, slot);

  if (wah) {
    // Stored-payload handover for the compressed-domain engine: parse,
    // validate, return.  Any problem is reported without recovery — the
    // caller's dense-kind fallback re-reads with full retry and
    // reconstruction handling — and without charging bytes (the dense
    // fallback's read is the one that counts).
    if (!UsesWahOperandPayloads(scheme_, *codec_)) {
      return Status::NotFound("column does not store wah operand payloads");
    }
    format::CheckedBlob blob;
    Status s = ReadPayload(name, &blob);
    if (!s.ok()) return s;
    if (!WahCodec::DecodeToWah(blob.payload(), &out->wah) ||
        out->wah.size() != num_records_) {
      return Status::Corruption("wah payload does not decode: " + name);
    }
    out->payload_bytes = static_cast<int64_t>(blob.payload().size());
    static obs::Counter& direct = obs::MetricsRegistry::Global().GetCounter(
        "storage.wah_direct_fetches");
    direct.Increment();
    if (obs::Tracer::enabled()) {
      obs::TraceSpan span("fetch", "BS_wah_direct");
      span.set_component(component);
      span.set_slot(slot);
      span.set_bytes(out->payload_bytes);
    }
    return Status::OK();
  }

  obs::TraceSpan span("fetch", "BS_read");
  span.set_component(component);
  span.set_slot(slot);
  span.set_hit(false);
  int64_t bytes_read = 0;
  Status s = ReadBitmap(name, &out->dense, &bytes_read,
                        &out->decompress_seconds);
  span.set_bytes(bytes_read);
  out->payload_bytes += bytes_read;
  if (!s.ok()) {
    // Corruption is deterministic (retrying re-reads the same rot); try to
    // rebuild the bitmap from its sibling slices instead.
    if (s.code() == Status::Code::kCorruption &&
        ReconstructSlice(component, slot, &out->dense, &out->payload_bytes,
                         &out->decompress_seconds)) {
      out->degraded = true;
      return Status::OK();
    }
    return s;
  }
  return Status::OK();
}

// Per-query view over a StoredIndex.  For CS/IS the constructor eagerly
// reads and inflates every index file (the paper's access-path model);
// for BS each Fetch reads exactly one bitmap file.
class StoredQuerySource final : public QuerySource {
 public:
  StoredQuerySource(const StoredIndex& index, EvalStats* stats,
                    double* decompress_seconds)
      : index_(index), stats_(stats), decompress_seconds_(decompress_seconds) {
    if (index_.scheme_ == StorageScheme::kComponentLevel) {
      raw_.resize(static_cast<size_t>(index_.base().num_components()));
      for (int c = 0; c < index_.base().num_components(); ++c) {
        obs::TraceSpan span("storage", "load_component");
        span.set_component(c);
        EvalStats io;
        status_ = index_.ReadBlob(ComponentFileName(index_.prefix_, c),
                                  &raw_[static_cast<size_t>(c)], &io,
                                  decompress_seconds_);
        span.set_bytes(io.bytes_read);
        if (stats_ != nullptr) {
          stats_->bytes_read += io.bytes_read;
          obs::ProfCount(obs::ProfCounter::kBytesRead, io.bytes_read);
        }
        if (!status_.ok()) return;
        uint32_t stride =
            NumStoredBitmaps(index_.encoding(), index_.base().base(c));
        EnsureMatrixSize(&raw_[static_cast<size_t>(c)], stride);
        if (!status_.ok()) return;
      }
    } else if (index_.scheme_ == StorageScheme::kIndexLevel) {
      raw_.resize(1);
      obs::TraceSpan span("storage", "load_index");
      EvalStats io;
      status_ = index_.ReadBlob(index_.prefix_ + kIndexFileName, &raw_[0], &io,
                                decompress_seconds_);
      span.set_bytes(io.bytes_read);
      if (stats_ != nullptr) {
        stats_->bytes_read += io.bytes_read;
        obs::ProfCount(obs::ProfCounter::kBytesRead, io.bytes_read);
      }
      if (status_.ok()) EnsureMatrixSize(&raw_[0], index_.row_stride_);
    }
  }

  // Validates (and zero-pads, so extraction stays in bounds) a row-major
  // bit-matrix buffer of N rows x `stride` bits.
  void EnsureMatrixSize(std::vector<uint8_t>* raw, uint32_t stride) {
    size_t expected =
        (index_.num_records() * static_cast<size_t>(stride) + 7) / 8;
    if (raw->size() < expected) {
      status_ = Status::Corruption("row-major index file shorter than N*n bits");
      raw->resize(expected, 0);
    }
  }

  const Status& status() const override { return status_; }
  bool degraded() const override { return degraded_; }

  const BaseSequence& base() const override { return index_.base(); }
  Encoding encoding() const override { return index_.encoding(); }
  size_t num_records() const override { return index_.num_records(); }
  uint32_t cardinality() const override { return index_.cardinality(); }
  const Bitvector& non_null() const override { return index_.non_null_; }

  Bitvector Fetch(int component, uint32_t slot,
                  EvalStats* stats) const override {
    if (stats != nullptr) {
      ++stats->bitmap_scans;
      obs::ProfCount(obs::ProfCounter::kBitmapScans);
    }
    std::string prof_name;
    if (obs::Profiler::enabled()) {
      prof_name = "fetch c" + std::to_string(component);
    }
    obs::ProfSpan prof_span("fetch", prof_name);
    switch (index_.scheme_) {
      case StorageScheme::kBitmapLevel: {
        FetchedOperand op;
        Status s =
            index_.FetchBitmapOperand(component, slot, /*wah=*/false, &op);
        if (stats_ != nullptr) {
          stats_->bytes_read += op.payload_bytes;
          obs::ProfCount(obs::ProfCounter::kBytesRead, op.payload_bytes);
        }
        if (decompress_seconds_ != nullptr) {
          *decompress_seconds_ += op.decompress_seconds;
        }
        if (op.degraded) degraded_ = true;
        if (!s.ok()) {
          // Remember the first failure; the query completes with empty
          // bitmaps and the caller sees the status.
          if (status_.ok()) status_ = std::move(s);
          return Bitvector::Zeros(index_.num_records());
        }
        return std::move(op.dense);
      }
      case StorageScheme::kComponentLevel: {
        obs::TraceSpan span("fetch", "CS_extract");
        span.set_component(component);
        span.set_slot(slot);
        span.set_hit(true);  // served from the per-query buffer, no I/O
        uint32_t stride = NumStoredBitmaps(index_.encoding(),
                                           index_.base().base(component));
        return ExtractColumn(raw_[static_cast<size_t>(component)],
                             index_.num_records(), stride, slot);
      }
      case StorageScheme::kIndexLevel: {
        obs::TraceSpan span("fetch", "IS_extract");
        span.set_component(component);
        span.set_slot(slot);
        span.set_hit(true);
        uint32_t column =
            index_.slot_offsets_[static_cast<size_t>(component)] + slot;
        return ExtractColumn(raw_[0], index_.num_records(), index_.row_stride_,
                             column);
      }
    }
    BIX_CHECK(false);
    return Bitvector();
  }

  // A BS index stored with the "wah" codec serves the compressed-domain
  // engine its stored payload directly — parse, validate, hand over; no
  // inflate.  Any problem returns nullptr without counting anything, and
  // the Fetch() fallback re-reads with full retry/reconstruction handling.
  const WahBitvector* FetchWah(int component, uint32_t slot,
                               EvalStats* stats) const override {
    if (!UsesWahOperandPayloads(index_.scheme_, index_.codec())) {
      return nullptr;
    }
    std::string prof_name;
    if (obs::Profiler::enabled()) {
      prof_name = "fetch c" + std::to_string(component);
    }
    obs::ProfSpan prof_span("fetch", prof_name);
    FetchedOperand op;
    if (!index_.FetchBitmapOperand(component, slot, /*wah=*/true, &op).ok()) {
      return nullptr;
    }
    // Same accounting as the Fetch() path: one scan, payload bytes.
    if (stats != nullptr) {
      ++stats->bitmap_scans;
      obs::ProfCount(obs::ProfCounter::kBitmapScans);
    }
    if (stats_ != nullptr) {
      stats_->bytes_read += op.payload_bytes;
      obs::ProfCount(obs::ProfCounter::kBytesRead, op.payload_bytes);
    }
    wah_cache_.push_back(std::move(op.wah));
    return &wah_cache_.back();
  }

 private:
  const StoredIndex& index_;
  EvalStats* stats_;
  double* decompress_seconds_;
  std::vector<std::vector<uint8_t>> raw_;
  // Deque: FetchWah hands out stable pointers into it.
  mutable std::deque<WahBitvector> wah_cache_;
  mutable Status status_;
  mutable bool degraded_ = false;
};

std::unique_ptr<QuerySource> StoredIndex::OpenQuerySource(
    EvalStats* stats, double* decompress_seconds) const {
  return std::make_unique<StoredQuerySource>(*this, stats, decompress_seconds);
}

std::string StoredIndex::GenerationPrefix(uint32_t generation) {
  if (generation == 0) return "";
  return "g" + std::to_string(generation) + "_";
}

Status StoredIndex::Write(const BitmapIndex& index,
                          const std::filesystem::path& dir,
                          StorageScheme scheme, const Codec& codec,
                          std::unique_ptr<StoredIndex>* out,
                          const StoredIndexOptions& options,
                          std::span<const uint32_t> row_order,
                          RowOrder order_kind) {
  return WriteFromSource(index, dir, scheme, codec, out, options,
                         /*generation=*/0, row_order, order_kind);
}

Status StoredIndex::WriteFromSource(const BitmapSource& source,
                                    const std::filesystem::path& dir,
                                    StorageScheme scheme, const Codec& codec,
                                    std::unique_ptr<StoredIndex>* out,
                                    const StoredIndexOptions& options,
                                    uint32_t generation,
                                    std::span<const uint32_t> row_order,
                                    RowOrder order_kind) {
  const Env* env = options.env != nullptr ? options.env : Env::Default();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create directory: " + dir.string());

  Status s;
  if (generation == 0) {
    // Fresh build: drop any stale manifest first — while the new files
    // land, the directory must not look like a complete (old) verified
    // index.  Compaction (generation > 0) keeps the old manifest live:
    // its files do not collide with the new generation's, and the atomic
    // manifest rename below is the single commit point.
    s = env->RemoveFile(dir / format::kManifestFile);
    if (!s.ok()) return s;
  }

  const std::string prefix = GenerationPrefix(generation);
  format::Manifest manifest;
  int64_t stored = 0;
  int64_t uncompressed = 0;
  const int n = source.base().num_components();
  const bool wah_operands = UsesWahOperandPayloads(scheme, codec);

  auto write_blob = [&](const std::string& name, uint64_t raw_size,
                        std::vector<uint8_t> payload) {
    stored += static_cast<int64_t>(payload.size());
    uncompressed += static_cast<int64_t>(raw_size);
    return WriteBlobFile(*env, dir, name, payload, raw_size, &manifest);
  };

  switch (scheme) {
    case StorageScheme::kBitmapLevel: {
      for (int c = 0; c < n && s.ok(); ++c) {
        uint32_t num_stored =
            NumStoredBitmaps(source.encoding(), source.base().base(c));
        for (uint32_t j = 0; j < num_stored && s.ok(); ++j) {
          const Bitvector* view = source.FetchView(c, j, nullptr);
          Bitvector fetched;
          if (view == nullptr) {
            fetched = source.Fetch(c, j, nullptr);
            view = &fetched;
          }
          const std::string name = BitmapFileName(prefix, c, j);
          if (wah_operands) {
            // The "wah" codec's BS payloads carry the exact record count,
            // not the byte-padded bit length, so FetchWah operands match N.
            s = write_blob(name, (view->size() + 7) / 8,
                           WahCodec::EncodeBits(*view));
          } else {
            std::vector<uint8_t> raw = view->ToBytes();
            s = write_blob(name, raw.size(), codec.Compress(raw));
          }
        }
      }
      break;
    }
    case StorageScheme::kComponentLevel: {
      for (int c = 0; c < n && s.ok(); ++c) {
        uint32_t width =
            NumStoredBitmaps(source.encoding(), source.base().base(c));
        std::vector<uint8_t> raw = PackRowMajor(source, c, c, width);
        s = write_blob(ComponentFileName(prefix, c), raw.size(),
                       codec.Compress(raw));
      }
      break;
    }
    case StorageScheme::kIndexLevel: {
      uint32_t width = 0;
      for (int c = 0; c < n; ++c) {
        width += NumStoredBitmaps(source.encoding(), source.base().base(c));
      }
      std::vector<uint8_t> raw = PackRowMajor(source, 0, n - 1, width);
      s = write_blob(prefix + kIndexFileName, raw.size(), codec.Compress(raw));
      break;
    }
  }
  if (!s.ok()) return s;

  // The shared non-null bitmap is stored uncompressed and excluded from the
  // index size accounting (it is common to every candidate design).
  {
    std::vector<uint8_t> raw = source.non_null().ToBytes();
    s = WriteBlobFile(*env, dir, prefix + kNonNullFile, raw, raw.size(),
                      &manifest);
    if (!s.ok()) return s;
  }

  // Row-order sidecar, only for a genuinely reordered build: an identity
  // (or absent) permutation writes nothing, keeping unsorted directories
  // byte-identical to pre-row-order output.
  const bool sorted = !row_order.empty() && !IsIdentityPermutation(row_order);
  if (sorted) {
    BIX_CHECK_MSG(row_order.size() == source.num_records(),
                  "row_order length != num_records");
    BIX_CHECK_MSG(order_kind != RowOrder::kNone,
                  "sorted write needs a row-order kind");
    std::vector<uint8_t> raw = format::EncodeRowOrderPayload(row_order);
    s = WriteBlobFile(*env, dir, prefix + format::kRowOrderFile, raw,
                      raw.size(), &manifest);
    if (!s.ok()) return s;
  }

  // Metadata.
  {
    std::ostringstream meta;
    meta << "bix_index_meta_v2\n";
    meta << "records " << source.num_records() << "\n";
    meta << "cardinality " << source.cardinality() << "\n";
    meta << "encoding "
         << (source.encoding() == Encoding::kRange ? "range" : "equality")
         << "\n";
    meta << "scheme " << ToString(scheme) << "\n";
    meta << "codec " << codec.name() << "\n";
    meta << "stored_bytes " << stored << "\n";
    meta << "uncompressed_bytes " << uncompressed << "\n";
    if (sorted) meta << "roworder " << ToString(order_kind) << "\n";
    meta << "bases_lsb";
    for (uint32_t b : source.base().bases_lsb_first()) meta << " " << b;
    meta << "\n";
    std::string text = meta.str();
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t*>(text.data()), text.size());
    s = env->WriteFile(dir / (prefix + kMetaFile), bytes);
    if (!s.ok()) return s;
    manifest[prefix + kMetaFile] = format::ManifestEntry{
        text.size(), Crc32c(text.data(), text.size())};
  }

  // The manifest goes last, atomically: a crash before this point leaves a
  // directory without a (current) manifest — or, mid-compaction, with the
  // previous generation's manifest still governing — which refuses to open
  // as a verified index rather than serving a torn mix of files.
  s = format::WriteManifest(*env, dir, manifest, generation);
  if (!s.ok()) return s;

  return Open(dir, out, options);
}

Status StoredIndex::Open(const std::filesystem::path& dir,
                         std::unique_ptr<StoredIndex>* out,
                         const StoredIndexOptions& options) {
  auto index = std::unique_ptr<StoredIndex>(new StoredIndex());
  index->env_ = options.env != nullptr ? options.env : Env::Default();
  index->retry_ = options.retry;
  index->dir_ = dir;
  Status s = index->LoadMeta(dir);
  if (!s.ok()) return s;
  // Index open is the natural calibration point for the auto engine's
  // keep-compressed break-even: by the time a second index opens, earlier
  // queries have usually filled the op-timing sample windows, and the
  // derived ratio replaces the built-in fallback for everything that
  // follows.  (Write() funnels through Open(), so fresh indexes hit this
  // too.)
  exec::CalibrateAutoBreakEven();
  *out = std::move(index);
  return Status::OK();
}

Status StoredIndex::LoadMeta(const std::filesystem::path& dir) {
  // Manifest first: it decides whether every later read is verified, and
  // its generation tag decides which file names are current.
  {
    Status s = format::ReadManifest(*env_, dir, &manifest_, &generation_);
    if (s.ok()) {
      verified_ = true;
    } else if (s.code() == Status::Code::kNotFound) {
      verified_ = false;  // legacy (V1) index
    } else {
      return s;
    }
    prefix_ = GenerationPrefix(generation_);
  }

  std::vector<uint8_t> meta_bytes;
  Status s = ReadCheckedFile(prefix_ + kMetaFile, &meta_bytes);
  if (!s.ok()) return s;
  std::istringstream f(
      std::string(reinterpret_cast<const char*>(meta_bytes.data()),
                  meta_bytes.size()));
  std::string header;
  std::getline(f, header);
  if (header == "bix_index_meta_v2") {
    if (!verified_) {
      // A V2 index always materializes its manifest last; its absence means
      // the materialize never finished (or the manifest was destroyed).
      return Status::Corruption(
          "v2 index has no manifest (torn materialize?): " + dir.string());
    }
  } else if (header != "bix_index_meta_v1") {
    return Status::Corruption("unknown metadata header");
  }
  std::string key;
  std::vector<uint32_t> bases;
  std::string codec_name;
  std::string scheme_name;
  std::string encoding_name;
  while (f >> key) {
    if (key == "records") {
      f >> num_records_;
    } else if (key == "cardinality") {
      f >> cardinality_;
    } else if (key == "encoding") {
      f >> encoding_name;
    } else if (key == "scheme") {
      f >> scheme_name;
    } else if (key == "codec") {
      f >> codec_name;
    } else if (key == "stored_bytes") {
      f >> stored_bytes_;
    } else if (key == "uncompressed_bytes") {
      f >> uncompressed_bytes_;
    } else if (key == "bases_lsb") {
      std::string rest;
      std::getline(f, rest);
      std::istringstream line(rest);
      uint32_t b;
      while (line >> b) bases.push_back(b);
    } else if (key == "roworder") {
      std::string order_name;
      f >> order_name;
      if (!ParseRowOrder(order_name, &row_order_kind_) ||
          row_order_kind_ == RowOrder::kNone) {
        return Status::Corruption("bad roworder kind: " + order_name);
      }
    } else {
      return Status::Corruption("unknown metadata key: " + key);
    }
  }
  if (bases.empty()) return Status::Corruption("metadata missing bases");
  base_ = BaseSequence::FromLsbFirst(std::move(bases));
  if (encoding_name == "range") {
    encoding_ = Encoding::kRange;
  } else if (encoding_name == "equality") {
    encoding_ = Encoding::kEquality;
  } else {
    return Status::Corruption("bad encoding: " + encoding_name);
  }
  if (scheme_name == "BS") {
    scheme_ = StorageScheme::kBitmapLevel;
  } else if (scheme_name == "CS") {
    scheme_ = StorageScheme::kComponentLevel;
  } else if (scheme_name == "IS") {
    scheme_ = StorageScheme::kIndexLevel;
  } else {
    return Status::Corruption("bad scheme: " + scheme_name);
  }
  codec_ = CodecByName(codec_name);
  if (codec_ == nullptr) return Status::Corruption("bad codec: " + codec_name);

  // Non-null bitmap (stored uncompressed; V2 blob or legacy V1).
  {
    format::CheckedBlob blob;
    Status nn = ReadPayload(prefix_ + kNonNullFile, &blob);
    if (!nn.ok()) return nn;
    if (blob.payload().size() < (num_records_ + 7) / 8) {
      return Status::Corruption("non-null bitmap shorter than N bits");
    }
    non_null_ = Bitvector::FromBytes(blob.payload(), num_records_);
  }

  // Row-order sidecar: the metadata's "roworder" key promises it exists —
  // a declared-sorted index without its permutation must not serve
  // physical positions as row ids, so every failure here is terminal.
  row_order_.clear();
  if (row_order_kind_ != RowOrder::kNone) {
    const std::string name = prefix_ + format::kRowOrderFile;
    format::CheckedBlob blob;
    Status ro = ReadPayload(name, &blob);
    if (!ro.ok()) {
      if (!env_->FileExists(dir / name)) {
        return Status::Corruption("row-order sidecar missing: " + name);
      }
      return ro;
    }
    ro = format::DecodeRowOrderPayload(blob.payload(), name, &row_order_);
    if (!ro.ok()) return ro;
    if (row_order_.size() != num_records_) {
      return Status::Corruption(
          "row-order sidecar has " + std::to_string(row_order_.size()) +
          " rows, index has " + std::to_string(num_records_));
    }
  }

  slot_offsets_.clear();
  row_stride_ = 0;
  for (int c = 0; c < base_.num_components(); ++c) {
    slot_offsets_.push_back(row_stride_);
    row_stride_ += NumStoredBitmaps(encoding_, base_.base(c));
  }
  return Status::OK();
}

const std::vector<uint32_t>& StoredIndex::inverse_row_order() const {
  std::call_once(inverse_once_, [this] {
    if (!row_order_.empty()) {
      inverse_row_order_ = InvertPermutation(row_order_);
    }
  });
  return inverse_row_order_;
}

Bitvector StoredIndex::Evaluate(EvalAlgorithm algorithm, CompareOp op,
                                int64_t v, EvalStats* stats,
                                double* decompress_seconds,
                                Status* status,
                                const ExecOptions* exec) const {
  obs::TraceSpan span("storage", "evaluate");
  span.set_value(v);
  if (span.active()) {
    span.set_detail(std::string(ToString(scheme_)) + " " +
                    std::string(ToString(op)));
  }

  EvalStats local;
  EvalStats* s = stats != nullptr ? stats : &local;
  const int64_t bytes_before = s->bytes_read;
  double decompress_local = 0;
  double* ds = decompress_seconds != nullptr ? decompress_seconds
                                             : &decompress_local;
  const double decompress_before = *ds;

  std::string prof_name;
  if (obs::Profiler::enabled()) {
    prof_name = "stored eval " + std::string(ToString(scheme_));
  }
  obs::ProfSpan prof("storage", prof_name);
  std::optional<StoredQuerySource> source;
  {
    obs::ProfSpan open_span("storage", "open source");
    source.emplace(*this, s, ds);
  }
  Bitvector result;
  if (source->status().ok()) {
    result = exec != nullptr
                 ? EvaluatePredicate(*source, algorithm, op, v, *exec, s)
                 : EvaluatePredicate(*source, algorithm, op, v, s);
    // Sorted index: the bitmaps answered in physical (build) order; hand
    // the caller original row ids.
    if (!row_order_.empty()) result = RemapToLogical(result, row_order_);
  }
  if (source->degraded()) recovery_internal::CountDegradedQuery();

  auto& reg = obs::MetricsRegistry::Global();
  static obs::Counter& queries = reg.GetCounter("storage.queries");
  static obs::Counter& bytes = reg.GetCounter("storage.bytes_read");
  static obs::Histogram& decompress_ns =
      reg.GetHistogram("storage.decompress_ns");
  queries.Increment();
  bytes.Increment(s->bytes_read - bytes_before);
  decompress_ns.Observe(
      static_cast<int64_t>((*ds - decompress_before) * 1e9));
  span.set_bytes(s->bytes_read - bytes_before);
  if (status != nullptr) {
    *status = source->status();
    if (!status->ok()) return Bitvector();
    return result;
  }
  BIX_CHECK_MSG(source->status().ok(), "stored index read failed");
  return result;
}

}  // namespace bix
