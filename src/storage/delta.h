// Crash-safe mutation layer over StoredIndex: append log, tombstone
// deletes, and recoverable compaction (DESIGN.md §14).
//
// A stored index directory at generation G may carry two mutation
// sidecars next to its immutable blobs:
//   gG.delta  append log: 16-byte header + CRC-framed records of newly
//             appended value ranks (WAL-style; one fsync per commit batch)
//   gG.tomb   tombstone bitmap over all rows (base + delta), stored as a
//             checksummed V2 blob and replaced atomically on every delete
//
// Append-log layout (little-endian):
//   header   "BIXWAL" | u16 version=1 | u32 generation | u32 crc32c of
//            the preceding 12 bytes
//   record   u32 payload_len | u32 crc32c(payload) | payload
//   payload  u8 type (1 = append batch) | u32 count | count x u32 ranks
//
// Durability points and their recovery:
//   * a torn header or torn tail record (the crash cut an unsynced
//     append) is detected by length/CRC at the file end and repaired by
//     truncating to the last intact record — the lost batch was never
//     acknowledged, so this is exactly the WAL contract;
//   * a CRC mismatch *not* at the file end is rot, reported as typed
//     Corruption (never silently dropped);
//   * the tombstone blob is replaced via write-temp-fsync-rename, so it
//     is always entirely old or entirely new;
//   * compaction materializes generation G+1 under "g<G+1>_"-prefixed
//     names that cannot collide with live files, then atomically renames
//     the manifest — the single commit point.  A crash on either side
//     leaves the directory opening as exactly generation G or G+1, and
//     the loser generation's files are inert orphans the next open
//     garbage-collects.
//
// MutableStoredIndex overlays the sidecars at query time: the base
// index's bitmaps AND-NOT tombstones, OR the delta rows' bits.  Because
// deleted rows read as NULL (contributing no bits to any stored bitmap
// under either encoding), the overlay is bit-identical to rebuilding the
// index from scratch over the logically current column.

#ifndef BIX_STORAGE_DELTA_H_
#define BIX_STORAGE_DELTA_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bitmap/bitvector.h"
#include "core/bitmap_index.h"
#include "core/status.h"
#include "storage/env.h"
#include "storage/stored_index.h"

namespace bix {

inline constexpr uint16_t kDeltaLogVersion = 1;
inline constexpr size_t kDeltaLogHeaderSize = 16;

/// What a parse learned about an append log.
struct DeltaLogInfo {
  uint32_t generation = 0;  // from the header (0 when the header is torn)
  uint64_t valid_bytes = 0;  // header + intact records
  uint64_t torn_bytes = 0;   // unsynced trailing bytes past the last record
  uint64_t num_records = 0;  // intact records
};

std::vector<uint8_t> EncodeDeltaLogHeader(uint32_t generation);
std::vector<uint8_t> EncodeDeltaRecord(std::span<const uint32_t> values);

/// Parses a whole append-log image.  Returns OK for an intact log *and*
/// for one with a torn tail (`info->torn_bytes > 0`; `*values` holds the
/// intact prefix) — torn tails are the expected residue of a crash and
/// recoverable by truncation.  Returns typed Corruption for everything
/// that is not explainable as a torn write: a CRC mismatch mid-log, an
/// unsupported version, a duplicate header, a zero-length or misshapen
/// record.
Status ParseDeltaLog(std::span<const uint8_t> bytes, const std::string& name,
                     std::vector<uint32_t>* values, DeltaLogInfo* info);

/// Matches "g<N>.delta" / "g<N>.tomb"; fills generation and which kind.
bool ParseDeltaFileName(const std::string& name, uint32_t* generation,
                        bool* is_tomb);

std::string DeltaLogFileName(uint32_t generation);
std::string TombFileName(uint32_t generation);

/// A mutable view over a stored index directory: serves queries through a
/// delta-merging overlay and accepts appends, deletes, and compaction.
///
/// Concurrency: mutations serialize on an internal mutex; a query takes
/// the mutex only long enough to copy a shared_ptr to the current
/// copy-on-write snapshot, and an in-flight query keeps its snapshot —
/// including the pre-compaction base generation — alive via that
/// shared_ptr.  The guarantee covers the *files* too: queries fetch base
/// blobs lazily by path, so compaction defers removal of the superseded
/// generation's files until the last snapshot pinning that base is
/// released.  Compaction therefore never invalidates a running read,
/// neither its in-memory index nor the blobs it still has to open.
///
/// Failure containment: after any failed mutation the handle poisons
/// itself — further mutations fail with the original error until the
/// directory is reopened (reopen runs recovery).  Queries keep working
/// on the last committed state either way.  This mirrors what a real
/// process does after an I/O error on its WAL: stop writing, keep
/// serving, restart to recover.
class MutableStoredIndex {
 public:
  static Status Open(const std::filesystem::path& dir,
                     std::unique_ptr<MutableStoredIndex>* out,
                     const StoredIndexOptions& options = {});

  /// Appends `values` (ranks in [0, C) or kNullValue) as one atomic,
  /// fsynced log record.  After OK the rows are durable; after an error
  /// none of them are visible.
  Status Append(std::span<const uint32_t> values);

  /// Tombstones `rows` (0-based over base + delta rows).  Row ids are
  /// LOGICAL — the ids queries return — and are translated through the
  /// base index's sort permutation internally, so callers never see
  /// physical bitmap positions.  Deleting an already-deleted row is a
  /// no-op.  Durable (atomic tombstone-blob replace) before OK returns.
  Status Delete(std::span<const uint32_t> rows);

  /// Folds log + tombstones into fresh generation-(G+1) blobs through the
  /// write-temp-fsync-rename manifest path, then garbage-collects the old
  /// generation — deferred until the last in-flight query (or held base()
  /// pointer) pinning the pre-compaction snapshot releases it, so a
  /// concurrent read never loses the blobs under its feet.  With no
  /// readers in flight the sweep runs before Compact returns.  Deleted
  /// rows become permanent NULLs (N never shrinks, so row ids stay
  /// stable).  No-op when nothing is pending (unless `resort` asks for a
  /// rewrite anyway).
  ///
  /// A sorted base's permutation is carried forward across a plain
  /// compaction, extended by the identity over the appended tail — tail
  /// rows stay physically last.  With `resort` true the fold instead
  /// decodes the logical column back out of the bitmaps, recomputes a
  /// fresh sort permutation (`resort_order`, defaulting to the base's
  /// current order, or lex for a previously unsorted index), and rewrites
  /// the index fully sorted — the move that restores multiplied WAH
  /// compression after a run of appends.  Logical row ids are preserved
  /// in every case.
  Status Compact(bool resort = false,
                 RowOrder resort_order = RowOrder::kNone);

  /// The current base StoredIndex (pre-overlay).  The pointer stays valid
  /// across a later compaction for as long as the caller holds it.
  std::shared_ptr<const StoredIndex> base() const;

  uint32_t generation() const;
  /// Total rows: base records + pending delta rows.
  size_t num_records() const;
  size_t num_delta_rows() const;
  size_t num_tombstones() const;
  bool has_pending() const;

  /// Per-query source over the overlay.  With nothing pending this is a
  /// passthrough to the base index's own source (identical bits, stats,
  /// and fetch paths, including compressed-domain handover); with pending
  /// mutations the overlay fetches base bitmaps, ORs delta bits, and
  /// masks tombstones — one bitmap scan per fetch, exactly like the base,
  /// so EvalStats scan/op accounting matches a from-scratch rebuild
  /// (bytes_read additionally counts the base read, never the in-memory
  /// delta).
  ///
  /// The source lives in PHYSICAL row space (the base's build order plus
  /// the appended tail): callers consuming raw fetches over a sorted base
  /// must remap through base()->row_order() themselves.  Evaluate() below
  /// already does.
  std::unique_ptr<QuerySource> OpenQuerySource(
      EvalStats* stats = nullptr, double* decompress_seconds = nullptr) const;

  /// Evaluate over the overlay; same contract as StoredIndex::Evaluate,
  /// including the logical-row-id remap for a sorted base.
  Bitvector Evaluate(EvalAlgorithm algorithm, CompareOp op, int64_t v,
                     EvalStats* stats = nullptr,
                     double* decompress_seconds = nullptr,
                     Status* status = nullptr,
                     const ExecOptions* exec = nullptr) const;

 private:
  /// Immutable snapshot of the logical index state.  Mutations build a
  /// new one and swap; queries pin the one they started with.
  ///
  /// Successive snapshots share what a mutation leaves alone: a delete
  /// keeps the delta_index pointer, an append extends a clone of it by the
  /// new batch only, and num_tombstones moves by the newly set bits — so
  /// neither costs more as rows pile up between compactions.
  struct DeltaState {
    std::shared_ptr<const StoredIndex> base;
    /// base->num_records() + num_delta() bits; set = deleted.
    Bitvector tombstones;
    /// Index over the pending appended values (same base sequence /
    /// encoding as the stored index); null when no rows are pending.
    std::shared_ptr<const BitmapIndex> delta_index;
    size_t num_tombstones = 0;

    size_t num_delta() const {
      return delta_index == nullptr ? 0 : delta_index->num_records();
    }
    size_t total() const { return base->num_records() + num_delta(); }
    bool has_pending() const { return num_delta() > 0 || num_tombstones > 0; }
  };

  /// Owns one generation's base StoredIndex plus a cleanup hook that runs
  /// when the last reference — the handle itself or an in-flight query's
  /// snapshot — goes away.  Compaction points the superseded holder's hook
  /// at the old generation's file sweep, which is what defers on-disk
  /// garbage collection past every reader that may still fetch lazily
  /// from those files.  Setting the hook is safe while readers hold
  /// aliased pointers: they never touch it, and the handle's own
  /// reference (released under the mutex after the hook is set) orders
  /// the write before any final release.
  struct GenerationHolder {
    std::unique_ptr<const StoredIndex> index;
    std::function<void()> on_last_release;  // set under mu_ before the swap
    ~GenerationHolder();
  };

  friend class DeltaQuerySource;
  friend struct MutableStoredIndexTestPeer;  // tests: snapshot internals

  MutableStoredIndex() = default;

  std::shared_ptr<const DeltaState> state() const;

  /// Source construction over a specific snapshot.  Evaluate() and
  /// OpenQuerySource() both funnel through this so the source and the
  /// permutation used to remap its results always come from the *same*
  /// snapshot — a compaction between two state() reads could otherwise
  /// pair a new base's bitmaps with the old base's row order.
  static std::unique_ptr<QuerySource> MakeQuerySource(
      std::shared_ptr<const DeltaState> snapshot, EvalStats* stats,
      double* decompress_seconds);

  /// Builds a snapshot from scratch for the pending `delta_values` and
  /// `tombstones` (open and compaction; Append and Delete derive theirs
  /// incrementally from the current snapshot).
  static std::shared_ptr<const DeltaState> MakeState(
      std::shared_ptr<const StoredIndex> base,
      std::span<const uint32_t> delta_values, Bitvector tombstones);

  /// Opens (or creates, writing the header) the append-log write handle.
  Status EnsureLogOpen();

  /// Removes files of other generations and *.tmp leftovers.  Failures
  /// are ignored: orphans are inert and retried at the next open.
  void CollectGarbage(uint32_t keep_generation) const;

  const Env* env_ = nullptr;
  StoredIndexOptions options_;
  std::filesystem::path dir_;

  mutable std::mutex mu_;  // serializes mutations + snapshot swap
  std::shared_ptr<const DeltaState> state_;  // guarded by mu_ for writes
  /// Holder of the current base generation (state_->base aliases into
  /// it); guarded by mu_.  Kept so compaction can arm the old holder's
  /// release hook before swapping it out.
  std::shared_ptr<GenerationHolder> base_holder_;
  std::unique_ptr<AppendableFile> log_;      // lazily opened, guarded by mu_
  /// First mutation failure; mutations after it fail fast (see above).
  Status poisoned_;
};

}  // namespace bix

#endif  // BIX_STORAGE_DELTA_H_
