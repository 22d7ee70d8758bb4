// End-to-end benchmark of serving and mutating stored bitmap indexes.
//
//   perfbench --workload serve_warm|serve_sorted|mutate_mixed --seed N
//             --seconds S --trace 0|1 --dir WORKDIR
//             [--scale full|smoke] [--spans-out FILE]
//
// Every workload builds its columns from the seed (range encoding, knee
// base, BS scheme, "wah" codec, kAuto engine), runs its query stream and a
// fixed mutation schedule, checks every result against an oracle kept
// apart from the library (oracle.h), and prints one JSON line last.  With
// --trace 0 the line holds the end-to-end metrics; with --trace 1 it holds
// the per-layer metrics of a traced replay of the same operations
// (README.md maps each per-layer metric to the end-to-end one it moves).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "core/advisor.h"
#include "core/bitmap_index.h"
#include "core/row_order.h"
#include "exec/segmented_eval.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "serve/service.h"
#include "storage/delta.h"
#include "storage/stored_index.h"
#include "tracing.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using bix::CompareOp;

// The traffic the repository's own benchmarks already use: the data of
// bench_wah_ablation's sorted-vs-shuffled lanes (zipf s=1.2 over C=1000),
// and the trace shape and length of `bixctl bench-serve`'s defaults
// (GenerateMultiTenantTrace with column skew 1.1, value skew 1.3, half
// equality predicates, 2000 queries).
constexpr uint32_t kCardinality = 1000;
constexpr double kDataSkew = 1.2;    // zipf exponent of every column's values
constexpr double kColumnSkew = 1.1;  // zipf exponent of the trace's columns
constexpr double kValueSkew = 1.3;   // zipf exponent of the trace's constants
constexpr double kEqFraction = 0.5;  // the rest are <=
constexpr size_t kTraceQueries = 2000;
// The timed query stream is cut into chunks of this many consecutive
// queries; qps, p50 and p99 are each the median of the chunks' figures, so
// a stretch of a run slowed by the host moves them less.  A chunk's p99
// has ten samples beyond it, and every run times at least one chunk.
constexpr size_t kChunkQueries = 1000;
constexpr int kFoundsetSamples = 8;  // served foundsets checked bit for bit
constexpr int kFinalChecks = 16;     // queries checked after the reopen

struct Spec {
  const char* name;
  // Columns of the trace, which runs through QueryService; with none, the
  // query stream is the mutated column's overlay queries.
  uint32_t columns;
  size_t rows;        // of each trace column
  bool sorted;        // every column lex-sorted before the build
  bool cold_batches;  // operand cache cleared before every batch
  // Setups of each column over the same input (the last copy is kept), so
  // a single-column workload's setup_s is a median like the others'.
  int setup_reps;
  // The mutation schedule runs on a column of its own, numbered after the
  // trace columns and also served: per round, appends and deletes spread
  // over the round's slice of the query stream, overlay check queries,
  // then one plain compaction published by UpdateColumn; then the resorts.
  // Its size is the same on every workload, so the schedule's figures do
  // not scale with the trace columns.
  size_t mutate_rows;
  int rounds;
  int appends_per_round;
  size_t append_rows;
  int deletes_per_round;
  size_t delete_rows;
  int overlay_queries_per_round;  // 0: time-sliced overlay query stream
  int resorts;

  bool served() const { return columns > 0; }
};

const Spec kSpecs[] = {
    {"serve_warm", 4, 6'000'000, false, false, 1,
     2'000'000, 6, 24, 2000, 12, 500, 8, 4},
    {"serve_sorted", 3, 10'000'000, true, true, 1,
     2'000'000, 6, 24, 2000, 12, 500, 8, 4},
    {"mutate_mixed", 0, 0, false, false, 3,
     2'000'000, 6, 24, 2000, 12, 500, 0, 4},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void CheckOk(const bix::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

int Lanes() {
  cpu_set_t set;
  int n = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) n = CPU_COUNT(&set);
  return std::clamp(n, 1, 4);
}

// The process's resident set now, from /proc/self/statm.
uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) resident = 0;
  std::fclose(f);
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

int64_t Counter(const char* name) {
  return bix::obs::MetricsRegistry::Global().GetCounter(name).value();
}

std::map<std::string, uintmax_t> ListDir(const fs::path& dir) {
  std::map<std::string, uintmax_t> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().filename().string()] = entry.file_size();
    }
  }
  return files;
}

// Bytes of files that are new or changed size between two listings.
uint64_t BytesWritten(const std::map<std::string, uintmax_t>& before,
                      const std::map<std::string, uintmax_t>& after) {
  uint64_t bytes = 0;
  for (const auto& [name, size] : after) {
    auto it = before.find(name);
    if (it == before.end() || it->second != size) bytes += size;
  }
  return bytes;
}

struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  int mismatches_reported = 0;
  OpCount query, append, del, compact, resort;
  std::vector<Metric> metrics;

  void Mismatch(const std::string& what) {
    correct = false;
    if (++mismatches_reported <= 10) {
      std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string Describe(uint32_t column, CompareOp op, int64_t v) {
  return "column " + std::to_string(column) + " " +
         std::string(bix::ToString(op)) + " " + std::to_string(v);
}

void CheckCount(Outcome& out, const ColumnOracle& oracle, uint32_t column,
                CompareOp op, int64_t v, uint64_t got) {
  const uint64_t want = oracle.ExpectedCount(op, v);
  if (got != want) {
    out.Mismatch(Describe(column, op, v) + ": " + std::to_string(got) +
                 " rows, oracle " + std::to_string(want));
  }
}

void CheckFoundset(Outcome& out, const ColumnOracle& oracle, uint32_t column,
                   CompareOp op, int64_t v, const bix::Bitvector& got) {
  size_t diff = 0;
  if (!SameFoundset(got, oracle.ExpectedFoundset(op, v), &diff)) {
    out.Mismatch(Describe(column, op, v) + ": foundset differs from the scan "
                 "at row " + std::to_string(diff));
  }
}

struct Column {
  fs::path dir;
  std::unique_ptr<bix::MutableStoredIndex> index;
  std::unique_ptr<ColumnOracle> oracle;
};

struct SetupTimes {
  std::vector<double> total, sort, build, write;
};

std::vector<uint32_t> ZipfValues(size_t n, uint64_t seed) {
  const Zipf zipf(kCardinality, kDataSkew);
  Rng rng(seed);
  std::vector<uint32_t> values(n);
  for (uint32_t& x : values) x = zipf.Sample(rng);
  return values;
}

// Generate, sort, build, write, open: one timed setup of one column.
void SetUpColumn(const Spec& spec, size_t rows, uint64_t seed,
                 const fs::path& dir, Column* col, SetupTimes* times) {
  const bix::BaseSequence base = bix::KneeBase(kCardinality);
  const int64_t t0 = NowNs();
  std::vector<uint32_t> logical = ZipfValues(rows, seed);
  const int64_t t1 = NowNs();
  std::vector<uint32_t> perm;
  std::vector<uint32_t> physical;
  if (spec.sorted) {
    perm = bix::ComputeRowOrder(logical, kCardinality, base,
                                bix::RowOrder::kLex);
    physical = bix::ApplyPermutation(logical, perm);
  }
  const int64_t t2 = NowNs();
  int64_t t3 = 0;
  {
    bix::BitmapIndex index =
        bix::BitmapIndex::Build(spec.sorted ? physical : logical,
                                kCardinality, base, bix::Encoding::kRange);
    t3 = NowNs();
    std::unique_ptr<bix::StoredIndex> stored;
    CheckOk(bix::StoredIndex::Write(
                index, dir, bix::StorageScheme::kBitmapLevel,
                *bix::CodecByName("wah"), &stored, {}, perm,
                spec.sorted ? bix::RowOrder::kLex : bix::RowOrder::kNone),
            "write " + dir.string());
  }
  const int64_t t4 = NowNs();
  CheckOk(bix::MutableStoredIndex::Open(dir, &col->index),
          "open " + dir.string());
  const int64_t t5 = NowNs();
  col->dir = dir;
  col->oracle = std::make_unique<ColumnOracle>(std::move(logical),
                                               kCardinality);
  times->total.push_back(Seconds(t5 - t0));
  if (spec.sorted) times->sort.push_back(Seconds(t2 - t1));
  times->build.push_back(Seconds(t3 - t2));
  times->write.push_back(Seconds(t4 - t3));
}

// A zipf multi-tenant trace: hot columns, hot constants, = or <=.
std::vector<bix::serve::ServeQuery> MakeTrace(uint32_t columns, size_t n,
                                              uint64_t seed) {
  const Zipf column_zipf(columns, kColumnSkew);
  const Zipf value_zipf(kCardinality, kValueSkew);
  Rng rng(seed);
  std::vector<bix::serve::ServeQuery> trace(n);
  for (size_t i = 0; i < n; ++i) {
    trace[i].id = i;
    trace[i].column = column_zipf.Sample(rng);
    trace[i].op = rng.Uniform() < kEqFraction ? CompareOp::kEq : CompareOp::kLe;
    trace[i].value = value_zipf.Sample(rng);
  }
  return trace;
}

struct Direct {
  bix::Bitvector foundset;
  bix::EvalStats stats;
  double decompress_s = 0;
  int64_t fetches = 0;
  bix::Status status;
};

// One query through the layers' public entry points: the storage source,
// the exec engine, and the row-order remap.  `Index` is a StoredIndex or a
// MutableStoredIndex (whose source is the delta overlay).
template <class Index>
Direct EvaluateDirect(const Index& index, std::span<const uint32_t> perm,
                      uint32_t column, CompareOp op, int64_t v,
                      OperandMemo* memo) {
  Direct d;
  Span root("query");
  std::unique_ptr<bix::QuerySource> source;
  {
    Span span("storage.open");
    source = index.OpenQuerySource(&d.stats, &d.decompress_s);
  }
  if (!source->status().ok()) {
    d.status = source->status();
    return d;
  }
  TimedSource timed(*source, memo, column);
  bix::ExecOptions exec;
  exec.engine = bix::EngineKind::kAuto;
  bix::Bitvector physical;
  {
    Span span("exec.eval");
    physical = bix::EvaluatePredicate(timed, bix::EvalAlgorithm::kAuto, op, v,
                                      exec, &d.stats);
  }
  d.status = source->status();
  d.fetches = timed.fetches();
  if (!d.status.ok()) return d;
  if (perm.empty()) {
    d.foundset = std::move(physical);
  } else {
    Span span("row_order.remap");
    d.foundset = bix::RemapToLogical(physical, perm);
  }
  return d;
}

class Bench {
 public:
  Bench(const Spec& spec, uint64_t seed, double seconds, bool traced,
        fs::path dir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        traced_(traced),
        dir_(std::move(dir)),
        lanes_(Lanes()) {}

  Outcome Run();
  const TraceSession& trace() const { return trace_session_; }
  int lanes() const { return lanes_; }
  double keep_ratio() const { return keep_ratio_; }

 private:
  using Batch = std::vector<bix::serve::ServeQuery>;

  void SetUp();
  void CalibrateAutoEngine();
  void StartService();
  Batch NextBatch();
  void WarmService();
  void ServeStep();
  void ServeTraced();
  template <class Index>
  int64_t ReplayDirect(const Index& index, std::span<const uint32_t> perm,
                       uint32_t column, CompareOp op, int64_t v,
                       OperandMemo* memo);
  void CheckServedSample(const Batch& sample);
  std::vector<bix::serve::ServeResult> ServeChecked(
      const Batch& batch, std::vector<double>* latencies_us,
      int64_t* wall_ns = nullptr);
  void Publish(uint32_t column);
  void SampleRss();
  void RecordQueries(int64_t wall_ns, int64_t attempted,
                     const std::vector<double>& ok_us);
  void AppendStep(Rng& rng);
  void DeleteStep(Rng& rng);
  void Mutate();
  void OverlayQuery(CompareOp op, int64_t v, bool bit_check, bool record);
  std::pair<CompareOp, int64_t> NextOverlay();
  template <class Op>
  void Slice(int64_t slice_ns, size_t min_queries, int ops, const Op& run_op,
             bool record);
  void FinalChecks();
  void Report();
  void RequireNonZero(const std::vector<std::string>& names);

  const Spec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const bool traced_;
  const fs::path dir_;
  const int lanes_;
  TraceSession trace_session_;
  Outcome out_;
  double keep_ratio_ = 0;  // the auto engine's, after calibration

  std::vector<Column> cols_;
  SetupTimes setup_;
  std::unique_ptr<bix::serve::QueryService> service_;
  // The base each column is served from.  Publishing happens between
  // batches, so no query still holds a base when it is superseded.
  std::vector<std::shared_ptr<const bix::StoredIndex>> current_;
  Batch trace_;
  size_t trace_pos_ = 0;
  // The overlay queries on the mutated column, cycled.
  std::vector<std::pair<CompareOp, int64_t>> overlay_;
  size_t overlay_pos_ = 0;

  // End-to-end samples.  The timed query stream, in chunks of
  // kChunkQueries attempts: its wall time and the latencies of the queries
  // answered without error.
  struct Chunk {
    int64_t attempted = 0;
    double wall_s = 0;
    std::vector<double> ok_us;
  };
  std::vector<Chunk> chunks_;
  uint64_t rss_peak_ = 0;  // sampled over the timed phase, oracle excluded
  std::vector<double> append_us_, delete_us_;
  double compact_s_ = 0, resort_s_ = 0;
  double bytes_per_row_ = 0, perm_bytes_per_row_ = 0;

  // Per-layer samples (traced run).  `layer_` sums the traced direct
  // replay of the query stream.
  struct QueryLayer {
    int64_t queries = 0;
    double untraced_s = 0, traced_s = 0;
    double bytes_read = 0, decompress_s = 0, fetches = 0, scans = 0, ops = 0;
    int64_t compressed_ops = 0, plain_ops = 0, inflated = 0;
  } layer_;
  double batch_us_ = 0, hit_ratio_ = 0, overhead_us_ = 0;
  std::vector<double> sort_s_;
  double overlay_minus_base_us_ = 0;
  int64_t overlay_pairs_ = 0;
  int64_t wal_bytes_ = 0, appended_rows_ = 0;
  uint64_t tomb_bytes_ = 0, compact_bytes_ = 0;
};

Outcome Bench::Run() {
  CalibrateAutoEngine();
  SetUp();
  if (!SelfTestOracle(*cols_.front().oracle, SubSeed(seed_, 7))) {
    out_.correct = false;
  }
  StartService();
  if (spec_.served()) {
    if (traced_) {
      ServeTraced();
    } else {
      WarmService();
    }
  }
  // The timed phase: the query stream with the mutation schedule
  // interleaved.
  Mutate();
  if (spec_.served()) {
    Rng rng(SubSeed(seed_, 2));
    Batch sample;
    for (int k = 0; k < kFoundsetSamples; ++k) {
      sample.push_back(trace_[rng.Below(trace_.size())]);
    }
    CheckServedSample(sample);
  }
  FinalChecks();
  Report();
  return out_;
}

// Untimed warm-up of the auto engine.  It times its first 512 compressed
// and 512 dense bitwise operations and, at the next index open, replaces
// its built-in keep-compressed ratio with the measured break-even; a
// process that has served for a while runs with the measured one.  Left
// to the workload, the switch came mid-run or never, depending on the
// seed, and moved serve_warm's qps by up to a fifth.  So every run first
// evaluates every predicate over two small stored columns, one sorted
// (compressed operations) and one not (dense operations), and reopens one,
// which installs the ratio before any setup is timed.
void Bench::CalibrateAutoEngine() {
  constexpr size_t kRows = 500'000;
  std::vector<uint32_t> values = ZipfValues(kRows, SubSeed(seed_, 8));
  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  bix::ExecOptions exec;
  exec.engine = bix::EngineKind::kAuto;
  const bix::BaseSequence base = bix::KneeBase(kCardinality);
  fs::path last;
  for (const auto* column : {&sorted, &values}) {
    last = dir_ / (column == &sorted ? "calibrate_sorted" : "calibrate");
    std::unique_ptr<bix::StoredIndex> index;
    CheckOk(bix::StoredIndex::Write(
                bix::BitmapIndex::Build(*column, kCardinality, base,
                                        bix::Encoding::kRange),
                last, bix::StorageScheme::kBitmapLevel,
                *bix::CodecByName("wah"), &index),
            "write " + last.string());
    for (uint32_t v = 0; v < kCardinality; ++v) {
      for (CompareOp op : {CompareOp::kEq, CompareOp::kLe}) {
        bix::Status status;
        index->Evaluate(bix::EvalAlgorithm::kAuto, op, v, nullptr, nullptr,
                        &status, &exec);
        CheckOk(status, "calibration query");
      }
    }
  }
  std::unique_ptr<bix::StoredIndex> reopened;
  CheckOk(bix::StoredIndex::Open(last, &reopened), "open " + last.string());
  keep_ratio_ = static_cast<double>(
                    bix::obs::MetricsRegistry::Global()
                        .GetGauge("wah_engine.calibrated_ratio")
                        .value()) /
                1000;
  reopened.reset();
  fs::remove_all(dir_ / "calibrate_sorted");
  fs::remove_all(dir_ / "calibrate");
}

void Bench::SetUp() {
  cols_.resize(spec_.columns + 1);
  for (uint32_t c = 0; c <= spec_.columns; ++c) {
    const size_t rows = c < spec_.columns ? spec_.rows : spec_.mutate_rows;
    for (int r = 0; r < spec_.setup_reps; ++r) {
      if (r > 0) {
        cols_[c].index.reset();
        fs::remove_all(cols_[c].dir);
      }
      const fs::path dir =
          dir_ / ("col" + std::to_string(c) + "_" + std::to_string(r));
      SetUpColumn(spec_, rows, SubSeed(seed_, 100 + c), dir, &cols_[c],
                  &setup_);
    }
  }
}

void Bench::StartService() {
  bix::serve::ServeOptions options;
  options.num_threads = lanes_;
  options.engine = bix::EngineKind::kAuto;
  service_ = std::make_unique<bix::serve::QueryService>(options);
  for (Column& col : cols_) {
    current_.push_back(col.index->base());
    service_->AddColumn(current_.back().get());
  }
  if (spec_.served()) {
    trace_ = MakeTrace(spec_.columns, kTraceQueries, SubSeed(seed_, 1));
  }
}

void Bench::Publish(uint32_t column) {
  std::shared_ptr<const bix::StoredIndex> next = cols_[column].index->base();
  service_->UpdateColumn(column, next.get());
  current_[column] = std::move(next);
}

// The next `lanes` queries of the trace, cycling: a closed loop keeps as
// many queries in flight as there are evaluation lanes.
Bench::Batch Bench::NextBatch() {
  Batch batch;
  for (int i = 0; i < lanes_; ++i) {
    batch.push_back(trace_[trace_pos_]);
    trace_pos_ = (trace_pos_ + 1) % trace_.size();
  }
  return batch;
}

// Runs one batch through the service and checks every result's row count.
// `wall_ns` gets the batch's wall time, the cache clearing of a cold-batch
// workload included.
std::vector<bix::serve::ServeResult> Bench::ServeChecked(
    const Batch& batch, std::vector<double>* latencies_us, int64_t* wall_ns) {
  const int64_t t = NowNs();
  if (spec_.cold_batches) service_->cache().Clear();
  std::vector<bix::serve::ServeResult> results = service_->RunBatch(batch);
  if (wall_ns != nullptr) *wall_ns = NowNs() - t;
  for (size_t i = 0; i < batch.size(); ++i) {
    const bix::serve::ServeQuery& q = batch[i];
    const bix::serve::ServeResult& r = results[i];
    ++out_.query.attempted;
    if (!r.status.ok()) {
      ++out_.query.failed;
      continue;
    }
    CheckCount(out_, *cols_[q.column].oracle, q.column, q.op, q.value,
               r.row_count);
    if (latencies_us != nullptr) {
      latencies_us->push_back(static_cast<double>(r.latency_ns) / 1e3);
    }
  }
  return results;
}

// Untimed: a whole pass fills the warm cache; a cold-batch workload only
// needs the pool and the page cache warmed.
void Bench::WarmService() {
  const size_t warm = spec_.cold_batches ? 64 : trace_.size();
  for (size_t done = 0; done < warm; done += static_cast<size_t>(lanes_)) {
    ServeChecked(NextBatch(), nullptr);
  }
}

// The peak resident set of a timed phase, sampled after each of its
// operations, less the oracle's copy of the columns (4 bytes a row), which
// is the benchmark's memory, not the program's.
void Bench::SampleRss() {
  uint64_t oracle = 0;
  for (const Column& col : cols_) oracle += col.oracle->rows() * 4;
  const uint64_t rss = ResidentBytes();
  rss_peak_ = std::max(rss_peak_, rss > oracle ? rss - oracle : 0);
}

// Adds queries of the timed stream to the current chunk.
void Bench::RecordQueries(int64_t wall_ns, int64_t attempted,
                          const std::vector<double>& ok_us) {
  if (chunks_.empty() ||
      chunks_.back().attempted >= static_cast<int64_t>(kChunkQueries)) {
    chunks_.emplace_back();
  }
  Chunk& chunk = chunks_.back();
  chunk.attempted += attempted;
  chunk.wall_s += Seconds(wall_ns);
  chunk.ok_us.insert(chunk.ok_us.end(), ok_us.begin(), ok_us.end());
}

// One closed-loop batch of the timed trace through the service.
void Bench::ServeStep() {
  std::vector<double> ok_us;
  int64_t wall_ns = 0;
  ServeChecked(NextBatch(), &ok_us, &wall_ns);
  RecordQueries(wall_ns, lanes_, ok_us);
  SampleRss();
}

// Evaluates one query directly through the layers twice, untraced then
// recorded (alternating per query, so the two see the same conditions),
// checks it, and adds the recorded evaluation to the per-layer sums.
// Returns the untraced time.
template <class Index>
int64_t Bench::ReplayDirect(const Index& index, std::span<const uint32_t> perm,
                            uint32_t column, CompareOp op, int64_t v,
                            OperandMemo* memo) {
  int64_t t = NowNs();
  EvaluateDirect(index, perm, column, op, v, memo);
  const int64_t untraced_ns = NowNs() - t;
  const int64_t compressed0 = Counter("wah_engine.compressed_ops");
  const int64_t plain0 = Counter("wah_engine.plain_ops");
  const int64_t inflated0 = Counter("wah_engine.inflated_operands");
  trace_session_.Begin();
  t = NowNs();
  Direct d = EvaluateDirect(index, perm, column, op, v, memo);
  layer_.traced_s += Seconds(NowNs() - t);
  trace_session_.End();
  layer_.untraced_s += Seconds(untraced_ns);
  layer_.compressed_ops += Counter("wah_engine.compressed_ops") - compressed0;
  layer_.plain_ops += Counter("wah_engine.plain_ops") - plain0;
  layer_.inflated += Counter("wah_engine.inflated_operands") - inflated0;
  ++layer_.queries;
  ++out_.query.attempted;
  if (!d.status.ok()) {
    ++out_.query.failed;
    return untraced_ns;
  }
  CheckCount(out_, *cols_[column].oracle, column, op, v, d.foundset.Count());
  layer_.bytes_read += static_cast<double>(d.stats.bytes_read);
  layer_.decompress_s += d.decompress_s;
  layer_.fetches += static_cast<double>(d.fetches);
  layer_.scans += static_cast<double>(d.stats.bitmap_scans);
  layer_.ops += static_cast<double>(d.stats.TotalOps());
  return untraced_ns;
}

// The traced run replays one stretch of the trace (as many queries as
// half the budget fits) directly through the layers, then the same
// queries through the service, which gives the serve layer's share.
void Bench::ServeTraced() {
  OperandMemo memo;
  OperandMemo* warm_memo = spec_.cold_batches ? nullptr : &memo;
  if (warm_memo != nullptr) {
    for (const bix::serve::ServeQuery& q : trace_) {
      EvaluateDirect(*current_[q.column], current_[q.column]->row_order(),
                     q.column, q.op, q.value, warm_memo);
    }
  }

  Batch replay;
  std::vector<double> direct_us;
  const int64_t budget = static_cast<int64_t>(seconds_ / 2 * 1e9);
  const int64_t t0 = NowNs();
  while (NowNs() - t0 < budget || replay.empty()) {
    for (const bix::serve::ServeQuery& q : NextBatch()) {
      const int64_t untraced_ns =
          ReplayDirect(*current_[q.column], current_[q.column]->row_order(),
                       q.column, q.op, q.value, warm_memo);
      direct_us.push_back(static_cast<double>(untraced_ns) / 1e3);
      replay.push_back(q);
    }
  }
  memo = OperandMemo();

  WarmService();
  const int64_t hits0 = Counter("serve.shared_fetch_hits");
  const int64_t misses0 = Counter("serve.shared_fetch_misses");
  double batch_ns = 0;
  double overhead_us = 0;
  int64_t batches = 0, overhead_n = 0;
  for (size_t begin = 0; begin < replay.size();
       begin += static_cast<size_t>(lanes_)) {
    const size_t end = std::min(replay.size(), begin + lanes_);
    const Batch batch(replay.begin() + begin, replay.begin() + end);
    const int64_t t = NowNs();
    std::vector<bix::serve::ServeResult> results = ServeChecked(batch, nullptr);
    batch_ns += static_cast<double>(NowNs() - t);
    ++batches;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.ok()) continue;
      overhead_us += static_cast<double>(results[i].latency_ns) / 1e3 -
                     direct_us[begin + i];
      ++overhead_n;
    }
  }
  const int64_t hits = Counter("serve.shared_fetch_hits") - hits0;
  const int64_t misses = Counter("serve.shared_fetch_misses") - misses0;
  batch_us_ = batch_ns / 1e3 / static_cast<double>(batches);
  hit_ratio_ = hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0;
  overhead_us_ = overhead_n > 0 ? overhead_us / static_cast<double>(overhead_n)
                                : 0;
}

// Served foundsets are checked bit for bit against a scan of the logical
// column (which also checks the remap of a sorted index), and the paper's
// cost (scans, ops) against a direct evaluation of the same query.
void Bench::CheckServedSample(const Batch& sample) {
  for (size_t begin = 0; begin < sample.size();
       begin += static_cast<size_t>(lanes_)) {
    const size_t end = std::min(sample.size(), begin + lanes_);
    const Batch batch(sample.begin() + begin, sample.begin() + end);
    std::vector<bix::serve::ServeResult> results = ServeChecked(batch, nullptr);
    for (size_t i = 0; i < batch.size(); ++i) {
      const bix::serve::ServeQuery& q = batch[i];
      if (!results[i].status.ok()) continue;
      CheckFoundset(out_, *cols_[q.column].oracle, q.column, q.op, q.value,
                    results[i].foundset);
      Direct d = EvaluateDirect(*current_[q.column],
                                current_[q.column]->row_order(), q.column,
                                q.op, q.value, nullptr);
      if (!d.status.ok()) continue;
      if (d.stats.bitmap_scans != results[i].stats.bitmap_scans ||
          d.stats.TotalOps() != results[i].stats.TotalOps()) {
        out_.Mismatch(Describe(q.column, q.op, q.value) +
                      ": served scans/ops " +
                      std::to_string(results[i].stats.bitmap_scans) + "/" +
                      std::to_string(results[i].stats.TotalOps()) +
                      ", direct " + std::to_string(d.stats.bitmap_scans) +
                      "/" + std::to_string(d.stats.TotalOps()));
      }
    }
  }
}

// One query over the delta overlay.  With `record`, its latency feeds the
// end-to-end metrics; the traced run of a workload whose query stream this
// is also replays it through the layers and against the base alone.
void Bench::OverlayQuery(CompareOp op, int64_t v, bool bit_check,
                         bool record) {
  const uint32_t column = spec_.columns;
  Column& col = cols_[column];
  const bool stream = !spec_.served();
  if (traced_ && stream) {
    const std::shared_ptr<const bix::StoredIndex> base = col.index->base();
    ReplayDirect(*col.index, base->row_order(), column, op, v, nullptr);
  }

  bix::ExecOptions exec;
  exec.engine = bix::EngineKind::kAuto;
  bix::Status status;
  const int64_t t = NowNs();
  bix::Bitvector found = col.index->Evaluate(bix::EvalAlgorithm::kAuto, op, v,
                                             nullptr, nullptr, &status, &exec);
  const int64_t overlay_ns = NowNs() - t;
  ++out_.query.attempted;
  if (record) {
    std::vector<double> ok_us;
    if (status.ok()) ok_us.push_back(static_cast<double>(overlay_ns) / 1e3);
    RecordQueries(overlay_ns, 1, ok_us);
    SampleRss();
  }
  if (!status.ok()) {
    ++out_.query.failed;
    return;
  }
  CheckCount(out_, *col.oracle, column, op, v, found.Count());
  if (bit_check) CheckFoundset(out_, *col.oracle, column, op, v, found);
  if (traced_) {
    bix::Status base_status;
    const int64_t tb = NowNs();
    col.index->base()->Evaluate(bix::EvalAlgorithm::kAuto, op, v, nullptr,
                                nullptr, &base_status, &exec);
    const int64_t base_ns = NowNs() - tb;
    if (base_status.ok()) {
      overlay_minus_base_us_ += static_cast<double>(overlay_ns - base_ns) / 1e3;
      ++overlay_pairs_;
    }
  }
}

// One append of the schedule: one fsynced log record.
void Bench::AppendStep(Rng& rng) {
  Column& col = cols_[spec_.columns];
  const Zipf data_zipf(kCardinality, kDataSkew);
  std::vector<uint32_t> values(spec_.append_rows);
  for (uint32_t& x : values) x = data_zipf.Sample(rng);
  const int64_t t = NowNs();
  const bix::Status s = col.index->Append(values);
  const int64_t dt = NowNs() - t;
  ++out_.append.attempted;
  if (!s.ok()) {
    ++out_.append.failed;
    return;
  }
  append_us_.push_back(static_cast<double>(dt) / 1e3);
  col.oracle->Append(values);
  appended_rows_ += static_cast<int64_t>(values.size());
  SampleRss();
}

// One delete of the schedule: it rewrites the tombstone blob.
void Bench::DeleteStep(Rng& rng) {
  Column& col = cols_[spec_.columns];
  std::vector<uint32_t> rows(spec_.delete_rows);
  for (uint32_t& r : rows) {
    r = static_cast<uint32_t>(rng.Below(col.oracle->rows()));
  }
  const int64_t t = NowNs();
  const bix::Status s = col.index->Delete(rows);
  const int64_t dt = NowNs() - t;
  ++out_.del.attempted;
  if (!s.ok()) {
    ++out_.del.failed;
    return;
  }
  delete_us_.push_back(static_cast<double>(dt) / 1e3);
  col.oracle->Delete(rows);
  SampleRss();
  if (traced_) {
    for (const auto& [name, size] : ListDir(col.dir)) {
      if (name.ends_with(".tomb")) tomb_bytes_ += size;
    }
  }
}

std::pair<CompareOp, int64_t> Bench::NextOverlay() {
  const auto q = overlay_[overlay_pos_];
  overlay_pos_ = (overlay_pos_ + 1) % overlay_.size();
  return q;
}

// Runs the query stream for `slice_ns`, and for at least `min_queries`
// queries, with `ops` operations of the schedule, run_op(0..ops-1), spread
// evenly over it.  A served trace's batches are always timed for the
// end-to-end metrics, overlay queries only with `record`.  The first
// overlay query of the slice, and the first after its last operation, are
// checked bit for bit.
template <class Op>
void Bench::Slice(int64_t slice_ns, size_t min_queries, int ops,
                  const Op& run_op, bool record) {
  const int64_t t0 = NowNs();
  size_t done = 0;
  bool checked = false;
  for (int op = 0; op < ops || done < min_queries || NowNs() - t0 < slice_ns;) {
    if (op < ops && NowNs() - t0 >= slice_ns * op / ops) {
      run_op(op++);
    } else if (!spec_.served()) {
      const auto [cmp, v] = NextOverlay();
      OverlayQuery(cmp, v, done == 0 || (op == ops && !checked), record);
      checked = checked || op == ops;
      ++done;
    } else {
      ServeStep();
      done += static_cast<size_t>(lanes_);
    }
  }
}

// The timed phase.  The query stream (the trace through the service on a
// served workload, overlay queries on the mutated column otherwise) runs
// all through it, and the fixed, seeded mutation schedule on the mutated
// column runs between its queries: rounds of appends and deletes spread
// evenly over a slice of the stream, the round's overlay check queries and
// one plain compaction published to the service; then the resorts, each
// after a slice half as long, and a reopen.  A timer decides only when an
// operation of the schedule runs, never what it does, so every size it
// leaves behind repeats exactly for a seed; spread over the run, its
// samples are not all taken in one short slowdown of the host.
//
// On mutate_mixed the queries of the resort slices run over a compacted
// base with no delta, sorted after the first resort, not over a growing
// delta: they are checked but not timed.  The traced run of a served workload replayed
// its trace before, so it runs the schedule alone; the traced run of
// mutate_mixed replays the mutation rounds' queries only.
void Bench::Mutate() {
  const uint32_t column = spec_.columns;
  Column& col = cols_[column];
  Rng rng(SubSeed(seed_, 3));
  const Zipf value_zipf(kCardinality, kValueSkew);
  overlay_.resize(kTraceQueries);
  for (auto& [op, v] : overlay_) {
    op = rng.Uniform() < kEqFraction ? CompareOp::kEq : CompareOp::kLe;
    v = value_zipf.Sample(rng);
  }
  const bool stream = !spec_.served();
  const bool queries = stream || !traced_;
  // A round's slice weighs 2, a resort's 1.
  const int64_t unit_ns =
      queries ? static_cast<int64_t>(seconds_ * 1e9 /
                                     (2 * spec_.rounds + spec_.resorts))
              : 0;
  const size_t min_per_round =
      !queries ? 0
      : traced_
          ? 1
          : (kChunkQueries + spec_.rounds - 1) /
                static_cast<size_t>(spec_.rounds);
  const int ops = spec_.appends_per_round + spec_.deletes_per_round;
  const int64_t deletes = spec_.deletes_per_round;

  for (int round = 0; round < spec_.rounds; ++round) {
    const int64_t wal0 = Counter("storage.wal_bytes");
    Slice(2 * unit_ns, min_per_round, ops,
          [&](int op) {
            // The deletes fall evenly among the appends.
            if ((op + 1) * deletes / ops > op * deletes / ops) {
              DeleteStep(rng);
            } else {
              AppendStep(rng);
            }
          },
          !traced_);
    wal_bytes_ += Counter("storage.wal_bytes") - wal0;
    for (int n = 0; n < spec_.overlay_queries_per_round; ++n) {
      const auto [cmp, v] = NextOverlay();
      OverlayQuery(cmp, v, n == 0, false);
    }

    const auto before = ListDir(col.dir);
    const int64_t t = NowNs();
    const bix::Status s = col.index->Compact();
    const int64_t dt = NowNs() - t;
    ++out_.compact.attempted;
    if (!s.ok()) {
      ++out_.compact.failed;
      continue;
    }
    compact_s_ += Seconds(dt);
    SampleRss();
    compact_bytes_ += BytesWritten(before, ListDir(col.dir));
    Publish(column);
    // The service must now serve the new generation: one checked batch.
    Batch batch;
    for (int i = 0; i < lanes_; ++i) {
      const auto [cmp, v] = overlay_[(overlay_pos_ + i) % overlay_.size()];
      batch.push_back({static_cast<uint64_t>(i), column, cmp, v, 0});
    }
    std::vector<bix::serve::ServeResult> results = ServeChecked(batch, nullptr);
    if (results[0].status.ok()) {
      CheckFoundset(out_, *col.oracle, column, batch[0].op, batch[0].value,
                    results[0].foundset);
    }
  }

  const bix::BaseSequence base = bix::KneeBase(kCardinality);
  for (int k = 0; k < spec_.resorts; ++k) {
    if (traced_) {
      // The resort's sort step, replayed on the oracle's logical column.
      const int64_t t = NowNs();
      bix::ComputeRowOrder(col.oracle->values(), kCardinality, base,
                           bix::RowOrder::kLex);
      sort_s_.push_back(Seconds(NowNs() - t));
    } else {
      Slice(unit_ns, 0, 0, [](int) {}, spec_.served());
    }
    const int64_t t = NowNs();
    const bix::Status s = col.index->Compact(/*resort=*/true);
    const int64_t dt = NowNs() - t;
    ++out_.resort.attempted;
    if (!s.ok()) {
      ++out_.resort.failed;
      continue;
    }
    resort_s_ += Seconds(dt);
    SampleRss();
    Publish(column);
  }

  col.index.reset();
  CheckOk(bix::MutableStoredIndex::Open(col.dir, &col.index),
          "reopen " + col.dir.string());
  Publish(column);
}

// After the resort and the reopen, every check query must still match, both
// over the reopened index and through the service.
void Bench::FinalChecks() {
  const uint32_t column = spec_.columns;
  Column& col = cols_[column];
  Rng rng(SubSeed(seed_, 4));
  const Zipf value_zipf(kCardinality, kValueSkew);
  Batch batch;
  bix::ExecOptions exec;
  exec.engine = bix::EngineKind::kAuto;
  for (int k = 0; k < kFinalChecks; ++k) {
    const CompareOp op =
        rng.Uniform() < kEqFraction ? CompareOp::kEq : CompareOp::kLe;
    const int64_t v = value_zipf.Sample(rng);
    bix::Status status;
    bix::Bitvector found = col.index->Evaluate(
        bix::EvalAlgorithm::kAuto, op, v, nullptr, nullptr, &status, &exec);
    ++out_.query.attempted;
    if (!status.ok()) {
      ++out_.query.failed;
      continue;
    }
    CheckCount(out_, *col.oracle, column, op, v, found.Count());
    CheckFoundset(out_, *col.oracle, column, op, v, found);
    if (batch.size() < static_cast<size_t>(lanes_)) {
      batch.push_back({static_cast<uint64_t>(k), column, op, v, 0});
    }
  }
  std::vector<bix::serve::ServeResult> results = ServeChecked(batch, nullptr);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (results[i].status.ok()) {
      CheckFoundset(out_, *col.oracle, column, batch[i].op, batch[i].value,
                    results[i].foundset);
    }
  }

  uint64_t bytes = 0, perm_bytes = 0, rows = 0;
  for (const Column& c : cols_) {
    for (const auto& [name, size] : ListDir(c.dir)) {
      bytes += size;
      if (name.ends_with(bix::format::kRowOrderFile)) perm_bytes += size;
    }
    rows += c.oracle->rows();
  }
  bytes_per_row_ = static_cast<double>(bytes) / static_cast<double>(rows);
  perm_bytes_per_row_ =
      static_cast<double>(perm_bytes) / static_cast<double>(rows);
}

void Bench::RequireNonZero(const std::vector<std::string>& names) {
  for (const Metric& m : out_.metrics) {
    if (m.value != 0) continue;
    for (const std::string& name : names) {
      if (m.name == name) {
        out_.Mismatch("per-layer metric " + name + " reads 0 on " +
                      spec_.name + ", where its layer does work");
      }
    }
  }
}

void Bench::Report() {
  if (!traced_) {
    // A short last chunk joins the one before it.
    if (chunks_.size() > 1 &&
        chunks_.back().attempted < static_cast<int64_t>(kChunkQueries)) {
      Chunk last = std::move(chunks_.back());
      chunks_.pop_back();
      chunks_.back().attempted += last.attempted;
      chunks_.back().wall_s += last.wall_s;
      chunks_.back().ok_us.insert(chunks_.back().ok_us.end(),
                                  last.ok_us.begin(), last.ok_us.end());
    }
    std::vector<double> qps, p50, p99;
    for (const Chunk& c : chunks_) {
      qps.push_back(c.wall_s > 0 ? static_cast<double>(c.ok_us.size()) /
                                       c.wall_s
                                 : 0);
      p50.push_back(Percentile(c.ok_us, 0.50));
      p99.push_back(Percentile(c.ok_us, 0.99));
    }
    out_.Add("setup_s", Median(setup_.total), "s");
    out_.Add("qps", Median(qps), "queries/s");
    out_.Add("query_p50_us", Median(p50), "us");
    out_.Add("query_p99_us", Median(p99), "us");
    out_.Add("bytes_per_row", bytes_per_row_, "B/row");
    out_.Add("peak_rss_mb", static_cast<double>(rss_peak_) / (1 << 20), "MB");
    out_.Add("append_p50_us", Median(append_us_), "us");
    out_.Add("delete_p50_us", Median(delete_us_), "us");
    out_.Add("compact_s", compact_s_, "s");
    out_.Add("resort_s", resort_s_, "s");
    return;
  }
  auto span_us = [&](const char* name) {
    return static_cast<double>(trace_session_.WallNs(name)) / 1e3;
  };
  const double n = static_cast<double>(std::max<int64_t>(layer_.queries, 1));
  std::vector<double> sorts = setup_.sort;
  sorts.insert(sorts.end(), sort_s_.begin(), sort_s_.end());
  const double deletes = static_cast<double>(delete_us_.size());
  const double compactions = static_cast<double>(out_.compact.attempted -
                                                 out_.compact.failed);
  out_.Add("serve.batch_us", batch_us_, "us");
  out_.Add("serve.cache_hit_ratio", hit_ratio_, "ratio");
  out_.Add("serve.overhead_us", overhead_us_, "us");
  out_.Add("storage.fetch_us", span_us("storage.fetch") / n, "us");
  out_.Add("storage.fetches", layer_.fetches / n, "count");
  out_.Add("storage.bytes_read", layer_.bytes_read / n, "B");
  out_.Add("storage.decode_us", layer_.decompress_s * 1e6 / n, "us");
  out_.Add("storage.write_s", Median(setup_.write), "s");
  out_.Add("storage.bitmap_bytes_per_row",
           bytes_per_row_ - perm_bytes_per_row_, "B/row");
  out_.Add("storage.perm_bytes_per_row", perm_bytes_per_row_, "B/row");
  // Self time: every fetch span lies inside an eval span.
  out_.Add("exec.eval_us",
           (span_us("exec.eval") - span_us("storage.fetch")) / n, "us");
  out_.Add("exec.compressed_ops",
           static_cast<double>(layer_.compressed_ops) / n, "count");
  out_.Add("exec.plain_ops", static_cast<double>(layer_.plain_ops) / n,
           "count");
  out_.Add("exec.inflated_operands", static_cast<double>(layer_.inflated) / n,
           "count");
  out_.Add("core.build_s", Median(setup_.build), "s");
  out_.Add("core.scans", layer_.scans / n, "count");
  out_.Add("core.ops", layer_.ops / n, "count");
  out_.Add("row_order.remap_us", span_us("row_order.remap") / n, "us");
  out_.Add("row_order.sort_s", Median(sorts), "s");
  out_.Add("delta.wal_bytes_per_row",
           appended_rows_ > 0 ? static_cast<double>(wal_bytes_) /
                                    static_cast<double>(appended_rows_)
                              : 0,
           "B/row");
  out_.Add("delta.tomb_bytes_per_delete",
           deletes > 0 ? static_cast<double>(tomb_bytes_) / deletes : 0, "B");
  out_.Add("delta.overlay_us",
           overlay_pairs_ > 0
               ? overlay_minus_base_us_ / static_cast<double>(overlay_pairs_)
               : 0,
           "us");
  out_.Add("delta.compact_bytes_written",
           compactions > 0 ? static_cast<double>(compact_bytes_) / compactions
                           : 0,
           "B");
  out_.Add("trace.qps_traced",
           layer_.traced_s > 0 ? static_cast<double>(layer_.queries) /
                                     layer_.traced_s
                               : 0,
           "queries/s");
  out_.Add("trace.qps_untraced",
           layer_.untraced_s > 0 ? static_cast<double>(layer_.queries) /
                                       layer_.untraced_s
                                 : 0,
           "queries/s");

  // Which metric may read 0 on which workload, and why: README.md.
  RequireNonZero({"storage.write_s", "storage.bitmap_bytes_per_row",
                  "storage.perm_bytes_per_row", "exec.eval_us",
                  "core.build_s", "core.scans", "core.ops", "row_order.sort_s",
                  "delta.wal_bytes_per_row", "delta.tomb_bytes_per_delete",
                  "delta.overlay_us", "delta.compact_bytes_written",
                  "trace.qps_traced", "trace.qps_untraced"});
  if (spec_.served()) {
    RequireNonZero({"serve.batch_us", "serve.cache_hit_ratio",
                    "serve.overhead_us"});
  } else {
    RequireNonZero({"storage.decode_us"});
  }
  if (!spec_.served() || spec_.cold_batches) {
    RequireNonZero({"storage.fetch_us", "storage.fetches",
                    "storage.bytes_read"});
  }
  if (spec_.sorted) {
    RequireNonZero({"row_order.remap_us", "exec.compressed_ops"});
  } else {
    RequireNonZero({"exec.plain_ops", "exec.inflated_operands"});
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Die("bad argument " + std::string(argv[i]));
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) Die("every flag takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "dir"}) {
    if (!args.count(required)) Die(std::string("missing --") + required);
  }
  const Spec* found = nullptr;
  for (const Spec& s : kSpecs) {
    if (args["workload"] == s.name) found = &s;
  }
  if (found == nullptr) Die("unknown workload " + args["workload"]);
  Spec spec = *found;
  const std::string scale = args.count("scale") ? args["scale"] : "full";
  if (scale == "smoke") {
    // Same schedule, tiny columns: runs every path in seconds.
    spec.rows /= 100;
    spec.mutate_rows /= 100;
    spec.append_rows /= 100;
    spec.delete_rows /= 100;
  } else if (scale != "full") {
    Die("--scale must be full or smoke");
  }
  const uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool traced = args["trace"] == "1";
  const fs::path dir = args["dir"];
  if (seconds <= 0) Die("--seconds must be positive");

  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  Outcome out;
  {
    Bench bench(spec, seed, seconds, traced, dir);
    out = bench.Run();
    std::printf("workload %s: %u trace column(s) x %zu rows and a mutated "
                "column of %zu rows, C=%u, knee base, range encoding, "
                "BS/wah, kAuto engine (keep-compressed ratio %.3f), %d "
                "lanes, seed %llu\n",
                spec.name, spec.columns, spec.rows, spec.mutate_rows,
                kCardinality, bench.keep_ratio(), bench.lanes(),
                static_cast<unsigned long long>(seed));
    if (traced && args.count("spans-out") &&
        !bench.trace().WriteChromeTrace(args["spans-out"])) {
      Die("cannot write " + args["spans-out"]);
    }
  }
  fs::remove_all(dir, ec);

  const std::pair<const char*, const OpCount*> kinds[] = {
      {"query", &out.query},   {"append", &out.append},
      {"delete", &out.del},    {"compact", &out.compact},
      {"resort", &out.resort}};
  int64_t attempted = 0, failed = 0;
  for (const auto& [kind, count] : kinds) {
    std::printf("ops %-8s attempted %8" PRId64 "  failed %" PRId64 "\n", kind,
                count->attempted, count->failed);
    attempted += count->attempted;
    failed += count->failed;
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", out.metrics[i].value);
    json += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
