// Ablation beyond the paper: operating on compressed bitmaps in memory
// (WAH) versus the paper's decompress-then-operate model (dense bitvector
// ops after inflating stored bitmaps).
//
// Part 1 (micro): for each bit density, memory footprint and AND-throughput
// of the dense and WAH forms.  Part 2 (end-to-end): full predicate
// evaluation over a WahCompressedSource under --engine=plain (inflate every
// fetch, dense ops), --engine=wah (run-at-a-time, never inflate), and
// --engine=auto (per-operand choice).  Expected shape: compressed execution
// wins on sparse/clustered bitmaps (low-cardinality equality bitmaps,
// sorted relations), loses on dense ~50% bitmaps, and auto tracks the
// better of the two at every density point.
//
// Usage: bench_wah_ablation [--smoke] [OUT.json]
//   --smoke    smaller bitmaps/relation (registered as a ctest smoke)
//   OUT.json   also write every measurement as bench_json.h rows

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "bitmap/wah_kernels.h"
#include "compress/wah_codec.h"
#include "core/bitmap_index.h"
#include "core/compressed_source.h"
#include "core/eval.h"
#include "core/row_order.h"
#include "core/status.h"
#include "exec/segmented_eval.h"
#include "obs/metrics.h"
#include "storage/stored_index.h"
#include "workload/generators.h"

using namespace bix;

namespace {

Bitvector RandomDense(size_t bits, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (uni(rng) < density) out.Set(i);
  }
  return out;
}

Bitvector ClusteredDense(size_t bits, double density, size_t run,
                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0, 1);
  Bitvector out(bits);
  for (size_t i = 0; i < bits; i += run) {
    if (uni(rng) < density) {
      for (size_t k = i; k < std::min(i + run, bits); ++k) out.Set(k);
    }
  }
  return out;
}

double MeasureDenseAnd(const Bitvector& a, const Bitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    Bitvector c = a;
    c.AndWith(b);
    guard += c.words()[0];
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

double MeasureWahAnd(const WahBitvector& a, const WahBitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += WahBitvector::And(a, b).SizeInBytes();
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

// Count-only forms: WahBitvector::AndCount walks both run streams without
// materializing the result; the dense counterpart is Bitvector::CountAnd.
double MeasureWahAndCount(const WahBitvector& a, const WahBitvector& b,
                          int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += WahBitvector::AndCount(a, b);
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

double MeasureDenseAndCount(const Bitvector& a, const Bitvector& b, int reps) {
  auto start = std::chrono::steady_clock::now();
  size_t guard = 0;
  for (int i = 0; i < reps; ++i) {
    guard += Bitvector::CountAnd(a, b);
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return guard == size_t(-1) ? -1 : 1e6 * s / reps;
}

// Average microseconds per query for a fixed predicate sweep over `source`
// under one engine (kPlain over a WahCompressedSource is exactly the
// paper's decompress-then-op model: every Fetch inflates).
// The 9-query sweep every end-to-end measurement runs: {<=, =, >} x
// {C/10, C/2, C-1}.
std::vector<std::pair<CompareOp, int64_t>> SweepQueries(uint32_t cardinality) {
  std::vector<std::pair<CompareOp, int64_t>> queries;
  for (CompareOp op : {CompareOp::kLe, CompareOp::kEq, CompareOp::kGt}) {
    for (int64_t v : {static_cast<int64_t>(cardinality) / 10,
                      static_cast<int64_t>(cardinality) / 2,
                      static_cast<int64_t>(cardinality) - 1}) {
      queries.emplace_back(op, v);
    }
  }
  return queries;
}

double MeasureEngine(const BitmapSource& source, EngineKind engine,
                     uint32_t cardinality, int reps, size_t* checksum) {
  const ExecOptions options{.num_threads = 1, .engine = engine};
  const std::vector<std::pair<CompareOp, int64_t>> sweep =
      SweepQueries(cardinality);
  int queries = 0;
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& [op, v] : sweep) {
      Bitvector found =
          EvaluatePredicate(source, EvalAlgorithm::kAuto, op, v, options);
      *checksum += found.Count();
      ++queries;
    }
  }
  double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return 1e6 * s / queries;
}

// Mean over the sweep of the fastest of `reps` RemapToLogical calls on each
// query's foundset (evaluated over the index built in `perm`'s physical
// order).  Each remapped foundset must equal `logical_found`, the same
// query over the index built in logical order; returns -1 if one differs.
double MeasureRemap(const BitmapSource& source,
                    std::span<const uint32_t> perm, uint32_t cardinality,
                    int reps, const std::vector<Bitvector>& logical_found) {
  const std::vector<std::pair<CompareOp, int64_t>> sweep =
      SweepQueries(cardinality);
  double total_us = 0;
  for (size_t q = 0; q < sweep.size(); ++q) {
    const Bitvector physical = EvaluatePredicate(
        source, EvalAlgorithm::kAuto, sweep[q].first, sweep[q].second);
    double best_us = 0;
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const Bitvector logical = RemapToLogical(physical, perm);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (!(logical == logical_found[q])) return -1;
      best_us = r == 0 ? us : std::min(best_us, us);
    }
    total_us += best_us;
  }
  return total_us / static_cast<double>(sweep.size());
}

// The dense fetch's decode: every stored bitmap of `index`, encoded as its
// "wah" storage payload, inflated by WahCodec::DecodeToDense.  Returns the
// sum over bitmaps of the fastest of `reps` decodes, or -1 when an output
// differs from WahBitvector::ToBitvector or from the source bitmap.
double MeasureDecode(const BitmapIndex& index, int reps) {
  double total_us = 0;
  for (int comp = 0; comp < index.base().num_components(); ++comp) {
    const uint32_t stored =
        NumStoredBitmaps(index.encoding(), index.base().base(comp));
    for (uint32_t slot = 0; slot < stored; ++slot) {
      const Bitvector dense = index.Fetch(comp, slot, nullptr);
      const Bitvector want = WahBitvector::FromBitvector(dense).ToBitvector();
      if (!(want == dense)) return -1;
      const std::vector<uint8_t> payload = WahCodec::EncodeBits(dense);
      double best_us = 0;
      for (int r = 0; r < reps; ++r) {
        Bitvector got;
        const auto start = std::chrono::steady_clock::now();
        const bool ok = WahCodec::DecodeToDense(payload, dense.size(), &got);
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        if (!ok || !(got == want)) return -1;
        best_us = r == 0 ? us : std::min(best_us, us);
      }
      total_us += best_us;
    }
  }
  return total_us;
}

// The dense fetch end to end on the storage read path: `index` written as
// a BS index with the "wah" codec under a fresh temporary directory, then
// every stored bitmap fetched through StoredIndex::FetchBitmapOperand
// (read + manifest/header/block CRC verification + decode; hot page
// cache).  Returns the sum over bitmaps of the fastest of `reps` fetches,
// or -1 when a fetch fails or differs from the source bitmap.
double MeasureFetch(const BitmapIndex& index, int reps) {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "bix_bench_fetch_XXXXXX")
          .string();
  if (mkdtemp(tmpl.data()) == nullptr) return -1;
  const std::filesystem::path dir = tmpl;
  double total_us = -1;
  std::unique_ptr<StoredIndex> stored;
  if (StoredIndex::Write(index, dir / "idx", StorageScheme::kBitmapLevel,
                         WahCodec(), &stored)
          .ok()) {
    total_us = 0;
    for (int comp = 0; comp < index.base().num_components() && total_us >= 0;
         ++comp) {
      const uint32_t stored_bitmaps =
          NumStoredBitmaps(index.encoding(), index.base().base(comp));
      for (uint32_t slot = 0; slot < stored_bitmaps; ++slot) {
        const Bitvector want = index.Fetch(comp, slot, nullptr);
        double best_us = 0;
        for (int r = 0; r < reps; ++r) {
          FetchedOperand op;
          const auto start = std::chrono::steady_clock::now();
          const Status s = stored->FetchBitmapOperand(comp, slot,
                                                      /*wah=*/false, &op);
          const double us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
          if (!s.ok() || op.degraded || !(op.dense == want)) {
            total_us = -1;
            break;
          }
          best_us = r == 0 ? us : std::min(best_us, us);
        }
        if (total_us < 0) break;
        total_us += best_us;
      }
    }
  }
  stored.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return total_us;
}

// Relations whose bitmap densities sweep the WAH win/lose spectrum.
std::vector<uint32_t> MakeColumn(size_t rows, uint32_t cardinality,
                                 bool sorted, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> values(rows);
  for (size_t i = 0; i < rows; ++i) {
    values[i] = static_cast<uint32_t>(rng() % cardinality);
  }
  if (sorted) std::sort(values.begin(), values.end());
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  bench::BenchJsonWriter json;

  const size_t bits = smoke ? (1 << 20) : (4 << 20);
  const int reps = smoke ? 5 : 20;
  std::printf("WAH vs dense bitvector, %zu-bit bitmaps, AND of two "
              "operands%s\n\n", bits, smoke ? "  [smoke]" : "");
  std::printf("%-22s | %12s %12s | %12s %12s | %12s %12s\n", "bitmap shape",
              "dense KB", "WAH KB", "dense us/op", "WAH us/op",
              "dense cnt us", "WAH cnt us");

  struct Shape {
    const char* name;
    double density;
    Bitvector a, b;
  };
  Shape shapes[] = {
      {"uniform 0.01%", 0.0001, RandomDense(bits, 0.0001, 1),
       RandomDense(bits, 0.0001, 2)},
      {"uniform 0.1%", 0.001, RandomDense(bits, 0.001, 3),
       RandomDense(bits, 0.001, 4)},
      {"uniform 2%", 0.02, RandomDense(bits, 0.02, 5),
       RandomDense(bits, 0.02, 6)},
      {"uniform 50%", 0.5, RandomDense(bits, 0.5, 7),
       RandomDense(bits, 0.5, 8)},
      {"clustered 10% r=4096", 0.1, ClusteredDense(bits, 0.1, 4096, 9),
       ClusteredDense(bits, 0.1, 4096, 10)},
  };
  for (Shape& s : shapes) {
    WahBitvector wa = WahBitvector::FromBitvector(s.a);
    WahBitvector wb = WahBitvector::FromBitvector(s.b);
    double dense_us = MeasureDenseAnd(s.a, s.b, reps);
    double wah_us = MeasureWahAnd(wa, wb, reps);
    double dense_cnt_us = MeasureDenseAndCount(s.a, s.b, reps);
    double wah_cnt_us = MeasureWahAndCount(wa, wb, reps);
    double wah_kb =
        static_cast<double>(wa.SizeInBytes() + wb.SizeInBytes()) / 2 / 1024;
    std::printf("%-22s | %12.1f %12.1f | %12.1f %12.1f | %12.1f %12.1f\n",
                s.name, static_cast<double>(bits) / 8 / 1024, wah_kb,
                dense_us, wah_us, dense_cnt_us, wah_cnt_us);
    std::vector<bench::BenchParam> params = {{"shape", s.name},
                                             {"density", s.density},
                                             {"bits", bits}};
    json.Add("wah_ablation_micro", params, "dense_and_us", dense_us, "us");
    json.Add("wah_ablation_micro", params, "wah_and_us", wah_us, "us");
    json.Add("wah_ablation_micro", params, "dense_count_us", dense_cnt_us,
             "us");
    json.Add("wah_ablation_micro", params, "wah_count_us", wah_cnt_us, "us");
    json.Add("wah_ablation_micro", params, "wah_kb", wah_kb, "KB");
  }

  // k-ary merge lane: legacy linear scan vs the adaptive run-event heap
  // with dense fallback (bench_wah_merge sweeps the full strategy/fan-in
  // grid; this lane tracks the two endpoints that gate regressions).  On
  // uniform noise the adaptive merge's dense fallback must beat the
  // legacy O(k)-per-group scan by a growing margin as k rises.
  std::printf("\nk-ary OR merge, %zu-bit operands, legacy scan vs adaptive "
              "heap+fallback\n\n", bits);
  std::printf("%-22s %4s | %12s %12s | %9s\n", "operand shape", "k",
              "legacy us", "adaptive us", "speedup");
  struct MergeLane {
    const char* name;
    double density;
    bool clustered;
  };
  const MergeLane lanes[] = {
      {"uniform noise 50%", 0.5, false},
      {"uniform 0.1%", 0.001, false},
      {"clustered 10% r=4096", 0.1, true},
  };
  for (const MergeLane& lane : lanes) {
    for (size_t k : {8u, 16u}) {
      std::vector<WahBitvector> operands;
      for (size_t i = 0; i < k; ++i) {
        Bitvector d = lane.clustered
                          ? ClusteredDense(bits, lane.density, 4096, 100 + i)
                          : RandomDense(bits, lane.density, 100 + i);
        operands.push_back(WahBitvector::FromBitvector(d));
      }
      double lane_us[2] = {};
      size_t counts[2] = {};
      const WahMergeStrategy strategies[] = {WahMergeStrategy::kLegacy,
                                             WahMergeStrategy::kAdaptive};
      for (int s = 0; s < 2; ++s) {
        SetWahMergeStrategy(strategies[s]);
        // Parity check runs untimed; the timed loop measures the merge the
        // way the auto engine consumes it (a fallback result stays dense —
        // the engine folds it onward without re-compressing).
        counts[s] = OrOfMany(operands).Count();
        size_t guard = 0;
        double best_us = 0;
        for (int r = 0; r < reps; ++r) {
          auto start = std::chrono::steady_clock::now();
          WahMergeOutput out = OrOfManyAdaptive(operands);
          const double us = 1e6 * std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - start)
                                      .count();
          guard += out.dense_fallback ? out.dense.words().size()
                                      : out.wah.code_words().size();
          // min-of-reps: robust against scheduler/turbo noise at low rep
          // counts (the smoke lane runs only a handful of iterations).
          if (r == 0 || us < best_us) best_us = us;
        }
        lane_us[s] = best_us;
        if (guard == 0) counts[s] = size_t(-1);  // merge produced nothing
      }
      SetWahMergeStrategy(WahMergeStrategy::kAdaptive);
      if (counts[0] != counts[1]) {
        std::printf("FAIL: merge strategies disagree on %s k=%zu\n",
                    lane.name, k);
        return 1;
      }
      std::printf("%-22s %4zu | %12.1f %12.1f | %8.2fx\n", lane.name, k,
                  lane_us[0], lane_us[1],
                  lane_us[1] > 0 ? lane_us[0] / lane_us[1] : 0.0);
      for (int s = 0; s < 2; ++s) {
        json.Add("wah_ablation_kary_merge",
                 {{"shape", lane.name},
                  {"density", lane.density},
                  {"bits", bits},
                  {"k", static_cast<int64_t>(k)},
                  {"strategy", ToString(strategies[s])}},
                 "merge_us", lane_us[s], "us");
      }
    }
  }

  // End-to-end: the same predicate sweep over a WahCompressedSource under
  // each engine.  plain = decompress-then-op, wah = compressed-domain,
  // auto = per-operand choice; results are bit-identical (checksummed).
  const size_t rows = smoke ? 200000 : 2000000;
  const int query_reps = smoke ? 3 : 10;
  std::printf("\nend-to-end over WahCompressedSource, %zu rows, equality "
              "encoding, 9-query sweep\n\n", rows);
  std::printf("%-26s | %9s | %12s %12s %12s\n", "relation", "C",
              "plain us/q", "wah us/q", "auto us/q");

  struct Relation {
    const char* name;
    uint32_t cardinality;
    bool sorted;
  };
  const Relation relations[] = {
      {"sorted C=100 (runs)", 100, true},
      {"uniform C=100 (1% bits)", 100, false},
      {"uniform C=20 (5% bits)", 20, false},
      {"uniform C=4 (dense bits)", 4, false},
  };
  for (const Relation& rel : relations) {
    std::vector<uint32_t> values =
        MakeColumn(rows, rel.cardinality, rel.sorted, 42);
    BitmapIndex index = BitmapIndex::Build(
        values, rel.cardinality,
        BaseSequence::SingleComponent(rel.cardinality), Encoding::kEquality);
    WahCompressedSource source(index);

    size_t check_plain = 0, check_wah = 0, check_auto = 0;
    double plain_us = MeasureEngine(source, EngineKind::kPlain,
                                    rel.cardinality, query_reps, &check_plain);
    double wah_us = MeasureEngine(source, EngineKind::kWah, rel.cardinality,
                                  query_reps, &check_wah);
    double auto_us = MeasureEngine(source, EngineKind::kAuto, rel.cardinality,
                                   query_reps, &check_auto);
    if (check_wah != check_plain || check_auto != check_plain) {
      std::printf("FAIL: engines disagree on %s\n", rel.name);
      return 1;
    }
    std::printf("%-26s | %9u | %12.1f %12.1f %12.1f\n", rel.name,
                rel.cardinality, plain_us, wah_us, auto_us);
    for (auto& [engine, us] :
         std::vector<std::pair<const char*, double>>{
             {"plain", plain_us}, {"wah", wah_us}, {"auto", auto_us}}) {
      json.Add("wah_ablation_engine",
               {{"relation", rel.name},
                {"cardinality", static_cast<int64_t>(rel.cardinality)},
                {"rows", rows},
                {"engine", engine}},
               "query_us", us, "us");
    }
  }

  // Row-reordering lanes (core/row_order.h, DESIGN.md §15): the same
  // relation indexed in arrival (shuffled) order versus after a lex / Gray
  // sort.  Sorting multiplies WAH compression (arXiv 0901.3751), and the
  // smaller operands pull the auto engine's per-operand choice — and its
  // measured break-even (wah_engine.calibrated_ratio) — toward compressed
  // execution.  Foundset checksums are order-invariant, so all three arms
  // must agree bit-for-bit on every query's count; remap_us times the
  // sorted arms' crossing back to logical row ids (RemapToLogical), whose
  // output must equal the shuffled arm's foundset.  decode_us times the
  // dense fetch's one-pass inflate of every stored bitmap (MeasureDecode)
  // on every arm: sorting shrinks the payloads, not the output.  fetch_us
  // times the whole stored dense fetch around it (MeasureFetch): read,
  // checksum verification and decode.
  const size_t sort_rows = smoke ? 100000 : 1000000;
  std::printf("\nrow reordering: shuffled vs sorted builds, %zu rows, "
              "equality encoding, auto engine\n\n", sort_rows);
  std::printf("%-22s %-9s | %10s %7s | %10s %10s | %10s %9s | %10s | "
              "%10s | %10s\n",
              "relation", "order", "wah KB", "ratio", "comp ops",
              "plain ops", "auto us/q", "cal ratio", "remap us/q",
              "decode us", "fetch us");

  struct SortLane {
    const char* name;
    uint32_t cardinality;
    bool zipf;
    uint32_t component_base;
  };
  const SortLane sort_lanes[] = {
      {"zipf s=1.2 C=1000", 1000, true, 32},
      {"uniform C=64", 64, false, 8},
  };
  obs::Counter& comp_ops_counter =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.compressed_ops");
  obs::Counter& plain_ops_counter =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.plain_ops");
  obs::Gauge& calibrated_gauge =
      obs::MetricsRegistry::Global().GetGauge("wah_engine.calibrated_ratio");
  for (const SortLane& lane : sort_lanes) {
    std::vector<uint32_t> shuffled =
        lane.zipf ? GenerateZipf(sort_rows, lane.cardinality, 1.2, 77)
                  : GenerateUniform(sort_rows, lane.cardinality, 77);
    BaseSequence base =
        BaseSequence::Uniform(lane.component_base, lane.cardinality);
    struct OrderArm {
      const char* name;
      RowOrder order;
    };
    const OrderArm arms[] = {{"shuffled", RowOrder::kNone},
                             {"lex", RowOrder::kLex},
                             {"gray", RowOrder::kGray}};
    size_t shuffled_bytes = 0, shuffled_checksum = 0;
    std::vector<Bitvector> shuffled_found;  // the sweep in logical order
    for (const OrderArm& arm : arms) {
      const std::vector<uint32_t> perm =
          ComputeRowOrder(shuffled, lane.cardinality, base, arm.order);
      const std::vector<uint32_t> column = ApplyPermutation(shuffled, perm);
      BitmapIndex index = BitmapIndex::Build(column, lane.cardinality, base,
                                             Encoding::kEquality);
      size_t wah_bytes = 0;
      for (int comp = 0; comp < base.num_components(); ++comp) {
        for (uint32_t slot = 0;
             slot < NumStoredBitmaps(Encoding::kEquality, base.base(comp));
             ++slot) {
          wah_bytes +=
              WahBitvector::FromBitvector(index.Fetch(comp, slot, nullptr))
                  .SizeInBytes();
        }
      }
      if (arm.order == RowOrder::kNone) shuffled_bytes = wah_bytes;
      const double ratio = static_cast<double>(shuffled_bytes) /
                           static_cast<double>(wah_bytes);

      WahCompressedSource source(index);
      const int64_t comp0 = comp_ops_counter.value();
      const int64_t plain0 = plain_ops_counter.value();
      size_t checksum = 0;
      double auto_us = MeasureEngine(source, EngineKind::kAuto,
                                     lane.cardinality, query_reps, &checksum);
      const int64_t compressed_ops = comp_ops_counter.value() - comp0;
      const int64_t plain_ops = plain_ops_counter.value() - plain0;
      const int64_t calibrated = calibrated_gauge.value();
      // The physical -> logical crossing a sorted index pays per query.
      double remap_us = 0;
      if (arm.order == RowOrder::kNone) {
        shuffled_checksum = checksum;
        for (const auto& [op, v] : SweepQueries(lane.cardinality)) {
          shuffled_found.push_back(
              EvaluatePredicate(index, EvalAlgorithm::kAuto, op, v));
        }
      } else if (checksum != shuffled_checksum) {
        std::printf("FAIL: sorted foundset counts diverge on %s %s\n",
                    lane.name, arm.name);
        return 1;
      } else {
        // Each call takes microseconds: many reps keep the minimum steady.
        remap_us = MeasureRemap(index, perm, lane.cardinality,
                                /*reps=*/50, shuffled_found);
        if (remap_us < 0) {
          std::printf("FAIL: remapped foundsets diverge on %s %s\n",
                      lane.name, arm.name);
          return 1;
        }
      }
      const double decode_us = MeasureDecode(index, /*reps=*/20);
      if (decode_us < 0) {
        std::printf("FAIL: dense decode diverges on %s %s\n", lane.name,
                    arm.name);
        return 1;
      }
      const double fetch_us = MeasureFetch(index, /*reps=*/20);
      if (fetch_us < 0) {
        std::printf("FAIL: stored dense fetch diverges on %s %s\n",
                    lane.name, arm.name);
        return 1;
      }
      std::printf("%-22s %-9s | %10.1f %6.2fx | %10lld %10lld | %10.1f "
                  "%9lld | %10.1f | %10.1f | %10.1f\n",
                  lane.name, arm.name,
                  static_cast<double>(wah_bytes) / 1024, ratio,
                  static_cast<long long>(compressed_ops),
                  static_cast<long long>(plain_ops), auto_us,
                  static_cast<long long>(calibrated), remap_us, decode_us,
                  fetch_us);
      const std::vector<bench::BenchParam> params = {
          {"relation", lane.name},
          {"order", arm.name},
          {"rows", sort_rows},
          {"cardinality", static_cast<int64_t>(lane.cardinality)}};
      json.Add("wah_ablation_roworder", params, "wah_index_kb",
               static_cast<double>(wah_bytes) / 1024, "KB");
      json.Add("wah_ablation_roworder", params, "size_ratio", ratio, "x");
      json.Add("wah_ablation_roworder", params, "query_us", auto_us, "us");
      json.Add("wah_ablation_roworder", params, "compressed_ops",
               static_cast<double>(compressed_ops), "count");
      json.Add("wah_ablation_roworder", params, "plain_ops",
               static_cast<double>(plain_ops), "count");
      json.Add("wah_ablation_roworder", params, "calibrated_ratio",
               static_cast<double>(calibrated), "permille");
      if (arm.order != RowOrder::kNone) {
        json.Add("wah_ablation_roworder", params, "remap_us", remap_us, "us");
      }
      json.Add("wah_ablation_roworder", params, "decode_us", decode_us, "us");
      json.Add("wah_ablation_roworder", params, "fetch_us", fetch_us, "us");
    }
  }

  std::printf("\nshape check: compressed-domain execution dominates on "
              "sparse/clustered bitmaps,\nloses on dense ~50%% noise, and "
              "--engine=auto tracks the better substrate.\n");
  if (!json_path.empty()) {
    if (!json.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu rows -> %s\n", json.size(), json_path.c_str());
  }
  return 0;
}
