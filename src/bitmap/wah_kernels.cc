#include "bitmap/wah_kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "bitmap/bitvector_kernels.h"
#include "bitmap/popcount.h"
#include "bitmap/wah_run_decoder.h"
#include "core/check.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace bix {

// Append access to the private WAH run representation for the merge sinks
// (friend of WahBitvector).
struct WahAppendAccess {
  static void Literal(WahBitvector& v, uint32_t group) {
    v.AppendLiteral(group);
  }
  static void Fill(WahBitvector& v, bool value, uint64_t count) {
    v.AppendFill(value, count);
  }
  static void SetNumBits(WahBitvector& v, size_t num_bits) {
    v.num_bits_ = num_bits;
  }
};

namespace {

using wah_internal::FillCount;
using wah_internal::FillValue;
using wah_internal::FoldCodeWords;
using wah_internal::IsFill;
using wah_internal::kGroupBits;
using wah_internal::kLiteralMask;
using wah_internal::RunCursor;
using wah_internal::RunDecoder;

// How much heap work the event-driven merge actually did, and how often it
// gave up on the compressed domain.  Named wah_engine.* next to the
// engine's compressed_ops/plain_ops so one snapshot tells the whole
// compressed-execution story (the planner's P3 merge counts here too).
obs::Counter& HeapEventsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.heap_events");
  return c;
}
obs::Counter& DenseFallbacksCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("wah_engine.dense_fallbacks");
  return c;
}

// Every kernel-level count mirrors into the live profiler span so per-node
// profiles and the registry agree.
void CountHeapEvents(int64_t events) {
  HeapEventsCounter().Increment(events);
  obs::ProfCount(obs::ProfCounter::kHeapEvents, events);
}
void CountDenseFallback() {
  DenseFallbacksCounter().Increment();
  obs::ProfCount(obs::ProfCounter::kDenseFallbacks);
}

// Adaptive-merge fallback tuning.  The heap costs O(log k) per run event;
// the dense fold costs O(k) words per group but each word op is a fraction
// of a nanosecond.  Once the cumulative event rate exceeds
// kFallbackEventNum/kFallbackEventDen of one event per operand per group —
// runs no longer span multiple groups — the fold wins even counting the
// inflation, so the merge abandons and restarts densely.  The first check
// waits for kFallbackProbeEvents so well-compressed merges never pay for
// the ratio test, and the wasted compressed-domain prefix stays bounded.
constexpr uint64_t kFallbackProbeEvents = 1024;
constexpr uint64_t kFallbackEventNum = 1;
constexpr uint64_t kFallbackEventDen = 4;

constexpr uint8_t kStrategyUnset = 0xFF;
std::atomic<uint8_t> g_merge_strategy{kStrategyUnset};

WahMergeStrategy StrategyFromEnv() {
  const char* env = std::getenv("BIX_WAH_MERGE");
  if (env != nullptr) {
    if (std::strcmp(env, "heap") == 0) return WahMergeStrategy::kHeap;
    if (std::strcmp(env, "legacy") == 0) return WahMergeStrategy::kLegacy;
    if (std::strcmp(env, "dense") == 0) return WahMergeStrategy::kDense;
  }
  return WahMergeStrategy::kAdaptive;
}

// One merge pass over all k run streams, rescanning every decoder each
// group step.  Kept as the reference strategy (kLegacy) the event-driven
// merge is differentially tested and benchmarked against.  `kIsOr` selects
// the dominant fill value (a ones fill decides an OR stretch, a zeros fill
// an AND stretch); the longest dominant run wins and every other operand
// skips it whole.  The sink receives the result run-by-run: Fill(value,
// groups) and Literal(group), groups always summing to
// ceil(num_bits / 31).
template <bool kIsOr, typename Sink>
void MergeMany(std::span<const WahBitvector* const> operands, Sink&& sink) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const WahBitvector* o : operands) BIX_CHECK(o->size() == num_bits);

  std::vector<RunDecoder> dec;
  dec.reserve(operands.size());
  for (const WahBitvector* o : operands) dec.emplace_back(o->code_words());

  const uint64_t total_groups = (num_bits + kGroupBits - 1) / kGroupBits;
  uint64_t g = 0;
  while (g < total_groups) {
    uint64_t dominant = 0;
    uint64_t min_fill = UINT64_MAX;
    bool all_fills = true;
    for (const RunDecoder& d : dec) {
      if (d.is_fill()) {
        if (d.fill_value() == kIsOr) {
          dominant = std::max(dominant, d.groups_left());
        }
        min_fill = std::min(min_fill, d.groups_left());
      } else {
        all_fills = false;
      }
    }
    if (dominant > 0) {
      sink.Fill(kIsOr, dominant);
      for (RunDecoder& d : dec) d.Skip(dominant);
      g += dominant;
    } else if (all_fills) {
      // Every operand sits in a non-dominant fill: the result is the
      // non-dominant value for the shortest of them.
      sink.Fill(!kIsOr, min_fill);
      for (RunDecoder& d : dec) d.Consume(min_fill);
      g += min_fill;
    } else {
      uint32_t group = kIsOr ? 0 : kLiteralMask;
      for (const RunDecoder& d : dec) {
        group = kIsOr ? (group | d.group()) : (group & d.group());
      }
      sink.Literal(group);
      for (RunDecoder& d : dec) d.Consume(1);
      ++g;
    }
  }
  for (const RunDecoder& d : dec) BIX_CHECK(d.done());
}

// Event-driven merge: a min-heap keyed on each operand's next run boundary
// replaces the per-group rescan, so a step touches only the operands whose
// run actually changes.  Correctness does not depend on how the output is
// cut into Fill/Literal emissions — the sink canonicalizes (adjacent
// same-value fills merge, uniform literals become fills), so any strategy
// produces identical code words.
//
// Returns false when `allow_fallback` is set and the cumulative run-event
// rate crossed the fallback threshold; the partial sink output must then be
// discarded and the merge redone densely.  `*events_out` always receives
// the number of heap events spent.
template <bool kIsOr, typename Sink>
bool HeapMergeMany(std::span<const WahBitvector* const> operands, Sink&& sink,
                   bool allow_fallback, uint64_t* events_out) {
  const size_t num_bits = operands[0]->size();
  const uint64_t total_groups = (num_bits + kGroupBits - 1) / kGroupBits;
  const size_t k = operands.size();

  std::vector<RunCursor> cur;
  cur.reserve(k);
  // (run end, operand) min-heap: the top is the earliest next run event.
  std::vector<std::pair<uint64_t, uint32_t>> heap;
  heap.reserve(k);
  // One past the furthest group any *current* dominant fill covers; the
  // stretch [pos, dominant_end) is decided the moment it is discovered.
  uint64_t dominant_end = 0;
  for (size_t i = 0; i < k; ++i) {
    cur.emplace_back(operands[i]->code_words());
    if (cur[i].done()) continue;  // zero-length operand
    if (cur[i].is_fill() && cur[i].fill_value() == kIsOr) {
      dominant_end = std::max(dominant_end, cur[i].end());
    }
    heap.emplace_back(cur[i].end(), static_cast<uint32_t>(i));
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});

  uint64_t events = 0;
  auto pop = [&heap] {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    std::pair<uint64_t, uint32_t> top = heap.back();
    heap.pop_back();
    return top;
  };
  // Advances operand i past every run ending at or before `limit`, growing
  // the dominant stretch when a newly exposed run is a dominant fill, and
  // re-enters it into the heap at its new boundary.
  auto advance = [&](uint32_t i, uint64_t limit) {
    RunCursor& c = cur[i];
    while (!c.done() && c.end() <= limit) c.Next();
    if (c.done()) return;
    if (c.is_fill() && c.fill_value() == kIsOr) {
      dominant_end = std::max(dominant_end, c.end());
    }
    heap.emplace_back(c.end(), i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  uint64_t pos = 0;
  uint64_t next_check = kFallbackProbeEvents;
  while (pos < total_groups) {
    // Retire boundaries at or before pos so every heap entry is a run that
    // still covers group pos.
    while (!heap.empty() && heap.front().first <= pos) {
      const uint32_t i = pop().second;
      ++events;
      advance(i, pos);
    }
    if (dominant_end > pos) {
      // Dominant stretch: the result over [pos, dominant_end) is the
      // dominant value.  Operands whose runs end inside it are advanced
      // run-event-by-run-event (each may extend the stretch); operands in
      // one long run are never touched.
      while (!heap.empty() && heap.front().first <= dominant_end) {
        const uint32_t i = pop().second;
        ++events;
        advance(i, dominant_end);  // note: dominant_end may grow here
      }
      sink.Fill(kIsOr, dominant_end - pos);
      pos = dominant_end;
    } else if (heap.empty() || heap.front().first > pos + 1) {
      // No dominant fill and no run boundary at the next group: every
      // operand sits in a non-dominant fill, so the result is the
      // non-dominant value until the earliest boundary.
      const uint64_t next =
          heap.empty() ? total_groups
                       : std::min<uint64_t>(heap.front().first, total_groups);
      sink.Fill(!kIsOr, next - pos);
      pos = next;
    } else {
      // At least one operand's run ends after this single group; operands
      // in longer non-dominant fills contribute the identity and stay
      // untouched.
      uint32_t acc = kIsOr ? 0 : kLiteralMask;
      while (!heap.empty() && heap.front().first == pos + 1) {
        const uint32_t i = pop().second;
        ++events;
        if (!cur[i].is_fill()) {
          acc = kIsOr ? (acc | cur[i].literal()) : (acc & cur[i].literal());
        }
        advance(i, pos + 1);
      }
      sink.Literal(acc);
      ++pos;
    }
    if (allow_fallback && events >= next_check) {
      if (events * kFallbackEventDen > pos * k * kFallbackEventNum) {
        *events_out = events;
        return false;
      }
      next_check = events + kFallbackProbeEvents;
    }
  }
  *events_out = events;
  for (RunCursor& c : cur) {
    while (!c.done()) {
      BIX_CHECK(c.end() <= total_groups);
      c.Next();
    }
  }
  return true;
}

struct AppendSink {
  WahBitvector* out;
  void Fill(bool value, uint64_t count) {
    WahAppendAccess::Fill(*out, value, count);
  }
  void Literal(uint32_t group) { WahAppendAccess::Literal(*out, group); }
};

// Counts set bits run-by-run; a ones fill reaching the final partial group
// is clamped to num_bits (it can only do so when num_bits is a multiple of
// 31, but the clamp keeps the invariant local).
struct CountSink {
  size_t num_bits;
  size_t count = 0;
  uint64_t bit = 0;
  void Fill(bool value, uint64_t groups) {
    uint64_t span = groups * kGroupBits;
    if (value) {
      count += static_cast<size_t>(
          std::min<uint64_t>(span, num_bits - bit));
    }
    bit += span;
  }
  void Literal(uint32_t group) {
    count += Popcount64(group);
    bit += kGroupBits;
  }
};

// The dense escape hatch: one accumulator initialized to the fold identity,
// every operand stitched into it in place by the shared decode loop
// (FoldCodeWords), skipping a per-operand inflate and its extra pass.
template <bool kIsOr>
Bitvector DenseFold(std::span<const WahBitvector* const> operands) {
  Bitvector acc(operands[0]->size(), !kIsOr);
  for (const WahBitvector* o : operands) {
    const std::vector<uint32_t>& code = o->code_words();
    const bool ok = FoldCodeWords<kIsOr>(
        acc.mutable_words(), reinterpret_cast<const uint8_t*>(code.data()),
        code.size(), o->size());
    BIX_DCHECK(ok);  // in-memory operands hold validated streams
    (void)ok;
  }
  return acc;
}

template <bool kIsOr>
size_t DenseCountFold(std::span<const WahBitvector* const> operands) {
  return DenseFold<kIsOr>(operands).Count();
}

// Static form of the mid-merge fallback test.  The operand code-word count is
// an upper bound on the run events the heap would process (RunCursor pops
// each run once, and coalescing only shrinks the count), so when even that
// bound crosses the fallback ratio the heap cannot win: start dense outright
// and skip the abandoned probe prefix.
bool ShouldStartDense(std::span<const WahBitvector* const> operands,
                      uint64_t num_bits) {
  const uint64_t groups = (num_bits + kGroupBits - 1) / kGroupBits;
  uint64_t words = 0;
  for (const WahBitvector* o : operands) words += o->code_words().size();
  return words * kFallbackEventDen >
         groups * operands.size() * kFallbackEventNum;
}

template <bool kIsOr>
WahMergeOutput MergeImpl(std::span<const WahBitvector* const> operands) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const WahBitvector* o : operands) BIX_CHECK(o->size() == num_bits);

  WahMergeOutput out;
  if (operands.size() == 1) {
    // k == 1: the combination is the operand itself; copy the code words
    // instead of round-tripping them through the decoder and re-encoder.
    out.wah = *operands[0];
    return out;
  }
  const WahMergeStrategy strategy = GetWahMergeStrategy();
  switch (strategy) {
    case WahMergeStrategy::kLegacy:
      WahAppendAccess::SetNumBits(out.wah, num_bits);
      MergeMany<kIsOr>(operands, AppendSink{&out.wah});
      return out;
    case WahMergeStrategy::kDense:
      CountDenseFallback();
      out.dense_fallback = true;
      out.dense = DenseFold<kIsOr>(operands);
      return out;
    case WahMergeStrategy::kHeap:
    case WahMergeStrategy::kAdaptive: {
      if (strategy == WahMergeStrategy::kAdaptive &&
          ShouldStartDense(operands, num_bits)) {
        CountDenseFallback();
        out.dense_fallback = true;
        out.dense = DenseFold<kIsOr>(operands);
        return out;
      }
      WahAppendAccess::SetNumBits(out.wah, num_bits);
      uint64_t events = 0;
      const bool completed =
          HeapMergeMany<kIsOr>(operands, AppendSink{&out.wah},
                               strategy == WahMergeStrategy::kAdaptive,
                               &events);
      CountHeapEvents(static_cast<int64_t>(events));
      if (completed) return out;
      CountDenseFallback();
      out.wah = WahBitvector();  // discard the abandoned compressed prefix
      out.dense_fallback = true;
      out.dense = DenseFold<kIsOr>(operands);
      return out;
    }
  }
  BIX_CHECK(false);
  return out;
}

template <bool kIsOr>
size_t MergeCountImpl(std::span<const WahBitvector* const> operands) {
  BIX_CHECK(!operands.empty());
  const size_t num_bits = operands[0]->size();
  for (const WahBitvector* o : operands) BIX_CHECK(o->size() == num_bits);

  if (operands.size() == 1) return operands[0]->Count();
  const WahMergeStrategy strategy = GetWahMergeStrategy();
  switch (strategy) {
    case WahMergeStrategy::kLegacy: {
      CountSink sink{num_bits};
      MergeMany<kIsOr>(operands, sink);
      return sink.count;
    }
    case WahMergeStrategy::kDense:
      CountDenseFallback();
      return DenseCountFold<kIsOr>(operands);
    case WahMergeStrategy::kHeap:
    case WahMergeStrategy::kAdaptive: {
      if (strategy == WahMergeStrategy::kAdaptive &&
          ShouldStartDense(operands, num_bits)) {
        CountDenseFallback();
        return DenseCountFold<kIsOr>(operands);
      }
      CountSink sink{num_bits};
      uint64_t events = 0;
      const bool completed = HeapMergeMany<kIsOr>(
          operands, sink, strategy == WahMergeStrategy::kAdaptive, &events);
      CountHeapEvents(static_cast<int64_t>(events));
      if (completed) return sink.count;
      CountDenseFallback();
      return DenseCountFold<kIsOr>(operands);
    }
  }
  BIX_CHECK(false);
  return 0;
}

template <typename Fold>
auto FoldValues(std::span<const WahBitvector> operands, Fold fold) {
  std::vector<const WahBitvector*> ptrs;
  ptrs.reserve(operands.size());
  for (const WahBitvector& o : operands) ptrs.push_back(&o);
  return fold(std::span<const WahBitvector* const>(ptrs));
}

}  // namespace

const char* ToString(WahMergeStrategy strategy) {
  switch (strategy) {
    case WahMergeStrategy::kAdaptive:
      return "adaptive";
    case WahMergeStrategy::kHeap:
      return "heap";
    case WahMergeStrategy::kLegacy:
      return "legacy";
    case WahMergeStrategy::kDense:
      return "dense";
  }
  return "?";
}

WahMergeStrategy GetWahMergeStrategy() {
  uint8_t s = g_merge_strategy.load(std::memory_order_relaxed);
  if (s == kStrategyUnset) {
    s = static_cast<uint8_t>(StrategyFromEnv());
    uint8_t expected = kStrategyUnset;
    // Lost race is fine: both sides computed the same env-derived value
    // unless a concurrent SetWahMergeStrategy won, which then sticks.
    g_merge_strategy.compare_exchange_strong(expected, s,
                                             std::memory_order_relaxed);
    s = g_merge_strategy.load(std::memory_order_relaxed);
  }
  return static_cast<WahMergeStrategy>(s);
}

void SetWahMergeStrategy(WahMergeStrategy strategy) {
  g_merge_strategy.store(static_cast<uint8_t>(strategy),
                         std::memory_order_relaxed);
}

WahBitvector WahBitvector::OrOfMany(
    std::span<const WahBitvector* const> operands) {
  return MergeImpl<true>(operands).IntoWah();
}

WahBitvector WahBitvector::AndOfMany(
    std::span<const WahBitvector* const> operands) {
  return MergeImpl<false>(operands).IntoWah();
}

size_t WahBitvector::CountOrOfMany(
    std::span<const WahBitvector* const> operands) {
  return MergeCountImpl<true>(operands);
}

size_t WahBitvector::CountAndOfMany(
    std::span<const WahBitvector* const> operands) {
  return MergeCountImpl<false>(operands);
}

WahMergeOutput OrOfManyAdaptive(
    std::span<const WahBitvector* const> operands) {
  return MergeImpl<true>(operands);
}

WahMergeOutput AndOfManyAdaptive(
    std::span<const WahBitvector* const> operands) {
  return MergeImpl<false>(operands);
}

WahMergeOutput OrOfManyAdaptive(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return MergeImpl<true>(p);
  });
}

WahMergeOutput AndOfManyAdaptive(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return MergeImpl<false>(p);
  });
}

WahBitvector OrOfMany(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return WahBitvector::OrOfMany(p);
  });
}

WahBitvector AndOfMany(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return WahBitvector::AndOfMany(p);
  });
}

size_t CountOrOfMany(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return WahBitvector::CountOrOfMany(p);
  });
}

size_t CountAndOfMany(std::span<const WahBitvector> operands) {
  return FoldValues(operands, [](std::span<const WahBitvector* const> p) {
    return WahBitvector::CountAndOfMany(p);
  });
}

}  // namespace bix
