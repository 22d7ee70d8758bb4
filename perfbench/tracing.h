// Spans and the timing QuerySource decorator of the benchmark's traced run.
// Spans are opened around the calls into each layer from the benchmark's
// own code and recorded by the library's own span systems: the profiler's
// span tree (obs/profile.h) gives the per-span totals, and the tracer
// (obs/trace.h) gives the Chrome trace_event file written when the run
// ends.  The library's own spans and events inside a recorded stretch land
// in both as well.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bitmap/bitvector.h"
#include "bitmap/wah_bitvector.h"
#include "core/bitmap_source.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace perfbench {

int64_t NowNs();

// A span in both recorders; it records nothing unless a TraceSession is
// recording.  `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name)
      : prof_("perfbench", name), trace_("perfbench", name) {}

 private:
  bix::obs::ProfSpan prof_;
  bix::obs::TraceSpan trace_;
};

// Records chosen stretches of a single-threaded run (Begin..End) and keeps
// them in memory.  Each Begin restarts the library's recorders, so End
// folds the stretch into the per-span totals and the kept events.
class TraceSession {
 public:
  void Begin();
  void End();

  struct Totals {
    int64_t calls = 0;
    int64_t wall_ns = 0;
  };
  // Per span name, the benchmark's spans only.
  int64_t WallNs(const std::string& name) const;

  // Writes the kept events (the first kMaxEvents) with the tracer's own
  // Chrome trace_event writer.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr size_t kMaxEvents = 20'000;
  int64_t origin_ns_ = -1;  // the first Begin
  int64_t begin_ns_ = 0;
  std::map<std::string, Totals> totals_;
  std::vector<bix::obs::TraceEvent> events_;
};

// Operands kept in memory across queries, keyed by (column, component,
// slot): the traced stand-in for a warm shared-operand cache.
struct OperandMemo {
  std::map<std::tuple<uint32_t, int, uint32_t>, bix::Bitvector> dense;
  std::map<std::tuple<uint32_t, int, uint32_t>, bix::WahBitvector> wah;
};

// Times every fetch its inner (storage) source serves as a
// "storage.fetch" span.  With a memo, repeat fetches are served from
// memory and count one bitmap scan, as the serve layer's cache hits do.
class TimedSource final : public bix::BitmapSource {
 public:
  TimedSource(const bix::BitmapSource& inner, OperandMemo* memo,
              uint32_t column)
      : inner_(inner), memo_(memo), column_(column) {}

  const bix::BaseSequence& base() const override { return inner_.base(); }
  bix::Encoding encoding() const override { return inner_.encoding(); }
  size_t num_records() const override { return inner_.num_records(); }
  uint32_t cardinality() const override { return inner_.cardinality(); }
  const bix::Bitvector& non_null() const override {
    return inner_.non_null();
  }
  const bix::WahBitvector* NonNullWah() const override {
    return inner_.NonNullWah();
  }

  bix::Bitvector Fetch(int component, uint32_t slot,
                       bix::EvalStats* stats) const override;
  const bix::Bitvector* FetchView(int component, uint32_t slot,
                                  bix::EvalStats* stats) const override;
  const bix::WahBitvector* FetchWah(int component, uint32_t slot,
                                    bix::EvalStats* stats) const override;

  // Fetches that reached the inner source (memo hits excluded).
  int64_t fetches() const { return fetches_; }

 private:
  const bix::BitmapSource& inner_;
  OperandMemo* memo_;
  uint32_t column_;
  mutable int64_t fetches_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
