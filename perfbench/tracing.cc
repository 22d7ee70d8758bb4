#include "tracing.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

void AddTotals(const bix::obs::ProfSample& node,
               std::map<std::string, TraceSession::Totals>* totals) {
  if (node.category == "perfbench") {
    TraceSession::Totals& t = (*totals)[node.name];
    t.calls += node.calls;
    t.wall_ns += node.wall_ns;
  }
  for (const bix::obs::ProfSample& child : node.children) {
    AddTotals(child, totals);
  }
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceSession::Begin() {
  begin_ns_ = NowNs();
  if (origin_ns_ < 0) origin_ns_ = begin_ns_;
  bix::obs::Profiler::Global().Enable();
  bix::obs::Tracer::Global().Enable();
}

void TraceSession::End() {
  bix::obs::Tracer& tracer = bix::obs::Tracer::Global();
  tracer.Disable();
  bix::obs::Profiler::Global().Disable();
  AddTotals(bix::obs::CaptureProfile().root, &totals_);
  // The tracer's clock restarted at Begin; shift onto the session's.
  const int64_t shift = begin_ns_ - origin_ns_;
  for (bix::obs::TraceEvent& event : tracer.Events()) {
    if (events_.size() >= kMaxEvents) break;
    event.ts_ns += shift;
    events_.push_back(std::move(event));
  }
  tracer.Clear();
}

int64_t TraceSession::WallNs(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.wall_ns;
}

bool TraceSession::WriteChromeTrace(const std::string& path) const {
  bix::obs::Tracer& tracer = bix::obs::Tracer::Global();
  tracer.Clear();
  for (const bix::obs::TraceEvent& event : events_) tracer.Record(event);
  const bool ok = tracer.WriteChromeJson(path);
  tracer.Clear();
  return ok;
}

bix::Bitvector TimedSource::Fetch(int component, uint32_t slot,
                                  bix::EvalStats* stats) const {
  if (const bix::Bitvector* view = FetchView(component, slot, stats)) {
    return *view;
  }
  Span span("storage.fetch");
  ++fetches_;
  return inner_.Fetch(component, slot, stats);
}

const bix::Bitvector* TimedSource::FetchView(int component, uint32_t slot,
                                             bix::EvalStats* stats) const {
  if (memo_ == nullptr) return inner_.FetchView(component, slot, stats);
  auto key = std::make_tuple(column_, component, slot);
  auto it = memo_->dense.find(key);
  if (it != memo_->dense.end()) {
    if (stats != nullptr) ++stats->bitmap_scans;
    return &it->second;
  }
  bix::Bitvector fetched;
  {
    Span span("storage.fetch");
    ++fetches_;
    fetched = inner_.Fetch(component, slot, stats);
  }
  return &memo_->dense.emplace(key, std::move(fetched)).first->second;
}

const bix::WahBitvector* TimedSource::FetchWah(int component, uint32_t slot,
                                               bix::EvalStats* stats) const {
  auto key = std::make_tuple(column_, component, slot);
  if (memo_ != nullptr) {
    auto it = memo_->wah.find(key);
    if (it != memo_->wah.end()) {
      if (stats != nullptr) ++stats->bitmap_scans;
      return &it->second;
    }
  }
  const bix::WahBitvector* fetched;
  {
    Span span("storage.fetch");
    fetched = inner_.FetchWah(component, slot, stats);
  }
  if (fetched == nullptr) return nullptr;
  ++fetches_;
  if (memo_ == nullptr) return fetched;
  return &memo_->wah.emplace(key, *fetched).first->second;
}

}  // namespace perfbench
