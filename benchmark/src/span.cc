#include "benchmark/src/span.h"

#include <cinttypes>
#include <cstdlib>

namespace fbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanTxn: return "txn";
    case kSpanBegin: return "begin";
    case kSpanRead: return "read";
    case kSpanUpdate: return "update";
    case kSpanInsert: return "insert";
    case kSpanDelete: return "delete";
    case kSpanScan: return "scan";
    case kSpanCommit: return "commit";
    case kSpanCommit2pc: return "commit_2pc";
    case kSpanAbort: return "abort";
    case kSpanRunBatch: return "run_batch";
    case kSpanStep: return "step";
    case kSpanSource: return "frame_source";
    case kSpanReopen: return "reopen";
    case kSpanProbeLookup: return "index_lookup";
    case kSpanProbeScan: return "index_scan";
    case kSpanCalibrate: return "calibrate";
    case kSpanCount: break;
  }
  return "?";
}

Tracer::Tracer() : raw_(new Raw[kMaxRawSpans]) {}

void Tracer::Enable() {
  on_ = true;
  // Calibration: spans that enclose nothing. Their mean recorded duration is
  // the overhead inside a span; their mean wall cost is the whole overhead.
  constexpr int kRounds = 200000;
  SpanCtx ctx;
  ctx.tracer = this;
  const uint64_t t0 = NowNs();
  for (int i = 0; i < kRounds; ++i) {
    Span s(ctx, kSpanCalibrate);
  }
  const uint64_t t1 = NowNs();
  empty_ns_ = agg_[kSpanCalibrate].total_ns / kRounds;
  cost_ns_ = static_cast<double>(t1 - t0) / kRounds;
  agg_[kSpanCalibrate] = SpanAgg{};
  raw_n_ = 0;
  origin_ns_ = NowNs();
}

void Tracer::Open(SpanName name, uint32_t worker, uint64_t txn, uint64_t sim_now) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "span nesting deeper than %d\n", kMaxDepth);
    std::abort();
  }
  Frame& f = stack_[depth_++];
  f.name = name;
  f.sim_start = sim_now;
  f.child_ns = 0;
  f.raw = UINT32_MAX;
  if (raw_n_ < kMaxRawSpans) {
    f.raw = static_cast<uint32_t>(raw_n_++);
    const uint32_t parent = depth_ > 1 ? stack_[depth_ - 2].raw : UINT32_MAX;
    raw_[f.raw] = Raw{0, 0, txn, parent, static_cast<uint16_t>(name),
                      static_cast<uint16_t>(worker)};
  }
  f.start_ns = NowNs();  // last: the bookkeeping above stays outside the span
}

void Tracer::Close(uint64_t sim_now) {
  const uint64_t end = NowNs();
  const Frame& f = stack_[--depth_];
  double dur = static_cast<double>(end - f.start_ns) - empty_ns_;
  dur = dur > 0 ? dur : 0;
  const double self = dur > f.child_ns ? dur - f.child_ns : 0;
  SpanAgg& a = agg_[f.name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
  a.sim_ns += sim_now - f.sim_start;
  if (f.raw != UINT32_MAX) {
    raw_[f.raw].start_ns = f.start_ns;
    raw_[f.raw].end_ns = end;
  }
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur + cost_ns_;
  }
}

bool Tracer::WriteChromeJson(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (uint64_t i = 0; i < raw_n_; ++i) {
    const Raw& r = raw_[i];
    const double ts_us = static_cast<double>(r.start_ns - origin_ns_) / 1000.0;
    const double dur_us = static_cast<double>(r.end_ns - r.start_ns) / 1000.0;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"txn\":%" PRIu64 ",\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", SpanNameString(static_cast<SpanName>(r.name)), ts_us,
                 dur_us, r.worker, r.txn,
                 r.parent == UINT32_MAX ? -1LL : static_cast<long long>(r.parent));
  }
  std::fputs("]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace fbench
