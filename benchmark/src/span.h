// Spans around every call the benchmark makes into the program.
//
// A span records {name, start, end, parent, txn id, worker} in memory that is
// allocated once, before any engine exists, in traced and untraced runs
// alike: the two runs then make the same heap allocations, so the simulated
// counters (which see DRAM addresses through the cache model) stay
// identical. With tracing off a span is one branch.
//
// Spans are aggregated on the fly per name into count, total and self time
// (duration minus the part its children cover). The measured cost of an
// empty span is subtracted: `empty_ns` from every duration (the part of a
// span's own overhead that falls between its two clock reads) and `cost_ns`
// per child from its parent (the child's whole overhead). The first
// kMaxRawSpans spans are kept raw for a Chrome trace-event dump.

#ifndef BENCHMARK_SRC_SPAN_H_
#define BENCHMARK_SRC_SPAN_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace fbench {

enum SpanName : uint16_t {
  kSpanTxn,  // one whole planned transaction, retries included
  kSpanBegin,
  kSpanRead,
  kSpanUpdate,
  kSpanInsert,
  kSpanDelete,
  kSpanScan,
  kSpanCommit,      // single-engine or single-write-shard commit
  kSpanCommit2pc,   // DbTxn commit with writes on several shards
  kSpanAbort,
  kSpanRunBatch,    // Worker::RunBatch (frames below it)
  kSpanStep,        // TxnFrame::Step
  kSpanSource,      // FrameSource::Next/Done: the benchmark's own code
  kSpanReopen,      // Engine / Database reopen after a crash
  kSpanProbeLookup,
  kSpanProbeScan,
  kSpanCalibrate,
  kSpanCount,
};

const char* SpanNameString(SpanName name);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The simulated clock a span charges: one worker clock, or a session's sum
// over shards (a session runs its branches one after another).
struct SimClock {
  const uint64_t* a = nullptr;
  const uint64_t* b = nullptr;
  uint64_t Now() const { return (a != nullptr ? *a : 0) + (b != nullptr ? *b : 0); }
};

struct SpanAgg {
  uint64_t count = 0;
  double total_ns = 0;  // corrected durations
  double self_ns = 0;   // corrected durations minus child footprints
  uint64_t sim_ns = 0;  // simulated time charged inside the span
};

class Tracer {
 public:
  static constexpr size_t kMaxRawSpans = 1 << 20;
  static constexpr int kMaxDepth = 16;

  Tracer();

  // Turns recording on and measures the cost of an empty span.
  void Enable();
  bool on() const { return on_; }

  void Open(SpanName name, uint32_t worker, uint64_t txn, uint64_t sim_now);
  void Close(uint64_t sim_now);

  const SpanAgg& agg(SpanName name) const { return agg_[name]; }
  std::vector<SpanAgg> Aggregates() const { return {agg_, agg_ + kSpanCount}; }
  double cost_ns() const { return cost_ns_; }
  uint64_t raw_count() const { return raw_n_; }

  // Chrome trace-event JSON (loads in Perfetto). Returns false on I/O error.
  bool WriteChromeJson(const char* path) const;

 private:
  struct Raw {
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t txn;
    uint32_t parent;  // UINT32_MAX for a root span
    uint16_t name;
    uint16_t worker;
  };
  struct Frame {
    uint64_t start_ns;
    uint64_t sim_start;
    double child_ns;  // footprint of closed children
    uint32_t raw;     // raw index, UINT32_MAX when not kept
    SpanName name;
  };

  bool on_ = false;
  double empty_ns_ = 0;
  double cost_ns_ = 0;
  Frame stack_[kMaxDepth];
  int depth_ = 0;
  SpanAgg agg_[kSpanCount];
  std::unique_ptr<Raw[]> raw_;  // default-initialized: untouched until used
  uint64_t raw_n_ = 0;
  uint64_t origin_ns_ = 0;
};

// Where the calls of one transaction are charged.
struct SpanCtx {
  Tracer* tracer = nullptr;
  uint32_t worker = 0;
  uint64_t txn = 0;  // plan id: spans of one planned transaction share it
  SimClock clock;
};

class Span {
 public:
  Span(const SpanCtx& ctx, SpanName name) : ctx_(ctx) {
    if (ctx_.tracer->on()) {
      ctx_.tracer->Open(name, ctx_.worker, ctx_.txn, ctx_.clock.Now());
    }
  }
  ~Span() {
    if (ctx_.tracer->on()) {
      ctx_.tracer->Close(ctx_.clock.Now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const SpanCtx& ctx_;
};

}  // namespace fbench

#endif  // BENCHMARK_SRC_SPAN_H_
