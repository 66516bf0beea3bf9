// The benchmark's workload interface and the span-wrapped transaction handle
// every workload drives the engine through.

#ifndef BENCHMARK_SRC_WORKLOAD_H_
#define BENCHMARK_SRC_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "benchmark/src/gen.h"
#include "benchmark/src/span.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/database.h"

namespace fbench {

using falcon::Status;
using falcon::TableId;

// What became of one planned transaction.
struct Outcome {
  bool committed = false;
  bool scripted = false;    // planned rollback (TPC-C invalid item)
  bool unexpected = false;  // an operation returned a status the plan rules out
  uint32_t attempts = 0;    // transactions begun, retries included
  uint32_t bytes = 0;       // logical bytes the committed transaction wrote
  uint8_t type = 0;         // workload-defined transaction type
};

struct TxnResult {
  Outcome outcome;
  uint64_t sim_ns = 0;   // begin to commit (batched: admission to finish)
  uint64_t host_ns = 0;  // wall time (batched: FrameSource::Next to Done)
};

using ResultSink = std::function<void(const TxnResult&)>;

struct CrashResult {
  bool fired = false;
  falcon::CrashStepKind kind = falcon::CrashStepKind::kNone;
  uint64_t txns = 0;  // burst transactions started
};

// Results of the after-window index probe.
struct ProbeResult {
  uint64_t lookups = 0;
  uint64_t lookup_sim_ns = 0;
  uint64_t lookup_misses = 0;  // cache-model misses of the probe's context
};

class Workload {
 public:
  explicit Workload(Tracer* tracer) : tracer_(tracer) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  static constexpr uint32_t kWorkers = 4;

  // Fresh device(s) and engine(s): format, load, and every plan from `seed`.
  virtual void Build(uint64_t seed, uint64_t plans_per_worker) = 0;

  // Plans per round-robin turn: 1 (one whole transaction) or a RunBatch chunk.
  virtual uint64_t chunk() const { return 1; }

  // Runs plans [first, last) of `worker`, reporting each through `sink`.
  // Returns how far the worker's simulated timeline advanced.
  virtual uint64_t RunChunk(uint32_t worker, uint64_t first, uint64_t last,
                            const ResultSink& sink);

  virtual std::vector<falcon::Engine*> Engines() = 0;
  virtual uint64_t LiveUserBytes() const = 0;

  // Correctness check of the current database image; returns the number of
  // violations and describes the first one.
  virtual uint64_t Check(std::string* first) = 0;

  // Arms a crash at `step` (on a shard drawn from `rng` where there are
  // several) and runs serial transactions of crash cycle `cycle` until it
  // fires; the image is left exactly as the simulated power failure froze it.
  virtual CrashResult CrashBurst(uint64_t seed, uint32_t cycle, uint64_t step, Rng& rng) = 0;

  // Drops the (crashed) engines and reopens them over the same devices.
  virtual void Reopen() = 0;

  // Looks up `count` seed-drawn keys through the index on a fresh context.
  virtual ProbeResult Probe(uint64_t seed, uint64_t count) = 0;

 protected:
  // Serial path: one whole planned transaction, retried until it commits,
  // rolls back as planned, or gives up.
  virtual Outcome RunOne(uint32_t worker, uint64_t plan) = 0;
  // The worker's (session's) simulated clock.
  virtual SimClock Clock(uint32_t worker) = 0;

  SpanCtx MakeCtx(uint32_t worker, uint64_t txn) {
    SpanCtx ctx;
    ctx.tracer = tracer_;
    ctx.worker = worker;
    ctx.txn = txn;
    ctx.clock = Clock(worker);
    return ctx;
  }

  Tracer* tracer_;
};

// Plan ids: unique per (worker, plan index), also used as span txn ids.
inline uint64_t PlanId(uint32_t worker, uint64_t plan) {
  return (static_cast<uint64_t>(worker + 1) << 40) | plan;
}

inline constexpr uint32_t kMaxAttempts = 64;

// A Txn or DbTxn whose every call runs inside a span and whose writes are
// tallied as logical bytes.
template <typename T>
class Traced {
 public:
  Traced(T& txn, const SpanCtx& ctx, const falcon::Engine& meta)
      : txn_(txn), ctx_(ctx), meta_(meta) {}

  Status Read(TableId t, uint64_t key, void* out) {
    Span s(ctx_, kSpanRead);
    return txn_.Read(t, key, out);
  }
  Status ReadColumn(TableId t, uint64_t key, uint32_t col, void* out) {
    Span s(ctx_, kSpanRead);
    return txn_.ReadColumn(t, key, col, out);
  }
  Status UpdateColumn(TableId t, uint64_t key, uint32_t col, const void* v) {
    bytes_ += meta_.table_meta(t).columns[col].size;
    Span s(ctx_, kSpanUpdate);
    return txn_.UpdateColumn(t, key, col, v);
  }
  Status UpdatePartial(TableId t, uint64_t key, uint32_t offset, uint32_t len, const void* v) {
    bytes_ += len;
    Span s(ctx_, kSpanUpdate);
    return txn_.UpdatePartial(t, key, offset, len, v);
  }
  Status UpdateFull(TableId t, uint64_t key, const void* v) {
    bytes_ += static_cast<uint32_t>(meta_.TupleDataSize(t));
    Span s(ctx_, kSpanUpdate);
    return txn_.UpdateFull(t, key, v);
  }
  Status Insert(TableId t, uint64_t key, const void* v) {
    bytes_ += static_cast<uint32_t>(meta_.TupleDataSize(t));
    Span s(ctx_, kSpanInsert);
    return txn_.Insert(t, key, v);
  }
  Status Delete(TableId t, uint64_t key) {
    Span s(ctx_, kSpanDelete);
    return txn_.Delete(t, key);
  }
  Status Scan(TableId t, uint64_t lo, uint64_t hi, size_t limit,
              const std::function<void(uint64_t, const std::byte*)>& visit) {
    Span s(ctx_, kSpanScan);
    return txn_.Scan(t, lo, hi, limit, visit);
  }
  Status Commit(SpanName name = kSpanCommit) {
    Span s(ctx_, name);
    return txn_.Commit();
  }
  void Abort() {
    Span s(ctx_, kSpanAbort);
    txn_.Abort();
  }

  uint32_t bytes() const { return bytes_; }

 private:
  T& txn_;
  const SpanCtx& ctx_;
  const falcon::Engine& meta_;
  uint32_t bytes_ = 0;
};

// Begins a transaction inside a begin span (guaranteed elision: Txn and
// DbTxn are immovable).
inline falcon::Txn BeginTxn(falcon::Worker& worker, const SpanCtx& ctx, bool read_only) {
  Span s(ctx, kSpanBegin);
  return worker.Begin(read_only);
}
inline falcon::DbTxn BeginDbTxn(falcon::Database& db, uint32_t session, const SpanCtx& ctx,
                                bool read_only) {
  Span s(ctx, kSpanBegin);
  return db.Begin(session, read_only);
}

// Falcon preset shared by all workloads: eADR, 3-slot small log window,
// selective hinted flush, 64-entry hot-tuple LRU, and a 256 KiB per-worker
// simulated cache (256 sets x 16 ways) so the YCSB table is far larger than
// the cache and the bank shards fit in it.
falcon::EngineConfig FalconConfig(falcon::CcScheme cc, uint32_t batch);

std::unique_ptr<Workload> MakeWorkload(std::string_view name, Tracer* tracer);

// Shared index probe over one table of one engine.
ProbeResult ProbeIndex(falcon::Engine& engine, TableId table, const std::vector<uint64_t>& keys,
                       Tracer* tracer, ProbeResult acc = {});

}  // namespace fbench

#endif  // BENCHMARK_SRC_WORKLOAD_H_
