// YCSB over one 500,000-row table of 10 x 100 B fields (~0.5 GB, far larger
// than the 4 x 256 KiB simulated caches).
//
//  - ycsb_a_uniform: OCC, serial, uniform keys, 50% full-row updates. The log
//    window, hinted flush and XPBuffer media writes dominate.
//  - ycsb_b_zipf_b8: MVOCC, Worker::RunBatch with 8 frames in flight, Zipf
//    0.99, 95% single-row read-only transactions. The batch scheduler, the
//    cache-model miss path and MV snapshot reads dominate; it is the only
//    workload where in-flight siblings conflict.
//
// Every update writes a row stamped with its plan id; the shadow keeps the
// last acknowledged stamp of every row, which the check compares against.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/src/workload.h"
#include "src/storage/schema.h"
#include "src/storage/tuple.h"

namespace fbench {

namespace {

using falcon::Engine;
using falcon::NvmDevice;
using falcon::Txn;
using falcon::Worker;

constexpr uint64_t kLoadRowsPerTxn = 64;
constexpr uint64_t kCheckRowsPerTxn = 1024;
constexpr uint32_t kBatchSize = 8;
constexpr uint64_t kChunk = 1024;

class Ycsb;

// One batched transaction: Step 1 begins and runs the single operation,
// Step 2 commits. An abort replays the same plan from the top.
class YcsbFrame final : public falcon::TxnFrame {
 public:
  YcsbFrame(Ycsb* ycsb, uint32_t row_bytes) : ycsb_(ycsb), row_(row_bytes) {}

  void Reset(uint32_t worker, uint64_t plan, const SpanCtx& ctx);
  bool Step(Worker& worker) override;
  const Outcome& outcome() const { return outcome_; }
  uint64_t host_start = 0;

 private:
  bool Retry();

  Ycsb* ycsb_;
  std::vector<std::byte> row_;
  SpanCtx ctx_;
  YcsbPlan plan_{};
  uint64_t stamp_ = 0;
  Outcome outcome_;
  uint32_t bytes_ = 0;
  bool executed_ = false;
};

class Ycsb final : public Workload {
 public:
  Ycsb(Tracer* tracer, bool zipf_batched) : Workload(tracer), batched_(zipf_batched) {
    if (batched_) {
      shape_.zipf = true;
      shape_.update_pct = 5;
    }
  }

  void Build(uint64_t seed, uint64_t plans_per_worker) override {
    engine_.reset();
    device_.reset();
    const uint64_t slot = falcon::ComputeSlotSize(sizeof(falcon::TupleHeader), shape_.row_bytes());
    device_ = std::make_unique<NvmDevice>(shape_.rows * slot + (256ull << 20));
    engine_ = std::make_unique<Engine>(device_.get(), Config(), kWorkers);
    falcon::SchemaBuilder schema("usertable");
    for (uint32_t f = 0; f < shape_.fields; ++f) {
      schema.AddColumn(shape_.field_bytes);
    }
    table_ = engine_->CreateTable(schema, falcon::IndexKind::kHash);

    std::vector<std::byte> row(shape_.row_bytes());
    Worker& loader = engine_->worker(0);
    for (uint64_t key = 0; key < shape_.rows;) {
      Txn txn = loader.Begin();
      const uint64_t end = std::min<uint64_t>(key + kLoadRowsPerTxn, shape_.rows);
      for (; key < end; ++key) {
        FillYcsbRow(key, 0, shape_.row_bytes(), row.data());
        txn.Insert(table_, key, row.data());
      }
      if (txn.Commit() != Status::kOk) {
        std::fprintf(stderr, "ycsb: load transaction failed\n");
        std::exit(1);
      }
    }
    stamps_.assign(shape_.rows, 0);
    for (uint32_t w = 0; w < kWorkers; ++w) {
      plans_[w] = GenYcsbPlans(shape_, seed, w, plans_per_worker);
    }
    if (shape_.zipf) {
      zipf_ = std::make_unique<Zipf>(shape_.rows, shape_.theta);
    }
    frames_.clear();
    for (uint32_t i = 0; i < kBatchSize; ++i) {
      frames_.push_back(std::make_unique<YcsbFrame>(this, shape_.row_bytes()));
    }
    row_.resize(shape_.row_bytes());
  }

  uint64_t chunk() const override { return batched_ ? kChunk : 1; }

  uint64_t RunChunk(uint32_t worker, uint64_t first, uint64_t last,
                    const ResultSink& sink) override {
    if (!batched_) {
      return Workload::RunChunk(worker, first, last, sink);
    }
    Source source(this, worker, first, last, sink);
    const SpanCtx ctx = MakeCtx(worker, 0);
    Span s(ctx, kSpanRunBatch);
    return engine_->worker(worker).RunBatch(kBatchSize, source).elapsed_ns;
  }

  std::vector<Engine*> Engines() override { return {engine_.get()}; }

  uint64_t LiveUserBytes() const override {
    return static_cast<uint64_t>(shape_.rows) * shape_.row_bytes();
  }

  uint64_t Check(std::string* first) override {
    uint64_t violations = 0;
    std::vector<std::byte> got(shape_.row_bytes());
    std::vector<std::byte> want(shape_.row_bytes());
    Worker& worker = engine_->worker(0);
    for (uint64_t key = 0; key < shape_.rows;) {
      const uint64_t end = std::min<uint64_t>(key + kCheckRowsPerTxn, shape_.rows);
      Txn txn = worker.Begin(/*read_only=*/true);
      for (; key < end; ++key) {
        const Status s = txn.Read(table_, key, got.data());
        FillYcsbRow(key, stamps_[key], shape_.row_bytes(), want.data());
        if (s != Status::kOk || std::memcmp(got.data(), want.data(), got.size()) != 0) {
          if (violations++ == 0) {
            uint64_t stamp = 0;
            std::memcpy(&stamp, got.data(), sizeof(stamp));
            *first = "ycsb row " + std::to_string(key) + ": status " +
                     std::string(falcon::StatusString(s)) + ", stamp " + std::to_string(stamp) +
                     ", last acknowledged " + std::to_string(stamps_[key]);
          }
        }
      }
      txn.Commit();
    }
    return violations;
  }

  CrashResult CrashBurst(uint64_t seed, uint32_t cycle, uint64_t step, Rng& rng) override {
    (void)rng;
    CrashResult result;
    Rng plan_rng(StreamSeed(seed, kCrashStream, 1000 + cycle));
    engine_->ArmCrashAtStep(step);
    for (uint64_t n = 0; n < (1u << 22); ++n) {
      const uint32_t w = static_cast<uint32_t>(n % kWorkers);
      const auto key = static_cast<uint32_t>(zipf_ ? zipf_->Key(plan_rng)
                                                    : plan_rng.Below(shape_.rows));
      const bool update = plan_rng.Below(100) < shape_.update_pct;
      const uint64_t stamp = (static_cast<uint64_t>(0xC0 + cycle) << 40) | n;
      ++result.txns;
      try {
        RunTxn(w, stamp, key, update, stamp);
      } catch (const falcon::TxnCrashed& crashed) {
        result.fired = true;
        result.kind = crashed.kind;
        if (update && !falcon::CrashStepPrecedesCommit(crashed.kind)) {
          stamps_[key] = stamp;  // past the commit mark: recovery replays it
        }
        return result;
      }
    }
    engine_->DisarmCrash();
    return result;
  }

  void Reopen() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(device_.get(), Config(), kWorkers);
    table_ = engine_->FindTableId("usertable").value_or(falcon::kInvalidTable);
  }

  ProbeResult Probe(uint64_t seed, uint64_t count) override {
    Rng rng(StreamSeed(seed, kProbeStream, 0));
    std::vector<uint64_t> keys(count);
    for (uint64_t& k : keys) {
      k = rng.Below(shape_.rows);
    }
    return ProbeIndex(*engine_, table_, keys, tracer_);
  }

 protected:
  Outcome RunOne(uint32_t worker, uint64_t plan) override {
    const YcsbPlan& p = plans_[worker][plan];
    const uint64_t id = PlanId(worker, plan);
    return RunTxn(worker, id, p.key, p.update != 0, id);
  }

  SimClock Clock(uint32_t worker) override {
    SimClock c;
    c.a = &engine_->worker(worker).ctx().sim_ns_ref();
    return c;
  }

 private:
  friend class YcsbFrame;

  class Source final : public falcon::FrameSource {
   public:
    Source(Ycsb* ycsb, uint32_t worker, uint64_t first, uint64_t last, const ResultSink& sink)
        : ycsb_(ycsb), worker_(worker), next_(first), last_(last), sink_(sink),
          ctx_(ycsb->MakeCtx(worker, 0)) {
      for (auto& f : ycsb_->frames_) {
        free_.push_back(f.get());
      }
    }

    falcon::TxnFrame* Next(Worker& worker) override {
      (void)worker;
      if (next_ == last_ || free_.empty()) {
        return nullptr;
      }
      Span s(ctx_, kSpanSource);
      YcsbFrame* f = free_.back();
      free_.pop_back();
      const uint64_t plan = next_++;
      f->Reset(worker_, plan, ycsb_->MakeCtx(worker_, PlanId(worker_, plan)));
      f->host_start = NowNs();
      return f;
    }

    void Done(Worker& worker, falcon::TxnFrame* frame, uint64_t begin_ns,
              uint64_t end_ns) override {
      (void)worker;
      auto* f = static_cast<YcsbFrame*>(frame);
      TxnResult r;
      r.host_ns = NowNs() - f->host_start;
      Span s(ctx_, kSpanSource);
      r.outcome = f->outcome();
      r.sim_ns = end_ns - begin_ns;
      sink_(r);
      free_.push_back(f);
    }

   private:
    Ycsb* ycsb_;
    uint32_t worker_;
    uint64_t next_;
    uint64_t last_;
    const ResultSink& sink_;
    SpanCtx ctx_;
    std::vector<YcsbFrame*> free_;
  };

  falcon::EngineConfig Config() const {
    return batched_ ? FalconConfig(falcon::CcScheme::kMvOcc, kBatchSize)
                    : FalconConfig(falcon::CcScheme::kOcc, 1);
  }

  // One serial transaction of one operation, retried on abort.
  Outcome RunTxn(uint32_t w, uint64_t id, uint32_t key, bool update, uint64_t stamp) {
    Outcome o;
    o.type = update ? 1 : 0;
    const SpanCtx ctx = MakeCtx(w, id);
    Span txn_span(ctx, kSpanTxn);
    if (update) {
      FillYcsbRow(key, stamp, shape_.row_bytes(), row_.data());
    }
    Worker& worker = engine_->worker(w);
    while (o.attempts < kMaxAttempts) {
      ++o.attempts;
      Txn txn = BeginTxn(worker, ctx, !update);
      Traced<Txn> t(txn, ctx, *engine_);
      Status s = update ? t.UpdateFull(table_, key, row_.data()) : t.Read(table_, key, row_.data());
      if (s == Status::kOk) {
        s = t.Commit();
      }
      if (s == Status::kOk) {
        o.committed = true;
        o.bytes = t.bytes();
        if (update) {
          stamps_[key] = stamp;
        }
        return o;
      }
      if (s != Status::kAborted) {
        o.unexpected = true;
        t.Abort();
        return o;
      }
    }
    return o;
  }

  YcsbShape shape_;
  bool batched_;
  std::unique_ptr<NvmDevice> device_;
  std::unique_ptr<Engine> engine_;
  TableId table_ = falcon::kInvalidTable;
  std::vector<YcsbPlan> plans_[kWorkers];
  std::vector<uint64_t> stamps_;  // last acknowledged stamp per row
  std::unique_ptr<Zipf> zipf_;
  std::vector<std::unique_ptr<YcsbFrame>> frames_;
  std::vector<std::byte> row_;
};

void YcsbFrame::Reset(uint32_t worker, uint64_t plan, const SpanCtx& ctx) {
  ctx_ = ctx;
  plan_ = ycsb_->plans_[worker][plan];
  stamp_ = PlanId(worker, plan);
  outcome_ = Outcome{};
  outcome_.type = plan_.update;
  executed_ = false;
  if (plan_.update != 0) {
    FillYcsbRow(plan_.key, stamp_, static_cast<uint32_t>(row_.size()), row_.data());
  }
}

bool YcsbFrame::Retry() {
  if (has_txn()) {
    Traced<falcon::Txn> t(txn(), ctx_, *ycsb_->engine_);
    t.Abort();
    EndTxn();
  }
  executed_ = false;
  return outcome_.attempts >= kMaxAttempts;  // finished: gave up
}

bool YcsbFrame::Step(Worker& worker) {
  Span step(ctx_, kSpanStep);
  const bool update = plan_.update != 0;
  if (!executed_) {
    ++outcome_.attempts;
    {
      Span s(ctx_, kSpanBegin);
      BeginTxn(worker, !update);
    }
    Traced<falcon::Txn> t(txn(), ctx_, *ycsb_->engine_);
    const Status s = update ? t.UpdateFull(ycsb_->table_, plan_.key, row_.data())
                            : t.Read(ycsb_->table_, plan_.key, row_.data());
    if (s == Status::kAborted) {
      return Retry();
    }
    if (s != Status::kOk) {
      outcome_.unexpected = true;
      Retry();
      return true;
    }
    bytes_ = t.bytes();
    executed_ = true;
    return false;  // yield between the operation and the commit
  }
  Traced<falcon::Txn> t(txn(), ctx_, *ycsb_->engine_);
  const Status s = t.Commit();
  if (s != Status::kOk) {
    return Retry();
  }
  EndTxn();
  outcome_.committed = true;
  outcome_.bytes = bytes_;
  if (update) {
    ycsb_->stamps_[plan_.key] = stamp_;
  }
  return true;
}

}  // namespace

std::unique_ptr<Workload> MakeYcsb(Tracer* tracer, bool zipf_batched) {
  return std::make_unique<Ycsb>(tracer, zipf_batched);
}

}  // namespace fbench
