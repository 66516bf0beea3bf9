// bank_2shard: a Database of 2 shards (4 sessions, OCC, serial) holding
// 4,096 accounts of 64 B, ~150 KB per shard, so each shard fits in a worker's
// 256 KiB simulated cache. 60% of the transactions transfer between two
// uniformly drawn accounts (drawn without consulting routing, so about half
// the transfers cross shards and commit with 2PC); the rest read one balance.
// Not 50/50: reads and transfers form two latency clusters, and with equal
// shares the median sits on the edge between them and jumps from seed to
// seed. Facade routing and 2PC dominate; the check is cross-shard atomicity:
// the total balance never changes.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/src/workload.h"
#include "src/storage/schema.h"

namespace fbench {

namespace {

using falcon::Database;
using falcon::DbTxn;
using falcon::Engine;
using falcon::NvmDevice;

struct Account {
  uint64_t balance;
  char pad[56];
};

constexpr uint32_t kShards = 2;
constexpr uint64_t kInitialBalance = 1000000000;
constexpr uint64_t kDeviceBytes = 64ull << 20;
constexpr uint64_t kRowsPerTxn = 64;

class Bank final : public Workload {
 public:
  explicit Bank(Tracer* tracer) : Workload(tracer) {}

  void Build(uint64_t seed, uint64_t plans_per_worker) override {
    db_.reset();
    devices_.clear();
    for (uint32_t s = 0; s < kShards; ++s) {
      devices_.push_back(std::make_unique<NvmDevice>(kDeviceBytes));
    }
    db_ = std::make_unique<Database>(Config(), RawDevices());
    falcon::SchemaBuilder schema("accounts");
    schema.AddColumn(8);
    schema.AddColumn(56);
    table_ = db_->CreateTable(schema, falcon::IndexKind::kHash);
    for (uint64_t key = 0; key < shape_.accounts;) {
      DbTxn txn = db_->Begin(0);
      for (const uint64_t end = std::min<uint64_t>(key + kRowsPerTxn, shape_.accounts); key < end;
           ++key) {
        const Account a{kInitialBalance, {}};
        txn.Insert(table_, key, &a);
      }
      if (txn.Commit() != Status::kOk) {
        std::fprintf(stderr, "bank: load transaction failed\n");
        std::exit(1);
      }
    }
    for (uint32_t w = 0; w < kWorkers; ++w) {
      plans_[w] = GenBankPlans(shape_, seed, w, plans_per_worker);
    }
  }

  std::vector<Engine*> Engines() override {
    std::vector<Engine*> out;
    for (uint32_t s = 0; s < kShards; ++s) {
      out.push_back(&db_->engine(s));
    }
    return out;
  }

  uint64_t LiveUserBytes() const override {
    return static_cast<uint64_t>(shape_.accounts) * sizeof(Account);
  }

  uint64_t Check(std::string* first) override {
    uint64_t total = 0;
    uint64_t unreadable = 0;
    for (uint64_t key = 0; key < shape_.accounts;) {
      DbTxn txn = db_->Begin(0, /*read_only=*/true);
      for (const uint64_t end = std::min<uint64_t>(key + kRowsPerTxn, shape_.accounts); key < end;
           ++key) {
        Account a{};
        if (txn.Read(table_, key, &a) != Status::kOk) {
          ++unreadable;
        }
        total += a.balance;
      }
      txn.Commit();
    }
    const uint64_t want = kInitialBalance * shape_.accounts;
    if (unreadable == 0 && total == want) {
      return 0;
    }
    *first = "bank: total balance " + std::to_string(total) + ", expected " +
             std::to_string(want) + " (" + std::to_string(unreadable) + " unreadable)";
    return 1;
  }

  CrashResult CrashBurst(uint64_t seed, uint32_t cycle, uint64_t step, Rng& rng) override {
    CrashResult result;
    const auto shard = static_cast<uint32_t>(rng.Below(kShards));
    constexpr uint64_t kBurst = 1 << 16;
    std::vector<BankPlan> plans[kWorkers];
    for (uint32_t w = 0; w < kWorkers; ++w) {
      plans[w] = GenBankPlans(shape_, StreamSeed(seed, kCrashStream, 1000 + cycle), w, kBurst);
    }
    db_->engine(shard).ArmCrashAtStep(step);
    for (uint64_t n = 0; n < kBurst * kWorkers; ++n) {
      const uint32_t w = static_cast<uint32_t>(n % kWorkers);
      ++result.txns;
      try {
        RunPlan(w, (static_cast<uint64_t>(0xC0 + cycle) << 40) | n, plans[w][n / kWorkers]);
      } catch (const falcon::TxnCrashed& crashed) {
        result.fired = true;
        result.kind = crashed.kind;
        return result;
      }
    }
    db_->engine(shard).DisarmCrash();
    return result;
  }

  void Reopen() override {
    db_.reset();
    db_ = std::make_unique<Database>(Config(), RawDevices());
    table_ = db_->FindTableId("accounts").value_or(falcon::kInvalidTable);
  }

  ProbeResult Probe(uint64_t seed, uint64_t count) override {
    Rng rng(StreamSeed(seed, kProbeStream, 0));
    std::vector<uint64_t> keys[kShards];
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t key = rng.Below(shape_.accounts);
      keys[db_->ShardOf(table_, key)].push_back(key);
    }
    ProbeResult r;
    for (uint32_t s = 0; s < kShards; ++s) {
      r = ProbeIndex(db_->engine(s), table_, keys[s], tracer_, r);
    }
    return r;
  }

 protected:
  Outcome RunOne(uint32_t worker, uint64_t plan) override {
    return RunPlan(worker, PlanId(worker, plan), plans_[worker][plan]);
  }

  SimClock Clock(uint32_t worker) override {
    SimClock c;
    c.a = &db_->engine(0).worker(worker).ctx().sim_ns_ref();
    c.b = &db_->engine(1).worker(worker).ctx().sim_ns_ref();
    return c;
  }

 private:
  falcon::DatabaseConfig Config() const {
    falcon::DatabaseConfig config;
    config.engine = FalconConfig(falcon::CcScheme::kOcc, 1);
    config.shards = kShards;
    config.sessions = kWorkers;
    return config;
  }

  std::vector<NvmDevice*> RawDevices() const {
    std::vector<NvmDevice*> raw;
    for (const auto& d : devices_) {
      raw.push_back(d.get());
    }
    return raw;
  }

  Outcome RunPlan(uint32_t session, uint64_t id, const BankPlan& p) {
    Outcome o;
    o.type = p.transfer;
    const SpanCtx ctx = MakeCtx(session, id);
    Span txn_span(ctx, kSpanTxn);
    const bool cross = db_->ShardOf(table_, p.from) != db_->ShardOf(table_, p.to);
    while (o.attempts < kMaxAttempts) {
      ++o.attempts;
      DbTxn txn = BeginDbTxn(*db_, session, ctx, p.transfer == 0);
      Traced<DbTxn> t(txn, ctx, db_->engine(0));
      Status s;
      try {
        Account from{};
        s = t.Read(table_, p.from, &from);
        if (s == Status::kOk && p.transfer != 0) {
          Account to{};
          s = t.Read(table_, p.to, &to);
          from.balance -= p.amount;
          to.balance += p.amount;
          if (s == Status::kOk) {
            s = t.UpdateColumn(table_, p.from, 0, &from.balance);
          }
          if (s == Status::kOk) {
            s = t.UpdateColumn(table_, p.to, 0, &to.balance);
          }
        }
        if (s == Status::kOk) {
          s = t.Commit(cross && p.transfer != 0 ? kSpanCommit2pc : kSpanCommit);
        }
      } catch (const falcon::TxnCrashed&) {
        txn.Freeze();  // power failure: no branch may roll back afterwards
        throw;
      }
      if (s == Status::kOk) {
        o.committed = true;
        o.bytes = t.bytes();
        return o;
      }
      if (s != Status::kAborted) {
        o.unexpected = true;
        t.Abort();
        return o;
      }
      t.Abort();
    }
    return o;
  }

  BankShape shape_;
  std::vector<std::unique_ptr<NvmDevice>> devices_;
  std::unique_ptr<Database> db_;
  TableId table_ = falcon::kInvalidTable;
  std::vector<BankPlan> plans_[kWorkers];
};

}  // namespace

std::unique_ptr<Workload> MakeBank(Tracer* tracer) { return std::make_unique<Bank>(tracer); }

}  // namespace fbench
