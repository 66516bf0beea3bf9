// Seeded input generation for the benchmark workloads.
//
// Everything a workload feeds the engine comes from here and from nothing
// else: the random streams, the Zipf sampler and the per-transaction plans
// are defined in the benchmark itself, so no change to the engine's own
// helpers (src/common, src/workload) can change the benchmark's inputs. The
// same seed always gives bit-identical plans (checked by the self-test).

#ifndef BENCHMARK_SRC_GEN_H_
#define BENCHMARK_SRC_GEN_H_

#include <cstdint>
#include <vector>

namespace fbench {

// splitmix64 step, also used as a stateless 64-bit mixer.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }  // n > 0
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_[4];
};

// Independent stream per (seed, purpose, index): plans of worker w, loader,
// crash cycle c, index probe, ...
enum Stream : uint64_t {
  kPlanStream = 1,
  kLoadStream = 2,
  kCrashStream = 3,
  kProbeStream = 4,
};
uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t index);

// YCSB Zipfian sampler (Gray et al., SIGMOD '94) over ranks [0, n).
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Rank(Rng& rng) const;
  // Rank scattered over the key space so hot keys are not adjacent.
  uint64_t Key(Rng& rng) const { return Mix(Rank(rng)) % n_; }
  double zeta() const { return zetan_; }

 private:
  uint64_t n_;
  double zetan_, alpha_, eta_, half_pow_theta_;
};

// ---- YCSB -------------------------------------------------------------------

struct YcsbShape {
  uint32_t rows = 500000;
  uint32_t fields = 10;
  uint32_t field_bytes = 100;
  uint32_t update_pct = 50;
  bool zipf = false;
  double theta = 0.99;

  uint32_t row_bytes() const { return fields * field_bytes; }
};

struct YcsbPlan {
  uint32_t key;
  uint8_t update;  // 1: full-row update, 0: single-row read-only txn

  bool operator==(const YcsbPlan&) const = default;
};

std::vector<YcsbPlan> GenYcsbPlans(const YcsbShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count);

// Row image of `key` after the write stamped `stamp` (0 = the loaded row):
// word 0 is the stamp, the other words are derived from (key, stamp), so a
// reader can verify both which write it sees and that it is whole.
void FillYcsbRow(uint64_t key, uint64_t stamp, uint32_t row_bytes, void* row);

// ---- TPC-C ------------------------------------------------------------------

struct TpccShape {
  uint32_t warehouses = 4;
  uint32_t districts = 10;
  uint32_t customers = 1000;  // per district
  uint32_t items = 20000;
  uint32_t initial_orders = 100;  // per district
  uint32_t remote_stock_pct = 1;
  uint32_t remote_customer_pct = 15;
  uint32_t invalid_item_pct = 1;
};

enum TpccType : uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};
inline constexpr uint32_t kTpccTypes = 5;
inline constexpr const char* kTpccTypeNames[kTpccTypes] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};
inline constexpr uint32_t kMaxOrderLines = 15;

struct TpccLine {
  uint32_t item;  // shape.items + 1 marks the invalid item of a rollback
  uint8_t supply_w;
  uint8_t quantity;

  bool operator==(const TpccLine&) const = default;
};

// Every key a transaction touches, except delivery's order keys, which come
// from the oldest new_order row its scan returns. The home warehouse is the
// worker's (worker + 1).
struct TpccPlan {
  uint8_t type;
  uint8_t d;
  uint8_t c_w;  // payment: customer's warehouse/district (15% remote)
  uint8_t c_d;
  uint16_t c;
  uint8_t line_count;
  uint8_t rollback;   // new_order ends at an invalid item (scripted rollback)
  uint8_t carrier;    // delivery
  uint8_t threshold;  // stock_level
  uint32_t amount;    // payment, cents
  TpccLine lines[kMaxOrderLines];

  bool operator==(const TpccPlan&) const = default;
};

std::vector<TpccPlan> GenTpccPlans(const TpccShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count);

// ---- bank -------------------------------------------------------------------

struct BankShape {
  uint32_t accounts = 4096;
  uint32_t transfer_pct = 60;
};

struct BankPlan {
  uint16_t from;
  uint16_t to;  // == from for a balance read
  uint32_t amount;
  uint8_t transfer;

  bool operator==(const BankPlan&) const = default;
};

std::vector<BankPlan> GenBankPlans(const BankShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count);

}  // namespace fbench

#endif  // BENCHMARK_SRC_GEN_H_
