// Self-test of the benchmark's own machinery, with checks that stay on in
// every build type: exact percentile ranks, and the seeded generators (plans
// bit-identical from a seed, transaction-mix shares within +-1 point over
// 100,000 plans, the Zipf top-key share). Exits non-zero on any failure.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "benchmark/src/gen.h"
#include "benchmark/src/percentile.h"

namespace fbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

double P(std::vector<uint32_t> v, uint64_t per_mille) { return Percentile(v, per_mille); }

bool Near(double a, double b) { return a > b - 1e-9 && a < b + 1e-9; }

void TestPercentiles() {
  EXPECT(P({}, 500) == 0);
  EXPECT(Near(P({7}, 500), 7));
  EXPECT(Near(P({7}, 999), 7.499));
  EXPECT(Near(P({4, 1, 3, 2}, 500), 2.5));   // rank ceil(0.5 * 4) = 2: x = 2
  EXPECT(Near(P({4, 1, 3, 2}, 990), 4.46));  // rank ceil(3.96) = 4: x = 4
  EXPECT(Near(P({7, 3, 1, 6, 2, 5, 4}, 500), 4));
  EXPECT(Near(P({7, 3, 1, 6, 2, 5, 4}, 1), 0.507));
  EXPECT(Near(P({9, 9, 9}, 500), 9));
  // Ties: the value stays put while its share moves the result inside it.
  EXPECT(Near(P({5, 6, 5, 5, 6, 5}, 500), 5.25));
  EXPECT(Near(P({6, 5, 6, 6, 5, 6}, 500), 5.75));
  std::vector<uint32_t> ten(10);
  std::iota(ten.begin(), ten.end(), 1);
  std::reverse(ten.begin(), ten.end());
  EXPECT(Near(P(ten, 500), 5.5));
  EXPECT(Near(P(ten, 990), 10.4));
  EXPECT(Near(P(ten, 1000), 10.5));
  std::vector<uint32_t> thousand(1000);
  std::iota(thousand.begin(), thousand.end(), 1);
  std::rotate(thousand.begin(), thousand.begin() + 377, thousand.end());
  EXPECT(Near(P(thousand, 500), 500.5));
  EXPECT(Near(P(thousand, 990), 990.5));
  EXPECT(Near(P(thousand, 999), 999.5));
  std::vector<uint32_t> big(100001);
  std::iota(big.begin(), big.end(), 0);
  EXPECT(Near(P(big, 999), 99900.499));  // rank ceil(99900.999) = 99901: x = 99900
}

template <typename Plan>
bool Same(const std::vector<Plan>& a, const std::vector<Plan>& b) {
  return a == b;
}

bool Within(uint64_t hits, uint64_t n, double pct) {
  const double share = 100.0 * static_cast<double>(hits) / static_cast<double>(n);
  return share > pct - 1.0 && share < pct + 1.0;
}

constexpr uint64_t kPlans = 100000;

void TestYcsb() {
  YcsbShape a;  // YCSB-A: uniform, 50% updates
  EXPECT(Same(GenYcsbPlans(a, 42, 1, 1000), GenYcsbPlans(a, 42, 1, 1000)));
  EXPECT(!Same(GenYcsbPlans(a, 42, 1, 1000), GenYcsbPlans(a, 43, 1, 1000)));
  EXPECT(!Same(GenYcsbPlans(a, 42, 1, 1000), GenYcsbPlans(a, 42, 2, 1000)));
  uint64_t updates = 0;
  for (const YcsbPlan& p : GenYcsbPlans(a, 7, 0, kPlans)) {
    updates += p.update;
    EXPECT(p.key < a.rows);
  }
  EXPECT(Within(updates, kPlans, 50));

  YcsbShape b;  // YCSB-B: Zipf 0.99, 5% updates
  b.zipf = true;
  b.update_pct = 5;
  const std::vector<YcsbPlan> plans = GenYcsbPlans(b, 7, 0, kPlans);
  EXPECT(Same(plans, GenYcsbPlans(b, 7, 0, kPlans)));
  updates = 0;
  for (const YcsbPlan& p : plans) {
    updates += p.update;
  }
  EXPECT(Within(updates, kPlans, 5));

  // Top key: its share of draws must match 1 / zeta(n, theta) within 10%.
  const Zipf zipf(b.rows, b.theta);
  Rng rng(11);
  uint64_t top = 0;
  constexpr uint64_t kDraws = 400000;
  for (uint64_t i = 0; i < kDraws; ++i) {
    top += zipf.Rank(rng) == 0 ? 1 : 0;
  }
  const double share = static_cast<double>(top) / kDraws;
  const double want = 1.0 / zipf.zeta();
  EXPECT(share > want * 0.9 && share < want * 1.1);
  std::fprintf(stderr, "zipf top-key share %.4f (expected %.4f)\n", share, want);

  unsigned char row[1000];
  unsigned char again[1000];
  FillYcsbRow(5, 77, sizeof(row), row);
  FillYcsbRow(5, 77, sizeof(again), again);
  uint64_t stamp = 0;
  std::memcpy(&stamp, row, sizeof(stamp));
  EXPECT(stamp == 77);
  EXPECT(std::memcmp(row, again, sizeof(row)) == 0);
  FillYcsbRow(6, 77, sizeof(again), again);
  EXPECT(std::memcmp(row + 8, again + 8, sizeof(row) - 8) != 0);
}

void TestTpcc() {
  const TpccShape shape;
  EXPECT(Same(GenTpccPlans(shape, 3, 2, 1000), GenTpccPlans(shape, 3, 2, 1000)));
  EXPECT(!Same(GenTpccPlans(shape, 3, 2, 1000), GenTpccPlans(shape, 4, 2, 1000)));
  uint64_t types[kTpccTypes] = {};
  uint64_t rollbacks = 0;
  uint64_t remote_payments = 0;
  for (const TpccPlan& p : GenTpccPlans(shape, 3, 2, kPlans)) {
    ++types[p.type];
    if (p.type == kNewOrder) {
      rollbacks += p.rollback;
      EXPECT(p.line_count >= 5 && p.line_count <= kMaxOrderLines);
      for (uint32_t l = 0; l + 1 < p.line_count; ++l) {
        EXPECT(p.lines[l].item >= 1 && p.lines[l].item <= shape.items);
      }
    }
    if (p.type == kPayment) {
      remote_payments += p.c_w != 3 ? 1 : 0;
      EXPECT(p.c >= 1 && p.c <= shape.customers);
    }
  }
  const double mix[kTpccTypes] = {45, 43, 4, 4, 4};
  for (uint32_t t = 0; t < kTpccTypes; ++t) {
    EXPECT(Within(types[t], kPlans, mix[t]));
  }
  EXPECT(Within(rollbacks, types[kNewOrder], 1));
  EXPECT(Within(remote_payments, types[kPayment], 15));
}

void TestBank() {
  const BankShape shape;
  EXPECT(Same(GenBankPlans(shape, 9, 0, 1000), GenBankPlans(shape, 9, 0, 1000)));
  EXPECT(!Same(GenBankPlans(shape, 9, 0, 1000), GenBankPlans(shape, 9, 1, 1000)));
  uint64_t transfers = 0;
  for (const BankPlan& p : GenBankPlans(shape, 9, 0, kPlans)) {
    transfers += p.transfer;
    EXPECT(p.from < shape.accounts && p.to < shape.accounts);
    EXPECT((p.transfer != 0) == (p.from != p.to));
  }
  EXPECT(Within(transfers, kPlans, 60));
}

}  // namespace
}  // namespace fbench

int main() {
  fbench::TestPercentiles();
  fbench::TestYcsb();
  fbench::TestTpcc();
  fbench::TestBank();
  if (fbench::failures != 0) {
    std::fprintf(stderr, "self-test: %d failure(s)\n", fbench::failures);
    return 1;
  }
  std::printf("self-test: all checks passed\n");
  return 0;
}
