#include "benchmark/src/gen.h"

#include <cmath>
#include <cstring>

namespace fbench {

Rng::Rng(uint64_t seed) {
  for (uint64_t& word : s_) {
    seed = Mix(seed);
    word = seed;
  }
}

uint64_t Rng::Next() {
  const auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t index) {
  return Mix(Mix(seed ^ (static_cast<uint64_t>(stream) * 0xd6e8feb86659fd93ull)) ^
             (index * 0xa0761d6478bd642full));
}

Zipf::Zipf(uint64_t n, double theta) : n_(n) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  zetan_ = sum;
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  half_pow_theta_ = std::pow(0.5, theta);
}

uint64_t Zipf::Rank(Rng& rng) const {
  const double u = rng.Unit();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + half_pow_theta_) {
    return 1;
  }
  const auto rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                          std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

std::vector<YcsbPlan> GenYcsbPlans(const YcsbShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count) {
  Rng rng(StreamSeed(seed, kPlanStream, worker));
  std::vector<YcsbPlan> plans(count);
  if (shape.zipf) {
    const Zipf zipf(shape.rows, shape.theta);
    for (YcsbPlan& p : plans) {
      p.key = static_cast<uint32_t>(zipf.Key(rng));
      p.update = rng.Below(100) < shape.update_pct ? 1 : 0;
    }
  } else {
    for (YcsbPlan& p : plans) {
      p.key = static_cast<uint32_t>(rng.Below(shape.rows));
      p.update = rng.Below(100) < shape.update_pct ? 1 : 0;
    }
  }
  return plans;
}

void FillYcsbRow(uint64_t key, uint64_t stamp, uint32_t row_bytes, void* row) {
  auto* out = static_cast<unsigned char*>(row);
  std::memcpy(out, &stamp, sizeof(stamp));
  uint64_t acc = Mix(key ^ (stamp * 0x9e3779b97f4a7c15ull));
  for (uint32_t off = sizeof(stamp); off < row_bytes; off += sizeof(acc)) {
    acc = Mix(acc);
    const uint32_t n = row_bytes - off < sizeof(acc) ? row_bytes - off : sizeof(acc);
    std::memcpy(out + off, &acc, n);
  }
}

namespace {

// TPC-C non-uniform random (clause 2.1.6) with fixed run-time constants.
uint64_t NuRand(Rng& rng, uint64_t a, uint64_t c, uint64_t x, uint64_t y) {
  return (((rng.Range(0, a) | rng.Range(x, y)) + c) % (y - x + 1)) + x;
}

}  // namespace

std::vector<TpccPlan> GenTpccPlans(const TpccShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count) {
  Rng rng(StreamSeed(seed, kPlanStream, worker));
  const uint32_t home = worker + 1;
  const auto other_warehouse = [&]() {
    const auto w = static_cast<uint32_t>(rng.Range(1, shape.warehouses - 1));
    return static_cast<uint8_t>(w >= home ? w + 1 : w);
  };
  const auto customer = [&]() {
    return static_cast<uint16_t>(NuRand(rng, 1023, 259, 1, shape.customers));
  };
  std::vector<TpccPlan> plans(count);
  for (TpccPlan& p : plans) {
    const uint64_t roll = rng.Below(100);
    p.type = roll < 45   ? kNewOrder
             : roll < 88 ? kPayment
             : roll < 92 ? kOrderStatus
             : roll < 96 ? kDelivery
                         : kStockLevel;
    switch (p.type) {
      case kNewOrder:
        p.d = static_cast<uint8_t>(rng.Range(1, shape.districts));
        p.c = customer();
        p.line_count = static_cast<uint8_t>(rng.Range(5, kMaxOrderLines));
        for (uint32_t l = 0; l < p.line_count; ++l) {
          TpccLine& line = p.lines[l];
          line.item = static_cast<uint32_t>(NuRand(rng, 8191, 7911, 1, shape.items));
          line.supply_w = static_cast<uint8_t>(home);
          if (shape.warehouses > 1 && rng.Below(100) < shape.remote_stock_pct) {
            line.supply_w = other_warehouse();
          }
          line.quantity = static_cast<uint8_t>(rng.Range(1, 10));
        }
        if (rng.Below(100) < shape.invalid_item_pct) {
          p.rollback = 1;
          p.lines[p.line_count - 1].item = shape.items + 1;
        }
        break;
      case kPayment:
        p.d = static_cast<uint8_t>(rng.Range(1, shape.districts));
        p.c_w = static_cast<uint8_t>(home);
        p.c_d = p.d;
        if (shape.warehouses > 1 && rng.Below(100) < shape.remote_customer_pct) {
          p.c_w = other_warehouse();
          p.c_d = static_cast<uint8_t>(rng.Range(1, shape.districts));
        }
        p.c = customer();
        p.amount = static_cast<uint32_t>(rng.Range(100, 500000));
        break;
      case kOrderStatus:
        p.d = static_cast<uint8_t>(rng.Range(1, shape.districts));
        p.c = customer();
        break;
      case kDelivery:
        p.carrier = static_cast<uint8_t>(rng.Range(1, 10));
        break;
      case kStockLevel:
        p.d = static_cast<uint8_t>(rng.Range(1, shape.districts));
        p.threshold = static_cast<uint8_t>(rng.Range(10, 20));
        break;
    }
  }
  return plans;
}

std::vector<BankPlan> GenBankPlans(const BankShape& shape, uint64_t seed, uint32_t worker,
                                   uint64_t count) {
  Rng rng(StreamSeed(seed, kPlanStream, worker));
  std::vector<BankPlan> plans(count);
  for (BankPlan& p : plans) {
    p.from = static_cast<uint16_t>(rng.Below(shape.accounts));
    p.transfer = rng.Below(100) < shape.transfer_pct ? 1 : 0;
    p.to = p.from;
    p.amount = 0;
    if (p.transfer != 0) {
      // Drawn without consulting routing: about half the pairs cross shards.
      const auto to = static_cast<uint16_t>(rng.Below(shape.accounts - 1));
      p.to = to >= p.from ? static_cast<uint16_t>(to + 1) : to;
      p.amount = static_cast<uint32_t>(rng.Range(1, 1000));
    }
  }
  return plans;
}

}  // namespace fbench
