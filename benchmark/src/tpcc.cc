// TPC-C: 4 warehouses (one home warehouse per worker), 10 districts x 1,000
// customers, 20,000 items, 100 initial orders per district; the full
// 45/43/4/4/4 mix on OCC, serial. Hash tables, plus B-trees for orders,
// new_order and order_line. The only workload with inserts, deletes, range
// scans and B-trees; hot district rows exercise selective flush (D2), and a
// new_order's ~30-entry write set fills a log-window slot.
//
// Simplification: customers are selected by id only, and each customer row
// carries the id of its last order so order_status needs no secondary index.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/src/workload.h"
#include "src/storage/schema.h"

namespace fbench {

namespace {

using falcon::Engine;
using falcon::NvmDevice;
using falcon::Txn;
using falcon::Worker;

// Row images, laid out exactly as the schemas below declare their columns.
struct WarehouseRow {
  uint64_t tax, ytd;
  char pad[80];
};
struct DistrictRow {
  uint64_t tax, ytd, next_o_id;
  char pad[72];
};
struct CustomerRow {
  uint64_t balance;  // two's-complement cents
  uint64_t ytd_payment, payment_cnt, delivery_cnt, last_order;
  char data[460];
};
struct HistoryRow {
  uint64_t amount, w, d, c;
  char data[24];
};
struct OrderRow {
  uint64_t c, entry, carrier, line_count, all_local;
};
struct NewOrderRow {
  uint64_t o;
};
struct OrderLineRow {
  uint64_t item, supply_w, delivery_d, quantity, amount;
  char dist_info[24];
};
struct ItemRow {
  uint64_t price;
  char name[24];
  char data[48];
};
struct StockRow {
  uint64_t quantity, ytd, order_cnt, remote_cnt;
  char data[48];
};

enum CustomerCol : uint32_t { kCBalance = 0, kCDeliveryCnt = 3, kCLastOrder = 4 };
enum OrderCol : uint32_t { kOCarrier = 2 };
enum OrderLineCol : uint32_t { kOlDeliveryD = 2 };
enum DistrictCol : uint32_t { kDNextOid = 2 };

constexpr uint64_t kInitialDistrictYtd = 3000000;  // cents; warehouse = sum
constexpr uint64_t kLoadRowsPerTxn = 64;
constexpr uint64_t kOrderMask = (1ull << 24) - 1;

uint64_t DistrictKey(uint64_t w, uint64_t d) { return (w << 4) | d; }
uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) { return (DistrictKey(w, d) << 12) | c; }
uint64_t OrderKey(uint64_t w, uint64_t d, uint64_t o) { return (DistrictKey(w, d) << 24) | o; }
uint64_t OrderLineKey(uint64_t w, uint64_t d, uint64_t o, uint64_t ol) {
  return (OrderKey(w, d, o) << 4) | ol;
}
uint64_t StockKey(uint64_t w, uint64_t i) { return (w << 20) | i; }

enum Table : uint32_t {
  kWarehouseTable,
  kDistrictTable,
  kCustomerTable,
  kHistoryTable,
  kOrdersTable,
  kNewOrderTable,
  kOrderLineTable,
  kItemTable,
  kStockTable,
  kTableCount
};
constexpr const char* kTableNames[kTableCount] = {"warehouse", "district",   "customer",
                                              "history",   "orders",     "new_order",
                                              "order_line", "item",      "stock"};

// Statuses an operation may return: kOk, kAborted (retry) or a status the
// plan rules out.
enum class Step { kOk, kRetry, kScripted, kUnexpected };

Step Classify(Status s) {
  return s == Status::kOk ? Step::kOk : s == Status::kAborted ? Step::kRetry : Step::kUnexpected;
}

#define TPCC_STEP(expr)                 \
  do {                                  \
    const Step _st = Classify(expr);    \
    if (_st != Step::kOk) return _st;   \
  } while (0)

class Tpcc final : public Workload {
 public:
  explicit Tpcc(Tracer* tracer) : Workload(tracer) {}

  void Build(uint64_t seed, uint64_t plans_per_worker) override {
    engine_.reset();
    device_.reset();
    device_ = std::make_unique<NvmDevice>((512ull << 20) + plans_per_worker * kWorkers * 2048);
    engine_ = std::make_unique<Engine>(device_.get(), Config(), kWorkers);
    CreateTables();
    Load(seed);
    for (uint32_t w = 0; w < kWorkers; ++w) {
      plans_[w] = GenTpccPlans(shape_, seed, w, plans_per_worker);
    }
  }

  std::vector<Engine*> Engines() override { return {engine_.get()}; }

  uint64_t LiveUserBytes() const override {
    uint64_t bytes = 0;
    for (uint32_t t = 0; t < kTableCount; ++t) {
      bytes += rows_[t] * engine_->TupleDataSize(tables_[t]);
    }
    return bytes;
  }

  // TPC-C consistency conditions 1-3 (clause 3.3.2.1-3).
  uint64_t Check(std::string* first) override {
    uint64_t violations = 0;
    const auto fail = [&](const std::string& what) {
      if (violations++ == 0) {
        *first = what;
      }
    };
    Worker& worker = engine_->worker(0);
    for (uint64_t w = 1; w <= shape_.warehouses; ++w) {
      Txn txn = worker.Begin(/*read_only=*/true);
      WarehouseRow wh{};
      if (txn.Read(tables_[kWarehouseTable], w, &wh) != Status::kOk) {
        fail("warehouse " + std::to_string(w) + " unreadable");
        continue;
      }
      uint64_t district_ytd = 0;
      for (uint64_t d = 1; d <= shape_.districts; ++d) {
        DistrictRow dr{};
        if (txn.Read(tables_[kDistrictTable], DistrictKey(w, d), &dr) != Status::kOk) {
          fail("district unreadable");
          continue;
        }
        district_ytd += dr.ytd;
        const std::string where = " (w=" + std::to_string(w) + " d=" + std::to_string(d) + ")";
        const uint64_t last = dr.next_o_id - 1;
        std::vector<uint64_t> orders;
        txn.Scan(tables_[kOrdersTable], OrderKey(w, d, last), OrderKey(w, d, kOrderMask), 4,
                 [&](uint64_t key, const std::byte*) { orders.push_back(key & kOrderMask); });
        if (orders.size() != 1 || orders[0] != last) {
          fail("condition 2: max(O_ID) != D_NEXT_O_ID - 1" + where);
        }
        uint64_t count = 0, lo = UINT64_MAX, hi = 0;
        txn.Scan(tables_[kNewOrderTable], OrderKey(w, d, 0), OrderKey(w, d, kOrderMask), SIZE_MAX,
                 [&](uint64_t key, const std::byte*) {
                   ++count;
                   lo = std::min(lo, key & kOrderMask);
                   hi = std::max(hi, key & kOrderMask);
                 });
        if (count > 0 && hi != last) {
          fail("condition 2: max(NO_O_ID) != D_NEXT_O_ID - 1" + where);
        }
        if (count > 0 && hi - lo + 1 != count) {
          fail("condition 3: new_order ids not contiguous" + where);
        }
      }
      if (wh.ytd != district_ytd) {
        fail("condition 1: W_YTD != sum(D_YTD) (w=" + std::to_string(w) + ")");
      }
      txn.Commit();
    }
    return violations;
  }

  CrashResult CrashBurst(uint64_t seed, uint32_t cycle, uint64_t step, Rng& rng) override {
    (void)rng;
    CrashResult result;
    constexpr uint64_t kBurst = 8192;
    std::vector<TpccPlan> plans[kWorkers];
    for (uint32_t w = 0; w < kWorkers; ++w) {
      plans[w] = GenTpccPlans(shape_, StreamSeed(seed, kCrashStream, 1000 + cycle), w, kBurst);
    }
    engine_->ArmCrashAtStep(step);
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
    engine_->DisarmCrash();
    return result;
  }

  void Reopen() override {
    engine_.reset();
    engine_ = std::make_unique<Engine>(device_.get(), Config(), kWorkers);
    for (uint32_t t = 0; t < kTableCount; ++t) {
      tables_[t] = engine_->FindTableId(kTableNames[t]).value_or(falcon::kInvalidTable);
    }
  }

  ProbeResult Probe(uint64_t seed, uint64_t count) override {
    Rng rng(StreamSeed(seed, kProbeStream, 0));
    std::vector<uint64_t> keys(count);
    for (uint64_t& k : keys) {
      k = StockKey(rng.Range(1, shape_.warehouses), rng.Range(1, shape_.items));
    }
    ProbeResult r = ProbeIndex(*engine_, tables_[kStockTable], keys, tracer_);
    // B-tree range scans: the order lines of 20 consecutive orders of a district.
    const falcon::EngineConfig& config = engine_->config();
    falcon::ThreadContext ctx(0, engine_->device(), config.cache_geometry, config.cost_params);
    SpanCtx span_ctx;
    span_ctx.tracer = tracer_;
    span_ctx.clock.a = &ctx.sim_ns_ref();
    std::vector<falcon::IndexEntry> out;
    falcon::Index& index = engine_->table_index(tables_[kOrderLineTable]);
    for (uint64_t i = 0; i < count / 10; ++i) {
      const uint64_t w = rng.Range(1, shape_.warehouses);
      const uint64_t d = rng.Range(1, shape_.districts);
      const uint64_t o = rng.Range(1, shape_.initial_orders);
      out.clear();
      Span s(span_ctx, kSpanProbeScan);
      index.Scan(ctx, OrderLineKey(w, d, o, 0), OrderLineKey(w, d, o + 19, 15), 300, out);
    }
    return r;
  }

 protected:
  Outcome RunOne(uint32_t worker, uint64_t plan) override {
    return RunPlan(worker, PlanId(worker, plan), plans_[worker][plan]);
  }

  SimClock Clock(uint32_t worker) override {
    SimClock c;
    c.a = &engine_->worker(worker).ctx().sim_ns_ref();
    return c;
  }

 private:
  static falcon::EngineConfig Config() { return FalconConfig(falcon::CcScheme::kOcc, 1); }

  void CreateTables() {
    const auto make = [&](Table t, std::initializer_list<uint32_t> columns,
                          falcon::IndexKind kind) {
      falcon::SchemaBuilder schema(kTableNames[t]);
      for (const uint32_t size : columns) {
        schema.AddColumn(size);
      }
      tables_[t] = engine_->CreateTable(schema, kind);
    };
    const auto hash = falcon::IndexKind::kHash;
    const auto btree = falcon::IndexKind::kBTree;
    make(kWarehouseTable, {8, 8, 80}, hash);
    make(kDistrictTable, {8, 8, 8, 72}, hash);
    make(kCustomerTable, {8, 8, 8, 8, 8, 460}, hash);
    make(kHistoryTable, {8, 8, 8, 8, 24}, hash);
    make(kOrdersTable, {8, 8, 8, 8, 8}, btree);
    make(kNewOrderTable, {8}, btree);
    make(kOrderLineTable, {8, 8, 8, 8, 8, 24}, btree);
    make(kItemTable, {8, 24, 48}, hash);
    make(kStockTable, {8, 8, 8, 8, 48}, hash);
  }

  // Bulk load on worker 0, many rows per transaction.
  class Loader {
   public:
    explicit Loader(Tpcc* tpcc) : tpcc_(tpcc) {}
    ~Loader() { Flush(); }
    template <typename Row>
    void Add(Table t, uint64_t key, const Row& row) {
      if (txn_ == nullptr) {
        txn_.reset(new Txn(tpcc_->engine_->worker(0).Begin()));
      }
      if (txn_->Insert(tpcc_->tables_[t], key, &row) != Status::kOk) {
        Die();
      }
      ++tpcc_->rows_[t];
      if (++pending_ == kLoadRowsPerTxn) {
        Flush();
      }
    }
    void Flush() {
      if (txn_ != nullptr && txn_->Commit() != Status::kOk) {
        Die();
      }
      txn_.reset();
      pending_ = 0;
    }

   private:
    [[noreturn]] static void Die() {
      std::fprintf(stderr, "tpcc: load transaction failed\n");
      std::exit(1);
    }
    Tpcc* tpcc_;
    std::unique_ptr<Txn> txn_;
    uint64_t pending_ = 0;
  };

  uint64_t& Cursor(uint64_t w, uint64_t d) { return cursors_[w * (shape_.districts + 1) + d]; }

  void Load(uint64_t seed) {
    std::fill(std::begin(rows_), std::end(rows_), 0);
    // The first 70% of the initial orders are loaded as delivered.
    const uint64_t first_undelivered = shape_.initial_orders * 7 / 10 + 1;
    cursors_.assign((shape_.warehouses + 1) * (shape_.districts + 1), first_undelivered);
    Rng rng(StreamSeed(seed, kLoadStream, 0));
    Loader load(this);
    for (uint64_t i = 1; i <= shape_.items; ++i) {
      ItemRow row{};
      row.price = rng.Range(100, 10000);
      load.Add(kItemTable, i, row);
    }
    for (uint64_t w = 1; w <= shape_.warehouses; ++w) {
      WarehouseRow wh{};
      wh.tax = rng.Below(2000);
      wh.ytd = kInitialDistrictYtd * shape_.districts;
      load.Add(kWarehouseTable, w, wh);
      for (uint64_t i = 1; i <= shape_.items; ++i) {
        StockRow row{};
        row.quantity = rng.Range(10, 100);
        load.Add(kStockTable, StockKey(w, i), row);
      }
      for (uint64_t d = 1; d <= shape_.districts; ++d) {
        DistrictRow dr{};
        dr.tax = rng.Below(2000);
        dr.ytd = kInitialDistrictYtd;
        dr.next_o_id = shape_.initial_orders + 1;
        load.Add(kDistrictTable, DistrictKey(w, d), dr);
        std::vector<uint64_t> last_order(shape_.customers + 1, 0);
        std::vector<OrderRow> orders(shape_.initial_orders + 1);
        for (uint64_t o = 1; o <= shape_.initial_orders; ++o) {
          OrderRow& order = orders[o];
          order.c = rng.Range(1, shape_.customers);
          order.entry = o;
          order.line_count = rng.Range(5, kMaxOrderLines);
          order.all_local = 1;
          const bool delivered = o < first_undelivered;
          order.carrier = delivered ? rng.Range(1, 10) : 0;
          last_order[order.c] = o;
        }
        for (uint64_t c = 1; c <= shape_.customers; ++c) {
          CustomerRow cr{};
          cr.balance = static_cast<uint64_t>(-1000);
          cr.ytd_payment = 1000;
          cr.payment_cnt = 1;
          cr.last_order = last_order[c];
          load.Add(kCustomerTable, CustomerKey(w, d, c), cr);
        }
        for (uint64_t o = 1; o <= shape_.initial_orders; ++o) {
          const OrderRow& order = orders[o];
          load.Add(kOrdersTable, OrderKey(w, d, o), order);
          for (uint64_t ol = 1; ol <= order.line_count; ++ol) {
            OrderLineRow line{};
            line.item = rng.Range(1, shape_.items);
            line.supply_w = w;
            line.quantity = 5;
            line.delivery_d = order.carrier != 0 ? o : 0;
            line.amount = order.carrier != 0 ? 0 : rng.Range(1, 999999);
            load.Add(kOrderLineTable, OrderLineKey(w, d, o, ol), line);
          }
          if (order.carrier == 0) {
            load.Add(kNewOrderTable, OrderKey(w, d, o), NewOrderRow{o});
          }
        }
      }
    }
  }

  // Runs one plan to completion: retried on CC aborts, up to kMaxAttempts.
  Outcome RunPlan(uint32_t worker, uint64_t id, const TpccPlan& p) {
    Outcome o;
    o.type = p.type;
    const SpanCtx ctx = MakeCtx(worker, id);
    Span txn_span(ctx, kSpanTxn);
    Worker& wk = engine_->worker(worker);
    const uint64_t w = worker + 1;
    const bool read_only = p.type == kOrderStatus || p.type == kStockLevel;
    while (o.attempts < kMaxAttempts) {
      ++o.attempts;
      Txn txn = BeginTxn(wk, ctx, read_only);
      Traced<Txn> t(txn, ctx, *engine_);
      uint64_t delivered = 0;
      Step st = Step::kUnexpected;
      std::fill(std::begin(delivered_to_), std::end(delivered_to_), 0);
      switch (p.type) {
        case kNewOrder: st = NewOrder(t, w, p); break;
        case kPayment: st = Payment(t, w, id, p); break;
        case kOrderStatus: st = OrderStatus(t, w, p); break;
        case kDelivery: st = Delivery(t, w, p, &delivered); break;
        case kStockLevel: st = StockLevel(t, w, p); break;
      }
      if (st == Step::kOk) {
        st = Classify(t.Commit());
      }
      switch (st) {
        case Step::kOk:
          o.committed = true;
          o.bytes = t.bytes();
          Committed(worker, p, delivered);
          return o;
        case Step::kScripted:
          o.scripted = true;
          t.Abort();
          return o;
        case Step::kUnexpected:
          o.unexpected = true;
          t.Abort();
          return o;
        case Step::kRetry:
          break;  // the Txn destructor rolls back
      }
    }
    return o;
  }

  void Committed(uint32_t worker, const TpccPlan& p, uint64_t delivered) {
    switch (p.type) {
      case kNewOrder:
        ++rows_[kOrdersTable];
        ++rows_[kNewOrderTable];
        rows_[kOrderLineTable] += p.line_count;
        break;
      case kPayment:
        ++rows_[kHistoryTable];
        break;
      case kDelivery:
        rows_[kNewOrderTable] -= delivered;
        for (uint64_t d = 1; d <= shape_.districts; ++d) {
          if (delivered_to_[d] != 0) {
            Cursor(worker + 1, d) = delivered_to_[d] + 1;
          }
        }
        break;
      default:
        break;
    }
  }

  Step NewOrder(Traced<Txn>& t, uint64_t w, const TpccPlan& p) {
    const TableId* tb = tables_;
    const uint64_t dkey = DistrictKey(w, p.d);
    WarehouseRow wh;
    TPCC_STEP(t.Read(tb[kWarehouseTable], w, &wh));
    DistrictRow dr;
    TPCC_STEP(t.Read(tb[kDistrictTable], dkey, &dr));
    const uint64_t o = dr.next_o_id;
    const uint64_t next = o + 1;
    TPCC_STEP(t.UpdateColumn(tb[kDistrictTable], dkey, kDNextOid, &next));
    CustomerRow cr;
    TPCC_STEP(t.Read(tb[kCustomerTable], CustomerKey(w, p.d, p.c), &cr));

    // Every item is read before anything is inserted, so the planned invalid
    // item rolls back no fresh insert: an aborted fresh insert leaves a
    // born-locked tombstone at the head of its worker's deleted list, which
    // TupleHeap::TryReclaim treats as held, blocking reclamation in that heap.
    ItemRow items[kMaxOrderLines];
    bool all_local = true;
    for (uint32_t l = 0; l < p.line_count; ++l) {
      const Status is = t.Read(tb[kItemTable], p.lines[l].item, &items[l]);
      if (is == Status::kNotFound && p.rollback != 0 && l + 1 == p.line_count) {
        return Step::kScripted;  // the planned invalid item: roll back
      }
      TPCC_STEP(is);
      all_local = all_local && p.lines[l].supply_w == w;
    }
    const OrderRow order{p.c, o, 0, p.line_count, all_local ? 1u : 0u};
    TPCC_STEP(t.Insert(tb[kOrdersTable], OrderKey(w, p.d, o), &order));
    const NewOrderRow no{o};
    TPCC_STEP(t.Insert(tb[kNewOrderTable], OrderKey(w, p.d, o), &no));

    for (uint32_t l = 0; l < p.line_count; ++l) {
      const TpccLine& line = p.lines[l];
      const uint64_t skey = StockKey(line.supply_w, line.item);
      StockRow stock;
      TPCC_STEP(t.Read(tb[kStockTable], skey, &stock));
      stock.quantity = stock.quantity >= line.quantity + 10u ? stock.quantity - line.quantity
                                                              : stock.quantity + 91 - line.quantity;
      stock.ytd += line.quantity;
      ++stock.order_cnt;
      stock.remote_cnt += line.supply_w != w ? 1 : 0;
      TPCC_STEP(t.UpdatePartial(tb[kStockTable], skey, 0, 4 * sizeof(uint64_t), &stock));
      OrderLineRow ol{};
      ol.item = line.item;
      ol.supply_w = line.supply_w;
      ol.quantity = line.quantity;
      ol.amount = line.quantity * items[l].price;
      std::memcpy(ol.dist_info, stock.data, sizeof(ol.dist_info));
      TPCC_STEP(t.Insert(tb[kOrderLineTable], OrderLineKey(w, p.d, o, l + 1), &ol));
    }
    TPCC_STEP(t.UpdateColumn(tb[kCustomerTable], CustomerKey(w, p.d, p.c), kCLastOrder, &o));
    return Step::kOk;
  }

  Step Payment(Traced<Txn>& t, uint64_t w, uint64_t id, const TpccPlan& p) {
    const TableId* tb = tables_;
    WarehouseRow wh;
    TPCC_STEP(t.Read(tb[kWarehouseTable], w, &wh));
    wh.ytd += p.amount;
    TPCC_STEP(t.UpdatePartial(tb[kWarehouseTable], w, 0, 2 * sizeof(uint64_t), &wh));
    const uint64_t dkey = DistrictKey(w, p.d);
    DistrictRow dr;
    TPCC_STEP(t.Read(tb[kDistrictTable], dkey, &dr));
    dr.ytd += p.amount;
    TPCC_STEP(t.UpdatePartial(tb[kDistrictTable], dkey, 0, 2 * sizeof(uint64_t), &dr));
    const uint64_t ckey = CustomerKey(p.c_w, p.c_d, p.c);
    CustomerRow cr;
    TPCC_STEP(t.Read(tb[kCustomerTable], ckey, &cr));
    cr.balance -= p.amount;
    cr.ytd_payment += p.amount;
    ++cr.payment_cnt;
    TPCC_STEP(t.UpdatePartial(tb[kCustomerTable], ckey, 0, 3 * sizeof(uint64_t), &cr));
    const HistoryRow h{p.amount, w, p.d, p.c, {}};
    TPCC_STEP(t.Insert(tb[kHistoryTable], id, &h));
    return Step::kOk;
  }

  Step OrderStatus(Traced<Txn>& t, uint64_t w, const TpccPlan& p) {
    const TableId* tb = tables_;
    CustomerRow cr;
    TPCC_STEP(t.Read(tb[kCustomerTable], CustomerKey(w, p.d, p.c), &cr));
    if (cr.last_order == 0) {
      return Step::kOk;  // the customer has no order yet
    }
    OrderRow order;
    TPCC_STEP(t.Read(tb[kOrdersTable], OrderKey(w, p.d, cr.last_order), &order));
    uint64_t lines = 0;
    TPCC_STEP(t.Scan(tb[kOrderLineTable], OrderLineKey(w, p.d, cr.last_order, 0),
                     OrderLineKey(w, p.d, cr.last_order, 15), 16,
                     [&lines](uint64_t, const std::byte*) { ++lines; }));
    return lines == order.line_count ? Step::kOk : Step::kUnexpected;
  }

  Step Delivery(Traced<Txn>& t, uint64_t w, const TpccPlan& p, uint64_t* delivered) {
    const TableId* tb = tables_;
    for (uint64_t d = 1; d <= shape_.districts; ++d) {
      // Oldest undelivered order: the first live key at or after the
      // district's delivery cursor. The cursor keeps the scan clear of the
      // emptied B-tree leaves that deliveries leave behind (BTreeIndex never
      // merges them). Deleted entries stay in the index until their slots are
      // reused, and a scan reads every entry up to its limit, so the limit
      // grows only while none is live.
      uint64_t& cursor = Cursor(w, d);
      uint64_t oldest = 0;
      for (size_t limit = 1; oldest == 0 && limit <= 4096; limit *= 8) {
        TPCC_STEP(t.Scan(tb[kNewOrderTable], OrderKey(w, d, cursor), OrderKey(w, d, kOrderMask),
                         limit, [&oldest](uint64_t key, const std::byte*) {
                           if (oldest == 0) {
                             oldest = key & kOrderMask;
                           }
                         }));
      }
      if (oldest == 0) {
        continue;  // the district has no undelivered order (clause 2.7.4.2)
      }
      delivered_to_[d] = oldest;
      TPCC_STEP(t.Delete(tb[kNewOrderTable], OrderKey(w, d, oldest)));
      OrderRow order;
      TPCC_STEP(t.Read(tb[kOrdersTable], OrderKey(w, d, oldest), &order));
      const uint64_t carrier = p.carrier;
      TPCC_STEP(t.UpdateColumn(tb[kOrdersTable], OrderKey(w, d, oldest), kOCarrier, &carrier));
      uint64_t total = 0;
      uint64_t line_keys[kMaxOrderLines + 1];
      uint32_t n = 0;
      TPCC_STEP(t.Scan(tb[kOrderLineTable], OrderLineKey(w, d, oldest, 0),
                       OrderLineKey(w, d, oldest, 15), 16,
                       [&](uint64_t key, const std::byte* row) {
                         OrderLineRow line;
                         std::memcpy(&line, row, sizeof(line));
                         total += line.amount;
                         line_keys[n++] = key;
                       }));
      const uint64_t now = oldest;
      for (uint32_t i = 0; i < n; ++i) {
        TPCC_STEP(t.UpdateColumn(tb[kOrderLineTable], line_keys[i], kOlDeliveryD, &now));
      }
      const uint64_t ckey = CustomerKey(w, d, order.c);
      CustomerRow cr;
      TPCC_STEP(t.Read(tb[kCustomerTable], ckey, &cr));
      cr.balance += total;
      ++cr.delivery_cnt;
      TPCC_STEP(t.UpdateColumn(tb[kCustomerTable], ckey, kCBalance, &cr.balance));
      TPCC_STEP(t.UpdateColumn(tb[kCustomerTable], ckey, kCDeliveryCnt, &cr.delivery_cnt));
      ++*delivered;
    }
    return Step::kOk;
  }

  Step StockLevel(Traced<Txn>& t, uint64_t w, const TpccPlan& p) {
    const TableId* tb = tables_;
    uint64_t next = 0;
    TPCC_STEP(t.ReadColumn(tb[kDistrictTable], DistrictKey(w, p.d), kDNextOid, &next));
    const uint64_t from = next > 20 ? next - 20 : 1;
    items_.clear();
    TPCC_STEP(t.Scan(tb[kOrderLineTable], OrderLineKey(w, p.d, from, 0),
                     OrderLineKey(w, p.d, next - 1, 15), 20 * (kMaxOrderLines + 1),
                     [this](uint64_t, const std::byte* row) {
                       uint64_t item;
                       std::memcpy(&item, row, sizeof(item));
                       items_.push_back(item);
                     }));
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
    uint64_t low = 0;
    for (const uint64_t item : items_) {
      uint64_t quantity = 0;
      TPCC_STEP(t.ReadColumn(tb[kStockTable], StockKey(w, item), 0, &quantity));
      low += quantity < p.threshold ? 1 : 0;
    }
    return Step::kOk;
  }

  TpccShape shape_;
  std::unique_ptr<NvmDevice> device_;
  std::unique_ptr<Engine> engine_;
  TableId tables_[kTableCount] = {};
  uint64_t rows_[kTableCount] = {};  // live rows, for the space amplification
  std::vector<TpccPlan> plans_[kWorkers];
  std::vector<uint64_t> items_;
  // Per (warehouse, district): no order below it is undelivered. Advanced
  // only by committed deliveries, so it stays a lower bound across crashes.
  std::vector<uint64_t> cursors_;
  // The running delivery's order per district (keys hold 4 district bits).
  uint64_t delivered_to_[16] = {};
};

}  // namespace

std::unique_ptr<Workload> MakeTpcc(Tracer* tracer) { return std::make_unique<Tpcc>(tracer); }

}  // namespace fbench
