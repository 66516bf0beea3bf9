#include "benchmark/src/workload.h"

namespace fbench {

std::unique_ptr<Workload> MakeTpcc(Tracer* tracer);
std::unique_ptr<Workload> MakeYcsb(Tracer* tracer, bool zipf_batched);
std::unique_ptr<Workload> MakeBank(Tracer* tracer);

std::unique_ptr<Workload> MakeWorkload(std::string_view name, Tracer* tracer) {
  if (name == "tpcc") {
    return MakeTpcc(tracer);
  }
  if (name == "ycsb_b_zipf_b8") {
    return MakeYcsb(tracer, /*zipf_batched=*/true);
  }
  if (name == "ycsb_a_uniform") {
    return MakeYcsb(tracer, /*zipf_batched=*/false);
  }
  if (name == "bank_2shard") {
    return MakeBank(tracer);
  }
  return nullptr;
}

falcon::EngineConfig FalconConfig(falcon::CcScheme cc, uint32_t batch) {
  falcon::EngineConfig config = falcon::EngineConfig::Falcon(cc);
  config.batch_size = batch;
  config.cache_geometry.sets = 256;
  config.cache_geometry.ways = 16;
  return config;
}

uint64_t Workload::RunChunk(uint32_t worker, uint64_t first, uint64_t last,
                            const ResultSink& sink) {
  const SimClock clock = Clock(worker);
  const uint64_t start = clock.Now();
  for (uint64_t i = first; i < last; ++i) {
    TxnResult r;
    const uint64_t sim0 = clock.Now();
    const uint64_t t0 = NowNs();
    r.outcome = RunOne(worker, i);
    r.host_ns = NowNs() - t0;
    r.sim_ns = clock.Now() - sim0;
    sink(r);
  }
  return clock.Now() - start;
}

ProbeResult ProbeIndex(falcon::Engine& engine, TableId table, const std::vector<uint64_t>& keys,
                       Tracer* tracer, ProbeResult acc) {
  const falcon::EngineConfig& config = engine.config();
  falcon::ThreadContext ctx(0, engine.device(), config.cache_geometry, config.cost_params);
  SpanCtx span_ctx;
  span_ctx.tracer = tracer;
  span_ctx.clock.a = &ctx.sim_ns_ref();
  falcon::Index& index = engine.table_index(table);
  for (const uint64_t key : keys) {
    span_ctx.txn = key;
    Span s(span_ctx, kSpanProbeLookup);
    index.Lookup(ctx, key);
  }
  acc.lookups += keys.size();
  acc.lookup_sim_ns += ctx.sim_ns();
  acc.lookup_misses += ctx.cache().stats().misses;
  return acc;
}

}  // namespace fbench
