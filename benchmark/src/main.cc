// falcon_bench: runs one benchmark workload in this process and prints every
// metric, the window's engine counters and the correctness checks as lines
//
//   metric <name> <value> <unit>
//   counter <name> <value>
//   check <name> pass|fail <detail>
//   result attempted <n> failed <n> check_failures <n>
//
// which benchmark/run.py turns into the benchmark's report. Usage:
//
//   falcon_bench --workload <name> --seed <n> --seconds <s> --trace 0|1
//                [--trace-out <file>]
//
// One host thread drives the workload's 4 workers (sessions) round-robin,
// one whole transaction (or one RunBatch chunk) per turn, so every simulated
// number and engine counter repeats exactly for a seed.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "benchmark/src/percentile.h"
#include "benchmark/src/workload.h"
#include "src/obs/metrics.h"

namespace fbench {
namespace {

using falcon::Engine;
using falcon::MetricsSnapshot;

// Window transactions per second of --seconds, over all workers. Calibrated
// so the measured window takes about --seconds on a 4-core x86-64 host at the
// commit that introduced the benchmark. The count, not the wall time, bounds
// the window: that is what makes the simulated results repeat exactly.
double WindowTxnsPerSecond(std::string_view workload) {
  if (workload == "tpcc") return 24000;
  if (workload == "ycsb_b_zipf_b8") return 460000;
  if (workload == "ycsb_a_uniform") return 310000;
  return 1040000;  // bank_2shard
}

constexpr uint32_t kWorkers = Workload::kWorkers;
// The window is cut into kSlices equal-count slices. Other load on a shared
// host slows the program in bursts, so each host-clock metric summarizes
// every slice and reports the least-disturbed tenth of them: the 90th
// percentile of slice throughput, the 10th of a slice latency percentile.
constexpr int kSlices = 40;
constexpr double kLeastDisturbed = 0.1;
constexpr uint32_t kCrashCycles = 5;
constexpr uint64_t kMaxCrashStep = 400;
constexpr uint64_t kProbeKeys = 100000;
constexpr uint32_t kDeviceChannels = 6;
constexpr uint32_t kSetups = 3;  // set-ups per run; setup_s is their median

// Strings point into argv: heap allocations here would shift every later
// address, and with them the simulated cache's view of DRAM, between runs
// that differ only in their flags.
struct Args {
  std::string_view workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  const char* trace_out = nullptr;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: falcon_bench --workload <name> --seed <n> --seconds <s> "
               "--trace 0|1 [--trace-out <file>]\n",
               why);
  std::exit(2);
}

uint64_t ParseU64(const char* s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] == '\0' || s[0] == '-' || *end != '\0' || errno != 0) {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseU64(v, "--seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 3600) {
        Usage("--seconds must be in (0, 3600]");
      }
    } else if (flag == "--trace") {
      a.trace = ParseU64(v, "--trace") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  return a;
}

void PrintMetric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Linearly interpolated q-quantile, 0 <= q <= 1.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t Field(const MetricsSnapshot& s, const char* name) {
  for (const falcon::MetricField& f : falcon::MetricFieldTable()) {
    if (std::strcmp(f.name, name) == 0) {
      return falcon::MetricValue(s, f);
    }
  }
  std::fprintf(stderr, "unknown engine metric %s\n", name);
  std::exit(1);
}

// Field-wise sum over shards; the slowest clock is a max.
MetricsSnapshot Sum(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot total;
  for (const MetricsSnapshot& p : parts) {
    for (const falcon::MetricField& f : falcon::MetricFieldTable()) {
      const uint64_t v = std::strcmp(f.name, "sim_ns_max") == 0
                             ? std::max(falcon::MetricValue(total, f), falcon::MetricValue(p, f))
                             : falcon::MetricValue(total, f) + falcon::MetricValue(p, f);
      std::memcpy(reinterpret_cast<char*>(&total) + f.offset, &v, sizeof(v));
    }
  }
  return total;
}

uint64_t DeviceMediaWrites(Workload& wl) {
  uint64_t n = 0;
  for (Engine* e : wl.Engines()) {
    n += e->device()->stats().media_writes;
  }
  return n;
}

// Everything recorded about the measured window.
struct Window {
  std::vector<uint32_t> sim_lat;   // ns, one per committed transaction
  std::vector<uint32_t> host_lat;  // ns
  std::vector<uint8_t> types;
  uint64_t committed = 0;
  uint64_t scripted = 0;
  uint64_t failed = 0;
  uint64_t unexpected = 0;
  uint64_t attempts = 0;  // scripted rollbacks' final attempts excluded
  uint64_t planned = 0;
  uint64_t bytes = 0;
  double slice_tput[kSlices] = {};
  size_t slice_end[kSlices] = {};  // committed samples at the end of each slice
  double seconds = 0;
  uint64_t timeline_ns[kWorkers] = {};
  // Media writes per logical byte before the final write-back, per half.
  uint64_t half_media_writes[2] = {};
  uint64_t half_bytes[2] = {};
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  int Run() {
    wl_ = MakeWorkload(args_.workload, &tracer_);
    if (wl_ == nullptr) {
      Usage("unknown workload");
    }
    const auto window = static_cast<uint64_t>(WindowTxnsPerSecond(args_.workload) *
                                              args_.seconds / kWorkers);
    window_per_worker_ = std::max<uint64_t>(window, 10 * wl_->chunk());
    warm_per_worker_ = window_per_worker_ / 9;  // the first 10% of the plans
    plans_per_worker_ = warm_per_worker_ + window_per_worker_;

    std::vector<double> setup_s;
    for (uint32_t k = 0; k < kSetups; ++k) {
      const uint64_t t0 = NowNs();
      wl_->Build(args_.seed, plans_per_worker_);
      RunPlans(0, warm_per_worker_, nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    if (args_.trace) {
      tracer_.Enable();
    }

    MeasureWindow();
    window_agg_ = tracer_.Aggregates();
    Check("window_end", 0);
    probe_ = wl_->Probe(args_.seed, kProbeKeys);
    CrashCycles();

    Report(Quantile(setup_s, 0.5));
    if (args_.trace && args_.trace_out != nullptr && !tracer_.WriteChromeJson(args_.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args_.trace_out);
      return 1;
    }
    std::printf("result attempted %" PRIu64 " failed %" PRIu64 " check_failures %" PRIu64 "\n",
                w_.planned, w_.failed, check_failures_);
    return 0;
  }

 private:
  // Round-robin over workers: one chunk (one transaction unless batched) of
  // each worker per turn, plans [first, last) of every worker.
  void RunPlans(uint64_t first, uint64_t last, const ResultSink* sink) {
    static const ResultSink kDiscard = [](const TxnResult&) {};
    const ResultSink& s = sink != nullptr ? *sink : kDiscard;
    for (uint64_t i = first; i < last; i += wl_->chunk()) {
      const uint64_t end = std::min(last, i + wl_->chunk());
      for (uint32_t w = 0; w < kWorkers; ++w) {
        const uint64_t advanced = wl_->RunChunk(w, i, end, s);
        if (sink != nullptr) {
          w_.timeline_ns[w] += advanced;
        }
      }
    }
  }

  void MeasureWindow() {
    // Start from a quiescent image: lines left dirty by load and warm-up
    // belong to set-up, not to the window.
    for (Engine* e : wl_->Engines()) {
      for (uint32_t t = 0; t < e->worker_count(); ++t) {
        e->worker(t).ctx().cache().WritebackAll();
        e->worker(t).ResetStats();
      }
      e->device()->DrainAll();
      e->device()->ResetStats();
    }
    std::vector<MetricsSnapshot> before;
    for (Engine* e : wl_->Engines()) {
      before.push_back(e->SnapshotMetrics());
    }

    // Fault the sample buffers in now, not inside timed transactions.
    const uint64_t total = plans_per_worker_ * kWorkers;
    w_.sim_lat.resize(total);
    w_.host_lat.resize(total);
    w_.types.resize(total);
    w_.sim_lat.clear();
    w_.host_lat.clear();
    w_.types.clear();
    uint64_t half = 0;  // 0 or 1: which half of the window is running
    const ResultSink sink = [this, &half](const TxnResult& r) {
      ++w_.planned;
      const Outcome& o = r.outcome;
      w_.attempts += o.attempts - (o.scripted ? 1 : 0);
      if (o.committed) {
        ++w_.committed;
        w_.bytes += o.bytes;
        w_.half_bytes[half] += o.bytes;
        w_.sim_lat.push_back(static_cast<uint32_t>(std::min<uint64_t>(r.sim_ns, UINT32_MAX)));
        w_.host_lat.push_back(static_cast<uint32_t>(std::min<uint64_t>(r.host_ns, UINT32_MAX)));
        w_.types.push_back(o.type);
      } else if (o.scripted) {
        ++w_.scripted;
      } else {
        ++w_.failed;
      }
      w_.unexpected += o.unexpected ? 1 : 0;
    };

    const uint64_t media0 = DeviceMediaWrites(*wl_);
    uint64_t media_mid = media0;
    const uint64_t chunk = wl_->chunk();
    const uint64_t start = NowNs();
    uint64_t slice_start = start;
    for (int s = 0; s < kSlices; ++s) {
      // Equal-count slices, aligned to whole chunks.
      const uint64_t lo = warm_per_worker_ + (window_per_worker_ * s / kSlices) / chunk * chunk;
      const uint64_t hi = s + 1 == kSlices
                              ? plans_per_worker_
                              : warm_per_worker_ + (window_per_worker_ * (s + 1) / kSlices) /
                                                       chunk * chunk;
      const uint64_t committed0 = w_.committed;
      RunPlans(lo, hi, &sink);
      const uint64_t now = NowNs();
      w_.slice_tput[s] = Ratio(static_cast<double>(w_.committed - committed0),
                               static_cast<double>(now - slice_start) / 1e9);
      slice_start = now;
      w_.slice_end[s] = w_.host_lat.size();
      if (s + 1 == kSlices / 2) {
        media_mid = DeviceMediaWrites(*wl_);
        half = 1;
      }
    }
    w_.seconds = static_cast<double>(NowNs() - start) / 1e9;
    w_.half_media_writes[0] = media_mid - media0;
    w_.half_media_writes[1] = DeviceMediaWrites(*wl_) - media_mid;

    std::vector<MetricsSnapshot> pre;
    for (Engine* e : wl_->Engines()) {
      pre.push_back(e->SnapshotMetrics());
    }
    // Lines still dirty in a cache will reach the media: count them.
    for (Engine* e : wl_->Engines()) {
      for (uint32_t t = 0; t < e->worker_count(); ++t) {
        e->worker(t).ctx().cache().WritebackAll();
      }
      e->device()->DrainAll();
    }
    std::vector<MetricsSnapshot> shards;
    for (size_t i = 0; i < before.size(); ++i) {
      Engine* e = wl_->Engines()[i];
      shards.push_back(falcon::DiffMetrics(before[i], e->SnapshotMetrics()));
      pre[i] = falcon::DiffMetrics(before[i], pre[i]);
      pages_allocated_ += e->arena().pages_allocated();
    }
    diff_ = Sum(shards);
    pre_writeback_ = Sum(pre);
    shard_diffs_ = shards;
    live_bytes_ = wl_->LiveUserBytes();
  }

  void Check(const std::string& name, uint64_t extra_failures) {
    std::string first;
    const uint64_t violations = wl_->Check(&first) + extra_failures;
    check_failures_ += violations;
    std::printf("check %s %s %s\n", name.c_str(), violations == 0 ? "pass" : "fail",
                violations == 0 ? "-" : first.c_str());
  }

  void CrashCycles() {
    for (uint32_t c = 0; c < kCrashCycles; ++c) {
      Rng rng(StreamSeed(args_.seed, kCrashStream, c));
      const uint64_t step = 1 + rng.Below(kMaxCrashStep);
      std::vector<falcon::NvmDevice*> devices;
      uint64_t reads0 = 0;
      for (Engine* e : wl_->Engines()) {
        devices.push_back(e->device());
        reads0 += e->device()->stats().media_reads;
      }
      const CrashResult crash = wl_->CrashBurst(args_.seed, c, step, rng);
      SpanCtx ctx;
      ctx.tracer = &tracer_;
      ctx.txn = c;
      const uint64_t t0 = NowNs();
      {
        Span s(ctx, kSpanReopen);
        wl_->Reopen();
      }
      reopen_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      for (Engine* e : wl_->Engines()) {
        slots_replayed_ += e->recovery_report().slots_replayed;
      }
      for (falcon::NvmDevice* d : devices) {
        recovery_media_reads_ += d->stats().media_reads;
      }
      recovery_media_reads_ -= reads0;
      std::printf("info crash cycle %u: step %" PRIu64 " %s (%s) after %" PRIu64 " txns\n", c,
                  step, crash.fired ? "fired" : "did not fire",
                  falcon::CrashStepKindName(crash.kind), crash.txns);
      Check("crash_" + std::to_string(c), crash.fired ? 0 : 1);
    }
  }

  // A host-clock latency percentile of the least-disturbed slices.
  double HostPercentile(uint64_t per_mille) const {
    std::vector<double> per_slice;
    size_t begin = 0;
    for (const size_t end : w_.slice_end) {
      std::vector<uint32_t> slice(w_.host_lat.begin() + static_cast<std::ptrdiff_t>(begin),
                                  w_.host_lat.begin() + static_cast<std::ptrdiff_t>(end));
      per_slice.push_back(Percentile(slice, per_mille));
      begin = end;
    }
    return Quantile(per_slice, kLeastDisturbed);
  }

  void Report(double setup_s) {
    const MetricsSnapshot& d = diff_;
    const auto field = [&d](const char* name) { return static_cast<double>(Field(d, name)); };
    const double committed = static_cast<double>(w_.committed);
    const double attempts = static_cast<double>(w_.attempts);
    const double planned = static_cast<double>(w_.planned);
    const auto per_txn = [&](const char* name) { return Ratio(field(name), committed); };
    const bool tpcc = args_.workload == "tpcc";
    const bool sharded = shard_diffs_.size() > 1;

    // ---- end to end ---------------------------------------------------------
    uint64_t timeline = 0;
    double timelines_ns = 0;  // summed over workers: the simulated CPU time
    for (const uint64_t t : w_.timeline_ns) {
      timeline = std::max(timeline, t);
      timelines_ns += static_cast<double>(t);
    }
    uint64_t busiest = 0;
    for (const MetricsSnapshot& s : shard_diffs_) {
      busiest = std::max(busiest, Field(s, "device_busy_ns"));
    }
    const double elapsed_ns = std::max(
        static_cast<double>(timeline),
        static_cast<double>(busiest) / std::min<uint32_t>(kDeviceChannels, kWorkers));
    PrintMetric("sim_tput_mtps", Ratio(committed * 1e3, elapsed_ns), "Mtxn/s");
    std::vector<uint32_t> sim = w_.sim_lat;
    PrintMetric("sim_p50_us", Percentile(sim, 500) / 1e3, "us");
    PrintMetric("sim_p999_us", Percentile(sim, 999) / 1e3, "us");
    PrintMetric("host_tput_ktps",
                Quantile({w_.slice_tput, w_.slice_tput + kSlices}, 1 - kLeastDisturbed) / 1e3,
                "ktxn/s");
    PrintMetric("media_write_amp",
                Ratio(field("device_media_writes") * falcon::kNvmBlockSize,
                      static_cast<double>(w_.bytes)),
                "ratio");
    PrintMetric("nvm_space_amp",
                Ratio(static_cast<double>(pages_allocated_ * falcon::kPageSize),
                      static_cast<double>(live_bytes_)),
                "ratio");
    PrintMetric("commit_frac", Ratio(committed, attempts), "ratio");
    PrintMetric("setup_s", setup_s, "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    PrintMetric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");

    // Context for the end-to-end numbers. Host latencies move by a quarter
    // or more between runs when other tenants load the host for minutes,
    // beyond any usable bound; latency is bounded on the simulated clock.
    PrintMetric("host_p50_us", HostPercentile(500) / 1e3, "us");
    PrintMetric("host_p90_us", HostPercentile(900) / 1e3, "us");
    PrintMetric("host_p99_us", HostPercentile(990) / 1e3, "us");
    PrintMetric("fail_frac", 1 - Ratio(committed, attempts), "ratio");
    PrintMetric("samples", committed, "count");
    PrintMetric("window_s", w_.seconds, "s");
    PrintMetric("sim_elapsed_s", elapsed_ns / 1e9, "s");
    PrintMetric("scripted_rollbacks", static_cast<double>(w_.scripted), "count");
    std::printf("info slice throughput (ktxn/s):");
    for (const double t : w_.slice_tput) {
      std::printf(" %.1f", t / 1e3);
    }
    std::printf("\n");
    for (int h = 0; h < 2; ++h) {
      PrintMetric(h == 0 ? "media_write_amp_first_half" : "media_write_amp_second_half",
                  Ratio(static_cast<double>(w_.half_media_writes[h] * falcon::kNvmBlockSize),
                        static_cast<double>(w_.half_bytes[h])),
                  "ratio");
    }

    // ---- per layer ----------------------------------------------------------
    const std::vector<SpanAgg>& a = window_agg_;
    const auto mean_host = [](const SpanAgg& s) {
      return Ratio(s.total_ns, static_cast<double>(s.count));
    };
    const auto mean_sim = [](const SpanAgg& s) {
      return Ratio(static_cast<double>(s.sim_ns), static_cast<double>(s.count));
    };
    SpanAgg commits = a[kSpanCommit];
    commits.count += a[kSpanCommit2pc].count;
    commits.total_ns += a[kSpanCommit2pc].total_ns;
    commits.sim_ns += a[kSpanCommit2pc].sim_ns;
    for (const auto& [name, span] : std::vector<std::pair<const char*, SpanAgg>>{
             {"read", a[kSpanRead]}, {"update", a[kSpanUpdate]}, {"insert", a[kSpanInsert]},
             {"scan", a[kSpanScan]}, {"commit", commits}}) {
      PrintMetric(std::string("core.txn.") + name + "_host_ns", mean_host(span), "ns");
      PrintMetric(std::string("core.txn.") + name + "_sim_ns", mean_sim(span), "ns");
    }
    PrintMetric("core.txn.delete_host_ns", mean_host(a[kSpanDelete]), "ns");
    PrintMetric("core.txn.begin_host_ns", mean_host(a[kSpanBegin]), "ns");
    PrintMetric("core.txn.plan_host_ns",
                Ratio(a[kSpanTxn].self_ns + a[kSpanStep].self_ns + a[kSpanSource].total_ns,
                      planned),
                "ns");

    for (uint32_t t = 0; t < kTpccTypes; ++t) {
      std::vector<uint32_t> ts;
      std::vector<uint32_t> th;
      for (size_t i = 0; tpcc && i < w_.types.size(); ++i) {
        if (w_.types[i] == t) {
          ts.push_back(w_.sim_lat[i]);
          th.push_back(w_.host_lat[i]);
        }
      }
      const std::string mix = std::string("mix.") + kTpccTypeNames[t];
      PrintMetric(mix + ".sim_p50_us", Percentile(ts, 500) / 1e3, "us");
      PrintMetric(mix + ".host_p50_us", Percentile(th, 500) / 1e3, "us");
    }

    for (const char* phase : {"execute", "log_append", "commit_flush", "hint_flush",
                              "version_gc"}) {
      PrintMetric(std::string("core.phase.") + phase + "_sim_ns",
                  per_txn((std::string(phase) + "_ns").c_str()), "ns");
    }

    PrintMetric("core.log.appends_per_txn", per_txn("log_appends"), "count");
    PrintMetric("core.log.bytes_per_txn", per_txn("log_bytes_appended"), "B");
    PrintMetric("core.log.overflows", field("log_append_overflows"), "count");
    PrintMetric("core.log.media_writes",
                static_cast<double>(Field(pre_writeback_, "device_media_writes_log")), "count");

    PrintMetric("core.hot.hit_frac",
                Ratio(field("hot_hits"), field("hot_hits") + field("hot_misses")), "ratio");

    const bool batched = field("batch_slices") > 0;
    const double batch_ns = batched ? timelines_ns : 0;
    PrintMetric("core.batch.hidden_stall_frac",
                Ratio(field("batch_hidden_stall_ns"), field("batch_stall_ns")), "ratio");
    PrintMetric("core.batch.idle_frac", Ratio(field("batch_idle_ns"), batch_ns), "ratio");
    PrintMetric("core.batch.inflight_avg", Ratio(field("batch_inflight_ns"), batch_ns), "count");
    PrintMetric("core.batch.switches_per_txn",
                Ratio(field("batch_switches"), batched ? planned : 0), "count");
    PrintMetric("core.batch.sched_host_ns_per_slice",
                Ratio(a[kSpanRunBatch].self_ns, field("batch_slices")), "ns");

    PrintMetric("cc.useful_frac", Ratio(committed, attempts), "ratio");
    for (const char* reason : {"lock_conflict", "occ_validation", "ts_order", "other"}) {
      PrintMetric(std::string("cc.aborts_") + reason,
                  Ratio(1000 * field((std::string("aborts_") + reason).c_str()), attempts),
                  "per_1k");
    }
    PrintMetric("cc.retries_per_txn",
                Ratio(attempts - committed - static_cast<double>(w_.failed), planned), "count");

    PrintMetric("storage.version.allocated_per_txn", per_txn("versions_allocated"), "count");
    PrintMetric("storage.version.recycled_frac",
                Ratio(field("versions_recycled"), field("versions_allocated")), "ratio");
    PrintMetric("storage.version.gc_runs", field("version_gc_runs"), "count");

    const double lookups = static_cast<double>(probe_.lookups);
    PrintMetric("index.lookup_host_ns", mean_host(tracer_.agg(kSpanProbeLookup)), "ns");
    PrintMetric("index.lookup_sim_ns", Ratio(static_cast<double>(probe_.lookup_sim_ns), lookups),
                "ns");
    PrintMetric("index.lookup_misses",
                Ratio(static_cast<double>(probe_.lookup_misses), lookups), "count");
    PrintMetric("index.scan_host_ns", mean_host(tracer_.agg(kSpanProbeScan)), "ns");

    PrintMetric("sim.cache.miss_frac",
                Ratio(field("cache_misses"), field("cache_hits") + field("cache_misses")),
                "ratio");
    PrintMetric("sim.cache.misses_per_txn", per_txn("cache_misses"), "count");
    PrintMetric("sim.cache.dirty_evictions_per_txn", per_txn("cache_dirty_evictions"), "count");
    PrintMetric("sim.cache.clwb_per_txn", per_txn("cache_clwb_writebacks"), "count");
    PrintMetric("sim.cache.sfences_per_txn", per_txn("cache_sfences"), "count");

    PrintMetric("sim.device.media_writes_per_txn", per_txn("device_media_writes"), "count");
    PrintMetric("sim.device.media_reads_per_txn", per_txn("device_media_reads"), "count");
    PrintMetric("sim.device.line_writes_per_txn", per_txn("device_line_writes"), "count");
    PrintMetric("sim.device.partial_drain_frac",
                Ratio(field("device_partial_drains"),
                      field("device_partial_drains") + field("device_full_drains")),
                "ratio");
    PrintMetric("sim.device.media_writes_heap", field("device_media_writes_tuple_heap"), "count");
    PrintMetric("sim.device.media_writes_index", field("device_media_writes_index"), "count");
    PrintMetric("sim.device.media_writes_version", field("device_media_writes_version_heap"),
                "count");
    PrintMetric("sim.device.busy_s", field("device_busy_ns") / 1e9, "s");
    PrintMetric("sim.device.cpu_s", timelines_ns / 1e9, "s");

    PrintMetric("pmem.pages_allocated", static_cast<double>(pages_allocated_), "count");

    // Single-shard commits are only a facade metric where there are shards.
    const SpanAgg single = sharded ? a[kSpanCommit] : SpanAgg{};
    const SpanAgg& twopc = a[kSpanCommit2pc];
    PrintMetric("db.commit_single_host_ns", mean_host(single), "ns");
    PrintMetric("db.commit_2pc_host_ns", mean_host(twopc), "ns");
    PrintMetric("db.commit_single_sim_ns", mean_sim(single), "ns");
    PrintMetric("db.commit_2pc_sim_ns", mean_sim(twopc), "ns");
    PrintMetric("db.cross_shard_frac",
                Ratio(static_cast<double>(twopc.count),
                      static_cast<double>(single.count + twopc.count)),
                "ratio");
    PrintMetric("db.twopc_prepares_per_txn", per_txn("twopc_prepares"), "count");
    PrintMetric("db.twopc_aborts", field("twopc_aborts"), "count");
    double max_commits = 0;
    for (const MetricsSnapshot& s : shard_diffs_) {
      max_commits = std::max(max_commits, static_cast<double>(Field(s, "commits")));
    }
    PrintMetric("db.shard_imbalance",
                sharded ? Ratio(max_commits * static_cast<double>(shard_diffs_.size()),
                                field("commits"))
                        : 0,
                "ratio");

    PrintMetric("recovery.host_ms", Quantile(reopen_ms_, 0.5), "ms");
    PrintMetric("recovery.slots_replayed", static_cast<double>(slots_replayed_), "count");
    PrintMetric("recovery.media_reads", static_cast<double>(recovery_media_reads_), "count");

    PrintMetric("trace.span_cost_ns", tracer_.cost_ns(), "ns");

    // Every engine counter of the window, for exact run-to-run comparison.
    for (const falcon::MetricField& f : falcon::MetricFieldTable()) {
      std::printf("counter %s %" PRIu64 "\n", f.name, falcon::MetricValue(d, f));
    }
    std::printf("counter window_committed %" PRIu64 "\n", w_.committed);
    std::printf("counter window_attempts %" PRIu64 "\n", w_.attempts);
    std::printf("counter window_bytes %" PRIu64 "\n", w_.bytes);
    for (uint32_t w = 0; w < kWorkers; ++w) {
      std::printf("counter timeline_ns_%u %" PRIu64 "\n", w, w_.timeline_ns[w]);
    }
    if (w_.unexpected > 0) {
      check_failures_ += w_.unexpected;
      std::printf("check unexpected_status fail %" PRIu64 " operations\n", w_.unexpected);
    }
  }

  const Args& args_;
  Tracer tracer_;  // first: its buffers are allocated before any engine
  std::unique_ptr<Workload> wl_;
  uint64_t window_per_worker_ = 0;
  uint64_t warm_per_worker_ = 0;
  uint64_t plans_per_worker_ = 0;
  Window w_;
  MetricsSnapshot diff_;
  MetricsSnapshot pre_writeback_;
  std::vector<MetricsSnapshot> shard_diffs_;
  std::vector<SpanAgg> window_agg_;
  uint64_t pages_allocated_ = 0;
  uint64_t live_bytes_ = 0;
  ProbeResult probe_;
  std::vector<double> reopen_ms_;
  uint64_t slots_replayed_ = 0;
  uint64_t recovery_media_reads_ = 0;
  uint64_t check_failures_ = 0;
};

}  // namespace
}  // namespace fbench

int main(int argc, char** argv) {
  const fbench::Args args = fbench::ParseArgs(argc, argv);
  fbench::Runner runner(args);
  return runner.Run();
}
