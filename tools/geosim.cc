// geosim: command-line driver for the GeoShuffle simulator.
//
// Runs one HiBench workload under one scheme on the six-region cluster and
// prints metrics; optionally writes a Chrome-trace JSON and/or an ASCII
// Gantt chart of the execution (tasks, stages and WAN flows).
//
// Multi-job service mode: --jobs=N submits N copies of the workload to one
// shared cluster on a seeded Poisson (optionally diurnal) arrival process,
// spread round-robin across weighted tenants, and reports per-job queueing
// delay and JCT plus throughput percentiles.
//
//   geosim --workload=pagerank --scheme=aggshuffle --runs=3
//   geosim --workload=sort --scheme=spark --trace=trace.json --gantt
//   geosim --workload=wordcount --jobs=8 --arrival=0.5 --tenants=2
//   geosim --help
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/stats.h"
#include "common/table.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "netsim/pricing.h"
#include "workloads/arrivals.h"
#include "workloads/hibench.h"

namespace {

struct Options {
  std::string workload = "wordcount";
  std::string scheme = "aggshuffle";
  int runs = 1;
  double scale = 100.0;
  std::uint64_t seed = 1;
  int aggregators = 1;
  int threads = 0;  // compute pool size; 0 = hardware concurrency
  std::string trace_path;  // Chrome-trace JSON output
  std::string report_path;  // RunReport JSON output (last run)
  bool no_metrics = false;  // disable the metrics registry
  bool gantt = false;
  bool help = false;
  // Fault injection: crash one worker mid-run and watch recovery.
  int crash_node = -1;          // worker index to crash (-1 = none)
  double crash_at = 0.0;        // sim-time of the crash, seconds
  double restart_after = 0.0;   // restart delay; 0 = stays dead
  // Adaptive aggregator placement & mid-job replanning (docs/ADAPTIVE.md).
  bool adaptive = false;
  // Coded shuffle redundancy (docs/CODED.md); -1 = off. Any explicit value
  // is handed to the engine verbatim so out-of-range redundancies (r < 1,
  // r > #datacenters) fail Submit-time validation, not flag parsing.
  int coded_r = -1;
  // WAN degradation schedule: "src:dst:factor:at[:duration],..." — each
  // event scales the src->dst link (both directions) to `factor` of its
  // jittered rate at sim-time `at`, restoring after `duration` seconds
  // (omitted or 0 = stays degraded).
  std::string jitter_trace;
  // Multi-job service mode (0 = classic single-job mode).
  int jobs = 0;                 // concurrent jobs to submit
  double arrival = 0.5;         // mean arrival rate, jobs per sim-second
  double diurnal = 0.0;         // diurnal modulation amplitude [0, 1)
  double diurnal_period = 60.0; // diurnal period, sim-seconds
  int tenants = 2;              // tenants; tenant k gets weight k+1
  int max_concurrent = 0;       // admission cap (0 = unlimited)
  // Shuffle transport (docs/TRANSPORTS.md); negative/zero overrides keep
  // the backend defaults from run_config.h.
  std::string transport = "direct";
  int store_dc = -1;              // objstore: staging DC (-1 = producer's)
  double store_rate_gbps = 0.0;   // objstore: tier rate, full scale
  double store_latency_ms = -1.0; // objstore: PUT and GET request latency
  double fabric_rate_gbps = 0.0;  // fabric: per-DC capacity, full scale
  double fabric_exchange_ms = -1.0;  // fabric: histogram-exchange latency
};

void PrintHelp() {
  std::cout <<
      "geosim — wide-area shuffle simulator (ICDCS'17 Push/Aggregate)\n"
      "\n"
      "  --workload=NAME   wordcount | sort | terasort | pagerank |\n"
      "                    naivebayes            (default wordcount)\n"
      "  --scheme=NAME     spark | centralized | aggshuffle\n"
      "                                          (default aggshuffle)\n"
      "  --runs=N          seeds to run and summarize (default 1)\n"
      "  --scale=X         input/rate scale divisor (default 100)\n"
      "  --seed=N          base seed (default 1)\n"
      "  --aggregators=K   aggregate into K datacenters (default 1)\n"
      "  --threads=N       compute-pool threads; results are identical\n"
      "                    for every N (default: hardware concurrency)\n"
      "  --trace=FILE      write Chrome-trace JSON of the last run\n"
      "  --report=FILE     write the last run's RunReport JSON (metrics,\n"
      "                    WAN-link utilization timeseries, egress cost)\n"
      "  --no-metrics      disable the metrics registry (and the\n"
      "                    utilization timeseries) for this run\n"
      "  --gantt           print an ASCII Gantt chart of the last run\n"
      "  --crash-node=N    crash worker node N mid-run (fault injection)\n"
      "  --crash-at=T      crash time in sim-seconds (default 0)\n"
      "  --restart-after=T restart the node T seconds later (0 = stays dead)\n"
      "\n"
      "adaptive placement (docs/ADAPTIVE.md):\n"
      "  --adaptive        bandwidth-aware aggregator choice plus mid-job\n"
      "                    replanning on WAN degradation (default off)\n"
      "  --jitter-trace=SPEC  WAN degradation schedule, comma-separated\n"
      "                    src:dst:factor:at[:duration] events: scale the\n"
      "                    src->dst link (both directions) to factor of its\n"
      "                    rate at sim-time `at`, restore after `duration`\n"
      "                    seconds (omitted/0 = stays degraded), e.g.\n"
      "                    --jitter-trace=1:0:0.05:2,3:0:0.1:2:30\n"
      "\n"
      "coded shuffle (docs/CODED.md):\n"
      "  --coded-r=R       replicate map outputs across R datacenters and\n"
      "                    exchange XOR-coded shard groups by multicast\n"
      "                    (spark scheme only; R in [1, #datacenters],\n"
      "                    validated at submit time; default off)\n"
      "\n"
      "shuffle transport (docs/TRANSPORTS.md):\n"
      "  --transport=NAME  direct | objstore | fabric   (default direct)\n"
      "  --store-dc=N      objstore: staging datacenter index\n"
      "                    (default: each shard stages in its producer's DC)\n"
      "  --store-rate-gbps=X    objstore: store-tier throughput per DC,\n"
      "                    full scale (default 4)\n"
      "  --store-latency-ms=T   objstore: PUT/GET request round-trip\n"
      "                    (default 30)\n"
      "  --fabric-rate-gbps=X   fabric: per-DC fabric capacity, full scale\n"
      "                    (default 40)\n"
      "  --fabric-exchange-ms=T fabric: histogram-exchange setup latency\n"
      "                    (default 2)\n"
      "\n"
      "multi-job service mode (docs/SERVICE.md):\n"
      "  --jobs=N          submit N copies of the workload to one shared\n"
      "                    cluster (default 0 = classic single-job mode)\n"
      "  --arrival=R       mean Poisson arrival rate, jobs/sim-second\n"
      "                    (default 0.5)\n"
      "  --diurnal=A       diurnal rate modulation amplitude in [0, 1)\n"
      "                    (default 0 = flat)\n"
      "  --diurnal-period=T  diurnal period in sim-seconds (default 60)\n"
      "  --tenants=K       spread jobs round-robin over K tenants;\n"
      "                    tenant k has fair-share weight k+1 (default 2)\n"
      "  --max-concurrent=N  admission cap on concurrently running jobs\n"
      "                    (default 0 = unlimited)\n"
      "  --help            this text\n";
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

// Strict numeric parsing: the whole value must be consumed and land in
// range, otherwise the flag is rejected with a clear error — no silent
// clamping, no atoi-style "abc parses as 0".
bool ParseIntIn(const std::string& s, const char* flag, long min_value,
                long max_value, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < min_value || v > max_value) {
    std::cerr << "invalid value for --" << flag << ": '" << s
              << "' (want an integer in [" << min_value << ", " << max_value
              << "])\n";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const std::string& s, const char* flag, std::uint64_t* out) {
  char* end = nullptr;
  if (s.empty() || s[0] == '-') {
    std::cerr << "invalid value for --" << flag << ": '" << s
              << "' (want an unsigned integer)\n";
    return false;
  }
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    std::cerr << "invalid value for --" << flag << ": '" << s
              << "' (want an unsigned integer)\n";
    return false;
  }
  *out = v;
  return true;
}

bool ParseDoubleMin(const std::string& s, const char* flag, double min_value,
                    double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !(v >= min_value)) {
    std::cerr << "invalid value for --" << flag << ": '" << s
              << "' (want a number >= " << min_value << ")\n";
    return false;
  }
  *out = v;
  return true;
}

// Parses a --jitter-trace spec ("src:dst:factor:at[:duration],...") into
// fault-plan link degradations. Same strictness as the numeric flags:
// malformed fields reject the whole spec with a message.
bool ParseJitterTrace(const std::string& spec,
                      std::vector<gs::LinkDegradationEvent>* out) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) {
      std::cerr << "invalid --jitter-trace: empty event\n";
      return false;
    }
    std::vector<std::string> fields;
    std::size_t fs = 0;
    while (fs <= item.size()) {
      std::size_t colon = item.find(':', fs);
      if (colon == std::string::npos) colon = item.size();
      fields.push_back(item.substr(fs, colon - fs));
      fs = colon + 1;
    }
    if (fields.size() < 4 || fields.size() > 5) {
      std::cerr << "invalid --jitter-trace event '" << item
                << "' (want src:dst:factor:at[:duration])\n";
      return false;
    }
    gs::LinkDegradationEvent e;
    int src = -1, dst = -1;
    double factor = -1, at = -1, duration = 0;
    if (!ParseIntIn(fields[0], "jitter-trace src", 0, 1000, &src) ||
        !ParseIntIn(fields[1], "jitter-trace dst", 0, 1000, &dst) ||
        !ParseDoubleMin(fields[2], "jitter-trace factor", 0.0, &factor) ||
        !ParseDoubleMin(fields[3], "jitter-trace at", 0.0, &at) ||
        (fields.size() == 5 &&
         !ParseDoubleMin(fields[4], "jitter-trace duration", 0.0,
                         &duration))) {
      return false;
    }
    if (src == dst) {
      std::cerr << "invalid --jitter-trace event '" << item
                << "': src and dst must differ\n";
      return false;
    }
    e.src = src;
    e.dst = dst;
    e.factor = factor;
    e.at = at;
    e.duration = duration;
    out->push_back(e);
  }
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0) {
      opts->help = true;
    } else if (std::strcmp(argv[i], "--gantt") == 0) {
      opts->gantt = true;
    } else if (std::strcmp(argv[i], "--no-metrics") == 0) {
      opts->no_metrics = true;
    } else if (std::strcmp(argv[i], "--adaptive") == 0) {
      opts->adaptive = true;
    } else if (ParseFlag(argv[i], "jitter-trace", &opts->jitter_trace)) {
      // validated against the cluster in main (needs the topology)
    } else if (ParseFlag(argv[i], "workload", &opts->workload) ||
               ParseFlag(argv[i], "scheme", &opts->scheme) ||
               ParseFlag(argv[i], "trace", &opts->trace_path) ||
               ParseFlag(argv[i], "report", &opts->report_path)) {
      // parsed into the right field already
    } else if (ParseFlag(argv[i], "runs", &value)) {
      if (!ParseIntIn(value, "runs", 1, 1'000'000, &opts->runs)) return false;
    } else if (ParseFlag(argv[i], "scale", &value)) {
      // The scale is a divisor: zero or negative would be meaningless (or
      // a division by zero), so reject instead of clamping.
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(v > 0)) {
        std::cerr << "invalid value for --scale: '" << value
                  << "' (want a number > 0)\n";
        return false;
      }
      opts->scale = v;
    } else if (ParseFlag(argv[i], "seed", &value)) {
      if (!ParseU64(value, "seed", &opts->seed)) return false;
    } else if (ParseFlag(argv[i], "aggregators", &value)) {
      if (!ParseIntIn(value, "aggregators", 1, 1000, &opts->aggregators)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "threads", &value)) {
      if (!ParseIntIn(value, "threads", 0, 4096, &opts->threads)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "coded-r", &value)) {
      if (!ParseIntIn(value, "coded-r", 0, 1'000'000, &opts->coded_r)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "crash-node", &value)) {
      if (!ParseIntIn(value, "crash-node", 0, 1'000'000, &opts->crash_node)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "crash-at", &value)) {
      if (!ParseDoubleMin(value, "crash-at", 0.0, &opts->crash_at)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "restart-after", &value)) {
      if (!ParseDoubleMin(value, "restart-after", 0.0,
                          &opts->restart_after)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "jobs", &value)) {
      if (!ParseIntIn(value, "jobs", 0, 100'000, &opts->jobs)) return false;
    } else if (ParseFlag(argv[i], "arrival", &value)) {
      if (!ParseDoubleMin(value, "arrival", 0.0, &opts->arrival) ||
          opts->arrival <= 0) {
        std::cerr << "invalid value for --arrival: want a rate > 0\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "diurnal", &value)) {
      if (!ParseDoubleMin(value, "diurnal", 0.0, &opts->diurnal) ||
          opts->diurnal >= 1.0) {
        std::cerr << "invalid value for --diurnal: want amplitude in "
                     "[0, 1)\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "diurnal-period", &value)) {
      if (!ParseDoubleMin(value, "diurnal-period", 0.0,
                          &opts->diurnal_period) ||
          opts->diurnal_period <= 0) {
        std::cerr << "invalid value for --diurnal-period: want seconds "
                     "> 0\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "tenants", &value)) {
      if (!ParseIntIn(value, "tenants", 1, 1000, &opts->tenants)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "max-concurrent", &value)) {
      if (!ParseIntIn(value, "max-concurrent", 0, 100'000,
                      &opts->max_concurrent)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "transport", &opts->transport)) {
      if (opts->transport != "direct" && opts->transport != "objstore" &&
          opts->transport != "fabric") {
        std::cerr << "unknown transport '" << opts->transport
                  << "' (want direct | objstore | fabric)\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "store-dc", &value)) {
      if (!ParseIntIn(value, "store-dc", 0, 1000, &opts->store_dc)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "store-rate-gbps", &value)) {
      if (!ParseDoubleMin(value, "store-rate-gbps", 0.0,
                          &opts->store_rate_gbps) ||
          opts->store_rate_gbps <= 0) {
        std::cerr << "invalid value for --store-rate-gbps: want > 0\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "store-latency-ms", &value)) {
      if (!ParseDoubleMin(value, "store-latency-ms", 0.0,
                          &opts->store_latency_ms)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "fabric-rate-gbps", &value)) {
      if (!ParseDoubleMin(value, "fabric-rate-gbps", 0.0,
                          &opts->fabric_rate_gbps) ||
          opts->fabric_rate_gbps <= 0) {
        std::cerr << "invalid value for --fabric-rate-gbps: want > 0\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "fabric-exchange-ms", &value)) {
      if (!ParseDoubleMin(value, "fabric-exchange-ms", 0.0,
                          &opts->fabric_exchange_ms)) {
        return false;
      }
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return false;
    }
  }
  return true;
}

gs::Scheme ParseScheme(const std::string& name) {
  if (name == "spark") return gs::Scheme::kSpark;
  if (name == "centralized") return gs::Scheme::kCentralized;
  if (name == "aggshuffle") return gs::Scheme::kAggShuffle;
  std::cerr << "unknown scheme '" << name << "', using aggshuffle\n";
  return gs::Scheme::kAggShuffle;
}

// Installs the --transport flags into cfg.transport. Negative/zero
// override values mean "keep the TransportConfig default".
void ApplyTransport(const Options& opts, gs::RunConfig* cfg) {
  using namespace gs;
  if (opts.transport == "objstore") {
    cfg->transport.kind = TransportKind::kObjectStore;
  } else if (opts.transport == "fabric") {
    cfg->transport.kind = TransportKind::kFabric;
  } else {
    cfg->transport.kind = TransportKind::kDirect;
  }
  if (opts.store_dc >= 0) cfg->transport.object_store.dc = opts.store_dc;
  if (opts.store_rate_gbps > 0) {
    cfg->transport.object_store.rate = Gbps(opts.store_rate_gbps);
  }
  if (opts.store_latency_ms >= 0) {
    cfg->transport.object_store.request_latency =
        Millis(opts.store_latency_ms);
  }
  if (opts.fabric_rate_gbps > 0) {
    cfg->transport.fabric.rate = Gbps(opts.fabric_rate_gbps);
  }
  if (opts.fabric_exchange_ms >= 0) {
    cfg->transport.fabric.exchange_latency = Millis(opts.fabric_exchange_ms);
  }
}

// Installs --adaptive and the --jitter-trace degradation schedule. The
// spec was validated in main; re-parsing here cannot fail.
void ApplyAdaptive(const Options& opts, gs::RunConfig* cfg) {
  cfg->adaptive.enabled = opts.adaptive;
  if (!opts.jitter_trace.empty()) {
    ParseJitterTrace(opts.jitter_trace, &cfg->fault.plan.link_degradations);
  }
  // Coded shuffle: the redundancy is passed through verbatim — Submit-time
  // validation rejects r < 1, r > #datacenters, and non-spark schemes.
  if (opts.coded_r >= 0) {
    cfg->coded.enabled = true;
    cfg->coded.redundancy_r = opts.coded_r;
  }
}

// The run configuration every geosim mode shares: scheme, scale, cost
// model, pricing, transport, adaptivity and the --crash-node fault.
gs::RunConfig MakeRunConfig(const Options& opts, std::uint64_t seed) {
  using namespace gs;
  RunConfig cfg;
  cfg.scheme = ParseScheme(opts.scheme);
  cfg.seed = seed;
  cfg.scale = opts.scale;
  cfg.cost = CostModel{}.Scaled(opts.scale);
  cfg.aggregator_dc_count = opts.aggregators;
  cfg.compute_threads = opts.threads;
  cfg.observe.metrics = !opts.no_metrics;
  // Dollar view of the cross-region traffic uses the 2016 EC2 tariff.
  cfg.observe.egress_usd_per_gib = WanPricing::Ec2SixRegionTariff().rates();
  ApplyTransport(opts, &cfg);
  ApplyAdaptive(opts, &cfg);
  if (opts.crash_node >= 0) {
    NodeCrashEvent crash;
    crash.at = opts.crash_at;
    crash.node = opts.crash_node;
    crash.restart_after = opts.restart_after;
    cfg.fault.plan.node_crashes.push_back(crash);
  }
  return cfg;
}

// Multi-job service mode: one shared cluster, N workload jobs submitted on
// an open-loop arrival process across weighted tenants.
int RunMultiJob(const Options& opts) {
  using namespace gs;
  RunConfig cfg = MakeRunConfig(opts, opts.seed);
  cfg.service.max_concurrent_jobs = opts.max_concurrent;
  GeoCluster cluster(Ec2SixRegionTopology(opts.scale), cfg);

  ArrivalConfig arrivals;
  arrivals.rate_per_s = opts.arrival;
  arrivals.diurnal_amplitude = opts.diurnal;
  arrivals.diurnal_period = opts.diurnal_period;
  const std::vector<SimTime> times =
      GenerateArrivals(arrivals, opts.jobs, opts.seed);

  WorkloadParams params;
  params.scale = opts.scale;
  std::vector<JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(opts.jobs));
  for (int j = 0; j < opts.jobs; ++j) {
    auto wl = MakeWorkload(opts.workload, params);
    Dataset ds = wl->Build(
        cluster, (opts.seed + static_cast<std::uint64_t>(j)) * 7919 + 13);
    JobOptions jo;
    const int tenant = j % opts.tenants;
    jo.tenant = "t" + std::to_string(tenant);
    jo.weight = tenant + 1.0;
    jo.arrival_delay = times[static_cast<std::size_t>(j)];
    jo.label = opts.workload + "#" + std::to_string(j);
    handles.push_back(ds.Submit(wl->action(), jo));
  }
  cluster.RunUntilQuiescent();

  std::vector<double> jcts, delays;
  SimTime last_done = 0;
  std::cout << opts.workload << " under " << opts.scheme << ": "
            << opts.jobs << " job(s), " << opts.tenants
            << " tenant(s), arrival rate " << FmtDouble(opts.arrival, 2)
            << "/s" << (opts.diurnal > 0 ? " (diurnal)" : "") << ", scale 1/"
            << opts.scale << "\n";
  TextTable table(
      {"job", "tenant", "arrived (s)", "queue (s)", "jct (s)", "MiB x-DC"});
  for (const RunReport::JobRow& row : cluster.job_rows()) {
    table.AddRow({row.label, row.tenant, FmtDouble(row.submitted, 2),
                  FmtDouble(row.queue_delay(), 2), FmtDouble(row.jct(), 2),
                  FmtDouble(ToMiB(row.cross_dc_bytes), 2)});
    jcts.push_back(row.jct());
    delays.push_back(row.queue_delay());
    last_done = std::max(last_done, row.completed);
  }
  std::cout << table.Render();

  if (!jcts.empty() && last_done > 0) {
    std::cout << "\nthroughput " << FmtDouble(jcts.size() / last_done, 3)
              << " jobs/s; JCT p50 " << FmtDouble(Percentile(jcts, 50), 2)
              << "s, p99 " << FmtDouble(Percentile(jcts, 99), 2)
              << "s; queue delay p50 " << FmtDouble(Percentile(delays, 50), 2)
              << "s, p99 " << FmtDouble(Percentile(delays, 99), 2) << "s\n";
  }

  if (!opts.report_path.empty()) {
    // Whole-service snapshot: the jobs table plus cluster-wide metrics.
    RunReport report = cluster.BuildReport(JobMetrics{}, nullptr);
    report.label = opts.workload + "/" + opts.scheme + "/multijob";
    if (opts.transport != "direct") report.label += "/" + opts.transport;
    std::ofstream out(opts.report_path);
    if (!out) {
      std::cerr << "cannot write " << opts.report_path << "\n";
      return 1;
    }
    out << report.ToJson() << "\n";
    std::cout << "\nRun report written to " << opts.report_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gs;
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    PrintHelp();
    return 2;
  }
  if (opts.help) {
    PrintHelp();
    return 0;
  }

  if (opts.crash_node >= 0) {
    // Validate against the actual cluster: an out-of-range or non-worker
    // victim would GS_CHECK-abort deep inside the fault injector.
    const Topology probe = Ec2SixRegionTopology(opts.scale);
    if (opts.crash_node >= probe.num_nodes()) {
      std::cerr << "--crash-node=" << opts.crash_node
                << " is out of range: the six-region cluster has nodes 0.."
                << probe.num_nodes() - 1 << "\n";
      PrintHelp();
      return 2;
    }
    if (!probe.node(opts.crash_node).worker) {
      std::cerr << "--crash-node=" << opts.crash_node
                << " is not a worker node and cannot be crashed\n";
      PrintHelp();
      return 2;
    }
  }

  if (!opts.jitter_trace.empty()) {
    // Validate the spec (and its datacenter indices) once up front; the
    // fault injector would GS_CHECK-abort on a bad pair mid-run.
    std::vector<LinkDegradationEvent> events;
    if (!ParseJitterTrace(opts.jitter_trace, &events)) {
      PrintHelp();
      return 2;
    }
    const Topology probe = Ec2SixRegionTopology(opts.scale);
    for (const LinkDegradationEvent& e : events) {
      if (e.src >= probe.num_datacenters() ||
          e.dst >= probe.num_datacenters()) {
        std::cerr << "--jitter-trace names dc" << std::max(e.src, e.dst)
                  << ", but the six-region cluster has datacenters 0.."
                  << probe.num_datacenters() - 1 << "\n";
        PrintHelp();
        return 2;
      }
    }
  }

  if (opts.jobs > 0) return RunMultiJob(opts);

  WorkloadParams params;
  params.scale = opts.scale;

  std::vector<double> jcts, traffic;
  std::string last_gantt, last_json;
  JobMetrics last;
  RunReport last_report;
  for (int r = 0; r < opts.runs; ++r) {
    RunConfig cfg =
        MakeRunConfig(opts, opts.seed + static_cast<std::uint64_t>(r));
    const bool want_trace =
        (r == opts.runs - 1) && (opts.gantt || !opts.trace_path.empty());
    cfg.observe.trace = want_trace;
    GeoCluster cluster(Ec2SixRegionTopology(opts.scale), cfg);

    auto wl = MakeWorkload(opts.workload, params);
    RunResult result = wl->Run(cluster, cfg.seed * 7919 + 13);
    jcts.push_back(result.metrics.jct());
    traffic.push_back(ToMiB(result.metrics.cross_dc_bytes));
    last = result.metrics;
    last_report = std::move(result.report);
    last_report.label = opts.workload + "/" + opts.scheme;
    if (opts.transport != "direct") last_report.label += "/" + opts.transport;
    if (want_trace && result.trace != nullptr) {
      if (opts.gantt) last_gantt = result.trace->RenderGantt(110);
      if (!opts.trace_path.empty()) {
        last_json = result.trace->ToChromeTraceJson();
      }
    }
  }

  Summary jct = Summarize(jcts);
  Summary tr = Summarize(traffic);
  TextTable table({"metric", "trimmed mean", "median", "min", "max"});
  table.AddRow({"job completion time (s)", FmtDouble(jct.trimmed_mean, 2),
                FmtDouble(jct.median, 2), FmtDouble(jct.min, 2),
                FmtDouble(jct.max, 2)});
  table.AddRow({"cross-DC traffic (MiB)", FmtDouble(tr.trimmed_mean, 2),
                FmtDouble(tr.median, 2), FmtDouble(tr.min, 2),
                FmtDouble(tr.max, 2)});
  std::cout << opts.workload << " under " << opts.scheme << " ("
            << opts.runs << " run(s), scale 1/" << opts.scale << "):\n"
            << table.Render();

  std::cout << "\nEstimated WAN egress cost at full scale (EC2-2016 "
               "tariff): $"
            << FmtDouble(last_report.cost_usd_full_scale, 4) << "\n";

  if (!last_report.links.empty()) {
    // Per-WAN-link view of the last run: total bytes moved and the peak
    // one-bucket utilization relative to the link's base rate.
    std::cout << "\nWAN link utilization (last run, "
              << FmtDouble(last_report.utilization_bucket, 1)
              << "s buckets):\n";
    TextTable links({"link", "MiB", "peak util", "busy buckets"});
    for (const RunReport::LinkSeries& l : last_report.links) {
      Bytes peak = 0;
      int busy = 0;
      for (Bytes b : l.buckets) {
        peak = std::max(peak, b);
        busy += b > 0;
      }
      const double peak_util =
          l.base_rate > 0
              ? static_cast<double>(peak) /
                    (l.base_rate * last_report.utilization_bucket)
              : 0.0;
      links.AddRow({l.src_name + " -> " + l.dst_name,
                    FmtDouble(ToMiB(l.total_bytes), 2),
                    FmtDouble(100.0 * peak_util, 1) + "%",
                    std::to_string(busy)});
    }
    std::cout << links.Render();
  }

  std::cout << "\nStages (last run):\n";
  TextTable stages({"stage", "tasks", "span (s)", "failures"});
  for (const StageMetrics& s : last.stages) {
    stages.AddRow({std::to_string(s.id) + ":" + s.name,
                   std::to_string(s.num_tasks), FmtDouble(s.span(), 2),
                   std::to_string(s.task_failures)});
  }
  std::cout << stages.Render();

  if (last.node_crashes > 0 || last.fetch_failures > 0 ||
      last.push_retries > 0 || last.push_fallbacks > 0) {
    std::cout << "\nFault recovery (last run): " << last.node_crashes
              << " crash(es), " << last.fetch_failures
              << " fetch failure(s), " << last.map_resubmissions
              << " map resubmission(s), " << last.push_retries
              << " push retry(ies), " << last.push_fallbacks
              << " push fallback(s)\n";
  }

  if (!last_gantt.empty()) {
    std::cout << "\nExecution timeline (last run):\n" << last_gantt;
  }
  if (!opts.trace_path.empty()) {
    std::ofstream out(opts.trace_path);
    if (!out) {
      std::cerr << "cannot write " << opts.trace_path << "\n";
      return 1;
    }
    out << last_json;
    std::cout << "\nChrome trace written to " << opts.trace_path
              << " (open in chrome://tracing or Perfetto)\n";
  }
  if (!opts.report_path.empty()) {
    std::ofstream out(opts.report_path);
    if (!out) {
      std::cerr << "cannot write " << opts.report_path << "\n";
      return 1;
    }
    out << last_report.ToJson() << "\n";
    std::cout << "\nRun report written to " << opts.report_path << "\n";
  }
  return 0;
}
