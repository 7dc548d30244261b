#include "passes.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/stats.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "exec/cost_model.h"
#include "netsim/pricing.h"
#include "workloads/arrivals.h"
#include "workloads/hibench.h"

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuClock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double ThreadCpuNow() { return CpuClock(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuNow() { return CpuClock(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

// Intermediate key: process CPU during engine.run_s, split into loop and
// pool CPU once the pass ends.
constexpr const char* kRunProcessCpu = "run.process_cpu_s";

// Adds the wall time of a scope to (*layers)[name]. Reads no clock when
// layers is null (an untraced pass).
class Span {
 public:
  Span(Layers* layers, const char* name)
      : layers_(layers), name_(name), start_(layers ? WallNow() : 0) {}
  ~Span() {
    if (layers_ != nullptr) (*layers_)[name_] += WallNow() - start_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* layers_;
  const char* name_;
  double start_;
};

// A call that drives the event loop: its wall time counts as engine.run_s
// (and `name`, when given), the calling thread's CPU as the loop's, and the
// rest of the process CPU as the compute pool's.
class RunSpan {
 public:
  explicit RunSpan(Layers* layers, const char* name = nullptr)
      : layers_(layers), name_(name) {
    if (layers_ == nullptr) return;
    wall_ = WallNow();
    thread_cpu_ = ThreadCpuNow();
    process_cpu_ = ProcessCpuNow();
  }
  ~RunSpan() {
    if (layers_ == nullptr) return;
    const double wall = WallNow() - wall_;
    (*layers_)["engine.run_s"] += wall;
    if (name_ != nullptr) (*layers_)[name_] += wall;
    (*layers_)["engine.loop_cpu_s"] += ThreadCpuNow() - thread_cpu_;
    (*layers_)[kRunProcessCpu] += ProcessCpuNow() - process_cpu_;
  }
  RunSpan(const RunSpan&) = delete;
  RunSpan& operator=(const RunSpan&) = delete;

 private:
  Layers* layers_;
  const char* name_;
  double wall_ = 0, thread_cpu_ = 0, process_cpu_ = 0;
};

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::uint64_t DataSeed(std::uint64_t seed) { return seed * 7919 + 13; }

// Seed of the simulated cluster (WAN jitter, failure draws) and of the
// arrival schedule. It is part of each workload's definition, not drawn
// from the invocation's seed, so every seed asks the same simulated work
// of each layer and only the records differ.
constexpr std::uint64_t kClusterSeed = 1;

gs::RunConfig BaseConfig(gs::Scheme scheme, std::uint64_t seed, double scale,
                         int threads) {
  gs::RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.scale = scale;
  cfg.cost = gs::CostModel{}.Scaled(scale);
  cfg.compute_threads = threads;
  cfg.observe.egress_usd_per_gib =
      gs::WanPricing::Ec2SixRegionTariff().rates();
  return cfg;
}

// Registry counters each traced pass reports, summed over the pass's
// clusters; gauges report their high-water mark, histograms their sum.
constexpr const char* kCounters[] = {
    "simcore.events_executed", "simcore.events_scheduled",
    "simcore.heap_compactions", "netsim.flows_started",
    "netsim.rate_recomputes",  "netsim.solver_flows",
    "netsim.flow_reschedules", "netsim.parallel_solves",
    "sched.tasks_assigned"};

void AddRegistry(const gs::MetricsRegistry& registry, Layers* layers) {
  for (const gs::MetricSnapshot& m : registry.Snapshot()) {
    if (std::find_if(std::begin(kCounters), std::end(kCounters),
                     [&](const char* c) { return m.name == c; }) !=
        std::end(kCounters)) {
      (*layers)[m.name] += static_cast<double>(m.value);
    } else if (m.name == "netsim.active_flows" ||
               m.name == "sched.queue_depth") {
      const std::string peak = m.name == "netsim.active_flows"
                                   ? "netsim.active_flows_peak"
                                   : "sched.queue_depth_peak";
      (*layers)[peak] = std::max((*layers)[peak], static_cast<double>(m.max));
    } else if (m.name == "sched.queue_wait_s") {
      (*layers)[m.name] += m.sum;
    }
  }
}

// Flow accounting must balance once a cluster is quiescent: every started
// flow completed or was cancelled, and none is still active.
std::string CheckFlows(gs::GeoCluster& cluster) {
  gs::MetricsRegistry* reg = cluster.metrics_registry();
  if (reg == nullptr) return "metrics registry disabled";
  const std::int64_t started = reg->counter("netsim.flows_started").value();
  const std::int64_t completed =
      reg->counter("netsim.flows_completed").value();
  const std::int64_t cancelled =
      reg->counter("netsim.flows_cancelled").value();
  const std::int64_t active = reg->gauge("netsim.active_flows").value();
  if (started != completed + cancelled || active != 0) {
    return "flow accounting: started " + std::to_string(started) +
           " != completed " + std::to_string(completed) + " + cancelled " +
           std::to_string(cancelled) + ", or active " +
           std::to_string(active) + " != 0";
  }
  return "";
}

// Records of the source partitions under `rdd`, counted from the lineage.
std::size_t InputRecords(const gs::RddPtr& rdd) {
  if (auto src = std::dynamic_pointer_cast<gs::SourceRdd>(rdd)) {
    std::size_t n = 0;
    for (int p = 0; p < src->num_partitions(); ++p) {
      n += src->partition(p).records->size();
    }
    return n;
  }
  std::size_t n = 0;
  for (const gs::RddPtr& parent : rdd->parents()) n += InputRecords(parent);
  return n;
}

void Fail(PassResult* out, const std::string& unit, const std::string& why) {
  ++out->failed;
  out->failures.push_back(unit + ": " + why);
}

// The simulated fingerprint of one job; `report` is the digest of its
// RunReport JSON, or empty when the report covers several jobs.
void AddFingerprint(PassResult* out, const std::string& unit, double jct,
                    gs::Bytes cross_dc, const std::string& report) {
  out->fingerprints.push_back(
      unit + " jct=" + Fmt(jct) + " cross_dc=" + std::to_string(cross_dc) +
      (report.empty() ? "" : " report=" + report));
}

// One TeraSort cell: a fresh cluster under one scheme. With `collect` the
// job collects its records and the cell also checks them.
void RunCell(const WorkList& w, const gs::RunConfig& cfg, bool collect,
             Layers* layers, PassResult* out) {
  const std::string unit = std::string(gs::SchemeName(cfg.scheme));
  ++out->attempted;
  try {
    std::unique_ptr<gs::GeoCluster> cluster;
    {
      Span span(layers, "engine.cluster_init_s");
      cluster = std::make_unique<gs::GeoCluster>(w.topology, cfg);
    }
    gs::WorkloadParams params;
    params.scale = w.scale;
    params.collect_results = collect;
    std::unique_ptr<gs::Workload> wl = gs::MakeWorkload(w.hibench, params);
    std::optional<gs::Dataset> ds;
    {
      Span span(layers, "workloads.build_s");
      ds.emplace(wl->Build(*cluster, DataSeed(w.seed)));
    }
    gs::RunResult result;
    {
      RunSpan span(layers);
      result = ds->Run(wl->action());
    }
    std::string json;
    {
      Span span(layers, "engine.report_s");
      json = cluster->BuildReport(result.metrics, nullptr).ToJson();
    }
    std::string why = CheckFlows(*cluster);
    if (why.empty() && cluster->job_rows().size() != 1) {
      why = "job never completed";
    }
    if (why.empty() && collect) {
      const std::size_t input = InputRecords(ds->rdd());
      if (result.records.size() != input) {
        why = "collected " + std::to_string(result.records.size()) +
              " records, input has " + std::to_string(input);
      }
      for (std::size_t i = 1; why.empty() && i < result.records.size(); ++i) {
        if (result.records[i].key < result.records[i - 1].key) {
          why = "output not sorted at record " + std::to_string(i);
        }
      }
    }
    if (!why.empty()) Fail(out, unit, why);
    AddFingerprint(out, unit, result.metrics.jct(),
                   result.metrics.cross_dc_bytes, Hex(gs::Fnv1a64(json)));
    if (layers != nullptr) {
      (*layers)["engine.sim_jct_s"] += result.metrics.jct();
      (*layers)["engine.sim_cross_dc_mib"] +=
          gs::ToMiB(result.metrics.cross_dc_bytes);
      AddRegistry(*cluster->metrics_registry(), layers);
    }
    Span span(layers, "engine.teardown_s");
    result = gs::RunResult{};
    ds.reset();
    wl.reset();
    cluster.reset();
  } catch (const std::exception& e) {
    Fail(out, unit, e.what());
  }
}

// A multi-tenant service: every job of the list on one shared cluster,
// submitted on the open-loop arrival schedule, drained to quiescence.
void RunService(const WorkList& w, Layers* layers, PassResult* out) {
  const int jobs = static_cast<int>(w.arrivals.size());
  auto job_label = [&](int j) { return w.hibench + "#" + std::to_string(j); };
  out->attempted += jobs;
  try {
    std::unique_ptr<gs::GeoCluster> cluster;
    {
      Span span(layers, "engine.cluster_init_s");
      cluster = std::make_unique<gs::GeoCluster>(w.topology, w.configs[0]);
    }
    gs::WorkloadParams params;
    params.scale = w.scale;
    std::vector<gs::JobHandle> handles;
    for (int j = 0; j < jobs; ++j) {
      std::unique_ptr<gs::Workload> wl = gs::MakeWorkload(w.hibench, params);
      std::optional<gs::Dataset> ds;
      {
        Span span(layers, "workloads.build_s");
        ds.emplace(wl->Build(
            *cluster, DataSeed(w.seed + static_cast<std::uint64_t>(j))));
      }
      gs::JobOptions opts;
      const int tenant = w.tenants[static_cast<std::size_t>(j)];
      opts.tenant = "t" + std::to_string(tenant);
      opts.weight = tenant + 1.0;
      opts.arrival_delay = w.arrivals[static_cast<std::size_t>(j)];
      opts.label = job_label(j);
      RunSpan span(layers);
      handles.push_back(ds->Submit(wl->action(), opts));
    }
    {
      RunSpan span(layers);
      cluster->RunUntilQuiescent();
    }
    std::string json;
    {
      Span span(layers, "engine.report_s");
      json = cluster->BuildReport(gs::JobMetrics{}, nullptr).ToJson();
    }
    // A cluster-level failure fails every job on the cluster.
    const std::string why = CheckFlows(*cluster);
    std::vector<double> jcts;
    for (const gs::RunReport::JobRow& row : cluster->job_rows()) {
      jcts.push_back(row.jct());
      AddFingerprint(out, row.label, row.jct(), row.cross_dc_bytes, "");
      if (layers != nullptr) {
        (*layers)["engine.sim_jct_s"] += row.jct();
        (*layers)["engine.sim_cross_dc_mib"] += gs::ToMiB(row.cross_dc_bytes);
      }
    }
    out->fingerprints.push_back("service report=" + Hex(gs::Fnv1a64(json)));
    for (int j = 0; j < jobs; ++j) {
      if (!why.empty()) {
        Fail(out, job_label(j), why);
      } else if (!handles[static_cast<std::size_t>(j)].done()) {
        Fail(out, job_label(j), "job never completed");
      }
    }
    if (layers != nullptr && !jcts.empty()) {
      (*layers)["service.sim_jct_p50_s"] = gs::Percentile(jcts, 50);
      (*layers)["service.sim_jct_max_s"] =
          *std::max_element(jcts.begin(), jcts.end());
      AddRegistry(*cluster->metrics_registry(), layers);
    }
    Span span(layers, "engine.teardown_s");
    handles.clear();
    cluster.reset();
  } catch (const std::exception& e) {
    for (int j = 0; j < jobs; ++j) Fail(out, job_label(j), e.what());
  }
}

// The full simcheck check of every configuration: the netsim script and
// the engine differential, no shrinking.
void RunSimcheckSweep(const WorkList& w, Layers* layers, PassResult* out) {
  namespace sc = gs::simcheck;
  for (const sc::SimcheckConfig& cfg : w.checks) {
    const std::string unit = "simcheck#" + std::to_string(cfg.seed);
    ++out->attempted;
    try {
      sc::CheckResult net, engine;
      {
        Span span(layers, "simcheck.netsim_check_s");
        net = sc::RunNetsimCheck(cfg);
      }
      {
        RunSpan span(layers, "simcheck.engine_check_s");
        engine = sc::RunEngineCheck(cfg);
      }
      std::string why;
      for (const sc::CheckResult* r : {&net, &engine}) {
        for (const sc::Violation& v : r->violations) {
          why += (why.empty() ? "" : "; ") + v.invariant + ": " + v.detail;
        }
      }
      if (!why.empty()) Fail(out, unit, why);
      out->fingerprints.push_back(
          unit + " engine_runs=" + std::to_string(engine.engine_runs) +
          " netsim_flows=" + std::to_string(net.netsim_flows) +
          " violations=" +
          std::to_string(net.violations.size() + engine.violations.size()));
      if (layers != nullptr) {
        (*layers)["simcheck.engine_runs"] += engine.engine_runs;
        (*layers)["simcheck.netsim_flows"] += net.netsim_flows;
      }
    } catch (const std::exception& e) {
      Fail(out, unit, e.what());
    }
  }
}

// Derives the ratio metrics of a traced pass from its raw spans.
void Derive(const WorkList& w, PassResult* out) {
  Layers& l = out->layers;
  for (const MetricDef& m : LayerMetrics()) l.emplace(m.name, 0.0);
  const double run = l["engine.run_s"];
  const double loop = l["engine.loop_cpu_s"];
  const double pool = l[kRunProcessCpu] - loop;
  l.erase(kRunProcessCpu);
  l["engine.loop_wait_s"] = run - loop;
  l["exec.pool_cpu_s"] = pool;
  l["exec.pool_util"] = run > 0 ? pool / (run * w.threads) : 0;
  const double events = l["simcore.events_executed"];
  l["simcore.loop_us_per_event"] = events > 0 ? 1e6 * loop / events : 0;
  std::uint64_t digest = gs::kFnvOffsetBasis;
  for (const std::string& f : out->fingerprints) {
    digest = gs::Fnv1a64(f, digest);
  }
  // 48 bits, so the JSON number stays exact.
  l["engine.report_digest"] = static_cast<double>(digest >> 16);
}

}  // namespace

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"workloads.build_s", "s"},
      {"workloads.build_share", "ratio"},
      {"engine.cluster_init_s", "s"},
      {"engine.run_s", "s"},
      {"engine.report_s", "s"},
      {"engine.teardown_s", "s"},
      {"engine.loop_cpu_s", "s"},
      {"engine.loop_wait_s", "s"},
      {"engine.sim_jct_s", "s"},
      {"engine.sim_cross_dc_mib", "MiB"},
      {"engine.report_digest", "digest"},
      {"exec.pool_cpu_s", "s"},
      {"exec.pool_util", "ratio"},
      {"simcore.events_executed", "count"},
      {"simcore.events_scheduled", "count"},
      {"simcore.heap_compactions", "count"},
      {"simcore.loop_us_per_event", "us"},
      {"netsim.flows_started", "count"},
      {"netsim.rate_recomputes", "count"},
      {"netsim.solver_flows", "count"},
      {"netsim.flow_reschedules", "count"},
      {"netsim.active_flows_peak", "count"},
      {"netsim.parallel_solves", "count"},
      {"sched.tasks_assigned", "count"},
      {"sched.queue_depth_peak", "count"},
      {"sched.queue_wait_s", "s"},
      {"service.sim_jct_p50_s", "s"},
      {"service.sim_jct_max_s", "s"},
      {"simcheck.engine_check_s", "s"},
      {"simcheck.netsim_check_s", "s"},
      {"simcheck.engine_runs", "count"},
      {"simcheck.netsim_flows", "count"},
      {"trace.pass_s", "s"},
      {"trace.untraced_pass_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return metrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "terasort-cells", "pagerank-service", "sort-overload",
      "simcheck-sweep"};
  return names;
}

WorkList Setup(const std::string& workload, std::uint64_t seed, int threads) {
  WorkList w;
  w.name = workload;
  w.seed = seed;
  w.threads = threads;
  if (workload == "terasort-cells") {
    // One Fig. 7 column: TeraSort at scale 20 under the three schemes,
    // each cell on a fresh cluster with the same data seed, configured like
    // the figure benches (8% first-attempt reduce failures).
    w.kind = Kind::kCells;
    w.hibench = "terasort";
    w.scale = 20;
    w.topology = gs::Ec2SixRegionTopology(w.scale);
    for (gs::Scheme s : {gs::Scheme::kSpark, gs::Scheme::kCentralized,
                         gs::Scheme::kAggShuffle}) {
      gs::RunConfig cfg = BaseConfig(s, kClusterSeed, w.scale, threads);
      cfg.fault.reduce_failure_prob = 0.08;
      w.configs.push_back(cfg);
    }
  } else if (workload == "pagerank-service" || workload == "sort-overload") {
    // Open-loop Poisson arrivals over four tenants weighted 1..4 on one
    // AggShuffle cluster at scale 100. PageRank arrives at 0.5 jobs per
    // simulated second; Sort at 1.0, above the cluster's capacity.
    const bool pagerank = workload == "pagerank-service";
    w.kind = Kind::kService;
    w.hibench = pagerank ? "pagerank" : "sort";
    w.scale = 100;
    w.topology = gs::Ec2SixRegionTopology(w.scale);
    w.configs.push_back(
        BaseConfig(gs::Scheme::kAggShuffle, kClusterSeed, w.scale, threads));
    gs::ArrivalConfig arrivals;
    arrivals.rate_per_s = pagerank ? 0.5 : 1.0;
    const int jobs = pagerank ? 32 : 64;
    w.arrivals = gs::GenerateArrivals(arrivals, jobs, kClusterSeed);
    for (int j = 0; j < jobs; ++j) w.tenants.push_back(j % 4);
  } else if (workload == "simcheck-sweep") {
    // Configurations 1..2000, the widest range every invariant holds on
    // today; the seed only shuffles the order they run in.
    w.kind = Kind::kSimcheck;
    for (std::uint64_t s = 1; s <= 2000; ++s) {
      w.checks.push_back(gs::simcheck::GenerateConfig(s));
    }
    std::mt19937_64 rng(seed);
    for (std::size_t i = w.checks.size() - 1; i > 0; --i) {
      std::swap(w.checks[i], w.checks[rng() % (i + 1)]);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return w;
}

PassResult RunPass(const WorkList& work, bool traced) {
  PassResult out;
  Layers* layers = traced ? &out.layers : nullptr;
  switch (work.kind) {
    case Kind::kCells:
      for (const gs::RunConfig& cfg : work.configs) {
        RunCell(work, cfg, /*collect=*/false, layers, &out);
      }
      break;
    case Kind::kService:
      RunService(work, layers, &out);
      break;
    case Kind::kSimcheck:
      RunSimcheckSweep(work, layers, &out);
      break;
  }
  if (traced) Derive(work, &out);
  return out;
}

PassResult VerifyPass(const WorkList& work) {
  PassResult out;
  if (work.kind != Kind::kCells) return out;
  for (const gs::RunConfig& cfg : work.configs) {
    RunCell(work, cfg, /*collect=*/true, nullptr, &out);
  }
  return out;
}

void AddClusterInitProbe(const WorkList& work, Layers* layers) {
  if (work.kind != Kind::kSimcheck || work.checks.empty()) return;
  double seconds = 0;
  int clusters = 0;
  for (const gs::simcheck::SimcheckConfig& cfg : work.checks) {
    for (int threads : {1, cfg.threads_high}) {
      gs::RunConfig rc;
      rc.seed = cfg.seed;
      rc.scale = 1;
      rc.compute_threads = threads;
      rc.aggregator_dc_count = cfg.aggregator_dc_count;
      rc.transport.kind = static_cast<gs::TransportKind>(cfg.transport);
      gs::Topology topo = gs::simcheck::BuildTopology(cfg);
      const double start = WallNow();
      auto cluster = std::make_unique<gs::GeoCluster>(std::move(topo), rc);
      seconds += WallNow() - start;
      ++clusters;
    }
  }
  (*layers)["engine.cluster_init_s"] =
      seconds / clusters * (*layers)["simcheck.engine_runs"];
}

}  // namespace perfbench
