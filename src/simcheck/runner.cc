// simcheck engine-level runner: executes one configuration under all three
// schemes and two compute-pool sizes, plus a bit-identical rerun, and
// checks the invariant catalog (see simcheck.h and docs/TESTING.md). The
// runs are independent engine instances, so they execute concurrently on a
// hardware-wide pool and are consumed in a fixed order (docs/PERF.md §11).
#include <algorithm>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/threadpool.h"
#include "data/combiner.h"
#include "data/record.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "simcheck/simcheck.h"
#include "workloads/input_gen.h"

namespace gs {
namespace simcheck {
namespace {

// Everything one engine run exposes to the invariant checks, captured
// while the cluster is still alive.
struct SchemeRun {
  bool failed = false;
  std::string error;
  std::vector<Record> records;
  std::string report_json;
  JobMetrics job;
  std::map<std::string, std::int64_t> counters;  // metric name -> value
  std::vector<std::string> conservation;         // per-link mismatches
  std::vector<std::string> placement;            // Parallelize contract
  std::size_t pending_events = 0;
  int active_flows = 0;
  bool faulty = false;  // the run executed under a non-empty fault plan
  // Spark-mode Eq. 2 observations (tracker reflects mapper placement; under
  // coded shuffle the matrix is rebuilt from the retained primary nodes,
  // since the final tracker state reflects the coded exchange).
  Bytes S = 0;
  Bytes s1 = 0;
  Bytes exact_bound = 0;  // S - sum_k max_j b_jk over the b matrix
  Bytes coded_bound = 0;  // replica-aware refinement (docs/CODED.md)
  Bytes cross = 0;        // cross-DC fetch + push + coded-multicast bytes
};

Dataset ApplyDag(const SimcheckConfig& cfg, Dataset src) {
  const int shards = cfg.num_shards;
  switch (cfg.dag_shape) {
    case 0:
      return src.ReduceByKey(SumInt64(), shards);
    case 1:
      return src
          .Map("rekey",
               [](const Record& r) {
                 return Record{r.key + (r.key.size() % 2 ? "-a" : "-b"),
                               r.value};
               })
          .ReduceByKey(SumInt64(), shards);
    case 2:
      return src
          .FlatMap("dup",
                   [](const Record& r) {
                     return std::vector<Record>{
                         r, Record{r.key + "x", std::int64_t{1}}};
                   })
          .ReduceByKey(SumInt64(), shards)
          .Map("inc",
               [](const Record& r) {
                 return Record{r.key, std::get<std::int64_t>(r.value) + 1};
               })
          .ReduceByKey(SumInt64(), std::max(1, shards / 2));
    case 3:
      return src.GroupByKey(shards);
    case 4: {
      Dataset kept = src.Filter("drop-third", [](const Record& r) {
        return (r.key.size() +
                static_cast<std::size_t>(
                    static_cast<unsigned char>(r.key.back()))) %
                   3 !=
               0;
      });
      Dataset renamed = src.Map("rename", [](const Record& r) {
        return Record{"u-" + r.key, r.value};
      });
      return kept.Union(renamed).ReduceByKey(SumInt64(), shards);
    }
    case 5:
      return src.SortByKey(UniformBoundaries(shards, kHexAlphabet));
    default:
      GS_CHECK_MSG(false, "bad dag_shape " << cfg.dag_shape);
      return src;
  }
}

// Reference evaluation of the same DAG over the raw input records. Order
// is irrelevant: results are compared as canonical multisets.
std::vector<Record> OracleRecords(const SimcheckConfig& cfg,
                                  const std::vector<Record>& input) {
  auto reduce_sum = [](const std::vector<Record>& recs) {
    std::map<std::string, std::int64_t> sums;
    for (const Record& r : recs) sums[r.key] += std::get<std::int64_t>(r.value);
    std::vector<Record> out;
    out.reserve(sums.size());
    for (const auto& [k, v] : sums) out.push_back({k, v});
    return out;
  };
  switch (cfg.dag_shape) {
    case 0:
      return reduce_sum(input);
    case 1: {
      std::vector<Record> mapped;
      mapped.reserve(input.size());
      for (const Record& r : input) {
        mapped.push_back(
            {r.key + (r.key.size() % 2 ? "-a" : "-b"), r.value});
      }
      return reduce_sum(mapped);
    }
    case 2: {
      std::vector<Record> flat;
      flat.reserve(2 * input.size());
      for (const Record& r : input) {
        flat.push_back(r);
        flat.push_back({r.key + "x", std::int64_t{1}});
      }
      std::vector<Record> first = reduce_sum(flat);
      for (Record& r : first) {
        r.value = std::get<std::int64_t>(r.value) + 1;
      }
      return reduce_sum(first);
    }
    case 3: {
      std::map<std::string, std::vector<std::string>> groups;
      for (const Record& r : input) {
        groups[r.key].push_back(std::get<std::string>(r.value));
      }
      std::vector<Record> out;
      out.reserve(groups.size());
      for (auto& [k, vs] : groups) out.push_back({k, std::move(vs)});
      return out;
    }
    case 4: {
      std::vector<Record> merged;
      for (const Record& r : input) {
        if ((r.key.size() +
             static_cast<std::size_t>(
                 static_cast<unsigned char>(r.key.back()))) %
                3 !=
            0) {
          merged.push_back(r);
        }
      }
      for (const Record& r : input) merged.push_back({"u-" + r.key, r.value});
      return reduce_sum(merged);
    }
    case 5:
      return input;  // sorting is a permutation
    default:
      GS_CHECK_MSG(false, "bad dag_shape " << cfg.dag_shape);
      return {};
  }
}

// Order-insensitive rendering of a record: group-by value lists compare as
// sets (their order is an execution detail, not a semantic output).
std::string CanonicalLine(const Record& r) {
  Value v = r.value;
  if (auto* vec = std::get_if<std::vector<std::string>>(&v)) {
    std::sort(vec->begin(), vec->end());
  }
  return r.key + "\t" + ToString(v);
}

std::vector<std::string> CanonicalMultiset(const std::vector<Record>& recs) {
  std::vector<std::string> lines;
  lines.reserve(recs.size());
  for (const Record& r : recs) lines.push_back(CanonicalLine(r));
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::string FirstDifference(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  std::ostringstream os;
  os << a.size() << " vs " << b.size() << " records";
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      os << "; first diff at #" << i << ": \"" << a[i] << "\" vs \"" << b[i]
         << "\"";
      return os.str();
    }
  }
  if (a.size() != b.size()) {
    const auto& longer = a.size() > b.size() ? a : b;
    os << "; extra: \"" << longer[n] << "\"";
  }
  return os.str();
}

SchemeRun RunOne(const SimcheckConfig& cfg,
                 const std::vector<Record>& input_records, Scheme scheme,
                 int threads, const FaultPlan& plan) {
  SchemeRun out;
  out.faulty = !plan.empty();
  try {
    Topology topo = BuildTopology(cfg);
    RunConfig rc;
    rc.scheme = scheme;
    rc.seed = cfg.seed;
    rc.scale = 1;
    rc.cost = CostModel{};
    rc.compute_threads = threads;
    rc.aggregator_dc_count = cfg.aggregator_dc_count;
    rc.disable_map_side_combine = !cfg.map_side_combine;
    rc.transport.kind = static_cast<TransportKind>(cfg.transport);
    rc.adaptive.enabled = cfg.adaptive != 0;
    // Coded shuffle replaces the baseline fetch path, so the engine only
    // accepts it under kSpark; the other schemes run uncoded and the
    // cross-scheme equivalence check still applies unmodified.
    if (scheme == Scheme::kSpark && cfg.coded != 0) {
      rc.coded.enabled = true;
      rc.coded.redundancy_r = cfg.coded;
    }
    rc.fault.plan = plan;
    if (!cfg.noisy_network) {
      rc.net.jitter_interval = 0;
      rc.net.wan_stall_prob = 0;
      rc.net.wan_flow_efficiency_min = 1.0;
      rc.cost.straggler_sigma = 0;
      rc.cost.straggler_prob = 0;
    }
    GeoCluster cluster(std::move(topo), rc);
    Dataset input = cluster.Parallelize("simcheck-input", input_records,
                                        cfg.partitions_per_dc);

    // Structural contract of Parallelize: partitions_per_dc partitions in
    // every datacenter, each placed on a worker node.
    {
      const Topology& ct = cluster.topology();
      auto src = std::dynamic_pointer_cast<SourceRdd>(input.rdd());
      std::vector<int> per_dc(
          static_cast<std::size_t>(ct.num_datacenters()), 0);
      for (int p = 0; p < input.num_partitions(); ++p) {
        const NodeIndex n = src->partition(p).node;
        if (!ct.node(n).worker) {
          std::ostringstream os;
          os << "partition " << p << " placed on non-worker node " << n;
          out.placement.push_back(os.str());
          continue;
        }
        ++per_dc[static_cast<std::size_t>(ct.dc_of(n))];
      }
      for (DcIndex dc = 0; dc < ct.num_datacenters(); ++dc) {
        if (per_dc[static_cast<std::size_t>(dc)] != cfg.partitions_per_dc) {
          std::ostringstream os;
          os << "datacenter " << dc << " holds "
             << per_dc[static_cast<std::size_t>(dc)] << " partitions, want "
             << cfg.partitions_per_dc;
          out.placement.push_back(os.str());
        }
      }
    }

    RunResult run = ApplyDag(cfg, input)
                        .Run(cfg.save_action ? ActionKind::kSave
                                             : ActionKind::kCollect);

    out.records = std::move(run.records);
    out.report_json = run.report.ToJson();
    out.job = run.metrics;
    for (const MetricSnapshot& m : run.report.metrics) {
      out.counters[m.name] = m.value;
    }
    out.cross = run.metrics.cross_dc_fetch_bytes +
                run.metrics.cross_dc_push_bytes +
                run.metrics.coded_multicast_bytes;

    // Conservation: per directed WAN link, utilization bucket sums must
    // equal the meter's pair bytes bit for bit.
    const Topology& t = cluster.topology();
    const Network& net = cluster.network();
    const LinkUtilization* util = net.utilization();
    if (util != nullptr) {
      for (int l = 0; l < t.num_wan_links(); ++l) {
        const WanLinkSpec& spec = t.wan_link(l);
        const Bytes metered = net.meter().pair_bytes(spec.src, spec.dst);
        Bytes summed = 0;
        for (Bytes b : util->buckets(l)) summed += b;
        if (summed != metered || util->total(l) != metered) {
          std::ostringstream os;
          os << "link " << spec.src << "->" << spec.dst << ": meter "
             << metered << "B, bucket sum " << summed << "B, total "
             << util->total(l) << "B";
          out.conservation.push_back(os.str());
        }
      }
    }

    if (scheme == Scheme::kSpark && cluster.tracker().HasShuffle(0)) {
      const MapOutputTracker& tracker = cluster.tracker();
      out.S = tracker.TotalBytes(0);
      const int maps = tracker.num_map_partitions(0);
      const int shards = tracker.num_shards(0);
      const int dcs = t.num_datacenters();
      const bool coded = rc.coded.enabled;
      if (!coded) {
        std::vector<Bytes> per_dc = tracker.BytesPerDc(0, t);
        out.s1 = *std::max_element(per_dc.begin(), per_dc.end());
        // Exact refinement of Eq. 2: each shard k must move everything not
        // already in the datacenter holding most of it, so
        // D >= sum_k (s_k - max_j b_jk) regardless of shard imbalance.
        std::vector<Bytes> b(static_cast<std::size_t>(dcs) * shards, 0);
        for (int m = 0; m < maps; ++m) {
          for (int k = 0; k < shards; ++k) {
            const MapOutputLocation& loc = tracker.Output(0, m, k);
            if (loc.node == kNoNode) continue;
            b[static_cast<std::size_t>(t.dc_of(loc.node)) * shards + k] +=
                loc.bytes;
          }
        }
        for (int k = 0; k < shards; ++k) {
          Bytes col = 0, best = 0;
          for (DcIndex j = 0; j < dcs; ++j) {
            const Bytes v = b[static_cast<std::size_t>(j) * shards + k];
            col += v;
            best = std::max(best, v);
          }
          out.exact_bound += col - best;
        }
      } else {
        // The coded exchange relocates shards, so the tracker's final
        // locations describe the consolidated layout, not the mapper
        // placement. Rebuild the matrix from the retained primary nodes
        // and compute the replica-aware bound: with ring replication of
        // redundancy r a segment is free for shard k in every datacenter
        // of its ring, so D >= sum_k (s_k - max_j b~_jk) over the
        // replica-inclusive matrix b~ (docs/CODED.md).
        const int r = std::min(cfg.coded, dcs);
        std::vector<Bytes> prim(static_cast<std::size_t>(dcs) * shards, 0);
        std::vector<Bytes> rep(static_cast<std::size_t>(dcs) * shards, 0);
        for (int m = 0; m < maps; ++m) {
          const NodeIndex p = tracker.primary_node(0, m);
          if (p == kNoNode) continue;
          const DcIndex pdc = t.dc_of(p);
          for (int k = 0; k < shards; ++k) {
            const Bytes bytes = tracker.Output(0, m, k).bytes;
            prim[static_cast<std::size_t>(pdc) * shards + k] += bytes;
            for (int j = 0; j < r; ++j) {
              const DcIndex d = (pdc + j) % dcs;
              rep[static_cast<std::size_t>(d) * shards + k] += bytes;
            }
          }
        }
        std::vector<Bytes> per_dc(static_cast<std::size_t>(dcs), 0);
        for (DcIndex j = 0; j < dcs; ++j) {
          for (int k = 0; k < shards; ++k) {
            per_dc[static_cast<std::size_t>(j)] +=
                prim[static_cast<std::size_t>(j) * shards + k];
          }
        }
        out.s1 = *std::max_element(per_dc.begin(), per_dc.end());
        for (int k = 0; k < shards; ++k) {
          Bytes col = 0, best = 0;
          for (DcIndex j = 0; j < dcs; ++j) {
            col += prim[static_cast<std::size_t>(j) * shards + k];
            best = std::max(
                best, rep[static_cast<std::size_t>(j) * shards + k]);
          }
          out.coded_bound += std::max(Bytes{0}, col - best);
        }
      }
    }

    out.pending_events = cluster.simulator().pending_events();
    out.active_flows = cluster.network().active_flows();
  } catch (const std::exception& e) {
    out.failed = true;
    out.error = e.what();
  }
  return out;
}

void Add(CheckResult* r, const char* invariant, std::string detail) {
  r->violations.push_back(Violation{invariant, std::move(detail)});
}

bool ValidateConfig(const SimcheckConfig& cfg, CheckResult* r) {
  std::ostringstream os;
  if (cfg.num_dcs < 1 || cfg.nodes_per_dc < 1) {
    os << "topology dims out of range";
  } else if (cfg.dag_shape < 0 || cfg.dag_shape >= kNumDagShapes) {
    os << "dag_shape " << cfg.dag_shape << " out of range";
  } else if (cfg.num_records < 1 || cfg.num_keys < 1 || cfg.num_shards < 1 ||
             cfg.partitions_per_dc < 1) {
    os << "workload dims out of range";
  } else if (cfg.threads_high < 1) {
    os << "threads_high < 1";
  } else if (cfg.aggregator_dc_count < 1) {
    os << "aggregator_dc_count < 1";
  } else if (cfg.wan_rate_mbps < 1 || cfg.rtt_ms < 1) {
    os << "network parameters out of range";
  } else if (cfg.transport < 0 || cfg.transport > 2) {
    os << "transport " << cfg.transport << " out of range";
  } else if (cfg.adaptive < 0 || cfg.adaptive > 1) {
    os << "adaptive " << cfg.adaptive << " out of range";
  } else if (cfg.coded != 0 && (cfg.coded < 1 || cfg.coded > cfg.num_dcs)) {
    os << "coded " << cfg.coded << " out of range";
  } else {
    return true;
  }
  Add(r, kInvRunFailure, "invalid config: " + os.str());
  return false;
}

}  // namespace

CheckResult RunEngineCheck(const SimcheckConfig& cfg) {
  CheckResult result;
  if (!ValidateConfig(cfg, &result)) return result;

  // Every run (and the oracle) reads the same input; build it once.
  const std::vector<Record> input_records = BuildRecords(cfg);

  // Resolve the fault plan: fractions of the fault-free Spark JCT become
  // absolute simulated times via a probe run.
  FaultPlan plan;
  const bool wants_faults = cfg.crash || cfg.degrade || cfg.block_loss;
  if (wants_faults) {
    SchemeRun probe =
        RunOne(cfg, input_records, Scheme::kSpark, 1, FaultPlan{});
    ++result.engine_runs;
    if (probe.failed) {
      Add(&result, kInvRunFailure, "fault-free probe threw: " + probe.error);
      return result;
    }
    const SimTime jct = probe.job.jct();
    const int workers = cfg.num_dcs * cfg.nodes_per_dc;
    if (cfg.crash && workers >= 2) {
      NodeCrashEvent crash;
      crash.at = cfg.crash_frac * jct;
      crash.node = 1 + std::abs(cfg.crash_victim - 1) % (workers - 1);
      crash.restart_after = cfg.restart_after;
      plan.node_crashes.push_back(crash);
    }
    if (cfg.degrade && cfg.num_dcs >= 2 && cfg.degrade_duration > 0) {
      LinkDegradationEvent deg;
      deg.at = cfg.degrade_frac * jct;
      deg.src = 0;
      deg.dst = 1;
      deg.factor = cfg.degrade_factor;
      deg.duration = cfg.degrade_duration;
      deg.symmetric = true;
      plan.link_degradations.push_back(deg);
    }
    if (cfg.block_loss) {
      BlockLossEvent loss;
      loss.at = cfg.block_loss_frac * jct;
      loss.node = workers - 1;
      plan.block_losses.push_back(loss);
    }
  }

  const Scheme schemes[] = {Scheme::kSpark, Scheme::kCentralized,
                            Scheme::kAggShuffle};
  const int rerun_idx = static_cast<int>(cfg.seed % 3);  // rotated by seed

  // The remaining runs depend only on the plan, so they all go to the
  // pool now: per scheme threads=1 then threads_high, then the rerun. The
  // checks below consume them in that order, so violations come out as a
  // sequential loop would produce them. A threads_high or rerun result
  // whose threads=1 partner threw is never consumed or counted; the pool
  // joins it on destruction, before input_records and plan go away.
  ThreadPool pool(ThreadPool::HardwareConcurrency());
  auto job = [&](Scheme scheme, int threads) {
    return [&cfg, &input_records, &plan, scheme, threads] {
      return RunOne(cfg, input_records, scheme, threads, plan);
    };
  };
  std::vector<std::future<SchemeRun>> runs;
  for (Scheme scheme : schemes) {
    runs.push_back(pool.Submit(job(scheme, 1)));
    runs.push_back(pool.Submit(job(scheme, cfg.threads_high)));
  }
  runs.push_back(pool.Submit(job(schemes[rerun_idx], 1)));

  SchemeRun low[3];
  bool low_ok[3] = {false, false, false};
  for (int s = 0; s < 3; ++s) {
    low[s] = runs[static_cast<std::size_t>(2 * s)].get();
    ++result.engine_runs;
    if (low[s].failed) {
      Add(&result, kInvRunFailure,
          std::string(SchemeName(schemes[s])) + " threw: " + low[s].error);
      continue;
    }
    low_ok[s] = true;

    SchemeRun high = runs[static_cast<std::size_t>(2 * s + 1)].get();
    ++result.engine_runs;
    if (high.failed) {
      Add(&result, kInvRunFailure,
          std::string(SchemeName(schemes[s])) +
              " threads=" + std::to_string(cfg.threads_high) +
              " threw: " + high.error);
    } else {
      if (low[s].records != high.records) {
        Add(&result, kInvThreads,
            std::string(SchemeName(schemes[s])) +
                ": records differ between threads=1 and threads=" +
                std::to_string(cfg.threads_high));
      }
      if (low[s].report_json != high.report_json) {
        Add(&result, kInvThreads,
            std::string(SchemeName(schemes[s])) +
                ": RunReport JSON differs between threads=1 and threads=" +
                std::to_string(cfg.threads_high));
      }
    }

    for (const std::string& c : low[s].conservation) {
      Add(&result, kInvConservation,
          std::string(SchemeName(schemes[s])) + ": " + c);
    }

    // Placement is scheme-independent; report it once.
    if (s == 0) {
      for (const std::string& p : low[s].placement) {
        Add(&result, kInvPlacement, p);
      }
    }

    auto counter = [&](const char* name) {
      auto it = low[s].counters.find(name);
      return it == low[s].counters.end() ? std::int64_t{0} : it->second;
    };
    const std::int64_t started = counter("netsim.flows_started");
    const std::int64_t completed = counter("netsim.flows_completed");
    const std::int64_t cancelled = counter("netsim.flows_cancelled");
    if (started != completed + cancelled) {
      std::ostringstream os;
      os << SchemeName(schemes[s]) << ": flows_started " << started
         << " != flows_completed " << completed << " + flows_cancelled "
         << cancelled;
      Add(&result, kInvFlowAccounting, os.str());
    }
    if (counter("netsim.active_flows") != 0) {
      Add(&result, kInvFlowAccounting,
          std::string(SchemeName(schemes[s])) +
              ": active_flows gauge nonzero after the run");
    }
    if (counter("simcore.events_executed") >
        counter("simcore.events_scheduled")) {
      Add(&result, kInvMetrics,
          std::string(SchemeName(schemes[s])) +
              ": more events executed than scheduled");
    }
    if (counter("sched.queue_depth") != 0) {
      Add(&result, kInvMetrics,
          std::string(SchemeName(schemes[s])) +
              ": scheduler queue not drained");
    }
    if (low[s].pending_events != 0 || low[s].active_flows != 0) {
      std::ostringstream os;
      os << SchemeName(schemes[s]) << ": " << low[s].pending_events
         << " pending events, " << low[s].active_flows
         << " active flows after the run";
      Add(&result, kInvQuiescence, os.str());
    }
  }

  // Bit-identical rerun of one scheme.
  if (low_ok[rerun_idx]) {
    SchemeRun rerun = runs.back().get();
    ++result.engine_runs;
    if (rerun.failed) {
      Add(&result, kInvRunFailure,
          std::string("rerun threw: ") + rerun.error);
    } else {
      if (rerun.records != low[rerun_idx].records) {
        Add(&result, kInvRerun,
            std::string(SchemeName(schemes[rerun_idx])) +
                ": records differ on an identical rerun");
      }
      if (rerun.report_json != low[rerun_idx].report_json) {
        Add(&result, kInvRerun,
            std::string(SchemeName(schemes[rerun_idx])) +
                ": RunReport JSON differs on an identical rerun");
      }
    }
  }

  if (!cfg.save_action) {
    // Cross-scheme equivalence and the oracle, over canonical multisets.
    std::vector<std::string> canon[3];
    for (int s = 0; s < 3; ++s) {
      if (low_ok[s]) canon[s] = CanonicalMultiset(low[s].records);
    }
    for (int s = 1; s < 3; ++s) {
      if (low_ok[0] && low_ok[s] && canon[0] != canon[s]) {
        Add(&result, kInvCrossScheme,
            std::string(SchemeName(schemes[0])) + " vs " +
                SchemeName(schemes[s]) + ": " +
                FirstDifference(canon[0], canon[s]));
      }
    }
    if (low_ok[0]) {
      std::vector<std::string> expected =
          CanonicalMultiset(OracleRecords(cfg, input_records));
      if (canon[0] != expected) {
        Add(&result, kInvOracle,
            "Spark output vs reference evaluation: " +
                FirstDifference(canon[0], expected));
      }
    }
  }

  // Eq. 2 (Sec. III-B): measured cross-DC shuffle traffic respects the
  // lower bound. The Spark run is checked against the exact per-shard
  // refinement computed from its own map-output matrix; AggShuffle against
  // the classic S - s1 with slack for shard imbalance. Fault recovery can
  // re-register map outputs after traffic was measured, so faulty runs get
  // a wide margin — the bound still flags sign-level violations.
  if (low_ok[0] && low[0].S > 0) {
    if (cfg.coded == 0) {
      const Bytes spark_slack =
          low[0].faulty ? low[0].exact_bound / 4 : Bytes{0};
      if (low[0].cross + spark_slack < low[0].exact_bound) {
        std::ostringstream os;
        os << "Spark cross-DC shuffle bytes " << low[0].cross
           << " below the exact bound " << low[0].exact_bound << " (S="
           << low[0].S << ", s1=" << low[0].s1 << ")";
        Add(&result, kInvEq2, os.str());
      }
    } else {
      // With coding on, segments replicated into a shard's home datacenter
      // never cross the WAN, so the Spark run is held to the replica-aware
      // refinement instead of the exact per-shard bound (docs/CODED.md).
      const Bytes coded_slack =
          low[0].faulty ? low[0].coded_bound / 4 : Bytes{0};
      if (low[0].cross + coded_slack < low[0].coded_bound) {
        std::ostringstream os;
        os << "coded Spark cross-DC shuffle bytes " << low[0].cross
           << " below the replica-aware bound " << low[0].coded_bound
           << " (S=" << low[0].S << ", r=" << cfg.coded << ")";
        Add(&result, kInvEq2, os.str());
      }
    }
    if (low_ok[2]) {
      const Bytes eq2 = low[0].S - low[0].s1;
      const Bytes agg_slack =
          eq2 / (low[0].faulty ? 4 : 20) + Bytes{4096};
      if (low[2].cross + agg_slack < eq2) {
        std::ostringstream os;
        os << "AggShuffle cross-DC shuffle bytes " << low[2].cross
           << " below S - s1 = " << eq2;
        Add(&result, kInvEq2, os.str());
      }
    }
  }

  return result;
}

CheckResult RunSimcheck(const SimcheckConfig& cfg) {
  CheckResult net = RunNetsimCheck(cfg);
  CheckResult engine = RunEngineCheck(cfg);
  CheckResult all;
  all.violations = std::move(net.violations);
  all.violations.insert(all.violations.end(), engine.violations.begin(),
                        engine.violations.end());
  all.engine_runs = net.engine_runs + engine.engine_runs;
  all.netsim_flows = net.netsim_flows;
  return all;
}

}  // namespace simcheck
}  // namespace gs
