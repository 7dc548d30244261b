// RunReport: JSON schema/golden encoding, and the report produced by a
// real cluster run.
#include "engine/run_report.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "engine/cluster.h"
#include "engine/dataset.h"

namespace gs {
namespace {

// Golden encoding of a hand-built report: every section, fixed key order,
// integral doubles without a fraction. Guards the on-disk schema — update
// kSchemaVersion when this has to change.
TEST(RunReportTest, GoldenJsonEncoding) {
  RunReport r;
  r.scheme = "AggShuffle";
  r.transport = "direct";
  r.seed = 7;
  r.scale = 100;
  r.label = "golden";
  r.num_datacenters = 2;
  r.num_nodes = 4;
  r.job.job_id = 3;
  r.job.tenant = "etl";
  r.job.submitted = 0.5;
  r.job.started = 1;
  r.job.completed = 2.5;
  r.job.cross_dc_bytes = 1024;
  RunReport::JobRow row;
  row.job_id = 3;
  row.tenant = "etl";
  row.label = "wc";
  row.submitted = 0.5;
  row.started = 1;
  row.completed = 2.5;
  row.cross_dc_bytes = 1024;
  r.jobs.push_back(row);
  r.metrics_enabled = true;
  MetricSnapshot c;
  c.name = "netsim.flows_started";
  c.kind = MetricSnapshot::Kind::kCounter;
  c.value = 3;
  r.metrics.push_back(c);
  r.utilization_bucket = 1;
  RunReport::LinkSeries l;
  l.src_dc = 0;
  l.dst_dc = 1;
  l.src_name = "dc0";
  l.dst_name = "dc1";
  l.base_rate = 1048576;
  l.total_bytes = 1024;
  l.buckets = {512, 0, 512};
  r.links.push_back(l);
  r.cost_usd = 0.25;
  r.cost_usd_full_scale = 25;
  r.egress_cost_usd = 0.25;

  const std::string expected =
      "{\"schema_version\":3,"
      "\"scheme\":\"AggShuffle\",\"transport\":\"direct\","
      "\"adaptive\":false,"
      "\"coded\":{\"enabled\":false,\"redundancy_r\":0},"
      "\"seed\":7,\"scale\":100,"
      "\"label\":\"golden\","
      "\"topology\":{\"num_datacenters\":2,\"num_nodes\":4},"
      "\"job\":{\"job_id\":3,\"tenant\":\"etl\",\"submitted\":0.5,"
      "\"started\":1,\"queue_delay\":0.5,\"completed\":2.5,\"jct\":1.5,"
      "\"cross_dc_bytes\":1024,\"cross_dc_fetch_bytes\":0,"
      "\"cross_dc_push_bytes\":0,\"cross_dc_centralize_bytes\":0,"
      "\"task_failures\":0,\"fetch_failures\":0,\"node_crashes\":0,"
      "\"map_resubmissions\":0,\"push_retries\":0,\"push_fallbacks\":0,"
      "\"replans\":0,\"receivers_moved\":0,\"adaptive_fallbacks\":0,"
      "\"placement_misses\":0,\"coded_groups\":0,"
      "\"coded_multicast_bytes\":0,\"coded_residual_bytes\":0,"
      "\"coded_local_bytes\":0,\"coded_replica_compute_seconds\":0,"
      "\"stages\":[]},"
      "\"jobs\":[{\"job_id\":3,\"tenant\":\"etl\",\"label\":\"wc\","
      "\"submitted\":0.5,\"started\":1,\"queue_delay\":0.5,"
      "\"completed\":2.5,\"jct\":1.5,\"cross_dc_bytes\":1024,"
      "\"task_failures\":0}],"
      "\"metrics\":{\"enabled\":true,\"snapshots\":["
      "{\"name\":\"netsim.flows_started\",\"kind\":\"counter\","
      "\"value\":3}]},"
      "\"utilization\":{\"bucket_seconds\":1,\"links\":["
      "{\"src_dc\":0,\"dst_dc\":1,\"src\":\"dc0\",\"dst\":\"dc1\","
      "\"base_rate\":1048576,\"total_bytes\":1024,"
      "\"buckets\":[512,0,512]}]},"
      "\"cost\":{\"cost_usd\":0.25,\"cost_usd_full_scale\":25,"
      "\"egress_cost_usd\":0.25,\"store_cost_usd\":0},"
      "\"trace\":{\"enabled\":false,\"spans\":0,\"task_spans\":0,"
      "\"stage_spans\":0,\"flow_spans\":0,\"phase_spans\":0,"
      "\"flow_bytes\":0}}";
  EXPECT_EQ(r.ToJson(), expected);
}

TEST(RunReportTest, HistogramAndGaugeSnapshotsSerialize) {
  RunReport r;
  MetricSnapshot g;
  g.name = "g";
  g.kind = MetricSnapshot::Kind::kGauge;
  g.value = 2;
  g.max = 9;
  r.metrics.push_back(g);
  MetricSnapshot h;
  h.name = "h";
  h.kind = MetricSnapshot::Kind::kHistogram;
  h.count = 3;
  h.sum = 4.5;
  h.bounds = {1, 10};
  h.buckets = {1, 1, 1};
  r.metrics.push_back(h);
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("{\"name\":\"g\",\"kind\":\"gauge\",\"value\":2,"
                      "\"max\":9}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"h\",\"kind\":\"histogram\",\"count\":3,"
                      "\"sum\":4.5,\"bounds\":[1,10],\"buckets\":[1,1,1]}"),
            std::string::npos);
}

RunConfig Cfg(bool metrics) {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 5;
  cfg.scale = 100;
  cfg.cost = CostModel{}.Scaled(100);
  cfg.observe.metrics = metrics;
  return cfg;
}

RunResult RunSmallJob(GeoCluster& cluster) {
  std::vector<Record> records;
  for (int i = 0; i < 600; ++i) {
    records.push_back({"k" + std::to_string(i % 31), std::int64_t{1}});
  }
  return cluster.Parallelize("d", records, 2)
      .ReduceByKey(SumInt64(), 8)
      .Run(ActionKind::kCollect);
}

TEST(RunReportTest, RealRunFillsEverySection) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(/*metrics=*/true));
  RunResult run = RunSmallJob(cluster);
  const RunReport& rep = run.report;

  EXPECT_EQ(rep.scheme, "AggShuffle");
  EXPECT_EQ(rep.seed, 5u);
  EXPECT_EQ(rep.num_datacenters, 6);
  EXPECT_EQ(rep.num_nodes, cluster.topology().num_nodes());
  EXPECT_GT(rep.job.jct(), 0);
  EXPECT_TRUE(rep.metrics_enabled);
  EXPECT_FALSE(rep.metrics.empty());
  // Known metric names from each instrumented layer are present.
  bool simcore = false, netsim = false, sched = false, storage = false,
       engine = false, disk = false;
  for (const MetricSnapshot& m : rep.metrics) {
    simcore |= m.name == "simcore.events_executed";
    netsim |= m.name == "netsim.flows_started";
    sched |= m.name == "sched.tasks_assigned";
    storage |= m.name == "storage.puts";
    engine |= m.name == "engine.jobs_completed";
    disk |= m.name == "disk.writes";
  }
  EXPECT_TRUE(simcore && netsim && sched && storage && engine && disk)
      << "a layer is missing from the registry";

  // A shuffle over six regions touches WAN links; series carry the bytes.
  EXPECT_GT(rep.utilization_bucket, 0);
  EXPECT_FALSE(rep.links.empty());
  for (const RunReport::LinkSeries& l : rep.links) {
    Bytes sum = 0;
    for (Bytes b : l.buckets) sum += b;
    EXPECT_EQ(sum, l.total_bytes);
    EXPECT_GT(l.total_bytes, 0) << "only links with traffic are exported";
    EXPECT_FALSE(l.src_name.empty());
  }
  EXPECT_GT(rep.cost_usd, 0);
  EXPECT_DOUBLE_EQ(rep.cost_usd_full_scale, rep.cost_usd * 100);
  EXPECT_FALSE(rep.trace.enabled);

  // The report's per-job table has exactly this one completed job.
  ASSERT_EQ(rep.jobs.size(), 1u);
  EXPECT_EQ(rep.jobs[0].job_id, rep.job.job_id);
  EXPECT_EQ(rep.jobs[0].tenant, "default");
  EXPECT_DOUBLE_EQ(rep.jobs[0].jct(), rep.job.jct());

  // The serialized form mentions each section exactly where expected.
  const std::string json = rep.ToJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":3,", 0), 0u);
  EXPECT_NE(json.find("\"utilization\":{\"bucket_seconds\":1,"),
            std::string::npos);
}

TEST(RunReportTest, DisabledMetricsYieldEmptySections) {
  GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(/*metrics=*/false));
  RunResult run = RunSmallJob(cluster);
  EXPECT_FALSE(run.report.metrics_enabled);
  EXPECT_TRUE(run.report.metrics.empty());
  EXPECT_TRUE(run.report.links.empty());
  EXPECT_EQ(run.report.utilization_bucket, 0);
  // JobMetrics and records are unaffected by disabling observability.
  EXPECT_GT(run.report.job.jct(), 0);
  EXPECT_EQ(run.records.size(), 31u);
}

TEST(RunReportTest, ReportsAreIdenticalForIdenticalRuns) {
  auto json = [] {
    GeoCluster cluster(Ec2SixRegionTopology(100), Cfg(/*metrics=*/true));
    return RunSmallJob(cluster).report.ToJson();
  };
  EXPECT_EQ(json(), json());
}

// The flattened key paths of a report's JSON: object keys joined by '.',
// array items collapsed to "[]", plus one "metrics.snapshots[<name>]" per
// registered metric.
std::set<std::string> KeyPaths(const RunReport& rep) {
  struct Walker {
    const std::string& s;
    std::size_t i = 0;
    std::set<std::string> paths;

    std::string String() {
      std::string out;
      for (++i; s[i] != '"'; ++i) {
        if (s[i] == '\\') ++i;
        out += s[i];
      }
      ++i;
      return out;
    }
    void Value(const std::string& path) {
      if (s[i] == '{' || s[i] == '[') {
        const char close = s[i] == '{' ? '}' : ']';
        for (++i; s[i] != close;) {
          if (s[i] == ',') ++i;
          if (close == ']') {
            Value(path + "[]");
            continue;
          }
          const std::string key = String();
          ++i;  // ':'
          Value(path.empty() ? key : path + "." + key);
        }
        ++i;
        return;
      }
      if (s[i] == '"') {
        String();
      } else {
        while (s[i] != ',' && s[i] != '}' && s[i] != ']') ++i;
      }
      paths.insert(path);
    }
  };
  const std::string json = rep.ToJson();
  Walker w{json, 0, {}};
  w.Value("");
  for (const MetricSnapshot& m : rep.metrics) {
    w.paths.insert("metrics.snapshots[" + m.name + "]");
  }
  return w.paths;
}

// One schema for every run: a direct, an object-store, a fabric, an
// adaptive and a coded r=2 run write the same key paths and register the
// same metrics, whatever their transport, flags or counts.
TEST(RunReportTest, EveryRunWritesTheSameKeys) {
  Topology topo;
  for (int dc = 0; dc < 3; ++dc) {
    topo.AddDatacenter("dc" + std::to_string(dc));
    for (int n = 0; n < 2; ++n) {
      topo.AddNode({"w" + std::to_string(dc) + std::to_string(n), dc, 2,
                    Gbps(1)});
    }
  }
  topo.AddUniformWanMesh(Mbps(200), Mbps(80), Mbps(300), Millis(100));

  auto run = [&topo](RunConfig cfg) {
    GeoCluster cluster(topo, std::move(cfg));
    std::vector<Record> records;
    for (int i = 0; i < 300; ++i) {
      records.push_back({"k" + std::to_string(i % 17), std::int64_t{1}});
    }
    return cluster.Parallelize("d", records, 2)
        .ReduceByKey(SumInt64(), 6)
        .Run(ActionKind::kCollect)
        .report;
  };
  RunConfig direct = Cfg(/*metrics=*/true);
  RunConfig objstore = direct;
  objstore.transport.kind = TransportKind::kObjectStore;
  RunConfig fabric = direct;
  fabric.transport.kind = TransportKind::kFabric;
  RunConfig adaptive = direct;
  adaptive.adaptive.enabled = true;
  RunConfig coded = direct;
  coded.scheme = Scheme::kSpark;
  coded.coded.enabled = true;
  coded.coded.redundancy_r = 2;

  const RunReport base = run(direct);
  const std::set<std::string> want = KeyPaths(base);
  for (const char* name :
       {"transport", "adaptive", "coded.enabled", "coded.redundancy_r",
        "job.replans", "job.placement_misses", "job.coded_groups",
        "cost.egress_cost_usd", "cost.store_cost_usd",
        "metrics.snapshots[engine.adaptive_replans]",
        "metrics.snapshots[engine.placement_misses]",
        "metrics.snapshots[engine.coded_groups]",
        "metrics.snapshots[netsim.multicasts_started]",
        "metrics.snapshots[transport.store_puts]",
        "metrics.snapshots[transport.fabric_transfers]"}) {
    EXPECT_EQ(want.count(name), 1u) << name;
  }
  EXPECT_FALSE(base.links.empty());
  for (const RunConfig& cfg : {objstore, fabric, adaptive, coded}) {
    const RunReport rep = run(cfg);
    EXPECT_EQ(KeyPaths(rep), want)
        << rep.scheme << " " << rep.transport << " adaptive=" << rep.adaptive
        << " coded=" << rep.coded;
    EXPECT_FALSE(rep.links.empty()) << "every run must cross the WAN";
    if (rep.coded) {
      EXPECT_NE(rep.ToJson().find(
                    "\"coded\":{\"enabled\":true,\"redundancy_r\":2}"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace gs
