// The multi-job service surface (engine/job_api.h, docs/SERVICE.md):
// Submit/JobHandle/Wait/RunUntilQuiescent semantics, admission control,
// priority ordering, open-loop arrivals, and cross-tenant isolation under
// faults. Dataset::Run must stay an exact Submit + Wait.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/combiner.h"
#include "engine/cluster.h"
#include "engine/dataset.h"

namespace gs {
namespace {

constexpr double kScale = 2000;  // tiny jobs; the matrix stays fast

RunConfig TestConfig(Scheme scheme = Scheme::kAggShuffle) {
  RunConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = 11;
  cfg.scale = kScale;
  cfg.cost = CostModel{}.Scaled(kScale);
  return cfg;
}

// Keyed records with deterministic per-key sums: key i%keys carries
// weight i, tagged so distinct jobs produce distinct key spaces.
std::vector<Record> Input(const std::string& tag, int n, int keys) {
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    records.push_back(
        {tag + std::to_string(i % keys), static_cast<std::int64_t>(i)});
  }
  return records;
}

std::map<std::string, std::int64_t> Sums(const std::vector<Record>& records) {
  std::map<std::string, std::int64_t> sums;
  for (const Record& r : records) {
    sums[r.key] += std::get<std::int64_t>(r.value);
  }
  return sums;
}

Dataset Reduce(GeoCluster& cluster, const std::string& tag, int n, int keys,
               int shards = 4) {
  return cluster.Parallelize(tag, Input(tag, n, keys), /*partitions_per_dc=*/1)
      .ReduceByKey(SumInt64(), shards);
}

// Dataset::Run is a thin Submit + Wait: both paths on identical fresh
// clusters produce byte-identical reports and records.
TEST(JobServiceTest, SubmitWaitMatchesRun) {
  GeoCluster sync_cluster(Ec2SixRegionTopology(kScale), TestConfig());
  RunResult via_run =
      Reduce(sync_cluster, "k", 400, 13).Run(ActionKind::kCollect);

  GeoCluster async_cluster(Ec2SixRegionTopology(kScale), TestConfig());
  JobHandle h = Reduce(async_cluster, "k", 400, 13)
                    .Submit(ActionKind::kCollect);
  EXPECT_FALSE(h.done());
  RunResult via_submit = h.Wait();

  EXPECT_EQ(via_run.records, via_submit.records);
  EXPECT_EQ(via_run.metrics.jct(), via_submit.metrics.jct());
  EXPECT_EQ(via_run.report.ToJson(), via_submit.report.ToJson());
}

// Several jobs on one cluster, driven by RunUntilQuiescent: every handle
// completes, every result is the correct aggregation, and the report's
// jobs array has one row per job in completion order.
TEST(JobServiceTest, ConcurrentJobsAllCorrect) {
  GeoCluster cluster(Ec2SixRegionTopology(kScale), TestConfig());
  struct Job {
    std::string tag;
    int n, keys;
    JobHandle handle;
  };
  std::vector<Job> jobs;
  int i = 0;
  for (const char* tag : {"a", "b", "c"}) {
    const int n = 300 + 50 * i, keys = 7 + i;
    JobOptions opts;
    opts.tenant = (i % 2 == 0) ? "even" : "odd";
    opts.label = tag;
    jobs.push_back(
        {tag, n, keys,
         Reduce(cluster, tag, n, keys).Submit(ActionKind::kCollect, opts)});
    ++i;
  }
  EXPECT_EQ(cluster.running_jobs() + cluster.queued_jobs(), 3);
  cluster.RunUntilQuiescent();
  EXPECT_EQ(cluster.running_jobs(), 0);

  for (Job& job : jobs) {
    ASSERT_TRUE(job.handle.done()) << job.tag;
    RunResult r = job.handle.Wait();
    EXPECT_EQ(Sums(r.records), Sums(Input(job.tag, job.n, job.keys)))
        << job.tag;
    EXPECT_EQ(static_cast<int>(r.records.size()), job.keys) << job.tag;
  }
  ASSERT_EQ(cluster.job_rows().size(), 3u);
  for (std::size_t j = 1; j < cluster.job_rows().size(); ++j) {
    EXPECT_LE(cluster.job_rows()[j - 1].completed,
              cluster.job_rows()[j].completed);
  }
}

// ServiceConfig::max_concurrent_jobs: the second job waits in the
// admission queue until the first finishes, and its queueing delay is the
// gap between arrival and admission.
TEST(JobServiceTest, AdmissionCapQueues) {
  RunConfig cfg = TestConfig();
  cfg.service.max_concurrent_jobs = 1;
  GeoCluster cluster(Ec2SixRegionTopology(kScale), cfg);
  JobHandle first = Reduce(cluster, "a", 300, 5).Submit(ActionKind::kSave);
  JobHandle second = Reduce(cluster, "b", 300, 5).Submit(ActionKind::kSave);
  EXPECT_EQ(cluster.running_jobs(), 1);
  EXPECT_EQ(cluster.queued_jobs(), 1);
  cluster.RunUntilQuiescent();

  ASSERT_EQ(cluster.job_rows().size(), 2u);
  const RunReport::JobRow& a = cluster.job_rows()[0];
  const RunReport::JobRow& b = cluster.job_rows()[1];
  EXPECT_EQ(a.job_id, first.id());
  EXPECT_EQ(b.job_id, second.id());
  EXPECT_EQ(a.queue_delay(), 0);
  EXPECT_GT(b.queue_delay(), 0) << "second job must queue behind the cap";
  EXPECT_GE(b.started, a.completed);
}

// Admission order among queued jobs: higher priority first, FIFO among
// equals, regardless of submission order.
TEST(JobServiceTest, PriorityOrdersAdmission) {
  RunConfig cfg = TestConfig();
  cfg.service.max_concurrent_jobs = 1;
  GeoCluster cluster(Ec2SixRegionTopology(kScale), cfg);
  JobOptions lo, hi;
  lo.priority = 0;
  lo.label = "lo";
  hi.priority = 5;
  hi.label = "hi";
  JobHandle running = Reduce(cluster, "r", 300, 5).Submit(ActionKind::kSave);
  JobHandle low = Reduce(cluster, "l", 300, 5).Submit(ActionKind::kSave, lo);
  JobHandle high = Reduce(cluster, "h", 300, 5).Submit(ActionKind::kSave, hi);
  cluster.RunUntilQuiescent();

  ASSERT_EQ(cluster.job_rows().size(), 3u);
  EXPECT_EQ(cluster.job_rows()[0].job_id, running.id());
  EXPECT_EQ(cluster.job_rows()[1].job_id, high.id());
  EXPECT_EQ(cluster.job_rows()[2].job_id, low.id());
}

// JobOptions::arrival_delay defers arrival, not just admission: the
// queueing-delay clock starts at the arrival time.
TEST(JobServiceTest, ArrivalDelayDefersTheJob) {
  GeoCluster cluster(Ec2SixRegionTopology(kScale), TestConfig());
  JobOptions opts;
  opts.arrival_delay = Seconds(5);
  JobHandle h = Reduce(cluster, "d", 300, 5).Submit(ActionKind::kSave, opts);
  EXPECT_EQ(cluster.running_jobs(), 0) << "job must not run before arrival";
  cluster.RunUntilQuiescent();
  ASSERT_EQ(cluster.job_rows().size(), 1u);
  EXPECT_EQ(cluster.job_rows()[0].submitted, 5.0);
  EXPECT_GE(cluster.job_rows()[0].started, 5.0);
  EXPECT_EQ(cluster.job_rows()[0].queue_delay(), 0);
  RunResult r = h.Wait();
  EXPECT_GE(r.metrics.started, 5.0);
}

// Isolation under faults: a node crash while two tenants' jobs are in
// flight is recovered for both — every job still produces exactly the
// aggregation a fault-free solo run produces.
TEST(JobServiceTest, CrashDuringOneTenantsJobDoesNotCorruptTheOther) {
  RunConfig cfg = TestConfig(Scheme::kSpark);
  NodeCrashEvent crash;
  crash.at = 1.0;  // mid-map for these jobs
  crash.node = 3;
  crash.restart_after = 4.0;
  cfg.fault.plan.node_crashes.push_back(crash);
  GeoCluster cluster(Ec2SixRegionTopology(kScale), cfg);

  JobOptions a_opts, b_opts;
  a_opts.tenant = "alice";
  b_opts.tenant = "bob";
  JobHandle a =
      Reduce(cluster, "a", 600, 9).Submit(ActionKind::kCollect, a_opts);
  JobHandle b =
      Reduce(cluster, "b", 600, 11).Submit(ActionKind::kCollect, b_opts);
  cluster.RunUntilQuiescent();

  RunResult ra = a.Wait(), rb = b.Wait();
  EXPECT_EQ(Sums(ra.records), Sums(Input("a", 600, 9)));
  EXPECT_EQ(Sums(rb.records), Sums(Input("b", 600, 11)));
  // The crash actually happened while both jobs were running (a node
  // crash is surfaced to every running job's metrics, docs/FAULTS.md).
  EXPECT_EQ(ra.metrics.node_crashes, 1);
  EXPECT_EQ(rb.metrics.node_crashes, 1);
}

// Three datacenters of two one-slot workers each, plus a driver: two
// concurrent jobs keep every slot busy, so landed receivers queue.
Topology OneSlotTopology() {
  Topology topo;
  for (int d = 0; d < 3; ++d) topo.AddDatacenter("dc" + std::to_string(d));
  for (int d = 0; d < 3; ++d) {
    for (int i = 0; i < 2; ++i) {
      NodeSpec spec;
      spec.name = "w" + std::to_string(d) + "-" + std::to_string(i);
      spec.dc = d;
      spec.cores = 1;
      spec.nic_rate = Mbps(400);
      topo.AddNode(spec);
    }
  }
  NodeSpec driver;
  driver.name = "driver";
  driver.worker = false;
  topo.AddNode(driver);
  for (DcIndex s = 0; s < 3; ++s) {
    for (DcIndex d = 0; d < 3; ++d) {
      if (s == d) continue;
      WanLinkSpec link;
      link.src = s;
      link.dst = d;
      link.base_rate = Mbps(100);
      link.min_rate = Mbps(50);
      link.max_rate = Mbps(130);
      link.rtt = Millis(100);
      topo.AddWanLink(link);
    }
  }
  return topo;
}

// Two identical AggShuffle jobs, adaptive on. At the crash, job 0 has a
// receiver whose pushed data landed on node 1 and whose write-phase
// request still waits in the queue, pinned kNodeOnly to node 1; job 1 has
// a queued receiver with the same stage and partition, submitted earlier.
// Recovery lifts the pin of job 0's request. Scheduler task ids must tell
// the jobs apart, or the lift hits job 1's request and job 0's stale
// request stays pinned to the dead node, queued forever.
TEST(JobServiceTest, ReceiverCrashUnpinsOnlyItsOwnJobsRequest) {
  RunConfig cfg;
  cfg.scheme = Scheme::kAggShuffle;
  cfg.seed = 5;
  cfg.adaptive.enabled = true;
  GeoCluster cluster(OneSlotTopology(), cfg);
  const std::vector<Record> input = Input("k", 3000, 50);
  Dataset sums =
      cluster.Parallelize("in", input, /*partitions_per_dc=*/4)
          .ReduceByKey(SumInt64(), 4);
  JobOptions a_opts, b_opts;
  a_opts.tenant = "alice";
  b_opts.tenant = "bob";
  JobHandle a = sums.Submit(ActionKind::kCollect, a_opts);
  JobHandle b = sums.Submit(ActionKind::kCollect, b_opts);
  cluster.simulator().Schedule(0.66, [&cluster] { cluster.CrashNode(1); });
  cluster.RunUntilQuiescent();

  EXPECT_EQ(cluster.scheduler().queued_tasks(), 0)
      << "a request pinned to the dead node was left queued";
  RunResult ra = a.Wait(), rb = b.Wait();
  EXPECT_EQ(Sums(ra.records), Sums(input));
  EXPECT_EQ(Sums(rb.records), Sums(input));
  EXPECT_EQ(ra.metrics.node_crashes, 1);
  EXPECT_EQ(rb.metrics.node_crashes, 1);
}

// A job handle's result can be taken exactly once.
TEST(JobServiceTest, WaitTwiceIsFatal) {
  GeoCluster cluster(Ec2SixRegionTopology(kScale), TestConfig());
  JobHandle h = Reduce(cluster, "w", 300, 5).Submit(ActionKind::kSave);
  h.Wait();
  EXPECT_THROW(h.Wait(), CheckFailure);
}

}  // namespace
}  // namespace gs
