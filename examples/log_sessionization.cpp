// log_sessionization: a groupByKey workload over geo-distributed service
// logs — the "raw data born distributed" scenario that motivates wide-area
// analytics (Sec. I).
//
// Each region's frontends produce click logs locally; the job groups
// events by user id to reconstruct sessions, then filters long sessions.
// groupByKey cannot shrink data with a combiner, so shuffle placement is
// everything: stock Spark drags every region's events to reducers spread
// around the world, while AggShuffle pushes them once, early, to a single
// well-connected region.
//
//   $ ./log_sessionization
#include <iostream>

#include "common/table.h"
#include "engine/cluster.h"
#include "engine/dataset.h"
#include "workloads/input_gen.h"

namespace {

// Click-log events: key = user id, value = "timestamp url" line. Users are
// sticky to their home region (90%), with some roaming traffic.
std::vector<gs::SourceRdd::Partition> MakeLogs(gs::Rng& rng) {
  const int users_per_region = 400;
  std::vector<std::vector<gs::Record>> parts(24);
  for (int region = 0; region < 6; ++region) {
    const int events = 4000;
    for (int e = 0; e < events; ++e) {
      int home = rng.Bernoulli(0.9)
                     ? region
                     : static_cast<int>(rng.UniformInt(0, 5));
      int user = static_cast<int>(rng.UniformInt(0, users_per_region - 1));
      std::string uid =
          "u" + std::to_string(home) + "-" + std::to_string(user);
      std::string event = std::to_string(rng.UniformInt(1000000, 9999999)) +
                          " /item/" + std::to_string(rng.UniformInt(0, 499));
      // Events land in the region that served them (partition per worker).
      parts[region * 4 + e % 4].push_back(gs::Record{uid, event});
    }
  }
  std::vector<gs::SourceRdd::Partition> placed;
  for (int p = 0; p < 24; ++p) {
    gs::SourceRdd::Partition part;
    part.records = gs::MakeRecords(std::move(parts[p]));
    part.node = p;  // worker p lives in region p/4
    part.bytes = gs::SerializedSize(*part.records);
    placed.push_back(std::move(part));
  }
  return placed;
}

}  // namespace

int main() {
  using namespace gs;
  const double scale = 100.0;

  TextTable table({"Scheme", "sessions >= 20 events", "JCT", "cross-DC",
                   "fetch", "push"});
  for (Scheme scheme :
       {Scheme::kSpark, Scheme::kCentralized, Scheme::kAggShuffle}) {
    RunConfig cfg;
    cfg.scheme = scheme;
    cfg.seed = 23;
    cfg.scale = scale;
    cfg.cost = CostModel{}.Scaled(scale);
    GeoCluster cluster(Ec2SixRegionTopology(scale), cfg);

    Rng rng(51);
    Dataset logs = cluster.CreateSource("click-logs", MakeLogs(rng));
    Dataset sessions = logs.GroupByKey(8);
    Dataset heavy =
        sessions.Filter("long-sessions", [](const Record& r) {
          return std::get<std::vector<std::string>>(r.value).size() >= 20;
        });
    RunResult run = heavy.Run(ActionKind::kCollect);

    const JobMetrics& m = run.metrics;
    table.AddRow({SchemeName(scheme), std::to_string(run.records.size()),
                  FmtDouble(m.jct(), 2) + "s", FmtMiB(m.cross_dc_bytes),
                  FmtMiB(m.cross_dc_fetch_bytes),
                  FmtMiB(m.cross_dc_push_bytes)});
  }
  std::cout << "Sessionizing click logs born in six regions "
               "(groupByKey, no combiner possible):\n"
            << table.Render()
            << "\nAll schemes find the same sessions; they differ only in "
               "when and where the events cross the WAN.\n";
  return 0;
}
