// Microbenchmarks (google-benchmark) of the simulation substrates: event
// queue throughput, max-min fair-share recomputation, flow churn on the
// six-region and a 12-DC synthetic topology (share-bound and cap-bound),
// partitioner throughput and the compression estimate (the combiner's rows
// are in bench_micro_datapath). Provides its own main(): when GS_BENCH_JSON
// is set (the run_benches.sh convention), results are also written to that
// path in google-benchmark's JSON format.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/compression.h"
#include "data/partitioner.h"
#include "netsim/network.h"
#include "simcore/simulator.h"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
      sim.Schedule((i * 7919) % 1000 * 0.001, [&sum, i] { sum += i; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_FlowChurnSixRegions(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    gs::Topology topo = gs::Ec2SixRegionTopology();
    gs::Network net(sim, topo, gs::NetworkConfig{}, gs::Rng(7));
    gs::Rng rng(13);
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      gs::NodeIndex src =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, 23));
      gs::NodeIndex dst =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, 23));
      net.StartFlow(src, dst, gs::MiB(1) + rng.UniformInt(0, gs::MiB(4)),
                    gs::FlowKind::kOther, [&done] { ++done; });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
// 2048/8192 pin the incremental solver's scaling (docs/PERF.md): the old
// all-flows quadratic reconfiguration put 8192 flows out of reach.
BENCHMARK(BM_FlowChurnSixRegions)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// Synthetic 12-datacenter deployment, 4 workers per DC, full WAN mesh
// (132 directed links): more, smaller rate-sharing components than the
// six-region topology, so component-restricted solves matter more.
gs::Topology TwelveDcTopology() {
  gs::Topology topo;
  for (int d = 0; d < 12; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
    for (int n = 0; n < 4; ++n) {
      topo.AddNode({"dc" + std::to_string(d) + "-w" + std::to_string(n),
                    d, 2, gs::Gbps(1)});
    }
  }
  topo.AddUniformWanMesh(gs::Mbps(200), gs::Mbps(80), gs::Mbps(300),
                         gs::Millis(150));
  return topo;
}

void BM_FlowChurnTwelveDc(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gs::Simulator sim;
    gs::Topology topo = TwelveDcTopology();
    gs::Network net(sim, topo, gs::NetworkConfig{}, gs::Rng(7));
    gs::Rng rng(13);
    const int nodes = topo.num_nodes();
    int done = 0;
    for (int i = 0; i < flows; ++i) {
      gs::NodeIndex src =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, nodes - 1));
      gs::NodeIndex dst =
          static_cast<gs::NodeIndex>(rng.UniformInt(0, nodes - 1));
      net.StartFlow(src, dst, gs::MiB(1) + rng.UniformInt(0, gs::MiB(4)),
                    gs::FlowKind::kOther, [&done] { ++done; });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowChurnTwelveDc)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// Cap-bound solves: every WAN flow carries a single-connection TCP cap,
// and with one flow per WAN link of the twelve-DC mesh the link's fair
// share rarely binds, so most freezes of each solve (about 80%) are cap
// steps. This is the worst case of the solver's cap list, which is
// rescanned after nearly every cap step. Each round starts one flow on
// every directed DC pair and runs them to completion; the argument is the
// number of rounds.
void BM_FlowChurnCapLimited(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  std::int64_t flows = 0;
  for (auto _ : state) {
    gs::Simulator sim;
    gs::Topology topo = TwelveDcTopology();
    gs::Network net(sim, topo, gs::NetworkConfig{}, gs::Rng(7));
    gs::Rng rng(13);
    int done = 0;
    for (int round = 0; round < rounds; ++round) {
      for (gs::DcIndex s = 0; s < topo.num_datacenters(); ++s) {
        for (gs::DcIndex d = 0; d < topo.num_datacenters(); ++d) {
          if (s == d) continue;
          const gs::NodeIndex src = topo.nodes_in(s)[static_cast<std::size_t>(
              rng.UniformInt(0, 3))];
          const gs::NodeIndex dst = topo.nodes_in(d)[static_cast<std::size_t>(
              rng.UniformInt(0, 3))];
          net.StartFlow(src, dst, gs::MiB(8) + rng.UniformInt(0, gs::MiB(56)),
                        gs::FlowKind::kOther, [&done] { ++done; });
          ++flows;
        }
      }
      sim.Run();
    }
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(flows);
}
BENCHMARK(BM_FlowChurnCapLimited)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_HashPartitioner(benchmark::State& state) {
  gs::HashPartitioner part(8);
  gs::Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("key-" + std::to_string(rng.UniformInt(0, 1 << 20)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.ShardOf(keys[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashPartitioner);

void BM_CompressionEstimate(benchmark::State& state) {
  gs::Rng rng(9);
  std::vector<std::string> vocab;
  for (int i = 0; i < 500; ++i) vocab.push_back("word" + std::to_string(i));
  std::vector<gs::Record> records;
  for (int i = 0; i < 5000; ++i) {
    records.push_back(gs::Record{
        vocab[rng.UniformInt(0, 499)],
        vocab[rng.UniformInt(0, 499)] + " " + vocab[rng.UniformInt(0, 499)]});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gs::CompressedSize(records));
  }
}
BENCHMARK(BM_CompressionEstimate);

}  // namespace

// Same contract as the bench_harness binaries: GS_BENCH_JSON names a JSON
// output file (run_benches.sh maps this binary to BENCH_netsim.json).
// Implemented by injecting google-benchmark's own --benchmark_out flags so
// the file carries the full per-benchmark statistics.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, fmt_flag;
  if (const char* json = std::getenv("GS_BENCH_JSON");
      json != nullptr && json[0] != '\0') {
    out_flag = "--benchmark_out=" + std::string(json);
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_argc = static_cast<int>(args.size());
  benchmark::Initialize(&args_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
