// Wall-clock baseline of the per-record data path (docs/PERF.md).
//
// Unlike the figure benches, which report *simulated* time, this bench
// measures *real elapsed* time of the compute primitives the engine runs
// per task — evaluate, combine (WordCount's map-side sum and a PageRank
// reduce shard's term-weight merge), single-pass shuffle partitioning,
// shard sort, size accounting — on Table-I-sized batches, plus the map-phase
// pipeline through the compute ThreadPool at 1/2/4/8 threads and TeraSort
// input generation (Workload::Build) on a 1/2/4-thread compute pool. The
// threads sweep shows how task compute scales with pool width (on a
// single-core host all widths collapse to ~1x, by design).
//
// Output: a human-readable table on stdout and, when GS_BENCH_JSON names
// a path, the raw measurements as JSON (run_benches.sh writes
// BENCH_datapath.json).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "data/combiner.h"
#include "data/compression.h"
#include "data/partitioner.h"
#include "engine/cluster.h"
#include "exec/task_compute.h"
#include "harness.h"
#include "rdd/rdd.h"
#include "workloads/hibench.h"

namespace {

using namespace gs;
using bench::WallMeasurement;
using bench::WallSeconds;

// TeraSort shape (Table I): 32M records x 100 bytes at paper scale,
// divided by GS_SCALE and spread over the paper's 48 map partitions.
std::vector<Record> TerasortBatch(Rng& rng, std::size_t n) {
  std::vector<Record> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key(10, '\0');
    for (char& c : key) {
      c = static_cast<char>(' ' + rng.UniformInt(0, 94));
    }
    std::string value(90, '\0');
    for (char& c : value) {
      c = static_cast<char>(' ' + rng.UniformInt(0, 94));
    }
    batch.push_back(Record{std::move(key), std::move(value)});
  }
  return batch;
}

// WordCount shape (Table I): term/count pairs drawn from a Zipf-ish
// vocabulary, the input of the map-side combine.
std::vector<Record> WordcountBatch(Rng& rng, std::size_t n) {
  std::vector<Record> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Smaller ids repeat heavily like frequent words do.
    const std::int64_t bucket = rng.UniformInt(0, 9);
    const std::int64_t id =
        bucket < 7 ? rng.UniformInt(0, 499) : rng.UniformInt(0, 49999);
    batch.push_back(Record{"word-" + std::to_string(id),
                           static_cast<std::int64_t>(1)});
  }
  return batch;
}

// PageRank reduce-shard shape: each page's state (a sorted ~13-entry
// adjacency with its "#r" rank appended last, as apply-rank emits it)
// arrives in one of two state chunks, and ~12 one-entry "#c" contributions
// per page arrive spread over six contribution chunks, in map order.
std::vector<RecordsPtr> PagerankShardChunks(Rng& rng, std::size_t pages) {
  constexpr int kStateChunks = 2;
  constexpr int kContribChunks = 6;
  std::vector<std::vector<Record>> chunks(kStateChunks + kContribChunks);
  for (std::size_t p = 0; p < pages; ++p) {
    const std::string key = "page-" + std::to_string(p);
    const auto degree = static_cast<std::size_t>(rng.UniformInt(10, 16));
    std::vector<TermWeight> state;
    for (std::size_t i = 0; i < degree; ++i) {
      state.emplace_back("page-" + std::to_string(rng.UniformInt(
                                       0, static_cast<std::int64_t>(pages))),
                         0.0);
    }
    std::sort(state.begin(), state.end());
    state.emplace_back("#r", rng.Uniform(0.15, 2.0));
    chunks[p % kStateChunks].push_back(Record{key, std::move(state)});
    const std::int64_t contributions = rng.UniformInt(9, 15);
    for (std::int64_t c = 0; c < contributions; ++c) {
      const auto chunk = static_cast<std::size_t>(
          kStateChunks + rng.UniformInt(0, kContribChunks - 1));
      chunks[chunk].push_back(Record{
          key, std::vector<TermWeight>{{"#c", rng.Uniform(0.0, 0.2)}}});
    }
  }
  std::vector<RecordsPtr> shared;
  for (std::vector<Record>& c : chunks) {
    shared.push_back(MakeRecords(std::move(c)));
  }
  return shared;
}

// The production map-task compute: evaluate + optional combine +
// single-pass shuffle split, exactly as the engine submits it. The batch
// is a shared chunk, like the engine hands a task its gathered records;
// the stage output is the boundary itself, so Evaluate copies the chunk
// inside the job.
TaskComputeResult RunMapCompute(const Rdd& source, int partition,
                                RecordsPtr batch, const ShuffleInfo& info,
                                const Combiner* combine) {
  TaskComputeSpec spec;
  spec.output_rdd = &source;
  spec.partition = partition;
  spec.start.rdd = &source;
  spec.start.partition = partition;
  spec.start.chunks = {std::move(batch)};
  spec.combine = combine;
  spec.output = StageOutputKind::kShuffleWrite;
  spec.consumer_shuffle = &info;
  return ComputeTask(std::move(spec));
}

SourceRdd::Partition MakePartition(RecordsPtr records) {
  SourceRdd::Partition p;
  p.records = records;
  p.node = 0;
  p.bytes = SerializedSize(*records);
  return p;
}

// FNV-1a digest of the records and nodes of the source partitions at the
// root of `rdd`'s first-parent lineage.
std::uint64_t SourceDigest(const RddPtr& rdd) {
  auto src = std::dynamic_pointer_cast<SourceRdd>(rdd);
  if (src == nullptr) return SourceDigest(rdd->parents().front());
  std::uint64_t h = kFnvOffsetBasis;
  for (int p = 0; p < src->num_partitions(); ++p) {
    h = Fnv1a64(std::to_string(src->partition(p).node), h);
    for (const Record& r : *src->partition(p).records) {
      h = Fnv1a64(ToString(r), h);
    }
  }
  return h;
}

}  // namespace

int main() {
  const double scale = [] {
    const char* s = std::getenv("GS_SCALE");
    return s ? std::max(1.0, std::atof(s)) : 100.0;
  }();
  // Table I divided by scale, spread over the paper's 48 map tasks.
  const int kMaps = 48;
  const std::size_t tera_records =
      static_cast<std::size_t>(32'000'000 / scale);
  const std::size_t tera_per_map = tera_records / kMaps;
  const std::size_t words_total =
      static_cast<std::size_t>(8'000'000 / scale);

  std::cout << "=== Datapath wall-clock baseline (Table-I-sized inputs, "
            << "scale " << scale << ") ===\n"
            << "terasort: " << tera_records << " records x 100 B over "
            << kMaps << " map tasks; wordcount combine input: "
            << words_total << " records\n\n";

  Rng rng(42);
  std::vector<WallMeasurement> ms;

  // --- single-thread primitives -----------------------------------------
  std::vector<std::vector<Record>> tera_batches;
  for (int m = 0; m < kMaps; ++m) {
    tera_batches.push_back(TerasortBatch(rng, tera_per_map));
  }
  std::vector<Record> word_batch = WordcountBatch(rng, words_total);

  ShuffleInfo info;
  info.id = 0;
  info.partitioner = std::make_shared<HashPartitioner>(8);
  auto source_records = MakeRecords(tera_batches.front());
  SourceRdd source(0, "bench-src",
                   std::vector<SourceRdd::Partition>(
                       static_cast<std::size_t>(kMaps),
                       MakePartition(source_records)));
  const Combiner sum = SumInt64();

  auto measure = [&](const std::string& name, int iters, auto fn) {
    const double start = WallSeconds();
    for (int i = 0; i < iters; ++i) fn(i);
    const double elapsed = WallSeconds() - start;
    ms.push_back(WallMeasurement{name, 1, iters, elapsed});
    return elapsed;
  };

  // Inputs are shared chunks built before the timed region. ComputeTask
  // copies the chunk once inside it, because the output is the boundary.
  std::vector<RecordsPtr> inputs;
  inputs.reserve(tera_batches.size());
  for (const std::vector<Record>& batch : tera_batches) {
    inputs.push_back(MakeRecords(batch));
  }
  measure("partition", kMaps, [&](int i) {
    TaskComputeResult r = RunMapCompute(
        source, i, inputs[static_cast<std::size_t>(i)], info, nullptr);
    if (r.shard_total_bytes == 0) std::abort();
  });
  // --- combine layer ----------------------------------------------------
  // WordCount's map-side combine over the Table-I batch; a small 10k-record
  // batch over 1000 keys; and a PageRank reduce shard read in place from
  // its shared chunks (MergeTermWeights appends each contribution and
  // sorts once per page).
  measure("combine", 8, [&](int) {
    std::vector<Record> out = CombineByKey(word_batch, sum);
    if (out.empty()) std::abort();
  });
  {
    Rng small_rng(5);
    std::vector<Record> small;
    for (int i = 0; i < 10000; ++i) {
      small.push_back(Record{"w" + std::to_string(small_rng.UniformInt(0, 999)),
                             std::int64_t{1}});
    }
    measure("combine-small", 200, [&](int) {
      std::vector<Record> out = CombineByKey(small, sum);
      if (out.empty()) std::abort();
    });
  }
  {
    Rng terms_rng(11);
    const std::vector<RecordsPtr> shard = PagerankShardChunks(
        terms_rng, static_cast<std::size_t>(500'000 / scale));
    const Combiner terms = MergeTermWeights();
    measure("combine-terms", 8, [&](int) {
      std::vector<Record> out = CombineByKey(shard, terms);
      if (out.empty()) std::abort();
    });
  }
  measure("sort", 8, [&](int) {
    ShuffleInfo sort_info;
    sort_info.id = 1;
    sort_info.partitioner = info.partitioner;
    sort_info.sort_by_key = true;
    ShuffledRdd shuffled(1, "bench-sorted",
                         std::make_shared<SourceRdd>(
                             0, "s", std::vector<SourceRdd::Partition>(
                                         1, MakePartition(source_records))),
                         sort_info);
    std::vector<Record> out = shuffled.ProcessShard({source_records});
    if (out.empty()) std::abort();
  });
  measure("serialize", 8, [&](int) {
    const Bytes raw = SerializedSize(tera_batches.front());
    const Bytes z = CompressedSize(tera_batches.front(), raw);
    if (z == 0) std::abort();
  });

  // --- submit throughput ------------------------------------------------
  // Pure pool overhead on trivial jobs.
  {
    constexpr int kJobs = 100'000;
    ThreadPool pool(1);
    std::atomic<std::int64_t> sink{0};
    measure("submit", kJobs,
            [&](int) { pool.Submit([&sink] { sink.fetch_add(1); }); });
    pool.WaitIdle();
    if (sink.load() != kJobs) std::abort();
  }

  // --- map-phase pipeline at 1/2/4/8 threads ----------------------------
  // The engine's pattern: a gather barrier releases every map task's
  // compute at once, results joined as they are needed. Identical outputs
  // at every width. Min of 3 runs per width (the rows feed the CI
  // perf-smoke gate, so per-run noise matters). Widths are clamped to the
  // host: on a 1-core host every row collapses to one worker instead of
  // oversubscribing — asking for 8 threads must never be slower than
  // asking for 1.
  Bytes reference_total = 0;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(std::min(threads, ThreadPool::HardwareConcurrency()));
    double best = 0;
    for (int rep = -1; rep < 3; ++rep) {  // rep -1 is an untimed warmup
      const double start = WallSeconds();
      std::vector<std::future<TaskComputeResult>> futures;
      futures.reserve(kMaps);
      for (int m = 0; m < kMaps; ++m) {
        futures.push_back(pool.Submit([&, m] {
          return RunMapCompute(source, m,
                               inputs[static_cast<std::size_t>(m)], info,
                               nullptr);
        }));
      }
      Bytes total = 0;
      for (auto& f : futures) total += f.get().shard_total_bytes;
      const double elapsed = WallSeconds() - start;
      if (rep < 0) continue;
      if (rep == 0 || elapsed < best) best = elapsed;
      if (reference_total == 0) {
        reference_total = total;
      } else if (total != reference_total) {
        std::cerr << "determinism violation: shard bytes differ across "
                     "thread counts\n";
        return 1;
      }
    }
    ms.push_back(WallMeasurement{"map-pipeline", threads, kMaps, best});
  }

  // --- TeraSort input generation at 1/2/4 pool threads -------------------
  // Workload::Build generates one source partition per pool job, each from
  // its own stream, so the input is identical at every width and the time
  // should fall with it (CI gates 4 threads at <= 0.8x one thread). Min of
  // 3 runs per width after an untimed warmup.
  std::uint64_t reference_input = 0;
  for (int threads : {1, 2, 4}) {
    RunConfig cfg;
    cfg.scale = scale;
    cfg.compute_threads = threads;
    GeoCluster cluster(Ec2SixRegionTopology(scale), cfg);
    WorkloadParams params;
    params.scale = scale;
    params.map_partitions = kMaps;
    auto terasort = MakeWorkload("terasort", params);
    double best = 0;
    for (int rep = -1; rep < 3; ++rep) {
      const double start = WallSeconds();
      const Dataset job = terasort->Build(cluster, /*data_seed=*/7);
      const double elapsed = WallSeconds() - start;
      const std::uint64_t digest = SourceDigest(job.rdd());
      if (reference_input == 0) {
        reference_input = digest;
      } else if (digest != reference_input) {
        std::cerr << "determinism violation: TeraSort input differs across "
                     "pool widths\n";
        return 1;
      }
      if (rep < 0) continue;
      if (rep == 0 || elapsed < best) best = elapsed;
    }
    ms.push_back(WallMeasurement{"input-gen", threads, kMaps, best});
  }

  TextTable table({"measurement", "threads", "iters", "wall ms",
                   "ms/iter"});
  for (const WallMeasurement& m : ms) {
    table.AddRow({m.name, std::to_string(m.threads),
                  std::to_string(m.iters),
                  FmtDouble(m.seconds * 1e3, 1),
                  FmtDouble(m.seconds * 1e3 / m.iters, 2)});
  }
  std::cout << table.Render();

  auto find = [&](const std::string& name, int threads) -> double {
    for (const WallMeasurement& m : ms) {
      if (m.name == name && m.threads == threads) return m.seconds;
    }
    return 0;
  };
  std::cout << "\npipeline speedup vs 1 thread: 2t "
            << FmtDouble(find("map-pipeline", 1) /
                            std::max(1e-9, find("map-pipeline", 2)), 2)
            << "x, 4t "
            << FmtDouble(find("map-pipeline", 1) /
                            std::max(1e-9, find("map-pipeline", 4)), 2)
            << "x, 8t "
            << FmtDouble(find("map-pipeline", 1) /
                            std::max(1e-9, find("map-pipeline", 8)), 2)
            << "x (hardware concurrency: "
            << ThreadPool::HardwareConcurrency() << ")\n"
            << "input-gen speedup vs 1 thread: 2t "
            << FmtDouble(find("input-gen", 1) /
                            std::max(1e-9, find("input-gen", 2)), 2)
            << "x, 4t "
            << FmtDouble(find("input-gen", 1) /
                            std::max(1e-9, find("input-gen", 4)), 2)
            << "x\n";

  const char* path = std::getenv("GS_BENCH_JSON");
  if (path != nullptr && *path != '\0') {
    bench::WriteWallMeasurementsJson(path, ms);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}
