// Synthetic input generation for the HiBench-style workloads.
//
// Generators are deterministic in the data seed and independent of the
// execution scheme and of the compute pool's width, so all three schemes of
// one run process byte-identical inputs at any thread count: each source
// partition draws from its own stream (GeneratePartitions), and those
// streams are split off the data seed in partition order. Inputs are placed
// across datacenters with a configurable skew:
// by default 40% of blocks land in the first datacenter (where the
// driver/NameNode lives and ingest happens) and the rest spread evenly —
// geo-distributed but non-uniform, as in wide-area deployments.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/cluster.h"
#include "rdd/rdd.h"

namespace gs {

// Fraction of input bytes destined to each datacenter.
std::vector<double> DefaultDcWeights(int num_dcs);

// Distributes `partitions` record sets over worker nodes: datacenters get
// partition counts proportional to `dc_weights` (largest remainder), nodes
// within a datacenter round-robin.
std::vector<SourceRdd::Partition> PlacePartitions(
    const Topology& topo, std::vector<std::vector<Record>> partitions,
    const std::vector<double>& dc_weights);

// Index range [begin, end) of partition `p` when `total` items are split
// into `parts` chunks of ceil(total / parts) items; trailing partitions may
// be short or empty.
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};
IndexRange PartitionRange(std::size_t total, int parts, int p);

// Builds the records of source partition `p` from `rng`, that partition's
// own stream.
using PartitionGenerator = std::function<std::vector<Record>(int p, Rng& rng)>;

// Generates `parts` source partitions on the cluster's compute pool.
// Partition p draws only from rng.Split(p); the streams are split off `rng`
// on the calling thread in partition order, so the records do not depend
// on the pool's width or scheduling. `fn` runs concurrently for different
// partitions: whatever it shares (vocabularies, Zipf tables) must be
// read-only.
std::vector<std::vector<Record>> GeneratePartitions(
    GeoCluster& cluster, Rng& rng, int parts, const PartitionGenerator& fn);

// A deterministic vocabulary of `size` distinct pseudo-words: 3-12 letters
// plus a short numeric suffix.
std::vector<std::string> MakeVocabulary(std::size_t size, Rng& rng);

// Lines of Zipf-distributed words totalling ~target_bytes.
std::vector<Record> MakeTextLines(Bytes target_bytes, int words_per_line,
                                  const std::vector<std::string>& vocab,
                                  const ZipfSampler& zipf, Rng& rng);

// Key alphabets for sortable record generation.
inline constexpr const char* kHexAlphabet = "0123456789abcdef";
// 64 printable characters spanning the ASCII range, for TeraSort-style
// high-entropy keys.
inline constexpr const char* kPrintableAlphabet =
    "!#$%&()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`{}~";

// Uniform-key records with 10-char keys over `key_alphabet`. When `vocab`
// is non-null, values are space-joined words (text-like, compressible);
// otherwise values are uniform random printable bytes (incompressible, as
// produced by gensort for TeraSort).
std::vector<Record> MakeKeyValueRecords(std::size_t count, int value_len,
                                        Rng& rng,
                                        const char* key_alphabet,
                                        const std::vector<std::string>* vocab);

// Evenly spaced two-character boundaries over `alphabet` for `num_shards`
// range partitions of 10-char uniform keys.
std::vector<std::string> UniformBoundaries(int num_shards,
                                           const char* alphabet);

// Pages [first, last) of a `num_pages`-page power-law web graph: one record
// per page, key = page id, value = adjacency list (vector<string> of page
// ids, any page of the graph but itself).
std::vector<Record> MakeWebGraph(std::size_t num_pages, std::size_t first,
                                 std::size_t last, double avg_degree,
                                 Rng& rng);

// The whole graph, pages [0, num_pages).
inline std::vector<Record> MakeWebGraph(std::size_t num_pages,
                                        double avg_degree, Rng& rng) {
  return MakeWebGraph(num_pages, 0, num_pages, avg_degree, rng);
}

// Labelled documents for NaiveBayes: key = class label, value = text.
std::vector<Record> MakeLabelledDocs(std::size_t num_docs, int num_classes,
                                     int terms_per_doc,
                                     const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng);

}  // namespace gs
