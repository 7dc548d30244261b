#include "workloads/input_gen.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <unordered_set>

#include "common/check.h"
#include "common/threadpool.h"

namespace gs {

std::vector<double> DefaultDcWeights(int num_dcs) {
  GS_CHECK(num_dcs > 0);
  if (num_dcs == 1) return {1.0};
  // Ingest skews toward the first datacenter (driver + NameNode region).
  std::vector<double> w(num_dcs, 0.6 / (num_dcs - 1));
  w[0] = 0.4;
  return w;
}

std::vector<SourceRdd::Partition> PlacePartitions(
    const Topology& topo, std::vector<std::vector<Record>> partitions,
    const std::vector<double>& dc_weights) {
  GS_CHECK(static_cast<int>(dc_weights.size()) == topo.num_datacenters());
  const int total = static_cast<int>(partitions.size());
  GS_CHECK(total > 0);

  // Largest-remainder apportionment of partition counts to datacenters.
  std::vector<int> count(dc_weights.size(), 0);
  std::vector<std::pair<double, int>> remainder;
  int assigned = 0;
  for (std::size_t dc = 0; dc < dc_weights.size(); ++dc) {
    double exact = dc_weights[dc] * total;
    count[dc] = static_cast<int>(exact);
    assigned += count[dc];
    remainder.emplace_back(exact - count[dc], static_cast<int>(dc));
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (int i = 0; assigned < total; ++i, ++assigned) {
    count[remainder[i % remainder.size()].second]++;
  }

  std::vector<SourceRdd::Partition> placed;
  placed.reserve(total);
  std::size_t next = 0;
  for (DcIndex dc = 0; dc < topo.num_datacenters(); ++dc) {
    std::vector<NodeIndex> workers;
    for (NodeIndex n : topo.nodes_in(dc)) {
      if (topo.node(n).worker) workers.push_back(n);
    }
    GS_CHECK(!workers.empty());
    for (int k = 0; k < count[dc]; ++k) {
      GS_CHECK(next < partitions.size());
      SourceRdd::Partition part;
      part.records = MakeRecords(std::move(partitions[next++]));
      part.node = workers[k % workers.size()];
      part.bytes = SerializedSize(*part.records);
      placed.push_back(std::move(part));
    }
  }
  GS_CHECK(next == partitions.size());
  return placed;
}

IndexRange PartitionRange(std::size_t total, int parts, int p) {
  GS_CHECK(parts > 0 && p >= 0 && p < parts);
  const std::size_t per = (total + parts - 1) / parts;
  const std::size_t begin = std::min(total, static_cast<std::size_t>(p) * per);
  return IndexRange{begin, std::min(total, begin + per)};
}

std::vector<std::vector<Record>> GeneratePartitions(
    GeoCluster& cluster, Rng& rng, int parts, const PartitionGenerator& fn) {
  GS_CHECK(parts > 0);
  std::vector<std::future<std::vector<Record>>> futures;
  futures.reserve(parts);
  for (int p = 0; p < parts; ++p) {
    // Each job owns its stream. Streams packed in one array share a cache
    // line at each boundary, which jobs of adjacent partitions running
    // side by side would both write on every draw.
    futures.push_back(cluster.compute_pool().Submit(
        [&fn, p, stream = rng.Split(static_cast<std::uint64_t>(p))]() mutable {
          return fn(p, stream);
        }));
  }
  // Every job borrows `fn`: let all of them finish before a failed one's
  // exception unwinds this frame.
  for (auto& f : futures) f.wait();
  std::vector<std::vector<Record>> partitions;
  partitions.reserve(parts);
  for (auto& f : futures) partitions.push_back(f.get());
  return partitions;
}

std::vector<std::string> MakeVocabulary(std::size_t size, Rng& rng) {
  std::vector<std::string> vocab;
  vocab.reserve(size);
  std::unordered_set<std::string> seen;
  seen.reserve(size);
  const char* alphabet = "abcdefghijklmnopqrstuvwxyz";
  for (std::size_t i = 0; i < size; ++i) {
    // The suffix separates most equal letter draws; a word that still
    // collides is redrawn.
    std::string word;
    do {
      word.assign(static_cast<std::size_t>(rng.UniformInt(3, 12)), ' ');
      for (char& c : word) c = alphabet[rng.UniformInt(0, 25)];
      word += std::to_string(i % 97);
    } while (!seen.insert(word).second);
    vocab.push_back(std::move(word));
  }
  return vocab;
}

std::vector<Record> MakeTextLines(Bytes target_bytes, int words_per_line,
                                  const std::vector<std::string>& vocab,
                                  const ZipfSampler& zipf, Rng& rng) {
  GS_CHECK(words_per_line > 0);
  std::vector<Record> lines;
  Bytes produced = 0;
  while (produced < target_bytes) {
    std::string line;
    for (int w = 0; w < words_per_line; ++w) {
      if (w) line.push_back(' ');
      line += vocab[zipf.Sample(rng)];
    }
    Record r{"", std::move(line)};
    produced += SerializedSize(r);
    lines.push_back(std::move(r));
  }
  return lines;
}

std::vector<Record> MakeKeyValueRecords(std::size_t count, int value_len,
                                        Rng& rng,
                                        const char* key_alphabet,
                                        const std::vector<std::string>* vocab) {
  const std::string alphabet(key_alphabet);
  GS_CHECK(alphabet.size() >= 2);
  const std::int64_t amax = static_cast<std::int64_t>(alphabet.size()) - 1;
  std::vector<Record> records;
  records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string key(10, alphabet[0]);
    for (char& c : key) c = alphabet[rng.UniformInt(0, amax)];
    std::string value;
    if (vocab != nullptr) {
      value.reserve(value_len);
      while (static_cast<int>(value.size()) < value_len) {
        if (!value.empty()) value.push_back(' ');
        value += (*vocab)[rng.UniformInt(
            0, static_cast<std::int64_t>(vocab->size()) - 1)];
      }
      value.resize(value_len);
    } else {
      value.resize(value_len);
      for (char& c : value) c = kPrintableAlphabet[rng.UniformInt(0, 63)];
    }
    records.push_back(Record{std::move(key), std::move(value)});
  }
  return records;
}

std::vector<std::string> UniformBoundaries(int num_shards,
                                           const char* alphabet_chars) {
  GS_CHECK(num_shards > 0);
  const std::string alphabet(alphabet_chars);
  const int n = static_cast<int>(alphabet.size());
  GS_CHECK(n >= 2);
  std::vector<std::string> boundaries;
  for (int i = 1; i < num_shards; ++i) {
    // Boundary at fraction i/num_shards of the key space; two characters
    // of precision suffice for 10-char uniform keys.
    int v = static_cast<int>(
        (static_cast<long long>(i) * n * n) / num_shards);
    std::string b;
    b.push_back(alphabet[std::min(v / n, n - 1)]);
    b.push_back(alphabet[v % n]);
    boundaries.push_back(std::move(b));
  }
  return boundaries;
}

std::vector<Record> MakeWebGraph(std::size_t num_pages, std::size_t first,
                                 std::size_t last, double avg_degree,
                                 Rng& rng) {
  GS_CHECK(num_pages > 1);
  GS_CHECK(first <= last && last <= num_pages);
  std::vector<Record> pages;
  pages.reserve(last - first);
  // Power-law-ish out-degrees: most pages have few links, a head has many.
  ZipfSampler degree_sampler(64, 1.3);
  const double degree_scale =
      avg_degree / 8.9;  // E[zipf(64,1.3)+1] ~= 8.9, rescale to avg_degree
  for (std::size_t i = first; i < last; ++i) {
    int degree = std::max(
        1, static_cast<int>((degree_sampler.Sample(rng) + 1) * degree_scale));
    std::vector<std::string> links;
    links.reserve(degree);
    for (int d = 0; d < degree; ++d) {
      std::size_t target = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(num_pages) - 1));
      if (target == i) target = (target + 1) % num_pages;
      links.push_back("p" + std::to_string(target));
    }
    pages.push_back(Record{"p" + std::to_string(i), std::move(links)});
  }
  return pages;
}

std::vector<Record> MakeLabelledDocs(std::size_t num_docs, int num_classes,
                                     int terms_per_doc,
                                     const std::vector<std::string>& vocab,
                                     const ZipfSampler& zipf, Rng& rng) {
  GS_CHECK(num_classes > 0);
  std::vector<Record> docs;
  docs.reserve(num_docs);
  for (std::size_t i = 0; i < num_docs; ++i) {
    int cls = static_cast<int>(rng.UniformInt(0, num_classes - 1));
    std::string text;
    for (int t = 0; t < terms_per_doc; ++t) {
      if (t) text.push_back(' ');
      text += vocab[zipf.Sample(rng)];
    }
    char label[16];
    std::snprintf(label, sizeof(label), "class%03d", cls);
    docs.push_back(Record{label, std::move(text)});
  }
  return docs;
}

}  // namespace gs
