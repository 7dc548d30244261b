// simcheck configuration: seeded generation, flat-JSON round trip, and the
// deterministic topology/record builders shared by the runner and tests.
#include "simcheck/simcheck.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <variant>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/record.h"
#include "workloads/input_gen.h"

namespace gs {
namespace simcheck {

SimcheckConfig GenerateConfig(std::uint64_t seed) {
  SimcheckConfig cfg;
  cfg.seed = seed;
  Rng rng = Rng(seed).Split("simcheck-gen");

  cfg.num_dcs = static_cast<int>(rng.UniformInt(2, 4));
  cfg.nodes_per_dc = static_cast<int>(rng.UniformInt(1, 3));
  cfg.dedicated_driver = rng.Bernoulli(0.5);
  const int wan_choices[] = {80, 150, 200, 300};
  cfg.wan_rate_mbps = wan_choices[rng.UniformInt(0, 3)];
  cfg.rtt_ms = static_cast<int>(rng.UniformInt(40, 250));
  cfg.uniform_wan = rng.Bernoulli(0.5);

  cfg.dag_shape = static_cast<int>(rng.UniformInt(0, kNumDagShapes - 1));
  cfg.num_records = static_cast<int>(rng.UniformInt(60, 500));
  cfg.num_keys = static_cast<int>(rng.UniformInt(3, 60));
  // Deliberately allowed to exceed the workers of a datacenter so the
  // round-robin edge cases of Parallelize stay covered.
  cfg.partitions_per_dc =
      static_cast<int>(rng.UniformInt(1, cfg.nodes_per_dc + 2));
  cfg.num_shards = static_cast<int>(rng.UniformInt(1, 8));
  cfg.map_side_combine = rng.Bernoulli(0.7);
  cfg.save_action = rng.Bernoulli(0.25);

  cfg.aggregator_dc_count =
      rng.Bernoulli(0.7) ? 1 : std::min(2, cfg.num_dcs);
  cfg.threads_high = static_cast<int>(rng.UniformInt(2, 4));
  cfg.noisy_network = rng.Bernoulli(0.6);

  const int workers = cfg.num_dcs * cfg.nodes_per_dc;
  cfg.crash = workers >= 3 && rng.Bernoulli(0.3);
  cfg.crash_victim = static_cast<int>(rng.UniformInt(1, workers - 1));
  cfg.crash_frac = rng.Uniform(0.15, 0.75);
  cfg.restart_after = rng.Bernoulli(0.5) ? rng.Uniform(1.0, 8.0) : 0.0;
  cfg.degrade = cfg.num_dcs >= 2 && rng.Bernoulli(0.3);
  cfg.degrade_factor = rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.2, 0.8);
  cfg.degrade_frac = rng.Uniform(0.1, 0.6);
  cfg.degrade_duration = rng.Uniform(2.0, 10.0);
  cfg.block_loss = rng.Bernoulli(0.2);
  cfg.block_loss_frac = rng.Uniform(0.2, 0.7);
  // Drawn last so older seeds keep generating the exact configs they used
  // to (plus a transport draw that leaves them on kDirect half the time).
  cfg.transport = rng.Bernoulli(0.5)
                      ? 0
                      : static_cast<int>(rng.UniformInt(1, 2));
  // Adaptive placement, appended after transport for the same reason.
  cfg.adaptive = rng.Bernoulli(0.35) ? 1 : 0;
  // Coded shuffle, appended after adaptive for the same reason. Only
  // meaningful with at least two datacenters; r ranges over [2, num_dcs].
  const bool coded_on = cfg.num_dcs >= 2 && rng.Bernoulli(0.3);
  cfg.coded =
      coded_on ? static_cast<int>(rng.UniformInt(2, cfg.num_dcs)) : 0;
  return cfg;
}

namespace {

// The reproducer's keys, in ToJson's order, each with the member it holds:
// ToJson writes every row and FromJson's AssignField looks keys up here,
// so a new config field is added in this one place.
using Member = std::variant<std::uint64_t SimcheckConfig::*,
                            int SimcheckConfig::*, bool SimcheckConfig::*,
                            double SimcheckConfig::*>;
struct Field {
  const char* key;
  Member member;
};
const Field kFields[] = {
    {"seed", &SimcheckConfig::seed},
    {"num_dcs", &SimcheckConfig::num_dcs},
    {"nodes_per_dc", &SimcheckConfig::nodes_per_dc},
    {"dedicated_driver", &SimcheckConfig::dedicated_driver},
    {"wan_rate_mbps", &SimcheckConfig::wan_rate_mbps},
    {"rtt_ms", &SimcheckConfig::rtt_ms},
    {"uniform_wan", &SimcheckConfig::uniform_wan},
    {"dag_shape", &SimcheckConfig::dag_shape},
    {"num_records", &SimcheckConfig::num_records},
    {"num_keys", &SimcheckConfig::num_keys},
    {"partitions_per_dc", &SimcheckConfig::partitions_per_dc},
    {"num_shards", &SimcheckConfig::num_shards},
    {"map_side_combine", &SimcheckConfig::map_side_combine},
    {"save_action", &SimcheckConfig::save_action},
    {"aggregator_dc_count", &SimcheckConfig::aggregator_dc_count},
    {"threads_high", &SimcheckConfig::threads_high},
    {"noisy_network", &SimcheckConfig::noisy_network},
    {"crash", &SimcheckConfig::crash},
    {"crash_victim", &SimcheckConfig::crash_victim},
    {"crash_frac", &SimcheckConfig::crash_frac},
    {"restart_after", &SimcheckConfig::restart_after},
    {"degrade", &SimcheckConfig::degrade},
    {"degrade_factor", &SimcheckConfig::degrade_factor},
    {"degrade_frac", &SimcheckConfig::degrade_frac},
    {"degrade_duration", &SimcheckConfig::degrade_duration},
    {"block_loss", &SimcheckConfig::block_loss},
    {"block_loss_frac", &SimcheckConfig::block_loss_frac},
    {"transport", &SimcheckConfig::transport},
    {"adaptive", &SimcheckConfig::adaptive},
    {"coded", &SimcheckConfig::coded},
};

}  // namespace

std::string ToJson(const SimcheckConfig& c) {
  JsonWriter w;
  w.BeginObject();
  for (const Field& f : kFields) {
    std::visit([&](auto member) { w.Key(f.key).Value(c.*member); },
               f.member);
  }
  w.EndObject();
  return w.str();
}

namespace {

// Minimal parser for the flat object ToJson emits: string keys mapping to
// number or boolean tokens, no nesting, no string values, no escapes. The
// repo deliberately has no general JSON parser; reproducers only need this.
struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  void SkipWs() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool ParseKey(std::string* out) {
    SkipWs();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') return false;  // keys never need escapes
      out->push_back(s[i++]);
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  // A number or true/false, captured as the raw token.
  bool ParseScalar(std::string* out) {
    SkipWs();
    out->clear();
    while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                            s[i] == '-' || s[i] == '+' || s[i] == '.')) {
      out->push_back(s[i++]);
    }
    return !out->empty();
  }
};

bool ParseToken(const std::string& tok, bool* out) {
  if (tok == "true") { *out = true; return true; }
  if (tok == "false") { *out = false; return true; }
  return false;
}

bool ParseToken(const std::string& tok, int* out) {
  char* end = nullptr;
  long v = std::strtol(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool ParseToken(const std::string& tok, std::uint64_t* out) {
  if (tok.empty() || tok[0] == '-') return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseToken(const std::string& tok, double* out) {
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool AssignField(SimcheckConfig* c, const std::string& key,
                 const std::string& tok) {
  for (const Field& f : kFields) {
    if (key != f.key) continue;
    return std::visit(
        [&](auto member) { return ParseToken(tok, &(c->*member)); },
        f.member);
  }
  return false;  // unknown key
}

}  // namespace

bool FromJson(const std::string& json, SimcheckConfig* out,
              std::string* error) {
  SimcheckConfig cfg;
  Cursor cur{json};
  if (!cur.Eat('{')) {
    if (error != nullptr) *error = "expected '{'";
    return false;
  }
  cur.SkipWs();
  if (!cur.Eat('}')) {
    while (true) {
      std::string key, tok;
      if (!cur.ParseKey(&key)) {
        if (error != nullptr) *error = "expected a quoted key";
        return false;
      }
      if (!cur.Eat(':')) {
        if (error != nullptr) *error = "expected ':' after \"" + key + "\"";
        return false;
      }
      if (!cur.ParseScalar(&tok)) {
        if (error != nullptr) *error = "expected a value for \"" + key + "\"";
        return false;
      }
      if (!AssignField(&cfg, key, tok)) {
        if (error != nullptr) {
          *error = "unknown key or bad value: \"" + key + "\": " + tok;
        }
        return false;
      }
      if (cur.Eat(',')) continue;
      if (cur.Eat('}')) break;
      if (error != nullptr) *error = "expected ',' or '}'";
      return false;
    }
  }
  cur.SkipWs();
  if (cur.i != json.size()) {
    if (error != nullptr) *error = "trailing characters after '}'";
    return false;
  }
  *out = cfg;
  return true;
}

Topology BuildTopology(const SimcheckConfig& cfg) {
  GS_CHECK(cfg.num_dcs >= 1 && cfg.nodes_per_dc >= 1);
  GS_CHECK(cfg.wan_rate_mbps > 0 && cfg.rtt_ms > 0);
  Topology topo;
  for (int d = 0; d < cfg.num_dcs; ++d) {
    topo.AddDatacenter("dc" + std::to_string(d));
  }
  for (int d = 0; d < cfg.num_dcs; ++d) {
    for (int i = 0; i < cfg.nodes_per_dc; ++i) {
      NodeSpec spec;
      spec.name = "w" + std::to_string(d) + "-" + std::to_string(i);
      spec.dc = d;
      spec.nic_rate = Mbps(400);
      topo.AddNode(spec);
    }
  }
  if (cfg.dedicated_driver) {
    NodeSpec driver;
    driver.name = "driver";
    driver.dc = 0;
    driver.nic_rate = Mbps(400);
    driver.worker = false;
    topo.AddNode(driver);
  }
  Rng rng = Rng(cfg.seed).Split("simcheck-topo");
  const Rate mean = Mbps(cfg.wan_rate_mbps);
  for (DcIndex s = 0; s < cfg.num_dcs; ++s) {
    for (DcIndex d = 0; d < cfg.num_dcs; ++d) {
      if (s == d) continue;
      // The RNG draw happens even for uniform meshes so flipping
      // uniform_wan during shrinking does not reshuffle later draws.
      const double jitter = rng.Uniform(0.4, 1.4);
      const Rate base = cfg.uniform_wan ? mean : mean * jitter;
      WanLinkSpec link;
      link.src = s;
      link.dst = d;
      link.base_rate = base;
      link.min_rate = 0.5 * base;
      link.max_rate = 1.3 * base;
      link.rtt = Millis(cfg.rtt_ms);
      topo.AddWanLink(link);
    }
  }
  return topo;
}

std::vector<Record> BuildRecords(const SimcheckConfig& cfg) {
  GS_CHECK(cfg.num_records >= 1 && cfg.num_keys >= 1);
  Rng rng = Rng(cfg.seed).Split("simcheck-records");
  if (cfg.dag_shape == 5) {
    // Sort shape: 10-char hex keys matching UniformBoundaries.
    return MakeKeyValueRecords(static_cast<std::size_t>(cfg.num_records), 16,
                               rng, kHexAlphabet, nullptr);
  }
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(cfg.num_records));
  for (int i = 0; i < cfg.num_records; ++i) {
    Record r;
    r.key = "k" + std::to_string(rng.UniformInt(0, cfg.num_keys - 1));
    if (cfg.dag_shape == 3) {
      r.value = "v" + std::to_string(rng.UniformInt(0, 4));
    } else {
      r.value = rng.UniformInt(1, 9);
    }
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace simcheck
}  // namespace gs
