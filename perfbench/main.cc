// perfbench: host wall time per pass over one benchmark workload.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--commit=ID]
//
// Builds the workload's work list from the seed (several times, timing
// each build as set-up), runs timed passes for S seconds (at least two),
// then TeraSort's untimed output check. Prints provenance and every metric
// with its unit as text, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace=0 the metrics are the end-to-end ones (setup_s, pass_s,
// pass_cpu_s, peak_rss_mib). With --trace=1 untraced and traced passes
// alternate, and the metrics are the per-layer ones, each the median over
// the traced passes, plus the tracing overhead.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "passes.h"

namespace {

using perfbench::Layers;
using perfbench::PassResult;
using perfbench::WallNow;

// Set-up repetitions on each CPU; setup_s is the median of all of them.
// Set-up takes microseconds on three workloads, so there are enough
// repetitions that the cold first few do not move the median.
constexpr int kSetupsPerCpu = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
};

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0';
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const std::size_t eq = flag.find('=');
    if (eq == std::string::npos) return false;
    const std::string arg = flag.substr(0, eq), value = flag.substr(eq + 1);
    std::uint64_t n = 0;
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      if (!ParseU64(value, &a->seed)) return false;
    } else if (arg == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 3600) return false;
      a->seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (arg == "--commit") {
      a->commit = value;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::WorkloadNames();
  return std::find(names.begin(), names.end(), a->workload) != names.end() &&
         a->seconds > 0 && a->trace >= 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Builds the work list kSetupsPerCpu times on each CPU this process may
// use and returns every build's wall time. The host's vCPUs differ in
// speed by up to half on such small tasks, so timing on one CPU would make
// setup_s depend on where the process happened to start.
std::vector<double> TimeSetups(const Args& args, int threads,
                               perfbench::WorkList* work) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<double> seconds;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    for (int i = 0; i < kSetupsPerCpu; ++i) {
      const double start = WallNow();
      *work = perfbench::Setup(args.workload, args.seed, threads);
      seconds.push_back(WallNow() - start);
    }
  }
  // Restore before any cluster spawns its pool: threads inherit the mask.
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return seconds;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Counts the units of `pass` whose fingerprint differs from `first`'s and
// prints a FLAG line for each.
int FingerprintMismatches(const PassResult& first, const PassResult& pass,
                          int pass_index) {
  int mismatches = 0;
  const std::size_t n =
      std::max(first.fingerprints.size(), pass.fingerprints.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string a =
        i < first.fingerprints.size() ? first.fingerprints[i] : "";
    const std::string b =
        i < pass.fingerprints.size() ? pass.fingerprints[i] : "";
    if (a != b) {
      ++mismatches;
      std::cout << "FLAG pass " << pass_index
                << " fingerprint differs from pass 0: '" << b << "' vs '"
                << a << "'\n";
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap and trim thresholds at the largest values its dynamic
  // adjustment converges to. Left dynamic, they grow as the process frees
  // large blocks, and each pass runs faster than the one before it.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);

  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--commit=ID]\nworkloads:";
    for (const std::string& w : perfbench::WorkloadNames()) {
      std::cerr << " " << w;
    }
    std::cerr << "\n";
    return 2;
  }
  const int cpus = perfbench::OnlineCpus();
  // The event loop runs on this thread; the pool gets the other cores.
  const int threads = std::max(1, cpus - 1);
  std::cout << "{\"provenance\": {\"workload\": " << Quote(args.workload)
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"nproc\": " << cpus << ", \"compute_threads\": " << threads
            << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << Quote(args.commit) << "}}\n";

  try {
    perfbench::WorkList work;
    const std::vector<double> setups = TimeSetups(args, threads, &work);

    int attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto tally = [&](const PassResult& pass) {
      attempted += pass.attempted;
      failed += pass.failed;
      failures.insert(failures.end(), pass.failures.begin(),
                      pass.failures.end());
    };

    // Timed passes until the time is up, and at least two: the first pays
    // the heap's first-touch page faults, and every later pass's
    // fingerprints must match the first's. Traced runs alternate untraced
    // and traced passes, starting untraced.
    PassResult first;
    std::vector<double> walls, cpus_s, traced_walls;
    std::vector<Layers> traced_layers;
    const double start = WallNow();
    for (int i = 0;; ++i) {
      const bool traced = args.trace == 1 && i % 2 == 1;
      const double wall0 = WallNow(), cpu0 = perfbench::ProcessCpuNow();
      PassResult pass = perfbench::RunPass(work, traced);
      const double wall = WallNow() - wall0;
      const double cpu = perfbench::ProcessCpuNow() - cpu0;
      std::cout << "pass " << i << (traced ? " traced" : "") << ": "
                << Num(wall) << " s wall, " << Num(cpu) << " s cpu\n";
      if (traced) {
        perfbench::AddClusterInitProbe(work, &pass.layers);
        pass.layers["workloads.build_share"] =
            pass.layers["workloads.build_s"] / wall;
        traced_walls.push_back(wall);
        traced_layers.push_back(pass.layers);
      } else {
        walls.push_back(wall);
        cpus_s.push_back(cpu);
      }
      tally(pass);
      if (i == 0) {
        first = pass;
      } else {
        failed += std::min(pass.attempted,
                           FingerprintMismatches(first, pass, i));
      }
      if (i >= 1 && WallNow() - start >= args.seconds) break;
    }
    const double peak_rss = perfbench::PeakRssMiB();

    PassResult verify = perfbench::VerifyPass(work);
    tally(verify);

    std::vector<Metric> metrics;
    if (args.trace == 0) {
      metrics = {{"setup_s", Median(setups), "s"},
                 {"pass_s", Median(walls), "s"},
                 {"pass_cpu_s", Median(cpus_s), "s"},
                 {"peak_rss_mib", peak_rss, "MiB"}};
    } else {
      for (const perfbench::MetricDef& m : perfbench::LayerMetrics()) {
        std::vector<double> values;
        for (const Layers& l : traced_layers) {
          auto it = l.find(m.name);
          values.push_back(it == l.end() ? 0.0 : it->second);
        }
        metrics.push_back({m.name, Median(values), m.unit});
      }
      const double traced = Median(traced_walls), untraced = Median(walls);
      for (Metric& m : metrics) {
        if (m.name == "trace.pass_s") m.value = traced;
        if (m.name == "trace.untraced_pass_s") m.value = untraced;
        if (m.name == "trace.overhead_s") m.value = traced - untraced;
      }
    }

    for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";
    std::cout << args.workload << ": " << walls.size() << " untraced + "
              << traced_walls.size() << " traced pass(es), "
              << first.attempted << " unit(s) per pass\n";
    for (const Metric& m : metrics) {
      std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
                << "\n";
    }
    std::cout << "  failed_frac = "
              << Num(static_cast<double>(failed) / std::max(1, attempted))
              << " (" << failed << " of " << attempted << " units)\n";

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::cout << (i ? ", " : "") << Quote(metrics[i].name)
                << ": {\"value\": " << Num(metrics[i].value)
                << ", \"unit\": " << Quote(metrics[i].unit) << "}";
    }
    std::cout << "}}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
