// geosim-fuzz: CLI driver for the simcheck differential-testing subsystem.
//
// Iterates GenerateConfig over a contiguous seed range, runs every
// configuration through the netsim- and engine-level invariant checks, and
// on the first failure shrinks it to a minimal reproducer and writes it as
// JSON (replayable here via --replay, or in code via FromJson +
// RunSimcheck). See docs/TESTING.md.
//
//   geosim-fuzz --iters=200 --seed=1
//   geosim-fuzz --replay=simcheck_repro.json
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "simcheck/simcheck.h"

namespace {

struct Options {
  int iters = 50;
  std::uint64_t seed = 1;
  int budget_ms = 0;  // 0 = no wall-clock budget
  std::string out_path = "simcheck_repro.json";
  std::string replay_path;
  bool shrink = true;
  bool netsim_only = false;
  bool engine_only = false;
  bool help = false;
};

void PrintHelp() {
  std::cout <<
      "geosim-fuzz — randomized invariant checking of the WAN simulator\n"
      "\n"
      "  --iters=N       configurations to draw and check (default 50)\n"
      "  --seed=S        base seed; configuration i uses seed S+i\n"
      "  --budget-ms=T   wall-clock budget for the whole run; when it runs\n"
      "                  out the in-flight configuration is reported (and\n"
      "                  written to --out) and the process exits 3. Guards\n"
      "                  against configs that hang the simulation.\n"
      "  --out=FILE      minimized-repro JSON written on failure\n"
      "                  (default simcheck_repro.json)\n"
      "  --replay=FILE   replay one repro JSON instead of fuzzing\n"
      "  --no-shrink     emit the failing config without minimizing it\n"
      "  --netsim-only   only the bare-Network flow-script checks\n"
      "  --engine-only   only the engine-level differential checks\n"
      "  --help          this text\n"
      "\n"
      "exit status: 0 all invariants held, 1 a violation was found,\n"
      "2 usage error, 3 the wall-clock budget ran out\n";
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

// Strict numeric parsing: the whole value must be consumed.
bool ParseInt(const std::string& s, int min_value, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < min_value ||
      v > 1'000'000'000L) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0) {
      opts->help = true;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      opts->shrink = false;
    } else if (std::strcmp(argv[i], "--netsim-only") == 0) {
      opts->netsim_only = true;
    } else if (std::strcmp(argv[i], "--engine-only") == 0) {
      opts->engine_only = true;
    } else if (ParseFlag(argv[i], "out", &opts->out_path) ||
               ParseFlag(argv[i], "replay", &opts->replay_path)) {
      // parsed into the right field already
    } else if (ParseFlag(argv[i], "iters", &value)) {
      if (!ParseInt(value, 1, &opts->iters)) {
        std::cerr << "invalid value for --iters: '" << value
                  << "' (want an integer >= 1)\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "seed", &value)) {
      if (!ParseU64(value, &opts->seed)) {
        std::cerr << "invalid value for --seed: '" << value
                  << "' (want an unsigned integer)\n";
        return false;
      }
    } else if (ParseFlag(argv[i], "budget-ms", &value)) {
      if (!ParseInt(value, 1, &opts->budget_ms)) {
        std::cerr << "invalid value for --budget-ms: '" << value
                  << "' (want an integer >= 1)\n";
        return false;
      }
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return false;
    }
  }
  if (opts->netsim_only && opts->engine_only) {
    std::cerr << "--netsim-only and --engine-only are mutually exclusive\n";
    return false;
  }
  return true;
}

// Wall-clock guard (--budget-ms). Some generated configurations can hang
// the simulation outright (seed 5110 live-locks the engine check; see the
// disabled pin in tests/integration/simcheck_hang_regression_test.cc), and
// a synchronous check cannot be interrupted from the loop that called it.
// A watchdog thread therefore reports the configuration that was in
// flight when the budget expired and hard-exits the process — that JSON is
// the reproducer a hang would otherwise swallow.
class WallClockBudget {
 public:
  WallClockBudget(int budget_ms, std::string out_path)
      : out_path_(std::move(out_path)),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(budget_ms)),
        watchdog_([this] { Watch(); }) {}

  ~WallClockBudget() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    watchdog_.join();
  }

  // Records the configuration about to be checked.
  void SetCurrent(const gs::simcheck::SimcheckConfig& cfg) {
    std::lock_guard<std::mutex> lock(mu_);
    current_json_ = gs::simcheck::ToJson(cfg);
  }

 private:
  void Watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!done_) {
      if (cv_.wait_until(lock, deadline_) == std::cv_status::timeout &&
          !done_) {
        std::cerr << "wall-clock budget exceeded; configuration in flight:\n"
                  << current_json_ << "\n";
        if (!out_path_.empty()) {
          std::ofstream out(out_path_);
          if (out) {
            out << current_json_ << "\n";
            std::cerr << "written to " << out_path_
                      << " (replay with --replay=" << out_path_ << ")\n";
          }
        }
        // The checker thread may be wedged inside the simulation; exit
        // without unwinding it.
        std::_Exit(3);
      }
    }
  }

  const std::string out_path_;
  const std::chrono::steady_clock::time_point deadline_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string current_json_;
  std::thread watchdog_;
};

gs::simcheck::CheckFn LevelFn(const Options& opts) {
  if (opts.netsim_only) return &gs::simcheck::RunNetsimCheck;
  if (opts.engine_only) return &gs::simcheck::RunEngineCheck;
  return &gs::simcheck::RunSimcheck;
}

void PrintViolations(const gs::simcheck::CheckResult& result) {
  for (const gs::simcheck::Violation& v : result.violations) {
    std::cerr << "  [" << v.invariant << "] " << v.detail << "\n";
  }
}

int ReportFailure(const Options& opts,
                  const gs::simcheck::SimcheckConfig& cfg,
                  const gs::simcheck::CheckResult& result) {
  std::cerr << result.violations.size() << " invariant violation(s) for seed "
            << cfg.seed << ":\n";
  PrintViolations(result);

  gs::simcheck::SimcheckConfig repro = cfg;
  if (opts.shrink) {
    std::cerr << "shrinking...\n";
    gs::simcheck::ShrinkOutcome shrunk =
        gs::simcheck::Shrink(cfg, 48, LevelFn(opts));
    repro = shrunk.config;
    std::cerr << "minimized after " << shrunk.runs << " runs; violations:\n";
    PrintViolations(shrunk.result);
  }
  const std::string json = gs::simcheck::ToJson(repro);
  std::cerr << "reproducer: " << json << "\n";
  if (!opts.out_path.empty()) {
    std::ofstream out(opts.out_path);
    if (out) {
      out << json << "\n";
      std::cerr << "written to " << opts.out_path
                << " (replay with --replay=" << opts.out_path << ")\n";
    } else {
      std::cerr << "cannot write " << opts.out_path << "\n";
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    PrintHelp();
    return 2;
  }
  if (opts.help) {
    PrintHelp();
    return 0;
  }

  std::unique_ptr<WallClockBudget> budget;
  if (opts.budget_ms > 0) {
    budget = std::make_unique<WallClockBudget>(opts.budget_ms, opts.out_path);
  }

  if (!opts.replay_path.empty()) {
    std::ifstream in(opts.replay_path);
    if (!in) {
      std::cerr << "cannot read " << opts.replay_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    gs::simcheck::SimcheckConfig cfg;
    std::string error;
    if (!gs::simcheck::FromJson(buf.str(), &cfg, &error)) {
      std::cerr << "bad reproducer JSON: " << error << "\n";
      return 2;
    }
    if (budget) budget->SetCurrent(cfg);
    gs::simcheck::CheckResult result = LevelFn(opts)(cfg);
    if (!result.ok()) {
      std::cerr << "replay of " << opts.replay_path << " still fails:\n";
      PrintViolations(result);
      return 1;
    }
    std::cout << "replay of " << opts.replay_path
              << ": all invariants held (" << result.engine_runs
              << " engine runs, " << result.netsim_flows
              << " netsim flows)\n";
    return 0;
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  int engine_runs = 0;
  long netsim_flows = 0;
  for (int i = 0; i < opts.iters; ++i) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(i);
    const gs::simcheck::SimcheckConfig cfg = gs::simcheck::GenerateConfig(seed);
    if (budget) budget->SetCurrent(cfg);
    const gs::simcheck::CheckResult result = LevelFn(opts)(cfg);
    engine_runs += result.engine_runs;
    netsim_flows += result.netsim_flows;
    if (!result.ok()) return ReportFailure(opts, cfg, result);
    if ((i + 1) % 25 == 0) {
      std::cout << (i + 1) << "/" << opts.iters << " configurations clean\n";
    }
  }
  const double seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - sweep_start)
                            .count();
  std::ostringstream cost;
  cost << std::fixed << std::setprecision(2) << seconds << " s, "
       << std::setprecision(1) << opts.iters / seconds << " configs/s";
  std::cout << opts.iters << " configurations (seeds " << opts.seed << ".."
            << (opts.seed + static_cast<std::uint64_t>(opts.iters) - 1)
            << "): all invariants held (" << engine_runs
            << " engine runs, " << netsim_flows << " netsim flows) in "
            << cost.str() << "\n";
  return 0;
}
