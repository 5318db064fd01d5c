#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

// ------------------------------------------------------------------ stats

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(rank));
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Histogram::add(double value) noexcept {
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);  // value = mantissa * 2^exp
  std::size_t index = 0;
  if (value > 0.0 && exp >= kMinExp) {
    if (exp >= kMaxExp) {
      index = counts_.size() - 1;
    } else {
      const auto sub = static_cast<std::size_t>((mantissa - 0.5) * (2 << kSubBits));
      index = (static_cast<std::size_t>(exp - kMinExp) << kSubBits) +
              std::min<std::size_t>(sub, (1U << kSubBits) - 1);
    }
  }
  ++counts_[index];
  ++count_;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0 || static_cast<double>(below + counts_[i]) <= rank) {
      below += counts_[i];
      continue;
    }
    const int exp = static_cast<int>(i >> kSubBits) + kMinExp;
    const double sub = static_cast<double>(i & ((1U << kSubBits) - 1));
    const double width = std::ldexp(1.0, exp) / static_cast<double>(2 << kSubBits);
    const double lower = std::ldexp(0.5, exp) + sub * width;
    const double within = std::min(1.0, (rank - static_cast<double>(below) + 0.5) /
                                             static_cast<double>(counts_[i]));
    return lower + within * width;
  }
  return 0.0;
}

void warmUp(std::size_t threads, double seconds) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto spin = [until] {
    while (Clock::now() < until) {
    }
  };
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < threads; ++i) helpers.emplace_back(spin);
  spin();
  for (std::thread& t : helpers) t.join();
}

std::size_t peakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::size_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::size_t directoryBytes(const std::string& dir) {
  std::size_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

bool Checker::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

// ------------------------------------------------------------- workloads

namespace {

// Sizes are chosen so that every workload streams >= 200 windows (the
// freshness p95 then has >= 10 samples beyond it) and one service round
// lasts a few seconds on a 4-core host.
const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> list;

    WorkloadSpec churn;
    churn.name = "churn-serve";
    churn.code = "CHURN";
    churn.params = {{"vertices", 200'000}, {"attach", 4}, {"ticks", 220},
                    {"rate", 2'000}, {"remove-frac", 0.35}};
    churn.windowSpan = 1.0;  // one tick per window
    churn.engine = core::EngineKind::kGreedy;
    churn.decisionThreads = 1;
    churn.altDecisionThreads = 2;
    churn.readers = 2;
    churn.checkpointEvery = 0;
    // Five rounds at --seconds 45: the host's speed moves over seconds and
    // the inputs' parked sets differ, so the run averages five ingests.
    churn.roundSeconds = 9.0;
    list.push_back(churn);

    WorkloadSpec cdr;
    cdr.name = "cdr-ckpt";
    cdr.code = "CDR";
    cdr.params = {{"subscribers", 3'000}, {"degree", 10.1}, {"weeks", 4}};
    cdr.windowSpan = 1.0 / 56.0;  // eight windows per day
    cdr.engine = core::EngineKind::kGreedy;
    cdr.decisionThreads = 1;
    cdr.altDecisionThreads = 2;
    cdr.readers = 1;
    cdr.checkpointEvery = 1;
    cdr.supersteps = 32;  // ~1 ms each
    cdr.roundSeconds = 7.0;
    list.push_back(cdr);

    WorkloadSpec tweet;
    tweet.name = "tweet-lpa";
    tweet.code = "TWEET";
    tweet.params = {{"users", 4'000}, {"rate", 5.0}, {"hours", 18.0},
                    {"expiry-hours", 6.0}};
    tweet.windowSpan = 300.0;  // five-minute windows
    tweet.expirySpan = 6.0 * 3600.0;
    tweet.engine = core::EngineKind::kLpa;
    // On 4,000 users an LPA step takes ~0.4 ms, so at two decision threads
    // the pool's wake-ups set its time and ingest swings with the host; the
    // threaded decision phase is exercised by the thread-invariance re-run.
    tweet.decisionThreads = 1;
    tweet.altDecisionThreads = 2;
    tweet.readers = 1;
    tweet.checkpointEvery = 0;
    tweet.resizePlan = "grow@72:3;shrink@144:2+5+10";
    tweet.supersteps = 32;  // ~4 ms each
    tweet.roundSeconds = 10.0;
    list.push_back(tweet);
    return list;
  }();
  return all;
}

}  // namespace

const WorkloadSpec& workloadSpec(const std::string& name) {
  for (const WorkloadSpec& spec : specs()) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const std::string& n : workloadNames()) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : specs()) names.push_back(spec.name);
  return names;
}

api::Workload makeWorkload(const WorkloadSpec& spec, std::uint64_t seed) {
  api::WorkloadConfig config;
  config.seed = seed;
  config.overrides = spec.params;
  return api::WorkloadRegistry::instance().make(spec.code, config);
}

api::StreamOptions streamOptions(const WorkloadSpec& spec) {
  api::StreamOptions options;
  options.windowSpan = spec.windowSpan;
  options.expirySpan = spec.expirySpan;
  return options;
}

core::AdaptiveOptions adaptiveOptions(const WorkloadSpec& spec, std::size_t threads) {
  core::AdaptiveOptions options;
  options.k = kPartitions;
  options.capacityFactor = kCapacityFactor;
  options.engine = spec.engine;
  options.threads = threads;
  options.seed = kEngineSeed;
  return options;
}

serve::ServeOptions serveOptions(const WorkloadSpec& spec,
                                 const std::string& checkpointDir) {
  serve::ServeOptions options;
  options.stream = streamOptions(spec);
  options.checkpointDir = checkpointDir;
  options.checkpointEvery = spec.checkpointEvery;
  if (!spec.resizePlan.empty()) options.resizes = serve::parseResizePlan(spec.resizePlan);
  return options;
}

}  // namespace perfbench
