// End-to-end benchmark driver for the xdgp serving stack.
//
//   xdgp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --out-dir <dir>
//
// --trace 0 runs whole service rounds (set-up, ingest under readers,
// restore, TunkRank supersteps), one input instance each, as many as fit
// --seconds by the workload's round estimate and at least kMinRounds, and
// prints the end-to-end metrics. --trace 1 runs one untraced round, a
// re-run at another decision-thread count and a traced layer-by-layer
// replay, checks that all three trajectories agree, and prints the
// per-layer metrics. Either way the last line of standard output is
// {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "api/pipeline.h"
#include "bench.h"

namespace perfbench {
namespace {

constexpr std::size_t kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string outDir;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      haveSeed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::stoi(value);
    } else if (key == "--out-dir") {
      args.outDir = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.workload.empty() || !haveSeed || args.seconds <= 0.0 ||
      args.outDir.empty() || (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: xdgp_perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --out-dir <dir>");
  }
  return args;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void printResult(bool correct, const OpCounts& ops, const std::vector<Metric>& metrics) {
  std::fprintf(stderr,
               "ops attempted/failed: events %llu/%llu windows %llu/%llu "
               "lookups %llu/%llu checkpoints %llu/%llu restores %llu/%llu "
               "supersteps %llu/%llu\n",
               static_cast<unsigned long long>(ops.events.attempted),
               static_cast<unsigned long long>(ops.events.failed),
               static_cast<unsigned long long>(ops.windows.attempted),
               static_cast<unsigned long long>(ops.windows.failed),
               static_cast<unsigned long long>(ops.lookups.attempted),
               static_cast<unsigned long long>(ops.lookups.failed),
               static_cast<unsigned long long>(ops.checkpoints.attempted),
               static_cast<unsigned long long>(ops.checkpoints.failed),
               static_cast<unsigned long long>(ops.restores.attempted),
               static_cast<unsigned long long>(ops.restores.failed),
               static_cast<unsigned long long>(ops.supersteps.attempted),
               static_cast<unsigned long long>(ops.supersteps.failed));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted());
  json += ", \"failed\": " + std::to_string(ops.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

/// End-to-end metrics over whole rounds (one input instance each): rates
/// pool the rounds' counts and times, freshness pools every sample, read
/// latencies take the median over every reader's half-second slices, short
/// phases take the median of every repeat, and the seed-fixed metrics take
/// the median over the rounds (LPA's early windows make single instances
/// swing; see CHANGES.md).
std::vector<Metric> endToEnd(const std::vector<RoundResult>& rounds) {
  std::vector<double> setup, converge, fresh, restore, steps, readP50, readP99;
  double events = 0.0, ingestSeconds = 0.0, lookups = 0.0, readerSeconds = 0.0;
  std::vector<double> cut, migrations, ckpt, remoteFraction;
  for (const RoundResult& r : rounds) {
    setup.insert(setup.end(), r.setupSeconds.begin(), r.setupSeconds.end());
    converge.push_back(r.convergeSeconds);
    events += static_cast<double>(r.ingestEvents);
    ingestSeconds += r.ingestSeconds;
    lookups += static_cast<double>(r.reads.lookups);
    readerSeconds += r.reads.readerSeconds();
    fresh.insert(fresh.end(), r.freshSeconds.begin(), r.freshSeconds.end());
    readP50.insert(readP50.end(), r.reads.sliceP50Nanos.begin(), r.reads.sliceP50Nanos.end());
    readP99.insert(readP99.end(), r.reads.sliceP99Nanos.begin(), r.reads.sliceP99Nanos.end());
    restore.insert(restore.end(), r.restoreSeconds.begin(), r.restoreSeconds.end());
    steps.insert(steps.end(), r.appStepSeconds.begin(), r.appStepSeconds.end());
    cut.push_back(r.cutRatioMean);
    migrations.push_back(static_cast<double>(r.migrations));
    ckpt.push_back(static_cast<double>(r.checkpointBytes));
    remoteFraction.push_back(static_cast<double>(r.remoteMessages) /
                             static_cast<double>(r.localMessages + r.remoteMessages));
  }
  return {
      {"setup_s", "s", median(setup)},
      {"converge_s", "s", median(converge)},
      {"ingest_eps", "events/s", events / ingestSeconds},
      {"fresh_p50_ms", "ms", percentile(fresh, 0.50) * 1e3},
      {"fresh_p95_ms", "ms", percentile(fresh, 0.95) * 1e3},
      {"reads_per_s", "lookups/s", lookups / readerSeconds},
      {"read_p50_ns", "ns", median(readP50)},
      {"read_p99_ns", "ns", median(readP99)},
      {"cut_ratio", "ratio", median(cut)},
      {"migrations", "count", median(migrations)},
      {"ckpt_mb", "MB", median(ckpt) / 1e6},
      {"restore_s", "s", median(restore)},
      {"app_step_ms", "ms", median(steps) * 1e3},
      {"remote_msg_frac", "ratio", median(remoteFraction)},
      {"peak_rss_mb", "MB", static_cast<double>(rounds.back().peakRssBytes) / 1e6},
  };
}

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"gen.workload_s", "s"},          {"partition.initial_s", "s"},
      {"serve.first_publish_ms", "ms"}, {"api.next_ms", "ms"},
      {"core.apply_ms", "ms"},          {"core.rescale_us", "us"},
      {"core.step_us", "us"},           {"core.steps_per_window", "count"},
      {"core.evaluated_per_step", "count"}, {"core.parked", "count"},
      {"core.moves_per_eval", "ratio"}, {"core.scratch_mb", "MB"},
      {"graph.arena_mb", "MB"},         {"lpa.step_ms", "ms"},
      {"lpa.steps_per_window", "count"}, {"lpa.resize_ms", "ms"},
      {"lpa.drain_windows", "count"},   {"serve.publish_ms", "ms"},
      {"serve.overlay_vertices", "count"}, {"serve.compactions", "count"},
      {"serve.snapshot_kb", "KB"},      {"serve.ckpt_make_ms", "ms"},
      {"serve.ckpt_write_ms", "ms"},    {"serve.ckpt_write_mbps", "MB/s"},
      {"serve.ckpt_read_s", "s"},       {"serve.restore_rebuild_s", "s"},
      {"serve.read_batch_p50_us", "us"}, {"serve.read_batch_p99_us", "us"},
      {"serve.read_epochs_seen", "count"}, {"pregel.superstep_ms", "ms"},
      {"pregel.superstep_1t_ms", "ms"}, {"pregel.remote_msgs", "count"},
      {"pregel.local_msgs", "count"},   {"pregel.migrations_executed", "count"},
  };
  return units;
}

int runTrace(const Args& args, const WorkloadSpec& spec, const std::string& ckptDir) {
  OpCounts ops;
  Checker checker;
  serve::Checkpoint serviceCheckpoint;
  RoundConfig config{&spec, inputSeed(args.seed, 0), ckptDir, true, &serviceCheckpoint};
  const RoundResult untraced = runServiceRound(config, ops, checker);
  config.keepCheckpoint = nullptr;

  // The same stream at another decision-thread count, no serving around it:
  // the trajectory must not move.
  {
    api::Workload workload = makeWorkload(spec, config.seed);
    api::Session session =
        api::Pipeline::fromGraph(std::move(workload.initial))
            .initial(kInitialStrategy)
            .k(kPartitions)
            .capacityFactor(kCapacityFactor)
            .seed(kEngineSeed)
            .adaptive(adaptiveOptions(spec, spec.altDecisionThreads))
            .start();
    const api::StreamOptions options = streamOptions(spec);
    const std::vector<serve::ServeOptions::ResizeOp> resizes =
        serveOptions(spec, "").resizes;
    api::Streamer streamer(std::move(workload.stream), options);
    std::vector<api::WindowReport> timeline;
    while (std::optional<api::WindowBatch> batch = streamer.next()) {
      for (const serve::ServeOptions::ResizeOp& op : resizes) {
        if (op.window != batch->index) continue;
        if (op.grow > 0) session.engine().growPartitions(op.grow);
        if (!op.shrink.empty()) session.engine().shrinkPartitions(op.shrink);
      }
      timeline.push_back(session.streamWindow(*batch, options));
    }
    std::string difference;
    const bool same = sameTrajectory(untraced.timeline, timeline, &difference);
    checker.expect(same, "trajectory differs at " +
                             std::to_string(spec.altDecisionThreads) +
                             " decision threads: " + difference);
    ops.windows.attempted += timeline.size();
  }

  Tracer tracer;
  TracedResult traced = runTraced(config, serviceCheckpoint, tracer, ops, checker);
  traced.metrics["serve.ckpt_make_ms"] = median(untraced.makeCheckpointSeconds) * 1e3;
  std::string difference;
  const bool same = sameTrajectory(untraced.timeline, traced.timeline, &difference);
  checker.expect(same, "traced trajectory differs from the service run: " + difference);
  const std::string tracePath = args.outDir + "/trace-" + spec.name + "-" +
                                std::to_string(args.seed) + ".json";
  tracer.write(tracePath);
  // The direct cost of tracing: one nested open/close pair, timed in bulk on
  // a scratch tracer, times the spans the ingest recorded.
  double perSpan = 0.0;
  {
    constexpr int kPairs = 100'000;
    Tracer scratch;
    Scope outer(&scratch, "outer");
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) Scope span(&scratch, "probe");
    perSpan = secondsBetween(t0, Clock::now()) / kPairs;
  }
  std::size_t ingestSpans = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.name != "gen.workload" && span.name != "partition.initial" &&
        span.name.rfind("pregel.", 0) != 0 && span.name != "serve.ckpt_read" &&
        span.name.rfind("serve.restore", 0) != 0) {
      ++ingestSpans;
    }
  }
  std::fprintf(stderr,
               "trace: %zu spans in %s; ingest traced %.4f s vs untraced %.4f s "
               "(difference %+.2f%%); %.0f ns per span x %zu ingest spans = %.2f ms "
               "(%.3f%% of the untraced ingest)\n",
               tracer.spans().size(), tracePath.c_str(), traced.ingestSeconds,
               untraced.runSeconds,
               100.0 * (traced.ingestSeconds - untraced.runSeconds) / untraced.runSeconds,
               perSpan * 1e9, ingestSpans, perSpan * static_cast<double>(ingestSpans) * 1e3,
               100.0 * perSpan * static_cast<double>(ingestSpans) / untraced.runSeconds);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layerMetricUnits()) {
    const auto it = traced.metrics.find(name);
    metrics.push_back({name, unit, it == traced.metrics.end() ? 0.0 : it->second});
  }
  for (const std::string& failure : checker.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  printResult(checker.passed(), ops, metrics);
  return 0;
}

int runRounds(const Args& args, const WorkloadSpec& spec, const std::string& ckptDir) {
  OpCounts ops;
  Checker checker;
  // A fixed round count for a given --seconds keeps the seed-fixed metrics
  // fixed; the expensive checks ride on the last round, after its timing.
  const auto count = std::max<std::size_t>(
      kMinRounds, static_cast<std::size_t>(args.seconds / spec.roundSeconds));
  std::vector<RoundResult> rounds;
  for (std::size_t r = 0; r < count; ++r) {
    const Clock::time_point roundBegin = Clock::now();
    const RoundConfig config{&spec, inputSeed(args.seed, r), ckptDir, r + 1 == count};
    rounds.push_back(runServiceRound(config, ops, checker));
    const RoundResult& last = rounds.back();
    std::fprintf(stderr,
                 "round %zu: %.2f s (service run %.3f s, superstep median %.2f ms, "
                 "read batch p50/p90/p99/p99.9 %.2f/%.2f/%.2f/%.2f ns per lookup, "
                 "median slice p99 %.2f ns)\n",
                 rounds.size(), secondsBetween(roundBegin, Clock::now()), last.runSeconds,
                 median(last.appStepSeconds) * 1e3,
                 last.reads.batchNanos.percentile(0.50) / ReaderPool::kBatch,
                 last.reads.batchNanos.percentile(0.90) / ReaderPool::kBatch,
                 last.reads.batchNanos.percentile(0.99) / ReaderPool::kBatch,
                 last.reads.batchNanos.percentile(0.999) / ReaderPool::kBatch,
                 median(last.reads.sliceP99Nanos));
  }
  const std::vector<Metric> metrics = endToEnd(rounds);
  // A digest of every round's window trajectory, so that runs at the same
  // seed can be compared (steady.py --same-seed).
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const RoundResult& round : rounds) {
    for (const api::WindowReport& w : round.timeline) {
      for (const std::size_t field : {w.eventsApplied, w.iterations, w.migrations,
                                      w.cutEdges, w.vertices, w.edges}) {
        digest = (digest ^ field) * 0x100000001b3ULL;
      }
    }
  }
  std::fprintf(stderr, "trajectory: %016llx\n", static_cast<unsigned long long>(digest));
  for (const std::string& failure : checker.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  printResult(checker.passed(), ops, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec& spec = workloadSpec(args.workload);
    const std::string ckptDir = args.outDir + "/ckpt-" + spec.name + "-" +
                                std::to_string(static_cast<long long>(::getpid()));
    std::filesystem::create_directories(args.outDir);
    const int code = args.trace == 1 ? runTrace(args, spec, ckptDir)
                                     : runRounds(args, spec, ckptDir);
    std::filesystem::remove_all(ckptDir);
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xdgp_perfbench: %s\n", e.what());
    return 1;
  }
}
