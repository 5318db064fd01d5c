#include <filesystem>
#include <iostream>

#include "bench.h"

namespace perfbench {

// ------------------------------------------------------------- ReaderPool

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

graph::VertexId drawId(std::uint64_t& state, std::size_t bound) {
  return static_cast<graph::VertexId>(((splitmix(state) >> 32) * bound) >> 32);
}


}  // namespace

ReaderPool::ReaderPool(const serve::SnapshotBoard& board, std::size_t readers,
                       std::uint64_t seed)
    : board_(board), slots_(readers) {
  threads_.reserve(readers);
  for (std::size_t i = 0; i < readers; ++i) {
    threads_.emplace_back([this, i, seed] { readLoop(slots_[i], seed * 977 + i); });
  }
}

ReaderPool::~ReaderPool() { (void)stop(); }

ReaderPool::Result ReaderPool::stop() {
  if (stopped_) return merged_;
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
  stopped_ = true;
  for (const Result& r : slots_) {
    merged_.lookups += r.lookups;
    merged_.failedLookups += r.failedLookups;
    merged_.wallSeconds += r.wallSeconds;
    merged_.batchNanos.merge(r.batchNanos);
    merged_.sliceP50Nanos.insert(merged_.sliceP50Nanos.end(), r.sliceP50Nanos.begin(),
                                 r.sliceP50Nanos.end());
    merged_.sliceP99Nanos.insert(merged_.sliceP99Nanos.end(), r.sliceP99Nanos.begin(),
                                 r.sliceP99Nanos.end());
    merged_.epochsSeen.push_back(r.epochsSeen.empty() ? 0 : r.epochsSeen.front());
    merged_.tornSnapshots += r.tornSnapshots;
    merged_.epochRegressions += r.epochRegressions;
    merged_.routeMismatches += r.routeMismatches;
    merged_.samples.insert(merged_.samples.end(), r.samples.begin(), r.samples.end());
    if (merged_.firstSeen.size() < r.firstSeen.size()) {
      merged_.firstSeen.resize(r.firstSeen.size());
    }
    for (std::size_t e = 0; e < r.firstSeen.size(); ++e) {
      const Clock::time_point seen = r.firstSeen[e];
      if (seen != Clock::time_point{} &&
          (merged_.firstSeen[e] == Clock::time_point{} || seen < merged_.firstSeen[e])) {
        merged_.firstSeen[e] = seen;
      }
    }
  }
  return merged_;
}

void ReaderPool::readLoop(Result& r, std::uint64_t seed) {
  const bool sampler = &r == slots_.data();
  std::uint64_t rng = seed;
  std::uint64_t lastEpoch = 0;
  std::size_t epochs = 0;
  std::uint64_t batches = 0;
  std::uint64_t sink = 0;
  bool recording = false;
  Clock::time_point begin = Clock::now();
  Clock::time_point sliceBegin = begin;
  Histogram slice;
  const auto closeSlice = [&] {
    r.sliceP50Nanos.push_back(slice.percentile(0.50) / kBatch);
    r.sliceP99Nanos.push_back(slice.percentile(0.99) / kBatch);
    slice = Histogram{};
  };
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!recording && measuring_.load(std::memory_order_relaxed)) {
      recording = true;
      begin = Clock::now();
      sliceBegin = begin;
    }
    const serve::SnapshotBoard::Ref snap = board_.current();
    if (!snap) continue;
    bool bad = false;
    if (snap->torn()) {
      ++r.tornSnapshots;
      bad = true;
    }
    if (snap->epoch() < lastEpoch) {
      ++r.epochRegressions;
      bad = true;
    } else if (snap->epoch() > lastEpoch) {
      if (r.firstSeen.size() <= snap->epoch()) r.firstSeen.resize(snap->epoch() + 1);
      r.firstSeen[snap->epoch()] = Clock::now();
      if (sampler && snap->epoch() / kSampleEvery > lastEpoch / kSampleEvery) {
        r.samples.push_back(snap);
      }
      lastEpoch = snap->epoch();
      ++epochs;
    }
    const std::size_t bound = snap->idBound();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      sink += snap->partitionOf(drawId(rng, bound));
    }
    const Clock::time_point t1 = Clock::now();
    if (recording) {
      const double nanos = std::chrono::duration<double, std::nano>(t1 - t0).count();
      r.batchNanos.add(nanos);
      slice.add(nanos);
      r.lookups += kBatch;
      if (bad) r.failedLookups += kBatch;
      if (secondsBetween(sliceBegin, t1) >= kSliceSeconds) {
        closeSlice();
        sliceBegin = t1;
      }
    }
    if (++batches % 64 == 0) {
      for (int i = 0; i < 16; ++i) {
        const graph::VertexId u = drawId(rng, bound);
        const graph::VertexId v = drawId(rng, bound);
        const graph::PartitionId pu = snap->partitionOf(u);
        const graph::PartitionId pv = snap->partitionOf(v);
        const int want = (pu == graph::kNoPartition || pv == graph::kNoPartition)
                             ? serve::AssignmentSnapshot::kRouteUnknown
                             : (pu == pv ? serve::AssignmentSnapshot::kRouteLocal
                                         : serve::AssignmentSnapshot::kRouteRemote);
        if (snap->routeCost(u, v) != want) ++r.routeMismatches;
      }
    }
  }
  // The last, partial slice counts only when it is the reader's only one.
  if (recording && r.sliceP99Nanos.empty() && slice.count() > 0) closeSlice();
  r.wallSeconds = recording ? secondsBetween(begin, Clock::now()) : 0.0;
  r.epochsSeen.assign(1, epochs);
  // Keeps the lookups observable so the compiler cannot drop them.
  if (sink == 0x5eed) std::cerr << "";
}

// ---------------------------------------------------------- service round

std::vector<double> visibleSeconds(const std::vector<Clock::time_point>& firstSeen,
                                   Clock::time_point origin) {
  std::vector<double> visible(firstSeen.size(), 0.0);
  // An epoch no reader saw was replaced within one batch: it became visible
  // (and was superseded) no later than the next epoch any reader saw.
  for (std::size_t e = firstSeen.size(); e-- > 0;) {
    if (firstSeen[e] != Clock::time_point{}) {
      visible[e] = secondsBetween(origin, firstSeen[e]);
    } else if (e + 1 < firstSeen.size()) {
      visible[e] = visible[e + 1];
    }
  }
  return visible;
}

bool keepRepeating(const std::vector<double>& samples) {
  double spent = 0.0;
  for (const double s : samples) spent += s;
  return spent < kShortPhaseSeconds && samples.size() < kMaxRepeats;
}

RoundResult runServiceRound(const RoundConfig& config, OpCounts& ops,
                            Checker& checker) {
  const WorkloadSpec& spec = *config.spec;
  RoundResult out;
  std::filesystem::remove_all(config.checkpointDir);
  // For the capacity check; generated before anything is held, so that the
  // extra copy of the inputs does not raise the peak resident set.
  std::vector<std::uint8_t> joined;
  {
    const api::Workload generated = makeWorkload(spec, config.seed);
    joined = joinedVertices(generated.initial, generated.stream.events());
  }

  // Set-up: generate, HSH-partition, build the engine, publish epoch 1.
  // A short phase, so it is repeated and the last service is kept.
  std::optional<serve::PartitionService> held;
  for (std::size_t rep = 0; rep == 0 || keepRepeating(out.setupSeconds); ++rep) {
    held.reset();
    const Clock::time_point t0 = Clock::now();
    held.emplace(makeWorkload(spec, config.seed), kInitialStrategy,
                 adaptiveOptions(spec, spec.decisionThreads),
                 serveOptions(spec, config.checkpointDir));
    out.setupSeconds.push_back(secondsBetween(t0, Clock::now()));
  }
  serve::PartitionService& service = *held;
  const double initialCut = service.snapshot()->stats().cutRatio;

  // Ingest under closed-loop readers.
  {
    ReaderPool readers(service.board(), spec.readers, config.seed);
    warmUp(spec.decisionThreads, kWarmUpSeconds);
    const Clock::time_point runBegin = Clock::now();
    readers.startMeasuring();
    (void)service.run();
    const Clock::time_point runEnd = Clock::now();
    out.reads = readers.stop();
    out.runSeconds = secondsBetween(runBegin, runEnd);

    const std::vector<double> visible = visibleSeconds(out.reads.firstSeen, runBegin);
    const std::vector<api::WindowReport>& windows = service.timeline().windows;
    const std::size_t lastEpoch = windows.size() + 1;
    checker.expect(visible.size() == lastEpoch + 1 && windows.size() >= 2,
                   "readers saw " + std::to_string(visible.size()) +
                       " epochs for " + std::to_string(windows.size()) + " windows");
    if (visible.size() == lastEpoch + 1 && windows.size() >= 2) {
      out.convergeSeconds = visible[2];
      out.ingestSeconds = visible[lastEpoch] - visible[2];
      for (std::size_t e = 3; e <= lastEpoch; ++e) {
        out.freshSeconds.push_back(visible[e] - visible[e - 1]);
      }
    }
    for (std::size_t w = 1; w < windows.size(); ++w) {
      out.ingestEvents += windows[w].eventsDrained;
    }
    for (const serve::SnapshotBoard::Ref& sample : out.reads.samples) {
      checkSnapshot(*sample, {}, "sampled snapshot", checker);
    }
  }
  out.timeline = service.timeline().windows;
  double cutSum = initialCut;
  for (const api::WindowReport& w : out.timeline) {
    cutSum += w.cutRatio;
    out.migrations += w.migrations;
  }
  out.cutRatioMean = cutSum / static_cast<double>(out.timeline.size() + 1);
  out.checkpointBytes = directoryBytes(config.checkpointDir);
  if (config.keepCheckpoint != nullptr) {
    while (out.makeCheckpointSeconds.empty() || keepRepeating(out.makeCheckpointSeconds)) {
      const Clock::time_point t0 = Clock::now();
      *config.keepCheckpoint = service.makeCheckpoint();
      out.makeCheckpointSeconds.push_back(secondsBetween(t0, Clock::now()));
    }
  }

  // Restore the final checkpoint, until it answers queries.
  std::optional<RestoredService> restored;
  while (out.restoreSeconds.empty() || keepRepeating(out.restoreSeconds)) {
    restored.reset();
    const Clock::time_point t0 = Clock::now();
    restored.emplace(config.checkpointDir, spec.decisionThreads);
    const serve::SnapshotBoard::Ref answer = restored->service.snapshot();
    out.restoreSeconds.push_back(secondsBetween(t0, Clock::now()));
    ops.restores.attempted += 1;
    if (!answer) ops.restores.failed += 1;
  }

  // Application phase: TunkRank over the final graph and assignment.
  const core::Engine& engine = service.session().engine();
  const AppResult app =
      runTunkRank(engine.graph(), engine.state().assignment(), engine.activeMask(),
                  true, 1, spec.supersteps, true, nullptr);
  out.appStepSeconds = app.stepSeconds;
  for (const pregel::SuperstepStats& s : app.stats) {
    out.localMessages += s.localMessages;
    out.remoteMessages += s.remoteMessages;
  }
  out.peakRssBytes = peakRssBytes();

  // ------------------------------------------------ output checks
  const serve::SnapshotBoard::Ref final = service.snapshot();
  checkSnapshot(*final, engine.activeMask(), "final snapshot", checker);
  checkCapacity(*final, engine.capacity().capacities(), joined, "final snapshot", checker);
  checkRestoredAnswers(*final, *restored->service.snapshot(), checker);
  checker.expect(out.reads.tornSnapshots == 0, "readers saw torn snapshots");
  checker.expect(out.reads.epochRegressions == 0, "readers saw epochs go backwards");
  checker.expect(out.reads.routeMismatches == 0, "routeCost disagreed with partitionOf");
  std::size_t lostSupersteps = 0;
  for (const pregel::SuperstepStats& s : app.stats) {
    if (s.lostMessages != 0) ++lostSupersteps;
  }
  checker.expect(lostSupersteps == 0, std::to_string(lostSupersteps) +
                                          " supersteps lost messages");

  std::uint64_t drained = 0;
  for (const api::WindowReport& w : out.timeline) drained += w.eventsDrained;
  ops.events.attempted += drained;
  ops.windows.attempted += out.timeline.size();
  ops.lookups.attempted += out.reads.lookups;
  ops.lookups.failed += out.reads.failedLookups;
  ops.checkpoints.attempted +=
      spec.checkpointEvery == 0 ? 1 : out.timeline.size() / spec.checkpointEvery + 1;
  ops.supersteps.attempted += app.stats.size();
  ops.supersteps.failed += lostSupersteps;

  if (config.fullChecks) {
    const api::Workload generated = makeWorkload(spec, config.seed);
    const ReplayedGraph expected = replayWorkload(
        generated.initial, generated.stream.events(), spec.windowSpan, spec.expirySpan);
    checker.expect(expected.windows == out.timeline.size(),
                   "the stream spans " + std::to_string(expected.windows) +
                       " windows but the service ran " +
                       std::to_string(out.timeline.size()));
    checkGraphEquals(*final, expected, checker);

    // Migration is transparent to the computation: the same supersteps with
    // adaptation off give the same TunkRank values up to summation order.
    const AppResult fixed = runTunkRank(engine.graph(), engine.state().assignment(),
                                        engine.activeMask(), false, 1,
                                        spec.supersteps, false, nullptr);
    std::size_t valueMismatches = 0;
    for (std::size_t v = 0; v < app.values.size(); ++v) {
      const double a = app.values[v];
      const double b = fixed.values[v];
      if (std::abs(a - b) > 1e-9 * std::max(1.0, std::abs(b))) ++valueMismatches;
    }
    checker.expect(valueMismatches == 0,
                   "TunkRank: " + std::to_string(valueMismatches) +
                       " values differ from the run with adaptation off");
    // The same supersteps at three threads give identical statistics.
    const AppResult other = runTunkRank(engine.graph(), engine.state().assignment(),
                                        engine.activeMask(), true, kAppThreads,
                                        spec.supersteps, false, nullptr);
    checker.expect(other.stats == app.stats && other.values == app.values,
                   "pregel: superstep statistics differ between 1 and 3 threads");
    ops.supersteps.attempted += fixed.stats.size() + other.stats.size();
  }
  std::filesystem::remove_all(config.checkpointDir);
  return out;
}

}  // namespace perfbench
