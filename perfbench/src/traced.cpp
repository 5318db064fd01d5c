#include <filesystem>

#include "api/pipeline.h"
#include "bench.h"
#include "core/adaptive_engine.h"
#include "metrics/balance.h"
#include "serve/checkpoint.h"
#include "serve/snapshot_builder.h"

namespace perfbench {

namespace {

constexpr std::size_t kMaxIterations = 20'000;  // ServeOptions' default cap
constexpr std::size_t kCheckEvery = 16;         // windows between recounts

/// The replay's checkpoint, from the public state PartitionService::
/// makeCheckpoint reads: configuration, progress, graph, assignment, engine
/// trajectory state, the full backing stream and the timeline. It only feeds
/// writeCheckpoint here; runTraced checks once that it writes the same files
/// as the service's own makeCheckpoint.
serve::Checkpoint assembleCheckpoint(const WorkloadSpec& spec,
                                     const core::Engine& engine,
                                     const std::vector<graph::UpdateEvent>& events,
                                     const std::vector<api::WindowReport>& timeline) {
  const core::AdaptiveOptions& adaptive = engine.options();
  serve::Checkpoint checkpoint;
  checkpoint.workload = spec.code;
  checkpoint.strategy = kInitialStrategy;
  checkpoint.k = engine.k();
  checkpoint.engine = engine.kind();
  checkpoint.retired = engine.retiredPartitions();
  checkpoint.lpaBalanceFactor = adaptive.lpaBalanceFactor;
  checkpoint.lpaScoreEpsilon = adaptive.lpaScoreEpsilon;
  checkpoint.lpaMigrationBudget = adaptive.lpaMigrationBudget;
  checkpoint.seed = adaptive.seed;
  checkpoint.capacityFactor = adaptive.capacityFactor;
  checkpoint.willingness = adaptive.willingness;
  checkpoint.convergenceWindow = adaptive.convergenceWindow;
  checkpoint.enforceQuota = adaptive.enforceQuota;
  checkpoint.balanceMode = adaptive.balanceMode;
  checkpoint.maxIterations = kMaxIterations;
  checkpoint.stream = streamOptions(spec);
  checkpoint.nextWindow = timeline.size();
  checkpoint.graph = engine.graph();
  checkpoint.assignment = engine.state().assignment();
  checkpoint.engineIteration = engine.iteration();
  checkpoint.engineQuiet = engine.quietIterations();
  checkpoint.engineLastActive = engine.lastActiveIteration();
  checkpoint.capacities = engine.capacity().capacities();
  checkpoint.events = events;
  checkpoint.timeline = timeline;
  return checkpoint;
}

/// The snapshot statistics PartitionService::publishCurrent stamps.
serve::SnapshotStats snapshotStats(const core::Engine& engine, std::size_t window,
                                   const api::WindowReport* closing) {
  serve::SnapshotStats stats;
  stats.window = window;
  stats.activeK = engine.activeK();
  if (closing != nullptr) {
    stats.vertices = closing->vertices;
    stats.edges = closing->edges;
    stats.cutEdges = closing->cutEdges;
    stats.cutRatio = closing->cutRatio;
    stats.imbalance = closing->balance.imbalance;
    stats.migrations = closing->migrations;
    stats.eventsApplied = closing->eventsApplied;
    stats.converged = closing->converged;
  } else {
    stats.vertices = engine.graph().numVertices();
    stats.edges = engine.graph().numEdges();
    stats.cutEdges = engine.state().cutEdges();
    stats.cutRatio = engine.cutRatio();
    stats.imbalance =
        metrics::balanceReport(engine.state(), engine.activeMask()).imbalance;
    stats.converged = engine.converged();
  }
  return stats;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

TracedResult runTraced(const RoundConfig& config,
                       const serve::Checkpoint& serviceCheckpoint, Tracer& tracer,
                       OpCounts& ops, Checker& checker) {
  const WorkloadSpec& spec = *config.spec;
  const bool greedy = spec.engine == core::EngineKind::kGreedy;
  const char* stepSpan = greedy ? "core.step" : "lpa.step";
  TracedResult out;
  LayerMetrics& m = out.metrics;
  std::filesystem::remove_all(config.checkpointDir);

  // ---------------------------------------------------------------- set-up
  std::optional<api::Workload> workload;
  {
    Scope span(&tracer, "gen.workload");
    workload.emplace(makeWorkload(spec, config.seed));
  }
  const std::vector<graph::UpdateEvent> events = workload->stream.events();
  const std::vector<std::uint8_t> joined = joinedVertices(workload->initial, events);
  std::optional<api::Session> session;
  {
    Scope span(&tracer, "partition.initial");
    session.emplace(api::Pipeline::fromGraph(std::move(workload->initial))
                        .initial(kInitialStrategy)
                        .k(kPartitions)
                        .capacityFactor(kCapacityFactor)
                        .seed(kEngineSeed)
                        .adaptive(adaptiveOptions(spec, spec.decisionThreads))
                        .maxIterations(kMaxIterations)
                        .start());
  }
  workload.reset();
  core::Engine& engine = session->engine();
  auto* greedyEngine = dynamic_cast<core::AdaptiveEngine*>(&engine);
  serve::SnapshotBuilder builder;
  serve::SnapshotBoard board;
  std::uint64_t epoch = 0;
  {
    Scope span(&tracer, "serve.first_publish");
    board.publish(builder.build(++epoch, engine.graph(), engine.state().assignment(),
                                engine.k(), snapshotStats(engine, 0, nullptr)));
  }

  // ---------------------------------------------------------------- ingest
  const api::StreamOptions options = streamOptions(spec);
  const std::vector<serve::ServeOptions::ResizeOp> resizes = serveOptions(spec, "").resizes;
  api::Streamer streamer(graph::UpdateStream(events), options);
  std::vector<double> stepsPerWindow;
  std::vector<double> overlay;
  std::vector<double> residentKb;
  std::size_t evaluated = 0;
  std::size_t compactions = 0;
  std::size_t checkpointBytes = 0;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t shrinkWindow = kNone;
  std::size_t drainedWindow = kNone;
  ReaderPool readers(board, spec.readers, config.seed);
  warmUp(spec.decisionThreads, kWarmUpSeconds);
  double checkSeconds = 0.0;
  const Clock::time_point ingestBegin = Clock::now();
  readers.startMeasuring();
  for (;;) {
    std::optional<api::WindowBatch> batch;
    {
      Scope span(&tracer, "api.next");
      batch = streamer.next();
    }
    if (!batch) break;
    const int windowId = tracer.open("window");
    for (const serve::ServeOptions::ResizeOp& op : resizes) {
      if (op.window != batch->index) continue;
      Scope span(&tracer, "lpa.resize");
      if (op.grow > 0) engine.growPartitions(op.grow);
      if (!op.shrink.empty()) {
        engine.shrinkPartitions(op.shrink);
        shrinkWindow = batch->index;
        drainedWindow = kNone;
      }
    }
    api::WindowReport w;
    w.index = batch->index;
    w.start = batch->start;
    w.end = batch->end;
    w.eventsDrained = batch->drained;
    w.eventsExpired = batch->expired;
    const std::size_t migrationsBefore = engine.totalMigrations();
    {
      Scope span(&tracer, "core.apply");
      w.eventsApplied = session->applyUpdates(batch->events);
    }
    if (options.rescaleEachWindow) {
      Scope span(&tracer, "core.rescale");
      engine.rescaleCapacity();
    }
    // Session::streamWindow's convergence run, one span per step.
    const std::vector<std::size_t> loadsBefore = engine.state().loads();
    const std::size_t evaluatedBefore = evaluated;
    const std::size_t firstIteration = engine.iteration();
    while (!engine.converged() && engine.iteration() - firstIteration < kMaxIterations) {
      {
        Scope span(&tracer, stepSpan);
        engine.step();
      }
      if (greedyEngine != nullptr) evaluated += greedyEngine->lastEvaluatedCount();
    }
    w.iterations = engine.iteration() - firstIteration;
    w.converged = engine.converged();
    // The quota rule: migrations never push a partition past C(i). (Vertices
    // that join by placement may; that is checked against the snapshot.)
    const std::vector<std::size_t>& capacities = engine.capacity().capacities();
    for (std::size_t p = 0; p < engine.k(); ++p) {
      const std::size_t load = engine.state().load(p);
      checker.expect(load <= capacities[p] || load <= loadsBefore[p],
                     "window " + std::to_string(batch->index) + ": migrations pushed "
                     "partition " + std::to_string(p) + " past its capacity");
    }
    w.migrations = engine.totalMigrations() - migrationsBefore;
    w.vertices = engine.graph().numVertices();
    w.edges = engine.graph().numEdges();
    w.cutEdges = engine.state().cutEdges();
    w.cutRatio = engine.cutRatio();
    w.balance = metrics::balanceReport(engine.state(), engine.activeMask());
    core::TouchSet touched;
    {
      Scope span(&tracer, "core.drain");
      touched = engine.drainTouched();
    }
    stepsPerWindow.push_back(static_cast<double>(w.iterations));
    out.timeline.push_back(w);
    {
      Scope span(&tracer, "serve.note");
      builder.note(touched);
    }
    overlay.push_back(static_cast<double>(builder.pendingOverlay()));
    {
      Scope span(&tracer, "serve.publish");
      board.publish(builder.build(++epoch, engine.graph(), engine.state().assignment(),
                                  engine.k(),
                                  snapshotStats(engine, out.timeline.size(), &w)));
    }
    compactions += builder.lastBuildCompacted() ? 1 : 0;
    tracer.count(windowId, "steps", static_cast<double>(w.iterations));
    tracer.count(windowId, "migrations", static_cast<double>(w.migrations));
    tracer.count(windowId, "cut_edges", static_cast<double>(w.cutEdges));
    tracer.count(windowId, "overlay_vertices", overlay.back());
    tracer.count(windowId, "compacted", builder.lastBuildCompacted() ? 1.0 : 0.0);
    if (greedyEngine != nullptr) {
      tracer.count(windowId, "evaluated", static_cast<double>(evaluated - evaluatedBefore));
      tracer.count(windowId, "parked", static_cast<double>(greedyEngine->parkedCount()));
    }
    residentKb.push_back(
        static_cast<double>(board.current()->stats().residentBytes) / 1024.0);
    if (spec.checkpointEvery > 0 && out.timeline.size() % spec.checkpointEvery == 0) {
      const serve::Checkpoint checkpoint =
          assembleCheckpoint(spec, engine, events, out.timeline);
      Scope span(&tracer, "serve.ckpt_write");
      serve::writeCheckpoint(checkpoint, config.checkpointDir);
    }
    if (shrinkWindow != kNone && drainedWindow == kNone) {
      bool empty = true;
      for (std::size_t p = 0; p < engine.k(); ++p) {
        if (!engine.isActive(static_cast<graph::PartitionId>(p)) &&
            engine.state().load(p) != 0) {
          empty = false;
        }
      }
      if (empty) drainedWindow = batch->index;
    }
    tracer.close(windowId);
    // Recounts outside the window span, so they do not count as tracing cost.
    if (out.timeline.size() % kCheckEvery == 0) {
      const Clock::time_point t0 = Clock::now();
      const std::string label = "traced window " + std::to_string(batch->index);
      checkSnapshot(*board.current(), {}, label, checker);
      checkCapacity(*board.current(), engine.capacity().capacities(), joined, label,
                    checker);
      checkSeconds += secondsBetween(t0, Clock::now());
    }
  }
  const serve::Checkpoint finalCheckpoint =
      assembleCheckpoint(spec, engine, events, out.timeline);
  {
    Scope span(&tracer, "serve.ckpt_write");
    serve::writeCheckpoint(finalCheckpoint, config.checkpointDir);
  }
  out.ingestSeconds = secondsBetween(ingestBegin, Clock::now()) - checkSeconds;
  const ReaderPool::Result reads = readers.stop();
  checkpointBytes = directoryBytes(config.checkpointDir);

  // --------------------------------------------------------------- restore
  std::optional<RestoredService> restored;
  std::vector<double> restoreSeconds;
  while (restoreSeconds.empty() || keepRepeating(restoreSeconds)) {
    {
      Scope span(&tracer, "serve.ckpt_read");
      const serve::Checkpoint read = serve::readCheckpoint(config.checkpointDir);
    }
    restored.reset();
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(&tracer, "serve.restore");
      restored.emplace(config.checkpointDir, spec.decisionThreads);
    }
    restoreSeconds.push_back(secondsBetween(t0, Clock::now()));
    ops.restores.attempted += 1;
  }

  // ------------------------------------------------------ application phase
  const AppResult app =
      runTunkRank(engine.graph(), engine.state().assignment(), engine.activeMask(),
                  true, kAppThreads, spec.supersteps, true, &tracer);
  const AppResult serial =
      runTunkRank(engine.graph(), engine.state().assignment(), engine.activeMask(),
                  true, 1, spec.supersteps, true, &tracer);

  // ----------------------------------------------------------------- checks
  const serve::SnapshotBoard::Ref final = board.current();
  checkSnapshot(*final, engine.activeMask(), "traced final snapshot", checker);
  checkCapacity(*final, engine.capacity().capacities(), joined, "traced final snapshot",
                checker);
  // The replay's checkpoint must write what the service's own makeCheckpoint
  // writes. The replay does not time its windows, so the service's window
  // wall seconds are zeroed first; the rest of the timeline must match.
  {
    serve::Checkpoint reference = serviceCheckpoint;
    for (api::WindowReport& w : reference.timeline) w.wallSeconds = 0.0;
    const std::string referenceDir = config.checkpointDir + "-service";
    serve::writeCheckpoint(reference, referenceDir);
    std::string difference;
    const bool same = sameFiles(config.checkpointDir, referenceDir, &difference);
    checker.expect(same, "the replay's final checkpoint differs from the service's "
                         "makeCheckpoint in " + difference);
    std::filesystem::remove_all(referenceDir);
  }
  checkRestoredAnswers(*final, *restored->service.snapshot(), checker);
  checker.expect(serial.stats == app.stats,
                 "pregel: superstep statistics differ between 1 and 3 threads");
  checker.expect(reads.tornSnapshots == 0 && reads.epochRegressions == 0 &&
                     reads.routeMismatches == 0,
                 "traced run: readers saw a torn snapshot, a regressing epoch or "
                 "a routeCost mismatch");
  std::size_t lost = 0;
  for (const pregel::SuperstepStats& s : app.stats) lost += s.lostMessages;
  checker.expect(lost == 0, "traced run: supersteps lost messages");
  ops.events.attempted += events.size();
  ops.windows.attempted += out.timeline.size();
  ops.lookups.attempted += reads.lookups;
  ops.lookups.failed += reads.failedLookups;
  ops.checkpoints.attempted += tracer.durations("serve.ckpt_write").size();
  ops.supersteps.attempted += app.stats.size() + serial.stats.size();

  // ---------------------------------------------------------- layer metrics
  const auto ms = [&](const char* name) { return median(tracer.durations(name)) * 1e3; };
  const auto windowsAfterFirst = [](std::vector<double> v) {
    if (!v.empty()) v.erase(v.begin());
    return v;
  };
  m["gen.workload_s"] = sum(tracer.durations("gen.workload"));
  m["partition.initial_s"] = sum(tracer.durations("partition.initial"));
  m["serve.first_publish_ms"] = ms("serve.first_publish");
  m["api.next_ms"] = ms("api.next");
  m["core.apply_ms"] = ms("core.apply");
  m["core.rescale_us"] = ms("core.rescale") * 1e3;
  const core::MemoryReport memory = engine.memoryReport();
  m["core.scratch_mb"] = static_cast<double>(memory.engineBytes) / 1e6;
  m["graph.arena_mb"] = static_cast<double>(memory.adjacencyArenaBytes) / 1e6;
  std::size_t migrations = 0;
  for (const api::WindowReport& w : out.timeline) migrations += w.migrations;
  if (greedy) {
    m["core.step_us"] = ms("core.step") * 1e3;
    m["core.steps_per_window"] = mean(windowsAfterFirst(stepsPerWindow));
    const double steps = static_cast<double>(tracer.durations("core.step").size());
    m["core.evaluated_per_step"] = steps > 0 ? static_cast<double>(evaluated) / steps : 0.0;
    m["core.parked"] = static_cast<double>(greedyEngine->parkedCount());
    m["core.moves_per_eval"] =
        evaluated > 0 ? static_cast<double>(migrations) / static_cast<double>(evaluated) : 0.0;
  } else {
    m["lpa.step_ms"] = ms("lpa.step");
    m["lpa.steps_per_window"] = mean(windowsAfterFirst(stepsPerWindow));
    m["lpa.resize_ms"] = ms("lpa.resize");
    m["lpa.drain_windows"] =
        drainedWindow != kNone ? static_cast<double>(drainedWindow - shrinkWindow + 1) : 0.0;
    checker.expect(shrinkWindow == kNone || drainedWindow != kNone,
                   "retired partitions never drained");
  }
  m["serve.publish_ms"] = ms("serve.publish");
  m["serve.overlay_vertices"] = mean(overlay);
  m["serve.compactions"] = static_cast<double>(compactions);
  m["serve.snapshot_kb"] = mean(residentKb);
  m["serve.ckpt_write_ms"] = ms("serve.ckpt_write");
  const std::vector<double> writes = tracer.durations("serve.ckpt_write");
  // Every write rewrites the whole directory; the last one is the largest.
  m["serve.ckpt_write_mbps"] =
      static_cast<double>(checkpointBytes) / 1e6 / std::max(1e-9, writes.back());
  m["serve.ckpt_read_s"] = median(tracer.durations("serve.ckpt_read"));
  // PartitionService::restore reads the checkpoint and then rebuilds from
  // it; the rebuild is what each restore takes beyond the read just before it.
  const std::vector<double> ckptReads = tracer.durations("serve.ckpt_read");
  const std::vector<double> restores = tracer.durations("serve.restore");
  std::vector<double> rebuilds;
  for (std::size_t i = 0; i < restores.size(); ++i) {
    rebuilds.push_back(restores[i] - ckptReads[i]);
  }
  m["serve.restore_rebuild_s"] = median(rebuilds);
  m["serve.read_batch_p50_us"] = reads.batchNanos.percentile(0.50) / 1e3;
  m["serve.read_batch_p99_us"] = reads.batchNanos.percentile(0.99) / 1e3;
  std::vector<double> seen(reads.epochsSeen.begin(), reads.epochsSeen.end());
  m["serve.read_epochs_seen"] = mean(seen);
  m["pregel.superstep_ms"] = ms("pregel.superstep");
  m["pregel.superstep_1t_ms"] = ms("pregel.superstep_1t");
  double remote = 0.0;
  double local = 0.0;
  double executed = 0.0;
  for (const pregel::SuperstepStats& s : app.stats) {
    remote += static_cast<double>(s.remoteMessages);
    local += static_cast<double>(s.localMessages);
    executed += static_cast<double>(s.migrationsExecuted);
  }
  m["pregel.remote_msgs"] = remote;
  m["pregel.local_msgs"] = local;
  m["pregel.migrations_executed"] = executed;
  std::filesystem::remove_all(config.checkpointDir);
  return out;
}

}  // namespace perfbench
