#include "apps/tunkrank.h"
#include "bench.h"
#include "pregel/engine.h"

namespace perfbench {

AppResult runTunkRank(const graph::DynamicGraph& g,
                      const metrics::Assignment& assignment,
                      const std::vector<std::uint8_t>& activeMask, bool adaptive,
                      std::size_t threads, std::size_t supersteps, bool timed,
                      Tracer* tracer) {
  // One worker per active partition: retired ids are drained, so the live
  // partition set is renumbered densely in id order.
  std::vector<graph::PartitionId> dense(activeMask.size(), graph::kNoPartition);
  graph::PartitionId workers = 0;
  for (std::size_t p = 0; p < activeMask.size(); ++p) {
    if (activeMask[p] != 0) dense[p] = workers++;
  }
  metrics::Assignment initial(assignment.size(), graph::kNoPartition);
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    if (assignment[v] < dense.size()) initial[v] = dense[assignment[v]];
  }
  pregel::EngineOptions options;
  options.numWorkers = workers;
  options.capacityFactor = kCapacityFactor;
  options.adaptive = adaptive;
  options.threads = threads;
  pregel::Engine<apps::TunkRankProgram> engine(g, std::move(initial), options);
  // Only a rise in busy threads needs a warm-up; the phase before this one
  // (restore, or the other thread count) runs on one thread.
  if (timed && threads > 1) warmUp(threads, kAppWarmUpSeconds);

  AppResult out;
  for (std::size_t i = 0; i < supersteps; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope span(tracer, threads == 1 ? "pregel.superstep_1t" : "pregel.superstep");
      out.stats.push_back(engine.runSuperstep());
    }
    out.stepSeconds.push_back(secondsBetween(t0, Clock::now()));
  }
  out.values.assign(engine.graph().idBound(), 0.0);
  engine.graph().forEachVertex(
      [&](graph::VertexId v) { out.values[v] = engine.value(v); });
  return out;
}

}  // namespace perfbench
