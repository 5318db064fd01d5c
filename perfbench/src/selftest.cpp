// Self-test of the benchmark's own measuring and checking code on tiny
// hand-built inputs: the percentile/median helpers, the snapshot recounts,
// the snapshot checks, the independent replay (against the program's own
// Streamer + expiry on small random streams) and the trajectory compare.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>

#include "bench.h"
#include "graph/update_stream.h"
#include "util/rng.h"

namespace {

using namespace perfbench;

int failures = 0;

void expectTrue(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void expectNear(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAILED: %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void testPercentiles() {
  expectNear(percentile({1, 2, 3, 4}, 0.5), 2.5, "median of 1..4");
  expectNear(median({4, 1, 3, 2}), 2.5, "median ignores order");
  expectNear(percentile({1, 2, 3, 4}, 0.0), 1.0, "q=0 is the minimum");
  expectNear(percentile({1, 2, 3, 4}, 1.0), 4.0, "q=1 is the maximum");
  expectNear(percentile({1, 2, 3, 4}, 0.25), 1.75, "q=0.25 interpolates");
  expectNear(percentile({7}, 0.99), 7.0, "single value");
  expectNear(percentile({}, 0.5), 0.0, "empty sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expectNear(percentile(hundred, 0.99), 99.01, "p99 of 1..100");
  expectNear(mean({1, 2, 3, 6}), 3.0, "mean");
}

// 0-1-2-3-0 square plus the 0-2 diagonal; partitions {0,1} and {2,3}.
serve::AssignmentSnapshot square(std::size_t cutEdges) {
  graph::DynamicGraph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  g.addEdge(3, 0);
  g.addEdge(0, 2);
  serve::SnapshotStats stats;
  stats.edges = 5;
  stats.cutEdges = cutEdges;
  return serve::AssignmentSnapshot(1, g, metrics::Assignment{0, 0, 1, 1}, 2, stats);
}

void testHistogram() {
  Histogram h;
  std::vector<double> values;
  // Dense samples (many per bucket), as reader batch timings are.
  for (int i = 0; i < 100'000; ++i) {
    const double v = 1000.0 + 0.01 * i;
    h.add(v);
    values.push_back(v);
  }
  expectTrue(h.count() == 100'000, "histogram counts every sample");
  for (const double q : {0.01, 0.5, 0.99}) {
    const double exact = percentile(values, q);
    expectTrue(std::abs(h.percentile(q) - exact) <= 0.003 * exact,
               "histogram percentile within 0.3% of the exact one");
  }
  Histogram other;
  other.add(1e9);
  h.merge(other);
  expectTrue(h.count() == 100'001 && h.percentile(1.0) > 0.99e9, "merge keeps the maximum");
  expectNear(Histogram().percentile(0.5), 0.0, "empty histogram");
}

void testRecounts() {
  const serve::AssignmentSnapshot s = square(3);
  expectTrue(recountCutEdges(s) == 3, "square: 1-2, 3-0 and 0-2 are cut");
  expectTrue(recountEdges(s) == 5, "square: five edges");
  expectTrue(recountLoads(s) == std::vector<std::size_t>{2, 2}, "square: loads 2/2");

  Checker clean;
  checkSnapshot(s, {1, 1}, "square", clean);
  checkCapacity(s, {2, 2}, {}, "square", clean);
  expectTrue(clean.passed(), "a consistent snapshot passes");

  Checker wrongCut;
  checkSnapshot(square(2), {}, "square", wrongCut);
  expectTrue(!wrongCut.passed(), "a stale cut count is caught");

  Checker overCapacity;
  checkCapacity(s, {1, 2}, {}, "square", overCapacity);
  expectTrue(!overCapacity.passed(), "a partition over its capacity is caught");

  // Partition 0 holds {0, 1}. One vertex over C(0) = 1 is allowed only when
  // partition 0 holds a vertex that joined during the stream.
  Checker joinedHere;
  checkCapacity(s, {1, 2}, {0, 1, 0, 0}, "square", joinedHere);
  expectTrue(joinedHere.passed(), "an excess that a joined vertex accounts for passes");
  Checker joinedElsewhere;
  checkCapacity(s, {1, 2}, {0, 0, 1, 1}, "square", joinedElsewhere);
  expectTrue(!joinedElsewhere.passed(), "joins into other partitions excuse nothing");
  Checker pastJoins;
  checkCapacity(s, {0, 2}, {1, 0, 0, 0}, "square", pastJoins);
  expectTrue(!pastJoins.passed(), "an excess beyond the joined vertices is caught");

  Checker retired;
  checkSnapshot(s, {1, 0}, "square", retired);
  expectTrue(!retired.passed(), "a non-empty retired partition is caught");
}

void testReplayByHand() {
  using E = graph::UpdateEvent;
  graph::DynamicGraph initial(3);
  initial.addEdge(0, 1);
  const std::vector<E> events = {
      E::addEdge(1, 2, 0.5),   E::addVertex(5, 0.6), E::addEdge(5, 0, 0.7),
      E::addEdge(2, 2, 0.8),   E::removeVertex(1, 1.2), E::removeEdge(0, 5, 1.3),
      E::addEdge(0, 5, 1.4)};
  const ReplayedGraph r = replayWorkload(initial, events, 1.0, 0.0);
  expectTrue(r.windows == 2, "events up to t=1.4 span two unit windows");
  expectTrue(r.alive == std::vector<std::uint8_t>{1, 0, 1, 0, 0, 1},
             "vertex 1 left, vertex 5 joined");
  expectTrue(r.edges == (std::vector<std::pair<graph::VertexId, graph::VertexId>>{{0, 5}}),
             "only 0-5 survives");
  expectTrue(joinedVertices(initial, events) ==
                 std::vector<std::uint8_t>{0, 0, 0, 0, 0, 1},
             "only vertex 5 joined");
  const std::vector<E> rejoin = {E::removeVertex(1, 0.1), E::addEdge(1, 2, 0.2),
                                 E::addEdge(2, 4, 0.3)};
  expectTrue(joinedVertices(initial, rejoin) == std::vector<std::uint8_t>{0, 1, 0, 0, 1},
             "a vertex that left and came back joined, as did a new endpoint");

  // Expiry: an edge whose newest observation is older than the last
  // window's end minus the span is gone; a re-observed one stays.
  const std::vector<E> mentions = {E::addEdge(0, 1, 0.5), E::addEdge(1, 2, 0.6),
                                   E::addEdge(1, 2, 4.5), E::addEdge(0, 2, 5.5)};
  const ReplayedGraph x = replayWorkload(graph::DynamicGraph(3), mentions, 1.0, 3.0);
  expectTrue(x.windows == 6, "mentions span six windows");
  expectTrue(x.edges == (std::vector<std::pair<graph::VertexId, graph::VertexId>>{
                            {0, 2}, {1, 2}}),
             "0-1 expired, 1-2 was re-observed");
}

// The independent replay must agree with the program's own windowing and
// expiry (Streamer + graph::applyUpdates) on small random streams.
void testReplayAgainstStreamer() {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    xdgp::util::Rng rng(seed);
    std::vector<graph::UpdateEvent> events;
    double t = rng.uniform() * 3.0;
    for (int i = 0; i < 400; ++i) {
      t += rng.uniform() * 0.2;
      const auto u = static_cast<graph::VertexId>(rng.index(30));
      const auto v = static_cast<graph::VertexId>(rng.index(30));
      const double roll = rng.uniform();
      if (roll < 0.6) {
        events.push_back(graph::UpdateEvent::addEdge(u, v, t));
      } else if (roll < 0.8) {
        events.push_back(graph::UpdateEvent::removeEdge(u, v, t));
      } else if (roll < 0.9) {
        events.push_back(graph::UpdateEvent::addVertex(u + 5, t));
      } else {
        events.push_back(graph::UpdateEvent::removeVertex(u, t));
      }
    }
    for (const double expiry : {0.0, 2.5}) {
      graph::DynamicGraph initial(20);
      for (graph::VertexId v = 0; v + 1 < 20; v += 2) initial.addEdge(v, v + 1);
      api::StreamOptions options;
      options.windowSpan = 0.7;
      options.expirySpan = expiry;
      graph::DynamicGraph live = initial;
      api::Streamer streamer(graph::UpdateStream(events), options);
      std::size_t windows = 0;
      while (std::optional<api::WindowBatch> batch = streamer.next()) {
        (void)graph::applyUpdates(live, batch->events);
        ++windows;
      }
      const ReplayedGraph r = replayWorkload(initial, events, options.windowSpan, expiry);
      std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
      std::vector<std::uint8_t> alive(std::max<std::size_t>(live.idBound(), r.alive.size()), 0);
      for (graph::VertexId v = 0; v < live.idBound(); ++v) {
        if (!live.hasVertex(v)) continue;
        alive[v] = 1;
        for (const graph::VertexId u : live.neighbors(v)) {
          if (u > v) edges.emplace_back(v, u);
        }
      }
      std::sort(edges.begin(), edges.end());
      std::vector<std::uint8_t> want = r.alive;
      want.resize(alive.size(), 0);
      expectTrue(windows == r.windows, "replay counts the Streamer's windows");
      expectTrue(alive == want, "replay keeps the program's vertex set");
      expectTrue(edges == r.edges, "replay keeps the program's edge set");
    }
  }
}

void testTrajectoryCompare() {
  std::vector<api::WindowReport> a(3);
  for (std::size_t i = 0; i < a.size(); ++i) a[i].migrations = i;
  std::vector<api::WindowReport> b = a;
  std::string why;
  expectTrue(sameTrajectory(a, b, &why), "identical trajectories agree");
  b[2].cutEdges = 1;
  expectTrue(!sameTrajectory(a, b, &why), "a cut difference is caught");
  b.pop_back();
  expectTrue(!sameTrajectory(a, b, &why), "a length difference is caught");
}

}  // namespace

int main() {
  testPercentiles();
  testHistogram();
  testRecounts();
  testReplayByHand();
  testReplayAgainstStreamer();
  testTrajectoryCompare();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
