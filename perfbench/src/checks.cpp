#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unordered_map>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

// ---------------------------------------------------------------- recounts

std::size_t recountCutEdges(const serve::AssignmentSnapshot& s) {
  std::size_t cut = 0;
  for (graph::VertexId v = 0; v < s.idBound(); ++v) {
    if (!s.hasVertex(v)) continue;
    const graph::PartitionId pv = s.partitionOf(v);
    for (const graph::VertexId u : s.neighbors(v)) {
      if (u > v && s.partitionOf(u) != pv) ++cut;
    }
  }
  return cut;
}

std::size_t recountEdges(const serve::AssignmentSnapshot& s) {
  std::size_t edges = 0;
  for (graph::VertexId v = 0; v < s.idBound(); ++v) {
    if (!s.hasVertex(v)) continue;
    for (const graph::VertexId u : s.neighbors(v)) {
      if (u > v) ++edges;
    }
  }
  return edges;
}

std::vector<std::size_t> recountLoads(const serve::AssignmentSnapshot& s) {
  std::vector<std::size_t> loads(s.k(), 0);
  for (graph::VertexId v = 0; v < s.idBound(); ++v) {
    if (!s.hasVertex(v)) continue;
    const graph::PartitionId p = s.partitionOf(v);
    if (p < loads.size()) ++loads[p];
  }
  return loads;
}

void checkSnapshot(const serve::AssignmentSnapshot& s,
                   const std::vector<std::uint8_t>& activeMask,
                   const std::string& label, Checker& checker) {
  const std::string at = label + " (epoch " + std::to_string(s.epoch()) + ")";
  checker.expect(!s.torn(), at + ": torn snapshot");
  const std::size_t cut = recountCutEdges(s);
  checker.expect(cut == s.stats().cutEdges,
                 at + ": cut edges " + std::to_string(s.stats().cutEdges) +
                     " but the recount gives " + std::to_string(cut));
  const std::size_t edges = recountEdges(s);
  checker.expect(edges == s.stats().edges,
                 at + ": " + std::to_string(s.stats().edges) +
                     " edges but the recount gives " + std::to_string(edges));
  std::size_t outOfRange = 0;
  for (graph::VertexId v = 0; v < s.idBound(); ++v) {
    if (s.hasVertex(v) && s.partitionOf(v) >= s.k()) ++outOfRange;
  }
  checker.expect(outOfRange == 0, at + ": " + std::to_string(outOfRange) +
                                      " alive vertices outside [0, k)");
  const std::vector<std::size_t> loads = recountLoads(s);
  for (std::size_t p = 0; p < loads.size(); ++p) {
    if (p < activeMask.size() && activeMask[p] == 0) {
      checker.expect(loads[p] == 0, at + ": retired partition " +
                                        std::to_string(p) + " still holds " +
                                        std::to_string(loads[p]) + " vertices");
    }
  }
}

std::vector<std::uint8_t> joinedVertices(const graph::DynamicGraph& initial,
                                         const std::vector<graph::UpdateEvent>& events) {
  using Kind = graph::UpdateEvent::Kind;
  std::vector<std::uint8_t> alive(initial.idBound(), 0);
  for (graph::VertexId v = 0; v < initial.idBound(); ++v) alive[v] = initial.hasVertex(v) ? 1 : 0;
  std::vector<std::uint8_t> joined(alive.size(), 0);
  const auto enter = [&](graph::VertexId v) {
    if (v >= alive.size()) {
      alive.resize(v + 1, 0);
      joined.resize(v + 1, 0);
    }
    if (alive[v] == 0) joined[v] = 1;
    alive[v] = 1;
  };
  for (const graph::UpdateEvent& e : events) {
    if (e.kind == Kind::kAddVertex) {
      enter(e.u);
    } else if (e.kind == Kind::kAddEdge) {
      enter(e.u);
      enter(e.v);
    } else if (e.kind == Kind::kRemoveVertex && e.u < alive.size()) {
      alive[e.u] = 0;
    }
  }
  return joined;
}

void checkCapacity(const serve::AssignmentSnapshot& s,
                   const std::vector<std::size_t>& capacities,
                   const std::vector<std::uint8_t>& joined, const std::string& label,
                   Checker& checker) {
  const std::vector<std::size_t> loads = recountLoads(s);
  std::vector<std::size_t> joiners(loads.size(), 0);
  for (graph::VertexId v = 0; v < std::min<std::size_t>(s.idBound(), joined.size()); ++v) {
    if (joined[v] == 0 || !s.hasVertex(v)) continue;
    const graph::PartitionId p = s.partitionOf(v);
    if (p < joiners.size()) ++joiners[p];
  }
  std::string over;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    const std::size_t capacity = p < capacities.size() ? capacities[p] : 0;
    if (loads[p] > capacity + joiners[p]) {
      char entry[96];
      std::snprintf(entry, sizeof entry, " %zu:%zu>%zu+%zu", p, loads[p], capacity,
                    joiners[p]);
      over += entry;
    }
  }
  checker.expect(over.empty(), label + " (epoch " + std::to_string(s.epoch()) +
                                   "): partitions over capacity beyond what joined "
                                   "vertices account for (id:load>C+joined)" + over);
}

bool sameFiles(const std::string& dirA, const std::string& dirB,
               std::string* firstDifference) {
  namespace fs = std::filesystem;
  const auto contents = [](const std::string& dir) {
    std::map<std::string, std::string> files;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      std::ifstream in(entry.path(), std::ios::binary);
      files[entry.path().filename().string()] =
          std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
  };
  const std::map<std::string, std::string> a = contents(dirA);
  const std::map<std::string, std::string> b = contents(dirB);
  for (const auto& [name, bytes] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != bytes) {
      if (firstDifference != nullptr) *firstDifference = name;
      return false;
    }
  }
  if (a.size() != b.size()) {
    if (firstDifference != nullptr) *firstDifference = "the file lists";
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ replay

namespace {

std::uint64_t edgeKey(graph::VertexId u, graph::VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

ReplayedGraph replayWorkload(const graph::DynamicGraph& initial,
                             const std::vector<graph::UpdateEvent>& events,
                             double windowSpan, double expirySpan) {
  using Kind = graph::UpdateEvent::Kind;
  constexpr double kInitialEdge = -1e300;  // never observed by the stream
  ReplayedGraph out;
  std::vector<std::uint8_t>& alive = out.alive;
  alive.assign(initial.idBound(), 0);
  // edge key -> time of its newest AddEdge observation
  std::unordered_map<std::uint64_t, double> edges;
  edges.reserve(2 * initial.numEdges() + events.size());
  // Neighbour lists only serve RemoveVertex; entries may be stale (the edge
  // map is the authority), so removals never have to search them.
  std::vector<std::vector<graph::VertexId>> adjacency(initial.idBound());
  for (graph::VertexId v = 0; v < initial.idBound(); ++v) {
    if (!initial.hasVertex(v)) continue;
    alive[v] = 1;
    for (const graph::VertexId u : initial.neighbors(v)) {
      adjacency[v].push_back(u);
      if (u > v) edges[edgeKey(u, v)] = kInitialEdge;
    }
  }
  const auto ensure = [&](graph::VertexId v) {
    if (v >= alive.size()) {
      alive.resize(v + 1, 0);
      adjacency.resize(v + 1);
    }
  };
  for (const graph::UpdateEvent& e : events) {
    switch (e.kind) {
      case Kind::kAddVertex:
        ensure(e.u);
        alive[e.u] = 1;
        break;
      case Kind::kRemoveVertex:
        if (e.u < alive.size() && alive[e.u] != 0) {
          for (const graph::VertexId u : adjacency[e.u]) edges.erase(edgeKey(e.u, u));
          adjacency[e.u].clear();
          alive[e.u] = 0;
        }
        break;
      case Kind::kAddEdge:
        ensure(std::max(e.u, e.v));
        alive[e.u] = 1;
        alive[e.v] = 1;
        if (e.u != e.v) {
          edges[edgeKey(e.u, e.v)] = e.timestamp;
          adjacency[e.u].push_back(e.v);
          adjacency[e.v].push_back(e.u);
        }
        break;
      case Kind::kRemoveEdge:
        edges.erase(edgeKey(e.u, e.v));
        break;
    }
  }
  // Time windows: window i covers (origin + i*span, origin + (i+1)*span]
  // with the origin at the first event's span boundary; the stream ends
  // with the window that holds its last event.
  double lastEnd = 0.0;
  if (!events.empty() && windowSpan > 0.0) {
    const double origin = std::floor(events.front().timestamp / windowSpan) * windowSpan;
    std::size_t windows = 0;
    do {
      ++windows;
      lastEnd = origin + static_cast<double>(windows) * windowSpan;
    } while (lastEnd < events.back().timestamp);
    out.windows = windows;
  }
  for (const auto& [key, seen] : edges) {
    // An edge is expired once its newest observation falls before the last
    // window's end minus the expiry span; initial edges never observed by
    // the stream are left alone (they carry no observation time).
    if (expirySpan > 0.0 && seen != kInitialEdge && seen < lastEnd - expirySpan) continue;
    out.edges.emplace_back(static_cast<graph::VertexId>(key >> 32),
                           static_cast<graph::VertexId>(key & 0xffffffffULL));
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

void checkGraphEquals(const serve::AssignmentSnapshot& s,
                      const ReplayedGraph& expected, Checker& checker) {
  const std::size_t bound = std::max<std::size_t>(s.idBound(), expected.alive.size());
  std::size_t vertexMismatches = 0;
  for (graph::VertexId v = 0; v < bound; ++v) {
    const bool want = v < expected.alive.size() && expected.alive[v] != 0;
    if (s.hasVertex(v) != want) ++vertexMismatches;
  }
  checker.expect(vertexMismatches == 0,
                 "final graph: " + std::to_string(vertexMismatches) +
                     " vertices differ from the independent replay");
  std::vector<std::pair<graph::VertexId, graph::VertexId>> actual;
  for (graph::VertexId v = 0; v < s.idBound(); ++v) {
    if (!s.hasVertex(v)) continue;
    for (const graph::VertexId u : s.neighbors(v)) {
      if (u > v) actual.emplace_back(v, u);
    }
  }
  std::sort(actual.begin(), actual.end());
  checker.expect(actual == expected.edges,
                 "final graph: " + std::to_string(actual.size()) + " edges, the "
                     "independent replay has " + std::to_string(expected.edges.size()) +
                     (actual.size() == expected.edges.size() ? " (different sets)" : ""));
}

void checkRestoredAnswers(const serve::AssignmentSnapshot& live,
                          const serve::AssignmentSnapshot& restored,
                          Checker& checker) {
  const std::size_t bound = std::max(live.idBound(), restored.idBound());
  std::size_t mismatches = 0;
  for (graph::VertexId v = 0; v < bound; ++v) {
    if (live.partitionOf(v) != restored.partitionOf(v) ||
        live.degree(v) != restored.degree(v)) {
      ++mismatches;
    }
  }
  checker.expect(mismatches == 0, "restore: " + std::to_string(mismatches) +
                                      " ids answer differently from the live snapshot");
}

bool sameTrajectory(const std::vector<api::WindowReport>& a,
                    const std::vector<api::WindowReport>& b,
                    std::string* firstDifference) {
  if (a.size() != b.size()) {
    if (firstDifference != nullptr) {
      *firstDifference = std::to_string(a.size()) + " vs " +
                         std::to_string(b.size()) + " windows";
    }
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const api::WindowReport& x = a[i];
    const api::WindowReport& y = b[i];
    if (x.eventsDrained != y.eventsDrained || x.eventsExpired != y.eventsExpired ||
        x.eventsApplied != y.eventsApplied || x.iterations != y.iterations ||
        x.migrations != y.migrations || x.cutEdges != y.cutEdges ||
        x.vertices != y.vertices || x.edges != y.edges) {
      if (firstDifference != nullptr) {
        *firstDifference = "window " + std::to_string(i) + ": applied " +
                           std::to_string(x.eventsApplied) + "/" +
                           std::to_string(y.eventsApplied) + ", iterations " +
                           std::to_string(x.iterations) + "/" +
                           std::to_string(y.iterations) + ", migrations " +
                           std::to_string(x.migrations) + "/" +
                           std::to_string(y.migrations) + ", cut " +
                           std::to_string(x.cutEdges) + "/" +
                           std::to_string(y.cutEdges);
      }
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------------ tracer

int Tracer::open(const std::string& name) {
  Span span;
  span.name = name;
  span.start = secondsBetween(origin_, Clock::now());
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = secondsBetween(origin_, Clock::now());
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::count(int id, const std::string& name, double value) {
  spans_[static_cast<std::size_t>(id)].counts.emplace_back(name, value);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d",
                  i, s.name.c_str(), s.start, s.end, s.parent);
    out << line;
    if (!s.counts.empty()) {
      out << ", \"counts\": {";
      for (std::size_t c = 0; c < s.counts.size(); ++c) {
        std::snprintf(line, sizeof line, "%s\"%s\": %.17g", c > 0 ? ", " : "",
                      s.counts[c].first.c_str(), s.counts[c].second);
        out << line;
      }
      out << "}";
    }
    out << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
