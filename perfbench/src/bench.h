#pragma once

// Shared declarations of the end-to-end benchmark: workload specs, the
// reader threads that load the serving board, the output checks,
// the untraced service round, the traced layer-by-layer replay, and the
// application phase on pregel::Engine.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/stream.h"
#include "api/workload_registry.h"
#include "core/engine.h"
#include "graph/dynamic_graph.h"
#include "metrics/cuts.h"
#include "pregel/types.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace perfbench {

using namespace xdgp;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ stats

/// q-quantile (q in [0, 1]) by linear interpolation between closest ranks
/// (the "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// Log-linear histogram of positive samples: 512 linear sub-buckets per
/// power of two (0.2% relative width) over [2^-10, 2^40). Its memory is
/// fixed, so a reader keeps every sample of a run without growing.
class Histogram {
 public:
  void add(double value) noexcept;
  void merge(const Histogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// q-quantile; within a bucket, linear in rank. 0 when empty.
  [[nodiscard]] double percentile(double q) const noexcept;

 private:
  static constexpr int kSubBits = 9;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 40;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits, 0);
  std::uint64_t count_ = 0;
};

/// Warm-up before a timed multi-threaded phase: keeps `threads` threads
/// (this one included) busy for `seconds`. On the virtual machines this
/// benchmark was tuned on, a rise in the number of busy vCPUs runs every
/// thread at about half speed for the next ~1.3 s; phases are timed only
/// after that has passed.
void warmUp(std::size_t threads, double seconds);
inline constexpr double kWarmUpSeconds = 1.5;
/// Before multi-threaded supersteps: shorter, as their median shrugs off a
/// slow first one.
inline constexpr double kAppWarmUpSeconds = 1.0;

/// Peak resident set of this process in bytes (VmHWM), 0 when unreadable.
[[nodiscard]] std::size_t peakRssBytes();

/// Total bytes of the regular files directly inside `dir`.
[[nodiscard]] std::size_t directoryBytes(const std::string& dir);

// ------------------------------------------------------------- workloads

/// One benchmark workload: which registry stream, how it is windowed, which
/// engine adapts it, and how the serving side is loaded.
struct WorkloadSpec {
  std::string name;        ///< benchmark name, e.g. "churn-serve"
  std::string code;        ///< WorkloadRegistry code, e.g. "CHURN"
  std::map<std::string, double> params;
  double windowSpan = 0.0;   ///< in the stream's own time unit
  double expirySpan = 0.0;   ///< 0 = the workload's suggestion is dropped
  core::EngineKind engine = core::EngineKind::kGreedy;
  std::size_t decisionThreads = 1;     ///< AdaptiveOptions::threads
  std::size_t altDecisionThreads = 2;  ///< the thread-invariance re-run
  std::size_t readers = 1;
  std::size_t checkpointEvery = 0;     ///< 0 = only at the end of the stream
  std::string resizePlan;              ///< serve::parseResizePlan syntax
  std::size_t supersteps = 8;          ///< timed TunkRank supersteps
  /// Rough wall seconds of one round, to turn --seconds into a round count.
  double roundSeconds = 10.0;
};

/// Each round of a run streams its own input instance, generated from the
/// run's seed and the round index, so one run averages over several inputs.
[[nodiscard]] inline std::uint64_t inputSeed(std::uint64_t seed, std::size_t round) {
  return seed * 1000 + round;
}

inline constexpr std::size_t kPartitions = 9;
inline constexpr double kCapacityFactor = 1.1;
inline constexpr const char* kInitialStrategy = "HSH";
/// The timed application phase runs at one thread: a superstep at three
/// waits at its barrier for whichever thread the host slowed, and on a few
/// thousand vertices the pool's wake-ups set its time. Three threads run in
/// the thread-invariance reference and in the traced run.
inline constexpr std::size_t kAppThreads = 3;

/// Throws std::invalid_argument naming the known workloads.
[[nodiscard]] const WorkloadSpec& workloadSpec(const std::string& name);
[[nodiscard]] std::vector<std::string> workloadNames();

[[nodiscard]] api::Workload makeWorkload(const WorkloadSpec& spec,
                                         std::uint64_t seed);
[[nodiscard]] api::StreamOptions streamOptions(const WorkloadSpec& spec);
/// The engine's own seed (its stateless willingness draws) is a constant of
/// the benchmark: --seed makes the inputs, the program only receives them.
inline constexpr std::uint64_t kEngineSeed = 42;
[[nodiscard]] core::AdaptiveOptions adaptiveOptions(const WorkloadSpec& spec,
                                                    std::size_t threads);
[[nodiscard]] serve::ServeOptions serveOptions(const WorkloadSpec& spec,
                                               const std::string& checkpointDir);

// ---------------------------------------------------- operation accounting

/// Operations attempted and failed, per kind. A failed operation is one
/// whose output a check rejected (or that threw).
struct OpCounts {
  struct Kind {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  Kind events, windows, lookups, checkpoints, restores, supersteps;

  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return events.attempted + windows.attempted + lookups.attempted +
           checkpoints.attempted + restores.attempted + supersteps.attempted;
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return events.failed + windows.failed + lookups.failed +
           checkpoints.failed + restores.failed + supersteps.failed;
  }
};

/// Collects check failures; every failed check makes the run incorrect.
class Checker {
 public:
  /// Records `what` as a failure when `ok` is false; returns ok.
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
};

// -------------------------------------------------------- serving clients

/// Short phases (set-up, restore) repeat until they have used
/// kShortPhaseSeconds or kMaxRepeats, so their median rests on several
/// samples even when one takes milliseconds.
inline constexpr double kShortPhaseSeconds = 0.6;
inline constexpr std::size_t kMaxRepeats = 15;
[[nodiscard]] bool keepRepeating(const std::vector<double>& samples);

/// Seconds after `origin` at which each epoch became visible, from the
/// readers' first-seen times (an unseen epoch takes the next seen one's).
[[nodiscard]] std::vector<double> visibleSeconds(
    const std::vector<Clock::time_point>& firstSeen, Clock::time_point origin);

/// Closed-loop readers on a SnapshotBoard. Each reader loads the current
/// snapshot, times one fixed batch of kBatch lookups (draw a random id with
/// splitmix64, call partitionOf; the clock costs well under 1% of a batch), checks the snapshot is
/// not torn and its epoch never goes backwards, and every 64th batch checks
/// routeCost against partitionOf outside the timed region. Every batch time
/// of the whole run is kept, and each reader also closes a slice every
/// kSliceSeconds and keeps that slice's per-lookup p50 and p99: the host's
/// speed moves in phases of seconds, and a median over slices lets one slow
/// phase move a percentile by one slice, not by its whole share of the tail. The readers also record when each epoch first
/// became visible to any of them (to within one batch, tens of microseconds),
/// and the first reader keeps every kSampleEvery-th epoch's snapshot for the
/// post-run recount.
class ReaderPool {
 public:
  static constexpr std::size_t kBatch = 16384;
  static constexpr std::uint64_t kSampleEvery = 64;
  static constexpr double kSliceSeconds = 0.5;

  struct Result {
    std::uint64_t lookups = 0;
    std::uint64_t failedLookups = 0;
    double wallSeconds = 0.0;                ///< summed over readers
    Histogram batchNanos;                    ///< every batch, every reader
    /// Per-lookup p50 / p99 (ns) of each whole slice, every reader.
    std::vector<double> sliceP50Nanos, sliceP99Nanos;
    std::vector<std::size_t> epochsSeen;     ///< distinct epochs per reader
    std::uint64_t tornSnapshots = 0;
    std::uint64_t epochRegressions = 0;
    std::uint64_t routeMismatches = 0;
    /// Clock::now() at which epoch e was first seen (index = epoch; 0 when
    /// no reader saw it: a later epoch replaced it within one batch).
    std::vector<Clock::time_point> firstSeen;
    std::vector<serve::SnapshotBoard::Ref> samples;

    /// Measured wall seconds per reader (the readers run side by side).
    [[nodiscard]] double readerSeconds() const {
      return epochsSeen.empty() ? 0.0 : wallSeconds / static_cast<double>(epochsSeen.size());
    }
  };

  ReaderPool(const serve::SnapshotBoard& board, std::size_t readers,
             std::uint64_t seed);
  ~ReaderPool();
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  /// Readers run from construction (which warms their CPUs) but record
  /// lookups only from this call on.
  void startMeasuring() noexcept { measuring_.store(true, std::memory_order_relaxed); }

  /// Stops and joins the readers and merges their results (idempotent).
  Result stop();

 private:
  void readLoop(Result& r, std::uint64_t seed);

  const serve::SnapshotBoard& board_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> measuring_{false};
  std::vector<Result> slots_;  ///< one per reader, read after the join
  std::vector<std::thread> threads_;
  bool stopped_ = false;
  Result merged_;
};

// ----------------------------------------------------------------- checks

/// Cut edges of a snapshot recounted from its own neighbors()/partitionOf():
/// each undirected edge {u, v} with partitionOf(u) != partitionOf(v) once.
[[nodiscard]] std::size_t recountCutEdges(const serve::AssignmentSnapshot& s);
/// Undirected edges of a snapshot recounted from its neighbors().
[[nodiscard]] std::size_t recountEdges(const serve::AssignmentSnapshot& s);
/// Alive vertices per partition id, recounted over the snapshot.
[[nodiscard]] std::vector<std::size_t> recountLoads(
    const serve::AssignmentSnapshot& s);

/// The final graph of a workload, replayed from its generated initial graph
/// and events into plain sets held by the benchmark, with the ingest rules
/// of a graph store: AddVertex on an alive id and AddEdge on an existing
/// edge are no-ops, AddEdge creates missing endpoints, RemoveVertex drops
/// incident edges, self-loops are rejected. With expirySpan > 0 an edge
/// whose newest observation is older than (last window end - expirySpan)
/// is gone, which is the sliding-window rule of the mention stream.
struct ReplayedGraph {
  std::vector<std::uint8_t> alive;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;  ///< u < v, sorted
  std::size_t windows = 0;  ///< time windows the stream spans
};
[[nodiscard]] ReplayedGraph replayWorkload(const graph::DynamicGraph& initial,
                                           const std::vector<graph::UpdateEvent>& events,
                                           double windowSpan, double expirySpan);

/// Compares a snapshot's vertex set and adjacency with a replayed graph.
void checkGraphEquals(const serve::AssignmentSnapshot& s,
                      const ReplayedGraph& expected, Checker& checker);

/// Cut and edge recount, partition range and retired-emptiness of a
/// snapshot (an empty activeMask skips the last).
void checkSnapshot(const serve::AssignmentSnapshot& s,
                   const std::vector<std::uint8_t>& activeMask,
                   const std::string& label, Checker& checker);

/// Ids that became alive through a stream event (an AddVertex on a dead id,
/// or an AddEdge that creates a missing endpoint), replayed from the
/// generated initial graph and events.
[[nodiscard]] std::vector<std::uint8_t> joinedVertices(
    const graph::DynamicGraph& initial, const std::vector<graph::UpdateEvent>& events);

/// The capacity bound |P(i)| <= C(i) over a snapshot's recounted loads. The
/// quota rule keeps migrations from pushing a partition past C(i), and
/// capacities never shrink, but a joining vertex is placed by hash with no
/// capacity test. So once a partition is full, only joins can raise its
/// load: its excess over C(i) can never exceed the joined vertices it holds.
/// With no joins in the stream this is the plain bound.
void checkCapacity(const serve::AssignmentSnapshot& s,
                   const std::vector<std::size_t>& capacities,
                   const std::vector<std::uint8_t>& joined, const std::string& label,
                   Checker& checker);

/// True when both directories hold the same regular files, byte for byte;
/// otherwise names the first file that differs.
[[nodiscard]] bool sameFiles(const std::string& dirA, const std::string& dirB,
                             std::string* firstDifference);

/// The restored service must answer partitionOf and degree like the live
/// snapshot for every id below either id bound.
void checkRestoredAnswers(const serve::AssignmentSnapshot& live,
                          const serve::AssignmentSnapshot& restored,
                          Checker& checker);

/// Per-window trajectory fields that must repeat exactly: events applied,
/// iterations, migrations, cut edges (and the drained/expired counts).
[[nodiscard]] bool sameTrajectory(const std::vector<api::WindowReport>& a,
                                  const std::vector<api::WindowReport>& b,
                                  std::string* firstDifference);

// ------------------------------------------------------------------ trace

/// In-memory span recorder: (name, start, end, parent) per span, written
/// out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds after the tracer's origin
    double end = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> counts;  ///< taken at the span
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  int open(const std::string& name);
  void close(int id);
  /// Attaches a count to span `id` (written with the span).
  void count(int id, const std::string& name, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// A service restored from a checkpoint directory. PartitionService can be
/// neither copied nor moved, so this wrapper lets std::optional hold one.
struct RestoredService {
  RestoredService(const std::string& dir, std::size_t threads)
      : service(serve::PartitionService::restore(dir, threads)) {}
  serve::PartitionService service;
};

// -------------------------------------------------------- application phase

struct AppResult {
  std::vector<double> stepSeconds;
  std::vector<pregel::SuperstepStats> stats;
  std::vector<double> values;  ///< TunkRank value per id (0 for dead ids)
};

/// Runs `supersteps` TunkRank supersteps on pregel::Engine over `g` with the
/// active partitions of `assignment` renumbered densely (one worker per
/// active partition), the background partitioner on or off, at `threads`.
/// `timed` warms the threads up first (reference runs for checks do not).
[[nodiscard]] AppResult runTunkRank(const graph::DynamicGraph& g,
                                    const metrics::Assignment& assignment,
                                    const std::vector<std::uint8_t>& activeMask,
                                    bool adaptive, std::size_t threads,
                                    std::size_t supersteps, bool timed,
                                    Tracer* tracer);

// --------------------------------------------------------------- rounds

/// Everything one untraced service round measures.
struct RoundResult {
  std::vector<double> setupSeconds;
  double convergeSeconds = 0.0;
  double ingestSeconds = 0.0;       ///< epoch 2 -> last epoch visible
  double runSeconds = 0.0;          ///< PartitionService::run wall time
  std::uint64_t ingestEvents = 0;   ///< drained in windows >= 1
  std::vector<double> freshSeconds; ///< epoch-to-epoch, windows >= 1
  ReaderPool::Result reads;
  double cutRatioMean = 0.0;
  std::size_t migrations = 0;
  std::size_t checkpointBytes = 0;
  std::vector<double> restoreSeconds;
  std::vector<double> makeCheckpointSeconds;  ///< only with keepCheckpoint
  std::vector<double> appStepSeconds;
  std::size_t localMessages = 0;
  std::size_t remoteMessages = 0;
  std::size_t peakRssBytes = 0;
  std::vector<api::WindowReport> timeline;
};

struct RoundConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;  ///< the round's input seed (see inputSeed)
  std::string checkpointDir;
  bool fullChecks = false;  ///< replay, pregel reference runs (last round)
  /// When set, the round also times PartitionService::makeCheckpoint on the
  /// final state (repeated like a short phase) and keeps the result here.
  serve::Checkpoint* keepCheckpoint = nullptr;
};

/// One untraced round: set-up, ingest under readers, restore, application
/// phase, and the output checks.
[[nodiscard]] RoundResult runServiceRound(const RoundConfig& config,
                                          OpCounts& ops, Checker& checker);

/// The traced run's per-layer metrics, by name.
using LayerMetrics = std::map<std::string, double>;

struct TracedResult {
  LayerMetrics metrics;
  std::vector<api::WindowReport> timeline;
  double ingestSeconds = 0.0;  ///< ingest through the final checkpoint, checks excluded
};

/// Replays the workload through the layers' public calls with one span per
/// call, the way PartitionService::run does, under the same readers.
/// `serviceCheckpoint` is PartitionService::makeCheckpoint after an untraced
/// round of the same input: the replay's final checkpoint must write the
/// same files.
[[nodiscard]] TracedResult runTraced(const RoundConfig& config,
                                     const serve::Checkpoint& serviceCheckpoint,
                                     Tracer& tracer, OpCounts& ops, Checker& checker);

}  // namespace perfbench
