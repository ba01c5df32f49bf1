#include "workloads.hpp"

#include <iterator>
#include <random>
#include <stdexcept>
#include <utility>

#include "apps/app.hpp"
#include "common/timing.hpp"

namespace suite {

namespace {

using ats::Access;
using ats::AccessMode;
using ats::Runtime;

constexpr std::size_t kBatchTasks = 200000;
constexpr std::size_t kSmokeDivisor = 10;

/// Empty spawns are the point of the synthetic workloads: the runtime's
/// per-task cost is all there is to measure.
constexpr auto kEmpty = [] {};

template <typename Fn>
void spawnTimed(Runtime& rt, std::span<const Access> accesses, Fn&& fn,
                std::vector<std::uint32_t>* lane) {
  if (lane == nullptr) {
    rt.spawn(accesses, std::forward<Fn>(fn));
    return;
  }
  const std::uint64_t t0 = ats::nowNanos();
  rt.spawn(accesses, std::forward<Fn>(fn));
  lane->push_back(static_cast<std::uint32_t>(ats::nowNanos() - t0));
}

/// Sizes the lanes for one batch; returns lane 0 (the spawner's), or
/// nullptr when the batch is not timed per call.
std::vector<std::uint32_t>* prepareLanes(SpawnLanes* lanes, std::size_t count,
                                         std::size_t perLane) {
  if (lanes == nullptr) return nullptr;
  lanes->ns.resize(count);
  for (auto& lane : lanes->ns) {
    lane.clear();
    lane.reserve(perLane);
  }
  return &lanes->ns[0];
}

/// Runs `spawnAll`, taskwaits, and times the pair as one unit.
template <typename SpawnAll>
BatchOutcome timedUnit(Runtime& rt, const BatchHooks& hooks,
                       std::uint64_t spawned, SpawnAll&& spawnAll) {
  if (hooks.beforeUnit) hooks.beforeUnit();
  const std::uint64_t t0 = ats::nowNanos();
  spawnAll();
  if (hooks.spawns != nullptr) hooks.spawns->lastSpawnEndNs = ats::nowNanos();
  rt.taskwait();
  const std::uint64_t t1 = ats::nowNanos();
  if (hooks.spawns != nullptr) hooks.spawns->taskwaitEndNs = t1;
  if (hooks.afterUnit) hooks.afterUnit(spawned);
  BatchOutcome outcome;
  outcome.spawned = spawned;
  outcome.seconds = static_cast<double>(t1 - t0) * 1e-9;
  return outcome;
}

class Flood final : public Workload {
 public:
  explicit Flood(std::size_t tasks) : tasks_(tasks) {}

  BatchOutcome run(Runtime& rt, const BatchHooks& hooks) override {
    std::vector<std::uint32_t>* lane = prepareLanes(hooks.spawns, 1, tasks_);
    return timedUnit(rt, hooks, tasks_, [&] {
      for (std::size_t i = 0; i < tasks_; ++i)
        spawnTimed(rt, {}, kEmpty, lane);
    });
  }

  ReplayStream replayStream() const override { return {tasks_, 0, {}}; }

 private:
  std::size_t tasks_;
};

class Nested final : public Workload {
 public:
  static constexpr std::size_t kGenerators = 32;

  explicit Nested(std::size_t children) : children_(children) {}

  BatchOutcome run(Runtime& rt, const BatchHooks& hooks) override {
    std::vector<std::uint32_t>* spawnerLane =
        prepareLanes(hooks.spawns, kGenerators + 1, children_);
    return timedUnit(rt, hooks, kGenerators * (children_ + 1), [&] {
      for (std::size_t g = 0; g < kGenerators; ++g) {
        std::vector<std::uint32_t>* lane =
            hooks.spawns != nullptr ? &hooks.spawns->ns[g + 1] : nullptr;
        spawnTimed(
            rt, {},
            [&rt, lane, n = children_] {
              for (std::size_t i = 0; i < n; ++i)
                spawnTimed(rt, {}, kEmpty, lane);
            },
            spawnerLane);
      }
    });
  }

  ReplayStream replayStream() const override {
    return {kGenerators * (children_ + 1), 0, {}};
  }

 private:
  std::size_t children_;
};

/// 1 inout + 3 in per task over 256 objects in the two address layouts
/// the apps use: 192 block starts 4 KiB apart (halo/tile blocks) and 64
/// adjacent doubles (hpccg/dotprod reduction tokens).  The seed picks
/// each task's objects; the stream is drawn once, at set-up.
class DepsRw final : public Workload {
 public:
  static constexpr std::size_t kBlocks = 192;
  static constexpr std::size_t kTokens = 64;
  static constexpr std::size_t kObjects = kBlocks + kTokens;
  static constexpr std::size_t kBlockBytes = 4096;
  static constexpr std::size_t kAccesses = 4;

  DepsRw(std::size_t tasks, std::uint64_t seed)
      : tasks_(tasks), blocks_(kBlocks * kBlockBytes), tokens_(kTokens) {
    void* objects[kObjects];
    for (std::size_t i = 0; i < kBlocks; ++i)
      objects[i] = &blocks_[i * kBlockBytes];
    for (std::size_t i = 0; i < kTokens; ++i)
      objects[kBlocks + i] = &tokens_[i];

    // mt19937_64 plus modulo (not uniform_int_distribution, whose output
    // is implementation-defined) keeps a seed's stream identical across
    // standard libraries.
    std::mt19937_64 rng(seed);
    accesses_.reserve(tasks_ * kAccesses);
    for (std::size_t t = 0; t < tasks_; ++t) {
      std::size_t picked[kAccesses];
      for (std::size_t a = 0; a < kAccesses; ++a) {
        bool fresh = false;
        while (!fresh) {
          picked[a] = static_cast<std::size_t>(rng() % kObjects);
          fresh = true;
          for (std::size_t b = 0; b < a; ++b) fresh &= picked[b] != picked[a];
        }
        accesses_.push_back(
            Access{objects[picked[a]], a == 0 ? AccessMode::InOut
                                              : AccessMode::In});
      }
    }
  }

  BatchOutcome run(Runtime& rt, const BatchHooks& hooks) override {
    std::vector<std::uint32_t>* lane = prepareLanes(hooks.spawns, 1, tasks_);
    return timedUnit(rt, hooks, tasks_, [&] {
      for (std::size_t t = 0; t < tasks_; ++t)
        spawnTimed(rt, std::span<const Access>(&accesses_[t * kAccesses],
                                               kAccesses),
                   kEmpty, lane);
    });
  }

  ReplayStream replayStream() const override {
    return {tasks_, kAccesses, accesses_};
  }

 private:
  std::size_t tasks_;
  std::vector<unsigned char> blocks_;
  std::vector<double> tokens_;
  std::vector<Access> accesses_;
};

/// Grain of each app at about 50% parallel efficiency on a 4-core host
/// (3 workers + spawner), and how often it repeats so the short apps
/// each take a comparable slice of a pass.  nbody runs once and still
/// takes the largest slice: its Full-scale problem is that large.
struct KneeApp {
  const char* name;
  std::size_t block;
  std::size_t reps;
};

constexpr KneeApp kKneeApps[] = {
    {"hpccg", 4096, 1},   {"lulesh", 1024, 7}, {"matmul", 24, 2},
    {"dotprod", 4096, 2}, {"heat", 8, 2},      {"cholesky", 16, 2},
    {"miniamr", 1024, 16}, {"nbody", 64, 1},
};

class AppsKnee final : public Workload {
 public:
  AppsKnee(std::uint64_t seed, bool smoke) : rng_(seed), smoke_(smoke) {
    const ats::AppScale scale =
        smoke ? ats::AppScale::Quick : ats::AppScale::Full;
    for (const KneeApp& spec : kKneeApps) {
      apps_.push_back(ats::makeApp(spec.name, scale));
      apps_.back()->ensureSerial();
    }
  }

  bool syntheticSpawns() const override { return false; }

  BatchOutcome run(Runtime& rt, const BatchHooks& hooks) override {
    // The seed orders the apps within each pass (Fisher-Yates on the
    // workload's own generator, so pass k's order is fixed per seed).
    std::size_t order[std::size(kKneeApps)];
    for (std::size_t i = 0; i < std::size(kKneeApps); ++i) order[i] = i;
    for (std::size_t i = std::size(kKneeApps) - 1; i > 0; --i)
      std::swap(order[i], order[rng_() % (i + 1)]);

    BatchOutcome outcome;
    for (std::size_t index : order) {
      const KneeApp& spec = kKneeApps[index];
      const std::size_t reps = smoke_ ? 1 : spec.reps;
      for (std::size_t r = 0; r < reps; ++r) {
        if (hooks.beforeUnit) hooks.beforeUnit();
        const ats::AppResult result = apps_[index]->run(rt, spec.block);
        if (hooks.afterUnit) hooks.afterUnit(result.tasks);
        outcome.spawned += result.tasks;
        outcome.seconds += result.seconds;
        ++outcome.checks;
        if (!result.verified) ++outcome.failedChecks;
        outcome.appRuns.emplace_back(index, result.seconds);
      }
    }
    return outcome;
  }

 private:
  std::vector<std::unique_ptr<ats::App>> apps_;
  std::mt19937_64 rng_;
  bool smoke_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool smoke) {
  const std::size_t tasks = smoke ? kBatchTasks / kSmokeDivisor : kBatchTasks;
  if (name == "flood") return std::make_unique<Flood>(tasks);
  if (name == "nested")
    return std::make_unique<Nested>(tasks / Nested::kGenerators);
  if (name == "deps_rw") return std::make_unique<DepsRw>(tasks, seed);
  if (name == "apps_knee") return std::make_unique<AppsKnee>(seed, smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"flood", "nested", "deps_rw",
                                                 "apps_knee"};
  return names;
}

const std::vector<std::string>& kneeAppNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const KneeApp& spec : kKneeApps) out.emplace_back(spec.name);
    return out;
  }();
  return names;
}

}  // namespace suite
