#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>
#include <numeric>
#include <thread>

#include "dataflow/dataset.h"
#include "dataflow/thread_pool.h"

namespace gradoop::dataflow {
namespace {

ExecutionContextPtr Ctx(int workers = 4) {
  ClusterConfig cfg;
  cfg.num_workers = workers;
  return MakeContext(cfg);
}

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<int> hits(100, 0);
  pool.RunAndWait(100, [&](int i) { hits[i] = i + 1; });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], i + 1);
}

TEST(ThreadPoolTest, SequentialBatches) {
  ThreadPool pool(2);
  int total = 0;
  for (int round = 0; round < 10; ++round) {
    std::vector<int> parts(8, 0);
    pool.RunAndWait(8, [&](int i) { parts[i] = 1; });
    total += std::accumulate(parts.begin(), parts.end(), 0);
  }
  EXPECT_EQ(total, 80);
}

TEST(ThreadPoolTest, StressManyBatchesUnderContention) {
  // Hammers the queue / pending / batch_done handshake: many short wide
  // batches so workers constantly race on batch boundaries. Run under
  // TSan by ci/check.sh.
  ThreadPool pool(8);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.RunAndWait(64, [&](int i) {
      sum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 200ull * (63 * 64 / 2));
}

TEST(ThreadPoolTest, StressShutdownWhileEnqueueing) {
  // Shutdown racing active submitters: several host threads pump
  // batches through a shared pool right up to the moment it is
  // destroyed, so the destructor's shutdown/notify handshake races the
  // workers' final wait/drain cycles and the submitters' last
  // batch_done wakeups. The TSan tree of ci/check.sh (with
  // detect_deadlocks=1) is the build this exists for; the lock-rank
  // checker also sees every acquisition in Debug trees.
  constexpr int kIterations = 50;
  constexpr int kSubmitters = 4;
  std::atomic<uint64_t> executed{0};  // ordering: relaxed tally, summed
                                      // only after every thread joined
  for (int iter = 0; iter < kIterations; ++iter) {
    std::atomic<bool> stop{false};  // ordering: relaxed on/off flag;
                                    // joins below give the sync
    const uint64_t before = executed.load(std::memory_order_relaxed);
    auto pool = std::make_unique<ThreadPool>(4);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          pool->RunAndWait(8, [&](int) {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    // Let at least one batch land before pulling the plug — on a loaded
    // machine the submitters may not have been scheduled yet, and an
    // all-idle iteration exercises nothing (and breaks the executed > 0
    // assertion below).
    while (executed.load(std::memory_order_relaxed) == before) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : submitters) t.join();
    // Destroy immediately after the last RunAndWait returns: workers
    // may still be between their final queue check and the shutdown
    // wakeup, which is exactly the window under test.
    pool.reset();
  }
  EXPECT_EQ(executed.load() % 8, 0u);
  EXPECT_GT(executed.load(), 0u);
}

TEST(DatasetTest, WideShufflePipelineUnderContention) {
  // Shuffle + join + reduce with many partitions: per-partition output
  // slots are written concurrently by the pool, so TSan covers the
  // dataset transformation paths end to end.
  ClusterConfig cfg;
  cfg.num_workers = 16;
  auto ctx = MakeContext(cfg);
  std::vector<int> data(2000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, std::move(data));
  auto key = [](const int& v) { return static_cast<uint64_t>(v % 31); };
  auto joined = ds.HashJoin<int>(
      ds, key, key,
      [](const int& l, const int& r, std::vector<int>* out) {
        out->push_back(l + r);
      });
  // 2000 = 31*64 + 16: sixteen key classes of 65 values, fifteen of 64.
  EXPECT_EQ(joined.Count(), 16ull * 65 * 65 + 15ull * 64 * 64);
  auto reduced = ds.ReduceByKey(
      key, [](const int&) { return uint64_t{1}; },
      [](uint64_t acc, const int&) { return acc + 1; });
  uint64_t total = 0;
  for (const auto& [k, n] : reduced.Collect()) total += n;
  EXPECT_EQ(total, 2000u);
  EXPECT_EQ(ds.Distinct(key).Count(), 31u);
}

TEST(DatasetTest, FromVectorPartitionsEverything) {
  auto ctx = Ctx(4);
  std::vector<int> data(103);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  EXPECT_EQ(ds.num_partitions(), 4);
  EXPECT_EQ(Sorted(ds.Collect()), data);
}

TEST(DatasetTest, MapTransformsEachRecord) {
  auto ctx = Ctx(3);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5});
  auto doubled = ds.Map([](const int& x) { return x * 2; });
  EXPECT_EQ(Sorted(doubled.Collect()), (std::vector<int>{2, 4, 6, 8, 10}));
}

TEST(DatasetTest, FlatMapEmitsZeroOrMore) {
  auto ctx = Ctx(2);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto out = ds.FlatMap<int>([](const int& x, std::vector<int>* dst) {
    for (int i = 0; i < x; ++i) dst->push_back(x);
  });
  EXPECT_EQ(Sorted(out.Collect()), (std::vector<int>{1, 2, 2, 3, 3, 3}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  auto ctx = Ctx(2);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5, 6});
  auto even = ds.Filter([](const int& x) { return x % 2 == 0; });
  EXPECT_EQ(Sorted(even.Collect()), (std::vector<int>{2, 4, 6}));
}

TEST(DatasetTest, UnionConcatenates) {
  auto ctx = Ctx(2);
  auto a = Dataset<int>::FromVector(ctx, {1, 2});
  auto b = Dataset<int>::FromVector(ctx, {3, 4});
  EXPECT_EQ(Sorted(a.Union(b).Collect()), (std::vector<int>{1, 2, 3, 4}));
}

TEST(DatasetTest, MapPartitionSeesWholePartition) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3, 4, 5, 6, 7, 8});
  auto sums = ds.MapPartition<int>(
      [](int part, const std::vector<int>& in, std::vector<int>* out) {
        (void)part;
        out->push_back(std::accumulate(in.begin(), in.end(), 0));
      });
  const auto collected = sums.Collect();
  EXPECT_EQ(std::accumulate(collected.begin(), collected.end(), 0), 36);
}

TEST(DatasetTest, RepartitionGroupsKeysOnOneWorker) {
  auto ctx = Ctx(4);
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data)
                .RepartitionByKey([](const int& x) {
                  return static_cast<uint64_t>(x % 8);
                });
  // All records with the same key must live in the same partition.
  for (int key = 0; key < 8; ++key) {
    int partitions_holding = 0;
    for (int p = 0; p < ds.num_partitions(); ++p) {
      const bool has = std::any_of(
          ds.partition(p).begin(), ds.partition(p).end(),
          [key](int x) { return x % 8 == key; });
      if (has) ++partitions_holding;
    }
    EXPECT_EQ(partitions_holding, 1) << "key " << key;
  }
  EXPECT_EQ(Sorted(ds.Collect()), data);
}

TEST(DatasetTest, DistinctRemovesDuplicateKeys) {
  auto ctx = Ctx(3);
  auto ds = Dataset<int>::FromVector(ctx, {1, 2, 2, 3, 3, 3, 4});
  auto d = ds.Distinct([](const int& x) { return static_cast<uint64_t>(x); });
  EXPECT_EQ(Sorted(d.Collect()), (std::vector<int>{1, 2, 3, 4}));
}

TEST(DatasetTest, ReduceByKeyAggregates) {
  auto ctx = Ctx(4);
  std::vector<int> data;
  for (int i = 0; i < 30; ++i) data.push_back(i);
  auto ds = Dataset<int>::FromVector(ctx, data);
  auto reduced = ds.ReduceByKey(
      [](const int& x) { return static_cast<uint64_t>(x % 3); },
      [](const int& x) { return x; },
      [](int acc, const int& x) { return acc + x; });
  auto rows = reduced.Collect();
  ASSERT_EQ(rows.size(), 3u);
  int total = 0;
  for (const auto& [k, sum] : rows) total += sum;
  EXPECT_EQ(total, 435);  // sum 0..29
}

TEST(DatasetTest, HashJoinMatchesKeys) {
  auto ctx = Ctx(4);
  auto left = Dataset<int>::FromVector(ctx, {1, 2, 3, 4});
  auto right = Dataset<int>::FromVector(ctx, {2, 4, 6});
  auto joined = left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int& r, std::vector<int>* out) {
        out->push_back(l + r);
      });
  EXPECT_EQ(Sorted(joined.Collect()), (std::vector<int>{4, 8}));
}

TEST(DatasetTest, HashJoinDuplicateKeysProduceCrossProduct) {
  auto ctx = Ctx(2);
  auto left = Dataset<int>::FromVector(ctx, {10, 10});
  auto right = Dataset<int>::FromVector(ctx, {10, 10, 10});
  auto joined = left.HashJoin<int>(
      right, [](const int&) { return uint64_t{1}; },
      [](const int&) { return uint64_t{1}; },
      [](const int&, const int&, std::vector<int>* out) {
        out->push_back(1);
      });
  EXPECT_EQ(joined.Collect().size(), 6u);
}

TEST(DatasetTest, BroadcastJoinMatchesRepartitionJoin) {
  auto ctx = Ctx(4);
  std::vector<int> ldata(100), rdata = {5, 10, 15};
  std::iota(ldata.begin(), ldata.end(), 0);
  auto left = Dataset<int>::FromVector(ctx, ldata);
  auto right = Dataset<int>::FromVector(ctx, rdata);
  auto key = [](const int& x) { return static_cast<uint64_t>(x); };
  auto joiner = [](const int& l, const int&, std::vector<int>* out) {
    out->push_back(l);
  };
  auto a = left.HashJoin<int>(right, key, key, joiner,
                              JoinStrategy::kRepartition);
  auto b = left.HashJoin<int>(right, key, key, joiner,
                              JoinStrategy::kBroadcast);
  EXPECT_EQ(Sorted(a.Collect()), Sorted(b.Collect()));
  EXPECT_EQ(Sorted(a.Collect()), (std::vector<int>{5, 10, 15}));
}

TEST(DatasetTest, FlatJoinCanDropPairs) {
  auto ctx = Ctx(2);
  auto left = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto right = Dataset<int>::FromVector(ctx, {1, 2, 3});
  auto joined = left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int&, std::vector<int>* out) {
        if (l % 2 == 1) out->push_back(l);  // FlatJoin: emit conditionally
      });
  EXPECT_EQ(Sorted(joined.Collect()), (std::vector<int>{1, 3}));
}

// Everything the model and the telemetry counters saw of one run.
struct Charged {
  std::vector<std::pair<std::string, double>> stages;  // label, seconds
  uint64_t records = 0, network = 0, spilled = 0, peak = 0;
  std::map<std::string, uint64_t> counters;
  std::vector<std::vector<int>> outputs;

  explicit Charged(const ExecutionContext& ctx,
                   std::vector<std::vector<int>> outs)
      : records(ctx.tracker().TotalRecords()),
        network(ctx.tracker().NetworkBytes()),
        spilled(ctx.tracker().SpilledBytes()),
        peak(ctx.accountant().peak_bytes()),
        counters(ctx.telemetry().metrics().Snapshot().counters),
        outputs(std::move(outs)) {
    for (const StageCost& stage : ctx.tracker().Stages()) {
      stages.emplace_back(stage.label, stage.TotalSeconds());
    }
  }
};

TEST(DatasetTest, PreparedBuildChargesEveryProbeLikeAFreshHashJoin) {
  for (const JoinStrategy strategy :
       {JoinStrategy::kRepartition, JoinStrategy::kBroadcast}) {
    auto context = [] {
      ClusterConfig cfg;
      cfg.num_workers = 4;
      cfg.worker_memory_bytes = 64;  // the build side spills
      auto ctx = MakeContext(cfg);
      ctx->accountant().Enable();
      ctx->telemetry().Enable();
      return ctx;
    };
    std::vector<int> build_data(200), probe_a(300), probe_b(50);
    std::iota(build_data.begin(), build_data.end(), 0);
    std::iota(probe_a.begin(), probe_a.end(), 100);
    std::iota(probe_b.begin(), probe_b.end(), 7);
    auto key = [](const int& x) { return static_cast<uint64_t>(x % 60); };
    auto joiner = [](const int& l, const int& r, std::vector<int>* out) {
      out->push_back(l * 1000 + r);
    };
    auto partitions = [](const Dataset<int>& ds) {
      std::vector<std::vector<int>> parts;
      for (int p = 0; p < ds.num_partitions(); ++p) {
        parts.push_back(ds.partition(p));
      }
      return parts;
    };

    auto fresh = context();
    auto right = Dataset<int>::FromVector(fresh, build_data);
    fresh->tracker().Reset();
    auto fa = Dataset<int>::FromVector(fresh, probe_a)
                  .HashJoin<int>(right, key, key, joiner, strategy);
    auto fb = Dataset<int>::FromVector(fresh, probe_b)
                  .HashJoin<int>(right, key, key, joiner, strategy);
    auto fresh_outs = partitions(fa);
    for (auto& part : partitions(fb)) fresh_outs.push_back(part);

    auto shared = context();
    right = Dataset<int>::FromVector(shared, build_data);
    shared->tracker().Reset();
    const auto build = right.PrepareBuild(key, strategy, "Join");
    auto sa = Dataset<int>::FromVector(shared, probe_a)
                  .ProbeJoin<int>(build, key, joiner);
    auto sb = Dataset<int>::FromVector(shared, probe_b)
                  .ProbeJoin<int>(build, key, joiner);
    auto shared_outs = partitions(sa);
    for (auto& part : partitions(sb)) shared_outs.push_back(part);

    const Charged f(*fresh, fresh_outs), s(*shared, shared_outs);
    EXPECT_GT(f.spilled, 0u);
    EXPECT_EQ(s.stages, f.stages);
    EXPECT_EQ(s.records, f.records);
    EXPECT_EQ(s.network, f.network);
    EXPECT_EQ(s.spilled, f.spilled);
    EXPECT_EQ(s.peak, f.peak);
    EXPECT_EQ(s.counters, f.counters);
    EXPECT_EQ(s.outputs, f.outputs);
  }
}

TEST(DatasetTest, CountMatchesCollect) {
  auto ctx = Ctx(4);
  std::vector<int> data(57);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  EXPECT_EQ(ds.Count(), 57u);
}

TEST(DatasetTest, SingleWorkerStillWorks) {
  auto ctx = Ctx(1);
  auto ds = Dataset<int>::FromVector(ctx, {3, 1, 2});
  EXPECT_EQ(Sorted(ds.Collect()), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ds.Count(), 3u);
}

// --- cost model ------------------------------------------------------------

TEST(CostModelTest, StagesAccumulate) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, std::vector<int>(1000, 1));
  const int before = ctx->tracker().NumStages();
  ds.Map([](const int& x) { return x; });
  EXPECT_EQ(ctx->tracker().NumStages(), before + 1);
  EXPECT_GT(ctx->tracker().SimulatedSeconds(), 0.0);
}

TEST(CostModelTest, ShuffleChargesNetworkBytes) {
  auto ctx = Ctx(4);
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<int>::FromVector(ctx, data);
  const uint64_t before = ctx->tracker().NetworkBytes();
  // Key chosen so records leave their round-robin home partition.
  ds.RepartitionByKey(
      [](const int& x) { return static_cast<uint64_t>(x / 4); });
  EXPECT_GT(ctx->tracker().NetworkBytes(), before);
}

TEST(CostModelTest, NarrowOpsChargeNoNetwork) {
  auto ctx = Ctx(4);
  auto ds = Dataset<int>::FromVector(ctx, std::vector<int>(100, 7));
  const uint64_t before = ctx->tracker().NetworkBytes();
  ds.Map([](const int& x) { return x + 1; })
      .Filter([](const int& x) { return x > 0; });
  EXPECT_EQ(ctx->tracker().NetworkBytes(), before);
}

TEST(CostModelTest, MoreWorkersReduceComputeTime) {
  // The same compute-heavy job must be simulated-faster on more workers.
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.stage_latency_sec = 0.0;  // isolate compute scaling
    auto ctx = MakeContext(cfg);
    std::vector<int> data(100000);
    std::iota(data.begin(), data.end(), 0);
    auto ds = Dataset<int>::FromVector(ctx, data);
    ds.Map([](const int& x) { return x * 2; });
    return ctx->tracker().SimulatedSeconds();
  };
  const double t1 = run(1), t4 = run(4), t16 = run(16);
  EXPECT_GT(t1, 3.0 * t4 / 1.2);
  EXPECT_GT(t4, t16);
}

TEST(CostModelTest, StageLatencyCapsSpeedupOnTinyData) {
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    auto ctx = MakeContext(cfg);
    auto ds = Dataset<int>::FromVector(ctx, {1, 2, 3});
    ds.Map([](const int& x) { return x; });
    return ctx->tracker().SimulatedSeconds();
  };
  // With ~no data the fixed latency dominates: no speedup at all.
  EXPECT_NEAR(run(1), run(16), 1e-3);
}

TEST(CostModelTest, SkewedJoinKeysPreventSpeedup) {
  // All records share one key: after repartitioning, a single worker
  // holds every record, so the join's build/probe time must not improve
  // with more workers (the paper's load-imbalance effect on Q5/Q6).
  auto run = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.stage_latency_sec = 0.0;
    auto ctx = MakeContext(cfg);
    std::vector<int> skewed(5000, 7);  // single hot key
    auto left = Dataset<int>::FromVector(ctx, skewed);
    auto right = Dataset<int>::FromVector(ctx, {7});
    left.HashJoin<int>(
        right, [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& l, const int&, std::vector<int>* out) {
          out->push_back(l);
        });
    double build_probe = 0;
    for (const auto& stage : ctx->tracker().Stages()) {
      if (stage.label.find("BuildProbe") != std::string::npos) {
        build_probe += stage.compute_sec;
      }
    }
    return build_probe;
  };
  // The hot partition processes all 5000 records regardless of workers.
  EXPECT_NEAR(run(4), run(16), run(4) * 0.05);
}

TEST(CostModelTest, SpillChargedWhenStateExceedsMemory) {
  ClusterConfig cfg;
  cfg.num_workers = 2;
  cfg.worker_memory_bytes = 1024;  // tiny budget to force spilling
  auto ctx = MakeContext(cfg);
  std::vector<int> data(4096);
  std::iota(data.begin(), data.end(), 0);
  auto left = Dataset<int>::FromVector(ctx, data);
  auto right = Dataset<int>::FromVector(ctx, data);
  left.HashJoin<int>(
      right, [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& x) { return static_cast<uint64_t>(x); },
      [](const int& l, const int&, std::vector<int>* out) {
        out->push_back(l);
      });
  EXPECT_GT(ctx->tracker().SpilledBytes(), 0u);
}

TEST(CostModelTest, MoreWorkersAvoidSpill) {
  auto spilled = [](int workers) {
    ClusterConfig cfg;
    cfg.num_workers = workers;
    cfg.worker_memory_bytes = 16 << 10;
    auto ctx = MakeContext(cfg);
    std::vector<int> data(8000);
    std::iota(data.begin(), data.end(), 0);
    auto left = Dataset<int>::FromVector(ctx, data);
    auto right = Dataset<int>::FromVector(ctx, data);
    left.HashJoin<int>(
        right, [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& x) { return static_cast<uint64_t>(x); },
        [](const int& l, const int&, std::vector<int>* out) {
          out->push_back(l);
        });
    return ctx->tracker().SpilledBytes();
  };
  EXPECT_GT(spilled(1), 0u);
  EXPECT_EQ(spilled(16), 0u);  // aggregate memory now fits the build side
}

TEST(CostModelTest, ShuffleSecondsUsesSlowestWorker) {
  ClusterConfig cfg;
  cfg.network_bytes_per_sec = 100.0;
  const double t =
      ShuffleSeconds({1000, 10, 10}, {10, 500, 10}, cfg);
  EXPECT_DOUBLE_EQ(t, 10.0);  // worker 0 sends 1000 bytes at 100 B/s
}

TEST(CostModelTest, SpillSecondsCountsExcessTwice) {
  ClusterConfig cfg;
  cfg.worker_memory_bytes = 100;
  cfg.disk_bytes_per_sec = 10.0;
  cfg.seconds_per_record = 0.0;  // isolate the disk component
  uint64_t spilled = 0;
  const double t = SpillSeconds({150, 80}, {15, 8}, cfg, &spilled);
  EXPECT_EQ(spilled, 50u);
  EXPECT_DOUBLE_EQ(t, 10.0);  // 50 excess * 2 passes / 10 B/s
}

TEST(CostModelTest, SpillChargesRecordSerialization) {
  ClusterConfig cfg;
  cfg.worker_memory_bytes = 100;
  cfg.disk_bytes_per_sec = 1e12;  // isolate the serialization component
  cfg.seconds_per_record = 0.01;
  uint64_t spilled = 0;
  // 200 bytes of state across 20 records; half the bytes spill, so 10
  // records pay serialize + deserialize: 10 * 2 * 0.01 = 0.2s.
  const double t = SpillSeconds({200}, {20}, cfg, &spilled);
  EXPECT_EQ(spilled, 100u);
  EXPECT_NEAR(t, 0.2, 1e-9);
}

}  // namespace
}  // namespace gradoop::dataflow
