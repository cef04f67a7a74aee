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
#include <type_traits>

#include "dataflow/dataset.h"
#include "dataflow/flat_build_table.h"
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

// The flat build table behind every join: one hot key (5000 equal build
// keys), duplicate keys, build partitions left empty by the routing, and
// an empty build side, under both strategies, against a nested loop.
TEST(DatasetTest, HashJoinFlatTableMatchesNestedLoopReference) {
  using Rec = std::pair<int, int>;  // (key, tag)
  const auto key = [](const Rec& r) { return r.first; };
  const auto joiner = [](const Rec& l, const Rec& r,
                         std::vector<Rec>* out) {
    out->push_back({l.second, r.second});
  };
  const auto nested_loop = [](const std::vector<Rec>& left,
                              const std::vector<Rec>& right) {
    std::vector<Rec> out;
    for (const Rec& l : left) {
      for (const Rec& r : right) {
        if (l.first == r.first) out.push_back({l.second, r.second});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  // Every build key is 3 mod 4: a repartition build sends all of them to
  // one of the four workers and leaves three build partitions empty.
  std::vector<Rec> build;
  int tag = 0;
  for (int i = 0; i < 5000; ++i) build.push_back({7, tag++});
  for (const int k : {3, 11, 15, 19}) {
    for (int dup = 0; dup < k % 5 + 1; ++dup) build.push_back({k, tag++});
  }
  std::vector<Rec> probe;
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 24; ++k) probe.push_back({k, tag++});
  }
  for (const auto strategy :
       {JoinStrategy::kRepartition, JoinStrategy::kBroadcast}) {
    for (const std::vector<Rec>& right : {build, std::vector<Rec>{}}) {
      auto ctx = Ctx(4);
      const auto joined = Dataset<Rec>::FromVector(ctx, probe)
                              .HashJoin<Rec>(
                                  Dataset<Rec>::FromVector(ctx, right), key,
                                  key, joiner, strategy);
      std::vector<Rec> got = joined.Collect();
      std::sort(got.begin(), got.end());
      const std::vector<Rec> want = nested_loop(probe, right);
      EXPECT_EQ(got.size(), right.empty() ? 0u : 3u * (5000 + 4 + 2 + 1 + 5));
      EXPECT_EQ(got, want);
    }
  }
}

// A record that counts how often it is copied, with a tag-dependent wire
// size so that byte tallies see which records moved where.
struct CountedRecord {
  // ordering: relaxed tally; read only after the pool tasks joined.
  static inline std::atomic<uint64_t> copies{0};

  int key = 0;
  int tag = 0;

  CountedRecord(int k, int t) : key(k), tag(t) {}
  CountedRecord(const CountedRecord& o) : key(o.key), tag(o.tag) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  CountedRecord& operator=(const CountedRecord& o) {
    key = o.key;
    tag = o.tag;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  CountedRecord(CountedRecord&&) = default;
  CountedRecord& operator=(CountedRecord&&) = default;

  size_t SerializedSize() const { return 8 + 4 * static_cast<size_t>(tag % 3); }
};

// What the cost model and the accountant charged for one run, with the
// values the same run charged when every exchange copied its records.
struct ModelCharge {
  double seconds = 0.0;
  uint64_t records = 0;
  uint64_t network = 0;
  uint64_t peak = 0;
};

// Exchanges route references: a join, a prepared build probed three
// times, Distinct and ReduceByKey never copy an input record (Distinct
// copies exactly its survivors into its output), produce what a nested
// loop produces, and charge the model, the network and the accountant
// exactly what record-copying exchanges charged.
TEST(DatasetTest, ExchangesRouteRecordsWithoutCopyingThem) {
  using Rec = CountedRecord;
  using Pair = std::pair<int, int>;
  const auto key = [](const Rec& r) { return static_cast<uint64_t>(r.key); };
  const auto joiner = [](const Rec& l, const Rec& r, std::vector<Pair>* out) {
    out->push_back({l.tag, r.tag});
  };
  // Skewed keys: key 0 is hot, keys 1..12 repeat, some probe keys miss.
  const auto records = [](int n, int key_mod, int tag_base) {
    std::vector<Rec> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out.emplace_back(i % 4 == 0 ? 0 : i % key_mod, tag_base + i);
    }
    return out;
  };
  const auto nested_loop = [](const std::vector<Rec>& left,
                              const std::vector<Rec>& right) {
    std::vector<Pair> out;
    for (const Rec& l : left) {
      for (const Rec& r : right) {
        if (l.key == r.key) out.push_back({l.tag, r.tag});
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto collect = [](const auto& ds) {
    using Out = std::decay_t<decltype(ds.partition(0).front())>;
    std::vector<Out> out;
    for (int p = 0; p < ds.num_partitions(); ++p) {
      out.insert(out.end(), ds.partition(p).begin(), ds.partition(p).end());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto context = [] {
    ClusterConfig cfg;
    cfg.num_workers = 4;
    auto ctx = MakeContext(cfg);
    ctx->accountant().Enable();
    return ctx;
  };
  // Resets the model and the copy count once the inputs are in place.
  const auto start = [](ExecutionContext& ctx) {
    ctx.tracker().Reset();
    ctx.accountant().Reset();
    Rec::copies = 0;
  };
  const auto charged = [](const ExecutionContext& ctx) {
    return ModelCharge{ctx.tracker().SimulatedSeconds(),
                       ctx.tracker().TotalRecords(),
                       ctx.tracker().NetworkBytes(),
                       ctx.accountant().peak_bytes()};
  };
  std::vector<std::pair<std::string, ModelCharge>> got;

  struct JoinCase {
    const char* name;
    JoinStrategy strategy;
    JoinShuffleHints hints;
  };
  for (const JoinCase& jc :
       {JoinCase{"repartition", JoinStrategy::kRepartition, {}},
        JoinCase{"broadcast", JoinStrategy::kBroadcast, {}},
        JoinCase{"left adopted", JoinStrategy::kRepartition, {true, false}},
        JoinCase{"right adopted", JoinStrategy::kRepartition, {false, true}},
        JoinCase{"both adopted", JoinStrategy::kRepartition, {true, true}}}) {
    auto ctx = context();
    auto left = Dataset<Rec>::FromVector(ctx, records(300, 13, 0));
    auto right = Dataset<Rec>::FromVector(ctx, records(120, 9, 1000));
    // An adopted side must already sit at hash(key) % p.
    if (jc.hints.left_prepartitioned) left = left.RepartitionByKey(key);
    if (jc.hints.right_prepartitioned) right = right.RepartitionByKey(key);
    start(*ctx);
    const auto joined = left.HashJoin<Pair>(right, key, key, joiner,
                                            jc.strategy, "Join", jc.hints);
    EXPECT_EQ(Rec::copies.load(), 0u) << jc.name;
    got.emplace_back(jc.name, charged(*ctx));
    EXPECT_EQ(collect(joined),
              nested_loop(records(300, 13, 0), records(120, 9, 1000)))
        << jc.name;
  }

  for (const JoinStrategy strategy :
       {JoinStrategy::kRepartition, JoinStrategy::kBroadcast}) {
    const std::string name = strategy == JoinStrategy::kRepartition
                                 ? "prepared repartition"
                                 : "prepared broadcast";
    auto ctx = context();
    auto right = Dataset<Rec>::FromVector(ctx, records(120, 9, 1000));
    std::vector<Dataset<Rec>> probes;
    for (int i = 0; i < 3; ++i) {
      probes.push_back(
          Dataset<Rec>::FromVector(ctx, records(100 + 50 * i, 11 + i, 0)));
    }
    start(*ctx);
    const auto build = right.PrepareBuild(key, strategy, "Join");
    std::vector<Dataset<Pair>> joined;
    for (const auto& probe : probes) {
      joined.push_back(probe.ProbeJoin<Pair>(build, key, joiner));
    }
    EXPECT_EQ(Rec::copies.load(), 0u) << name;
    got.emplace_back(name, charged(*ctx));
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(collect(joined[i]),
                nested_loop(records(100 + 50 * i, 11 + i, 0),
                            records(120, 9, 1000)))
          << name << " probe " << i;
    }
  }

  {
    auto ctx = context();
    auto input = Dataset<Rec>::FromVector(ctx, records(400, 17, 0));
    start(*ctx);
    const auto distinct = input.Distinct(key);
    uint64_t survivors = 0;
    for (int p = 0; p < distinct.num_partitions(); ++p) {
      survivors += distinct.partition(p).size();
    }
    EXPECT_EQ(survivors, 17u);
    EXPECT_EQ(Rec::copies.load(), survivors);
    got.emplace_back("distinct", charged(*ctx));
    // The first record of every key in input order survives.
    std::vector<Pair> kept;
    for (int p = 0; p < distinct.num_partitions(); ++p) {
      for (const Rec& r : distinct.partition(p)) kept.push_back({r.key, r.tag});
    }
    std::sort(kept.begin(), kept.end());
    std::vector<Pair> want;
    for (int p = 0; p < input.num_partitions(); ++p) {
      for (const Rec& r : input.partition(p)) {
        const bool seen = std::any_of(want.begin(), want.end(),
                                      [&](const Pair& w) {
                                        return w.first == r.key;
                                      });
        if (!seen) want.push_back({r.key, r.tag});
      }
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(kept, want);
  }

  {
    auto ctx = context();
    auto input = Dataset<Rec>::FromVector(ctx, records(400, 17, 0));
    start(*ctx);
    const auto sums = input.ReduceByKey(
        key, [](const Rec& r) { return r.tag; },
        [](int acc, const Rec& r) { return acc + r.tag; });
    EXPECT_EQ(Rec::copies.load(), 0u);
    got.emplace_back("reduce", charged(*ctx));
    std::map<uint64_t, int> want;
    for (const Rec& r : records(400, 17, 0)) want[key(r)] += r.tag;
    std::map<uint64_t, int> have;
    for (const auto& [k, sum] : collect(sums)) have[k] = sum;
    EXPECT_EQ(have, want);
  }

  // Captured from the same runs when every exchange still copied.
  const std::vector<std::pair<std::string, ModelCharge>> copying = {
      {"repartition", {0.27669655999999998, 5941, 2844, 12720}},
      {"broadcast", {0.1997932, 6001, 4320, 40080}},
      {"left adopted", {0.25291343999999999, 5641, 792, 12720}},
      {"right adopted", {0.25518311999999999, 5821, 2052, 12720}},
      {"both adopted", {0.23139999999999999, 5521, 0, 12720}},
      {"prepared repartition", {0.48757136000000001, 9159, 4356, 11516}},
      {"prepared broadcast", {0.36977959999999999, 9789, 12960, 38876}},
      {"distinct", {0.054692080000000004, 800, 2736, 4796}},
      {"reduce", {0.054692080000000004, 800, 2736, 4796}},
  };
  ASSERT_EQ(got.size(), copying.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [name, c] = got[i];
    const ModelCharge& want = copying[i].second;
    EXPECT_EQ(name, copying[i].first);
    EXPECT_DOUBLE_EQ(c.seconds, want.seconds) << name;
    EXPECT_EQ(c.records, want.records) << name;
    EXPECT_EQ(c.network, want.network) << name;
    EXPECT_EQ(c.peak, want.peak) << name;
  }
}

TEST(FlatBuildTableTest, EqualKeysComeBackInBuildOrder) {
  using Table = FlatBuildTable<int, int>;
  std::vector<Table::Entry> staged;
  for (int i = 0; i < 100; ++i) {
    staged.push_back({std::hash<int>{}(i % 7), i % 7, i});
  }
  const Table table(std::move(staged));
  for (int k = 0; k < 7; ++k) {
    std::vector<int> refs;
    table.ForEachMatch(k, std::hash<int>{}(k),
                       [&](int ref) { refs.push_back(ref); });
    std::vector<int> want;
    for (int i = k; i < 100; i += 7) want.push_back(i);
    EXPECT_EQ(refs, want) << "key " << k;
  }
  int misses = 0;
  table.ForEachMatch(7, std::hash<int>{}(7), [&](int) { ++misses; });
  EXPECT_EQ(misses, 0);
}

TEST(FlatBuildTableTest, CollidingHashesStillCompareKeys) {
  // Every entry carries the same hash, so all land in one bucket; only
  // the key comparison tells them apart.
  using Table = FlatBuildTable<std::string, int>;
  std::vector<Table::Entry> staged;
  for (int i = 0; i < 50; ++i) staged.push_back({42, std::to_string(i % 5), i});
  const Table table(std::move(staged));
  std::vector<int> refs;
  table.ForEachMatch("3", 42, [&](int ref) { refs.push_back(ref); });
  EXPECT_EQ(refs, (std::vector<int>{3, 8, 13, 18, 23, 28, 33, 38, 43, 48}));
  refs.clear();
  table.ForEachMatch("3", 41, [&](int ref) { refs.push_back(ref); });
  EXPECT_TRUE(refs.empty());
  const Table empty;
  empty.ForEachMatch("3", 42, [&](int ref) { refs.push_back(ref); });
  EXPECT_TRUE(refs.empty());
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
