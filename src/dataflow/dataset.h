#ifndef GRADOOP_DATAFLOW_DATASET_H_
#define GRADOOP_DATAFLOW_DATASET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/execution_context.h"
#include "dataflow/flat_build_table.h"
#include "dataflow/partitioning_audit.h"
#include "dataflow/record_traits.h"

namespace gradoop::dataflow {

// Records a dataset loop processes between two cancellation polls. Every
// per-record loop below calls CheckCancelled() once per record (a row
// under the row engine, a batch under the batch engine); lint rule CC007
// flags a kernel loop without a poll, and the cancellation audit
// (query/exec/cancellation_audit.h) bounds the unwind by this stride.
inline constexpr uint64_t kRecordsPerCancellationPoll = 1;

// Physical join strategy, mirroring Flink's optimizer choice between
// repartitioning both inputs and broadcasting the build side.
enum class JoinStrategy {
  kRepartition,  // hash-partition both sides on the join key
  kBroadcast,    // replicate the (small) right side to every worker
};

// Compile-time claims handed to HashJoin by the partitioning analysis
// (query/exec/partitioning.h): a flagged side is provably already
// hash-partitioned on the join key, so its shuffle is adopted in place —
// zero bytes enter the exchange and zero network time is charged. The
// claims are trusted here; VerifyCompiledPlan re-derives them statically
// and GRADOOP_AUDIT_PARTITIONING re-hashes every record at runtime.
struct JoinShuffleHints {
  bool left_prepartitioned = false;
  bool right_prepartitioned = false;
};

// Per-partition state a ZipPartitions callback built transiently (its
// hash table, for a join): priced by the spill model and charged to the
// memory accountant exactly like HashJoin's build side.
struct ZipPartitionStats {
  uint64_t state_bytes = 0;
  uint64_t state_records = 0;
};

// What one exchange moved, tallied while routing records and priced by
// Dataset::ChargeExchange — kept apart from the charge so a prepared
// build side can replay an exchange it ran once. `in_counts` are the
// records entering per source worker (the stage's compute; zero for a
// broadcast, which is priced as pure network time), `out_bytes` and
// `in_bytes` the remote bytes each worker sends and receives.
struct ExchangeTally {
  explicit ExchangeTally(int workers = 0)
      : out_bytes(workers, 0), in_bytes(workers, 0), in_counts(workers, 0) {}

  // Books `bytes` of one fragment routed from `source` to `target`.
  void Add(int source, int target, uint64_t bytes) {
    exchanged += bytes;
    if (target != source) {
      out_bytes[source] += bytes;
      in_bytes[target] += bytes;
      moved += bytes;
    }
  }

  std::vector<uint64_t> out_bytes;
  std::vector<uint64_t> in_bytes;
  std::vector<uint64_t> in_counts;
  uint64_t records = 0;    // records entering the exchange
  uint64_t moved = 0;      // remote bytes: what the network model bills
  uint64_t exchanged = 0;  // all bytes entering (counted when traced)
  bool broadcast = false;  // replicated to every worker, not key-routed
};

template <typename T>
class Dataset;

// A record routed through an exchange by reference: the std::hash of
// its key that placed it, the key, and a pointer into the exchange's
// input — the entry a join's build table keeps.
template <typename T, typename K>
using RoutedRecord = BuildEntry<K, const T*>;

// The build side of a join, exchanged and hashed once by
// Dataset::PrepareBuild and probed any number of times by
// Dataset::ProbeJoin. It also holds the pricing of its exchange and build
// so that every probe charges them again: the cost model sees each probe
// as a fresh HashJoin.
template <typename U, typename K>
class JoinBuildSide {
 private:
  template <typename>
  friend class Dataset;
  using Table = FlatBuildTable<K, const U*>;

  // A broadcast build gives every worker the same table, so it keeps one.
  const Table& TableOf(int worker) const {
    return tables_[exchange_.broadcast ? 0 : static_cast<size_t>(worker)];
  }

  // The build input's partitions: the tables point into them.
  std::shared_ptr<const std::vector<std::vector<U>>> input_;
  std::vector<Table> tables_;
  ExchangeTally exchange_;        // unless adopted in place
  bool prepartitioned_ = false;   // adopted: replays as an elided shuffle
  std::vector<uint64_t> state_bytes_;    // serialized bytes hashed per worker
  std::vector<uint64_t> state_records_;  // records hashed per worker
  uint64_t bytes_ = 0;                   // their sum: the staged build input
};

// A distributed dataset: `num_workers` partitions, partition i owned by
// simulated worker i. Transformations execute eagerly on the host thread
// pool and charge the simulated cluster cost model of the shared
// ExecutionContext (compute = max over workers, shuffle = bytes over the
// simulated network, spills when per-worker state exceeds its memory
// budget).
//
// Dataset values are cheap shared handles; transformations return new
// datasets and never mutate their input. Exchanges route pointers to
// their input's records rather than copies of them, so an exchange's
// input lives at least until the stage consuming the exchange ends.
template <typename T>
class Dataset {
 public:
  using Partitions = std::vector<std::vector<T>>;

  Dataset() = default;

  Dataset(ExecutionContextPtr ctx, std::shared_ptr<Partitions> partitions)
      : ctx_(std::move(ctx)), partitions_(std::move(partitions)) {
    assert(partitions_->size() ==
           static_cast<size_t>(ctx_->num_workers()));
  }

  // Distributes `data` over the workers round-robin (the balanced layout
  // a parallel source produces; contiguous chunks would concentrate
  // whole label blocks of a generated file on single workers). Charges
  // one read stage.
  static Dataset FromVector(ExecutionContextPtr ctx, std::vector<T> data) {
    const int p = ctx->num_workers();
    auto parts = std::make_shared<Partitions>(p);
    const size_t n = data.size();
    for (int i = 0; i < p; ++i) (*parts)[i].reserve(n / p + 1);
    for (size_t i = 0; i < n; ++i) {
      (*parts)[i % p].push_back(std::move(data[i]));
    }
    Dataset ds(std::move(ctx), std::move(parts));
    ds.ChargeNarrowStage("Source", ds.CountLocal(), ds.CountLocal());
    return ds;
  }

  // Creates an empty dataset with the context's partition count.
  static Dataset Empty(ExecutionContextPtr ctx) {
    auto parts = std::make_shared<Partitions>(ctx->num_workers());
    return Dataset(std::move(ctx), std::move(parts));
  }

  const ExecutionContextPtr& context() const { return ctx_; }
  int num_partitions() const { return static_cast<int>(partitions_->size()); }
  const std::vector<T>& partition(int i) const { return (*partitions_)[i]; }
  bool valid() const { return ctx_ != nullptr; }

  // Total number of records. Charges one aggregation stage (counting is a
  // job in Flink, and the paper's reported runtimes include the count).
  uint64_t Count() const {
    const uint64_t n = CountLocal();
    ChargeNarrowStage("Count", n, 0);
    return n;
  }

  // Gathers all records to the driver (test/sink use only). The gather
  // moves every remote partition over the network.
  std::vector<T> Collect() const {
    std::vector<T> out;
    std::vector<uint64_t> out_bytes(num_partitions(), 0);
    for (int i = 0; i < num_partitions(); ++i) {
      // cancellation: driver-side gather of an already-materialized result;
      // every producing kernel upstream polled, and sinks run post-query.
      for (const T& rec : (*partitions_)[i]) {
        if (i != 0) out_bytes[i] += RecordBytes(rec);
        out.push_back(rec);
      }
    }
    std::vector<uint64_t> in_bytes(num_partitions(), 0);
    for (int i = 1; i < num_partitions(); ++i) in_bytes[0] += out_bytes[i];
    StageCost cost;
    cost.label = "Collect";
    cost.network_sec = ShuffleSeconds(out_bytes, in_bytes, ctx_->config());
    cost.latency_sec = ctx_->config().stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    uint64_t total = 0;
    for (uint64_t b : out_bytes) total += b;
    ctx_->tracker().AddNetworkBytes(total);
    return out;
  }

  // Element-wise transformation (narrow, no shuffle).
  template <typename F>
  auto Map(F fn, const char* label = "Map") const {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      dst.reserve(src.size());
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        dst.push_back(fn(rec));
      }
      in_counts[p] = src.size();
    });
    ChargePerPartition(label, in_counts, in_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // One-to-many transformation; `fn(record, &out)` may emit zero or more
  // records. This is the paper's FlatMap used to fuse
  // Select -> Project -> Transform into a single stage (§3.1).
  template <typename U, typename F>
  Dataset<U> FlatMap(F fn, const char* label = "FlatMap") const {
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        fn(rec, &dst);
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargePerPartition(label, in_counts, out_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // Partition-wise transformation (narrow): `fn(partition_index, records,
  // &out)` sees one whole partition. Used when outputs need
  // partition-deterministic identifiers.
  template <typename U, typename F>
  Dataset<U> MapPartition(F fn, const char* label = "MapPartition") const {
    auto out = std::make_shared<typename Dataset<U>::Partitions>(
        num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      fn(p, src, &(*out)[p]);
      in_counts[p] = src.size();
      out_counts[p] = (*out)[p].size();
    });
    ChargePerPartition(label, in_counts, out_counts);
    return Dataset<U>(ctx_, std::move(out));
  }

  // FlatMap whose outputs land in caller-owned per-partition state
  // instead of a new dataset: `fn(partition, record)` runs for every
  // record on its partition's task and returns how many records it
  // emitted. Priced exactly like the FlatMap it stands for.
  template <typename F>
  void FlatMapInto(F fn, const char* label) const {
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        out_counts[p] += fn(p, rec);
      }
      in_counts[p] = src.size();
    });
    ChargePerPartition(label, in_counts, out_counts);
  }

  // Prices a narrow stage that a kernel fused into its neighbours: the
  // model keeps charging it as the stage of its own it once was, with
  // the records it would have read and written per partition.
  void ChargeStage(const char* label, const std::vector<uint64_t>& in_counts,
                   const std::vector<uint64_t>& out_counts) const {
    ChargePerPartition(label, in_counts, out_counts);
  }

  // Keeps records satisfying `pred` (narrow).
  template <typename P>
  Dataset<T> Filter(P pred, const char* label = "Filter") const {
    auto out = std::make_shared<Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition(label, [&](int p) {
      const auto& src = (*partitions_)[p];
      auto& dst = (*out)[p];
      for (const T& rec : src) {
        if (cancel.CheckCancelled()) break;
        if (pred(rec)) dst.push_back(rec);
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargePerPartition(label, in_counts, out_counts);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Partition-wise concatenation (narrow; Flink's union is not a shuffle).
  Dataset<T> Union(const Dataset<T>& other) const {
    return Concat(ctx_, {*this, other});
  }

  // Partition-wise concatenation of `inputs`, in order. Union is free in
  // Flink (a pure stream merge), so no stage is charged. The records of
  // an input no other handle shares are moved, the others copied; a
  // single input is returned as is.
  static Dataset Concat(ExecutionContextPtr ctx, std::vector<Dataset> inputs) {
    if (inputs.size() == 1) return std::move(inputs.front());
    const int p = ctx->num_workers();
    auto out = std::make_shared<Partitions>(p);
    for (int part = 0; part < p; ++part) {
      auto& dst = (*out)[part];
      size_t n = 0;
      // cancellation: O(inputs) size walk, no per-record work.
      for (const Dataset& in : inputs) n += in.partition(part).size();
      dst.reserve(n);
      // cancellation: splices already-materialized partitions; the kernels
      // that produced them polled per record.
      for (Dataset& in : inputs) {
        auto& src = (*in.partitions_)[part];
        if (in.partitions_.use_count() == 1) {
          dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                     std::make_move_iterator(src.end()));
        } else {
          dst.insert(dst.end(), src.begin(), src.end());
        }
      }
    }
    return Dataset(std::move(ctx), std::move(out));
  }

  // Narrow stage over the partition-wise concatenation of `inputs` (what
  // Concat would build), read in place: fn(partition_index, pieces, &out)
  // sees partition p of every input, in order, as `pieces`. Priced like
  // MapPartition over that concatenation.
  template <typename U, typename F>
  static Dataset<U> MapPartitions(const ExecutionContextPtr& ctx,
                                  const std::vector<Dataset>& inputs, F fn,
                                  const char* label) {
    const int p = ctx->num_workers();
    auto out = std::make_shared<typename Dataset<U>::Partitions>(p);
    std::vector<uint64_t> in_counts(p, 0);
    std::vector<uint64_t> out_counts(p, 0);
    ctx->pool().RunAndWait(
        p,
        [&](int part) {
          std::vector<const std::vector<T>*> pieces;
          pieces.reserve(inputs.size());
          // cancellation: O(inputs) walk; `fn` polls per record.
          for (const Dataset& in : inputs) {
            pieces.push_back(&in.partition(part));
            in_counts[part] += in.partition(part).size();
          }
          fn(part, pieces, &(*out)[part]);
          out_counts[part] = (*out)[part].size();
        },
        label);
    Dataset<U> result(ctx, std::move(out));
    result.ChargePerPartition(label, in_counts, out_counts);
    return result;
  }

  // Hash-partitions records so that equal keys land on the same worker.
  // `key(rec)` must return an unsigned integral or hashable key. The one
  // exchange that copies records: its contract returns them as values.
  template <typename KeyFn>
  Dataset<T> RepartitionByKey(KeyFn key,
                              const char* label = "Repartition") const {
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    const double span_begin_us = SpanBegin();
    const std::hash<K> hasher;
    const size_t p = static_cast<size_t>(num_partitions());
    auto out = std::make_shared<Partitions>();
    const ExchangeTally tally =
        Route(out.get(), [&](const T& rec, int, auto deliver) {
          deliver(static_cast<int>(hasher(key(rec)) % p), rec);
        });
    ChargeExchange(tally, label, span_begin_us);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Removes records with duplicate keys (shuffle + per-partition dedup).
  template <typename KeyFn>
  Dataset<T> Distinct(KeyFn key, const char* label = "Distinct") const {
    auto routed = ShuffleByKey(key, label);
    const uint64_t staged_bytes = ChargeStaged();
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    auto out = std::make_shared<Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition("DistinctLocal", [&](int p) {
      auto& src = routed[p];
      auto& dst = (*out)[p];
      std::unordered_map<K, bool> seen;
      seen.reserve(src.size());
      for (RoutedRecord<T, K>& r : src) {
        if (cancel.CheckCancelled()) break;
        if (seen.emplace(std::move(r.key), true).second) {
          dst.push_back(*r.ref);
        }
      }
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargePerPartition("DistinctLocal", in_counts, out_counts);
    ctx_->accountant().Release(staged_bytes);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Groups by key and folds each group with `reducer(acc, rec)`; the
  // accumulator is initialized from `init(rec)` on the group's first
  // record. Returns (key, accumulator) pairs.
  template <typename KeyFn, typename Init, typename Reducer>
  auto ReduceByKey(KeyFn key, Init init, Reducer reducer,
                   const char* label = "ReduceByKey") const {
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    using A = std::decay_t<std::invoke_result_t<Init, const T&>>;
    using OutT = std::pair<K, A>;
    auto routed = ShuffleByKey(key, label);
    const uint64_t staged_bytes = ChargeStaged();
    auto out =
        std::make_shared<typename Dataset<OutT>::Partitions>(num_partitions());
    std::vector<uint64_t> in_counts(num_partitions(), 0);
    std::vector<uint64_t> out_counts(num_partitions(), 0);
    common::CancellationToken& cancel = ctx_->cancellation();
    RunPerPartition("ReduceLocal", [&](int p) {
      auto& src = routed[p];
      std::unordered_map<K, A> groups;
      for (RoutedRecord<T, K>& r : src) {
        if (cancel.CheckCancelled()) break;
        auto it = groups.find(r.key);
        if (it == groups.end()) {
          groups.emplace(std::move(r.key), init(*r.ref));
        } else {
          it->second = reducer(std::move(it->second), *r.ref);
        }
      }
      auto& dst = (*out)[p];
      dst.reserve(groups.size());
      for (auto& [k, acc] : groups) dst.emplace_back(k, std::move(acc));
      in_counts[p] = src.size();
      out_counts[p] = dst.size();
    });
    ChargePerPartition("ReduceLocal", in_counts, out_counts);
    ctx_->accountant().Release(staged_bytes);
    return Dataset<OutT>(ctx_, std::move(out));
  }

  // Equi-join with `right`; `joiner(l, r, &out)` may emit zero or more
  // records, which implements Flink's FlatJoin — the paper uses it so that
  // morphism-violating join results are dropped inside the join (§3.1).
  //
  // kRepartition hash-partitions both sides on the key; kBroadcast
  // replicates the right side to all workers (right should be small). The
  // right side is always the build side of the per-worker hash table.
  template <typename Out, typename U, typename KeyL, typename KeyR,
            typename Joiner>
  Dataset<Out> HashJoin(const Dataset<U>& right, KeyL key_left, KeyR key_right,
                        Joiner joiner,
                        JoinStrategy strategy = JoinStrategy::kRepartition,
                        const char* label = "Join",
                        JoinShuffleHints hints = {}) const {
    const auto build = right.PrepareBuild(key_right, strategy, label,
                                          hints.right_prepartitioned);
    return ProbeJoin<Out>(build, key_left, joiner, label,
                          hints.left_prepartitioned);
  }

  // Exchanges this dataset as the build side of a join (hash-partitioned
  // on `key`, or replicated to every worker under kBroadcast) and hashes
  // every partition once, so that several probes can share it — Flink
  // caches such a loop-invariant input of a bulk iteration instead of
  // re-shuffling it every superstep. Charges nothing: each ProbeJoin
  // charges the exchange and the build as if it had run them itself.
  // `prepartitioned` adopts the layout in place (a shuffle the
  // partitioning analysis elided; audited like HashJoin's hints). The
  // tables point into this dataset's records, which the build side keeps
  // alive.
  template <typename KeyFn>
  auto PrepareBuild(KeyFn key, JoinStrategy strategy, const char* label,
                    bool prepartitioned = false) const {
    using K = std::decay_t<std::invoke_result_t<KeyFn, const T&>>;
    using Build = JoinBuildSide<T, K>;
    const double span_begin_us = SpanBegin();
    const int p = num_partitions();
    Build build;
    build.input_ = partitions_;
    build.state_bytes_.assign(p, 0);
    build.state_records_.assign(p, 0);
    const std::string build_label = std::string(label) + "/Build";
    std::vector<std::vector<RoutedRecord<T, K>>> staged;
    if (strategy == JoinStrategy::kBroadcast) {
      // Every worker receives the whole build side, so one table in
      // source-partition order serves them all.
      build.exchange_ = BroadcastTally();
      staged.resize(p);
      RunPerPartition(build_label.c_str(),
                      [&](int part) { staged[part] = LocalRefs(key, part); });
      std::vector<RoutedRecord<T, K>> all;
      all.reserve(build.exchange_.records);
      // cancellation: moves entries staged while polling per record.
      for (auto& part : staged) {
        all.insert(all.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      build.tables_.emplace_back(std::move(all));
      const uint64_t bytes = TotalBytes(*partitions_);
      build.state_bytes_.assign(p, bytes);
      build.state_records_.assign(p, build.exchange_.records);
    } else {
      if (prepartitioned) {
        AuditPrepartitioned(key, *partitions_, label);
        build.prepartitioned_ = true;
        staged.resize(p);
      } else {
        build.exchange_ = RouteByKey(key, &staged);
      }
      build.tables_.resize(p);
      RunPerPartition(build_label.c_str(), [&](int part) {
        if (prepartitioned) staged[part] = LocalRefs(key, part);
        uint64_t bytes = 0;
        // cancellation: byte walk over entries routed while polling.
        for (const auto& r : staged[part]) bytes += RecordBytes(*r.ref);
        build.state_bytes_[part] = bytes;
        build.state_records_[part] = staged[part].size();
        build.tables_[part] = typename Build::Table(std::move(staged[part]));
      });
    }
    for (const uint64_t b : build.state_bytes_) build.bytes_ += b;
    // Every routed record enters the exchange. Route sizes local ones
    // only when traced, so the total is taken from the build instead: a
    // build prepared untraced then replays the same bytes traced.
    if (!build.exchange_.broadcast && !prepartitioned) {
      build.exchange_.exchanged = build.bytes_;
    }
    if (ctx_->telemetry().enabled()) {
      telemetry::Telemetry& tel = ctx_->telemetry();
      tel.tracer().AddSpan(std::string(label) + "/PrepareBuild",
                           telemetry::kCategoryStage, span_begin_us,
                           tel.tracer().NowMicros(), /*worker=*/-1,
                           {{"bytes", static_cast<double>(build.bytes_)}});
    }
    return build;
  }

  // Joins this dataset (the probe side) against a prepared build side and
  // prices exactly like one HashJoin: the probe side's exchange (none
  // under a broadcast build; adopted in place when `left_prepartitioned`),
  // then the build side's exchange replayed, then one build/probe stage
  // whose staged inputs and table entries charge the accountant. The
  // joiner sees the probe records where they are in this dataset, so
  // outputs that keep pointers to them must keep this dataset alive.
  template <typename Out, typename U, typename K, typename KeyL,
            typename Joiner>
  Dataset<Out> ProbeJoin(const JoinBuildSide<U, K>& build, KeyL key_left,
                         Joiner joiner, const char* label = "Join",
                         bool left_prepartitioned = false) const {
    static_assert(
        std::is_same_v<K, std::decay_t<std::invoke_result_t<KeyL, const T&>>>,
        "join key types must match");
    const int p = num_partitions();
    assert(p == static_cast<int>(build.state_records_.size()));
    // Repartitioned, the probe side arrives as routed entries carrying
    // their key and hash; in place (adopted, or against a broadcast build
    // side), each record is keyed where it sits.
    const bool routed = !build.exchange_.broadcast && !left_prepartitioned;
    std::vector<std::vector<RoutedRecord<T, K>>> left;
    if (routed) {
      left = ShuffleByKey(key_left, label);
    } else if (!build.exchange_.broadcast) {
      AuditPrepartitioned(key_left, *partitions_, label);
      NoteElidedShuffle(*partitions_, label);
    }
    if (build.prepartitioned_) {
      NoteElidedShuffle(*build.input_, label);
    } else {
      ChargeExchange(build.exchange_, label, SpanBegin());
    }

    // Memory accounting (driver thread; see memory_accountant.h): the
    // staged join-side inputs exist from here until this call returns.
    // Charges model the stage's state in the same currency as the static
    // analysis — serialized record bytes plus a fixed per-table-entry
    // overhead — rather than tracing host allocations. An exchange
    // routes the same records, so its input's bytes are its output's.
    MemoryAccountant& accountant = ctx_->accountant();
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      staged_bytes = TotalBytes(*partitions_) + build.bytes_;
      accountant.Charge(staged_bytes);
    }

    auto out = std::make_shared<typename Dataset<Out>::Partitions>(p);
    std::vector<uint64_t> work(p, 0);
    std::vector<uint64_t> out_counts(p, 0);
    const std::string build_probe_label = std::string(label) + "/BuildProbe";
    common::CancellationToken& cancel = ctx_->cancellation();
    const std::hash<K> hasher;
    RunPerPartition(build_probe_label.c_str(), [&](int part) {
      const auto& table = build.TableOf(part);
      auto& dst = (*out)[part];
      const auto probe = [&](const T& lrec, const K& k, size_t hash) {
        table.ForEachMatch(k, hash,
                           [&](const U* r) { joiner(lrec, *r, &dst); });
      };
      uint64_t probed = 0;
      if (routed) {
        for (const RoutedRecord<T, K>& l : left[part]) {
          if (cancel.CheckCancelled()) break;
          probe(*l.ref, l.key, l.hash);
        }
        probed = left[part].size();
      } else {
        const auto& lsrc = (*partitions_)[part];
        for (const T& lrec : lsrc) {
          if (cancel.CheckCancelled()) break;
          const K k = key_left(lrec);
          probe(lrec, k, hasher(k));
        }
        probed = lsrc.size();
      }
      work[part] = probed + build.state_records_[part];
      out_counts[part] = dst.size();
    });
    ChargeBuildProbe(build_probe_label, work, out_counts, build.state_bytes_,
                     build.state_records_, staged_bytes);
    return Dataset<Out>(ctx_, std::move(out));
  }

  // Key-directed exchange where the caller splits each record into
  // per-target fragments: `splitter(record, source_partition, &frags)`
  // appends (target, fragment) pairs. The columnar batch engine scatters
  // through this — the fragments are sub-batches holding only the
  // selected rows routed to each worker, so a filtered batch never
  // serializes its dead rows into the exchange. Unlike a keyed shuffle it
  // delivers the fragments themselves, which are new. Priced like one:
  // every fragment enters the exchange, only fragments landing on a
  // different worker are billed as network traffic.
  template <typename Splitter>
  Dataset<T> ScatterShuffle(Splitter splitter,
                            const char* label = "Scatter") const {
    const double span_begin_us = SpanBegin();
    auto out = std::make_shared<Partitions>();
    std::vector<std::pair<int, T>> frags;
    const ExchangeTally tally =
        Route(out.get(), [&](const T& rec, int source, auto deliver) {
          frags.clear();
          splitter(rec, source, &frags);
          for (auto& [target, frag] : frags) deliver(target, std::move(frag));
        });
    ChargeExchange(tally, label, span_begin_us);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Every worker receives every record — the standalone counterpart of
  // HashJoin's kBroadcast build side, with identical pricing. The batch
  // join kernels broadcast whole column batches through this.
  Dataset<T> Replicate(const char* label = "Replicate") const {
    const double span_begin_us = SpanBegin();
    std::vector<T> all;
    // cancellation: O(partitions) splice; batches copy by reference count.
    for (const auto& part : *partitions_) {
      all.insert(all.end(), part.begin(), part.end());
    }
    auto out = std::make_shared<Partitions>(num_partitions(), all);
    ChargeExchange(BroadcastTally(), label, span_begin_us);
    return Dataset<T>(ctx_, std::move(out));
  }

  // Narrow binary per-partition transform over co-partitioned datasets —
  // the build+probe phase of a join whose exchange already ran.
  // `fn(partition, left_records, right_records, &out, &stats)` reports
  // the transient state it built (hash-table bytes and entries) through
  // `stats`, so the stage is priced exactly like HashJoin's BuildProbe:
  // both staged inputs charge the accountant for the stage's duration,
  // the spill model sees the per-partition state, and the table entries
  // charge kHashTableEntryBytes each before everything releases.
  template <typename Out, typename U, typename F>
  Dataset<Out> ZipPartitions(const Dataset<U>& right, F fn,
                             const char* label = "Zip") const {
    const int p = num_partitions();
    assert(p == right.num_partitions());
    auto out = std::make_shared<typename Dataset<Out>::Partitions>(p);
    MemoryAccountant& accountant = ctx_->accountant();
    uint64_t staged_bytes = 0;
    if (accountant.enabled()) {
      staged_bytes = TotalBytes(*partitions_) + TotalBytes(*right.partitions_);
      accountant.Charge(staged_bytes);
    }
    std::vector<uint64_t> work(p, 0);
    std::vector<uint64_t> out_counts(p, 0);
    std::vector<uint64_t> state_bytes(p, 0);
    std::vector<uint64_t> state_records(p, 0);
    const std::string stage_label = std::string(label) + "/BuildProbe";
    RunPerPartition(stage_label.c_str(), [&](int part) {
      ZipPartitionStats st;
      fn(part, (*partitions_)[part], right.partition(part), &(*out)[part],
         &st);
      work[part] = (*partitions_)[part].size() + right.partition(part).size();
      out_counts[part] = (*out)[part].size();
      state_bytes[part] = st.state_bytes;
      state_records[part] = st.state_records;
    });
    ChargeBuildProbe(stage_label, work, out_counts, state_bytes, state_records,
                     staged_bytes);
    return Dataset<Out>(ctx_, std::move(out));
  }

 private:
  template <typename>
  friend class Dataset;

  uint64_t CountLocal() const {
    uint64_t n = 0;
    // cancellation: O(partitions) size walk, no per-record work.
    for (const auto& part : *partitions_) n += part.size();
    return n;
  }

  // Charges the serialized bytes of this dataset's records, staged by an
  // exchange, to the memory accountant and returns them so the caller can
  // Release on completion. Returns 0 (and reads nothing) when accounting
  // is off.
  uint64_t ChargeStaged() const {
    MemoryAccountant& accountant = ctx_->accountant();
    if (!accountant.enabled()) return 0;
    const uint64_t bytes = TotalBytes(*partitions_);
    accountant.Charge(bytes);
    return bytes;
  }

  // Serialized bytes of every record in `parts`.
  template <typename Rec>
  static uint64_t TotalBytes(const std::vector<std::vector<Rec>>& parts) {
    uint64_t bytes = 0;
    for (const auto& part : parts) {
      // cancellation: cost-model/accounting byte walk over staged records;
      // the kernel consuming them polls once per record.
      for (const Rec& rec : part) bytes += RecordBytes(rec);
    }
    return bytes;
  }

  // Tracer timestamp opening a driver-side stage span (0 when untraced).
  double SpanBegin() const {
    return ctx_->telemetry().enabled()
               ? ctx_->telemetry().tracer().NowMicros()
               : 0.0;
  }

  // Runs fn(p) for each partition index on the host pool. The label only
  // feeds the telemetry task hook; with telemetry disabled no hook is
  // installed and the label is never read.
  void RunPerPartition(const char* label,
                       const std::function<void(int)>& fn) const {
    ctx_->pool().RunAndWait(num_partitions(), fn, label);
  }

  // Charges a narrow stage where every worker processed `per worker` share
  // of `in_records` uniformly (used when per-partition counts are equal or
  // unknown).
  void ChargeNarrowStage(const char* label, uint64_t in_records,
                         uint64_t out_records) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label = label;
    const double per_worker =
        static_cast<double>(in_records + out_records) / ctx_->num_workers();
    cost.compute_sec = per_worker * cfg.seconds_per_record;
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddRecords(in_records);
    if (ctx_->telemetry().enabled()) {
      auto& metrics = ctx_->telemetry().metrics();
      metrics.AddCounter("stage.count", 1);
      metrics.AddCounter("stage.records_in", in_records);
    }
  }

  // Charges a narrow stage with known per-partition record counts
  // (simulated time = slowest worker, capturing skew).
  void ChargePerPartition(const char* label,
                          const std::vector<uint64_t>& in_counts,
                          const std::vector<uint64_t>& out_counts) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label = label;
    double worst = 0.0;
    uint64_t total = 0;
    for (size_t i = 0; i < in_counts.size(); ++i) {
      const uint64_t n = in_counts[i] + out_counts[i];
      worst = std::max(worst, static_cast<double>(n) * cfg.seconds_per_record);
      total += in_counts[i];
    }
    cost.compute_sec = worst;
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddRecords(total);
    if (ctx_->telemetry().enabled()) {
      auto& metrics = ctx_->telemetry().metrics();
      metrics.AddCounter("stage.count", 1);
      metrics.AddCounter("stage.records_in", total);
      // Per-partition input sizes: the skew distribution behind ragged
      // same-stage task spans.
      for (const uint64_t n : in_counts) {
        metrics.Observe("stage.partition_records",
                        static_cast<double>(n));
      }
    }
  }

  // Prices one per-worker build/probe stage: compute is the slowest
  // worker's input plus output records, the build state feeds the spill
  // model, and the accountant — already holding `staged_bytes` of staged
  // inputs — is charged one kHashTableEntryBytes per build row before
  // everything releases (charging after the stage still registers the
  // momentary high in the peak).
  void ChargeBuildProbe(const std::string& label,
                        const std::vector<uint64_t>& work,
                        const std::vector<uint64_t>& out_counts,
                        const std::vector<uint64_t>& state_bytes,
                        const std::vector<uint64_t>& state_records,
                        uint64_t staged_bytes) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label = label;
    uint64_t total_in = 0, total_out = 0;
    double worst = 0.0;
    for (size_t i = 0; i < work.size(); ++i) {
      worst = std::max(worst, static_cast<double>(work[i] + out_counts[i]) *
                                  cfg.seconds_per_record);
      total_in += work[i];
      total_out += out_counts[i];
    }
    cost.compute_sec = worst;
    uint64_t spilled = 0;
    cost.spill_sec = SpillSeconds(state_bytes, state_records, cfg, &spilled);
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddRecords(total_in + total_out);
    ctx_->tracker().AddSpilledBytes(spilled);
    MemoryAccountant& accountant = ctx_->accountant();
    if (accountant.enabled()) {
      uint64_t table_entries = 0;
      for (const uint64_t n : state_records) table_entries += n;
      const uint64_t table_bytes = table_entries * kHashTableEntryBytes;
      accountant.Charge(table_bytes);
      accountant.Release(staged_bytes + table_bytes);
    }
    if (ctx_->telemetry().enabled()) {
      auto& metrics = ctx_->telemetry().metrics();
      metrics.AddCounter("stage.count", 1);
      metrics.AddCounter("stage.records_in", total_in);
      if (spilled > 0) metrics.AddCounter("spill.bytes", spilled);
      for (const uint64_t n : work) {
        metrics.Observe("stage.partition_records", static_cast<double>(n));
      }
    }
  }

  // The bytes a fragment puts on the wire: its own serialized size, or
  // for a record routed by reference the size of the record it points to.
  template <typename Frag>
  static size_t WireBytes(const Frag& frag) {
    return RecordBytes(frag);
  }
  template <typename K, typename Rec>
  static size_t WireBytes(const BuildEntry<K, const Rec*>& routed) {
    return RecordBytes(*routed.ref);
  }

  // Delivers every record of this dataset to `dst` through `route(record,
  // source, deliver)`, which calls deliver(target, fragment) once per
  // fragment it sends. Charges nothing; the returned tally is what ChargeExchange
  // prices. Only the cost model distinguishes local from remote delivery:
  // the shuffle.bytes counter (Flink's numBytesOut) covers every fragment
  // entering the exchange, local channels included — the volume an
  // elided shuffle avoids serializing — so untraced local fragments skip
  // the size computation entirely.
  template <typename Frag, typename RouteFn>
  ExchangeTally Route(std::vector<std::vector<Frag>>* dst,
                      RouteFn route) const {
    const Partitions& src = *partitions_;
    const int p = num_partitions();
    const bool traced = ctx_->telemetry().enabled();
    dst->assign(p, {});
    ExchangeTally tally(p);
    common::CancellationToken& cancel = ctx_->cancellation();
    for (int i = 0; i < p; ++i) {
      tally.in_counts[i] = src[i].size();
      tally.records += src[i].size();
      for (const T& rec : src[i]) {
        if (cancel.CheckCancelled()) break;
        route(rec, i, [&](int target, auto&& frag) {
          assert(target >= 0 && target < p);
          tally.Add(i, target,
                    (traced || target != i) ? WireBytes(frag) : 0);
          (*dst)[target].push_back(std::forward<decltype(frag)>(frag));
        });
      }
    }
    return tally;
  }

  // Routes every record of this dataset by reference to hash(key(record))
  // % p (see Route): dst[t] receives, in source order, the routed entry of
  // every record placed on worker t.
  template <typename KeyFn, typename K = std::decay_t<
                                std::invoke_result_t<KeyFn, const T&>>>
  ExchangeTally RouteByKey(
      KeyFn key, std::vector<std::vector<RoutedRecord<T, K>>>* dst) const {
    const std::hash<K> hasher;
    const size_t p = static_cast<size_t>(num_partitions());
    return Route(dst, [&](const T& rec, int, auto deliver) {
      K k = key(rec);
      const size_t hash = hasher(k);
      deliver(static_cast<int>(hash % p),
              RoutedRecord<T, K>{hash, std::move(k), &rec});
    });
  }

  // Hash-shuffles this dataset by key (RouteByKey) and charges the
  // exchange; returns the routed entries per target worker.
  template <typename KeyFn, typename K = std::decay_t<
                                std::invoke_result_t<KeyFn, const T&>>>
  std::vector<std::vector<RoutedRecord<T, K>>> ShuffleByKey(
      KeyFn key, const char* label) const {
    const double span_begin_us = SpanBegin();
    std::vector<std::vector<RoutedRecord<T, K>>> routed;
    ChargeExchange(RouteByKey(key, &routed), label, span_begin_us);
    return routed;
  }

  // The entry of every record of partition `part` where it sits: the
  // build input of a broadcast or an adopted layout, which no exchange
  // routes. Runs inside a partition task.
  template <typename KeyFn, typename K = std::decay_t<
                                std::invoke_result_t<KeyFn, const T&>>>
  std::vector<RoutedRecord<T, K>> LocalRefs(KeyFn key, int part) const {
    const auto& src = (*partitions_)[part];
    std::vector<RoutedRecord<T, K>> out;
    out.reserve(src.size());
    common::CancellationToken& cancel = ctx_->cancellation();
    const std::hash<K> hasher;
    for (const T& rec : src) {
      if (cancel.CheckCancelled()) break;
      K k = key(rec);
      const size_t hash = hasher(k);
      out.push_back({hash, std::move(k), &rec});
    }
    return out;
  }

  // Prices sending every record to every worker. Worker w sends its
  // partition to the (p-1) others and receives everyone else's; the
  // exchange is pure network time (no per-record compute is charged) and
  // every byte entering it is remote.
  ExchangeTally BroadcastTally() const {
    const Partitions& src = *partitions_;
    const int p = num_partitions();
    ExchangeTally tally(p);
    tally.broadcast = true;
    std::vector<uint64_t> own(p, 0);
    uint64_t total_bytes = 0;
    for (int i = 0; i < p; ++i) {
      tally.records += src[i].size();
      // cancellation: cost-model byte walk; the consuming kernel polls.
      for (const T& rec : src[i]) own[i] += RecordBytes(rec);
      tally.out_bytes[i] = own[i] * (p - 1);
      total_bytes += own[i];
    }
    for (int i = 0; i < p; ++i) {
      tally.in_bytes[i] = total_bytes - own[i];
      tally.moved += tally.out_bytes[i];
    }
    tally.exchanged = tally.moved;
    return tally;
  }

  // Charges one exchange's stage (compute = slowest source worker's
  // records, network = ShuffleSeconds over the remote bytes), its network
  // bytes and input records, and — traced — its stage span and the
  // shuffle.* counters.
  void ChargeExchange(const ExchangeTally& tally, const char* label,
                      double span_begin_us) const {
    const auto& cfg = ctx_->config();
    StageCost cost;
    cost.label =
        std::string(label) + (tally.broadcast ? "/Broadcast" : "/Shuffle");
    double worst = 0.0;
    for (const uint64_t n : tally.in_counts) {
      worst = std::max(worst, static_cast<double>(n) * cfg.seconds_per_record);
    }
    cost.compute_sec = worst;
    cost.network_sec = ShuffleSeconds(tally.out_bytes, tally.in_bytes, cfg);
    cost.latency_sec = cfg.stage_latency_sec;
    ctx_->tracker().AddStage(cost);
    ctx_->tracker().AddNetworkBytes(tally.moved);
    ctx_->tracker().AddRecords(tally.records);
    if (ctx_->telemetry().enabled()) {
      telemetry::Telemetry& tel = ctx_->telemetry();
      tel.tracer().AddSpan(
          cost.label, telemetry::kCategoryStage, span_begin_us,
          tel.tracer().NowMicros(), /*worker=*/-1,
          {{"bytes", static_cast<double>(tally.exchanged)},
           {"remote_bytes", static_cast<double>(tally.moved)},
           {"records", static_cast<double>(tally.records)}});
      tel.metrics().AddCounter("shuffle.count", 1);
      tel.metrics().AddCounter("shuffle.bytes", tally.exchanged);
      tel.metrics().AddCounter("shuffle.bytes.remote", tally.moved);
    }
  }

  // Checks the partitioning analysis's claim that every record of `src`
  // already sits at hash(key) % p. Only with GRADOOP_AUDIT_PARTITIONING
  // set: every record is re-hashed and the process hard-fails on the
  // first one the proof misplaced.
  template <typename KeyFn, typename Rec>
  void AuditPrepartitioned(KeyFn key,
                           const std::vector<std::vector<Rec>>& src,
                           const char* label) const {
    if (!PartitioningAuditEnabled()) return;
    uint64_t checked = 0;
    const uint64_t misplaced = CountMisplacedRecords(src, key, &checked);
    PartitioningAuditStats::Instance().RecordCheck(checked, misplaced);
    if (misplaced != 0) {
      std::fprintf(stderr,
                   "[gradoop] partitioning audit FAILED at %s: %llu of "
                   "%llu records of an elided shuffle sit in the wrong "
                   "partition — the partitioning analysis is unsound\n",
                   label, static_cast<unsigned long long>(misplaced),
                   static_cast<unsigned long long>(checked));
      std::abort();
    }
  }

  // Records an exchange the partitioning analysis elided: `src` is
  // adopted as the join-side layout, so no stage is charged and no
  // network bytes accrue; traced, the counters record what was saved.
  template <typename Rec>
  void NoteElidedShuffle(const std::vector<std::vector<Rec>>& src,
                         const char* label) const {
    if (!ctx_->telemetry().enabled()) return;
    uint64_t records = 0;
    // cancellation: O(partitions) size walk, no per-record work.
    for (const auto& part : src) records += part.size();
    const uint64_t bytes = TotalBytes(src);
    telemetry::Telemetry& tel = ctx_->telemetry();
    tel.metrics().AddCounter("shuffle.elided.count", 1);
    tel.metrics().AddCounter("shuffle.elided.bytes", bytes);
    const double now_us = tel.tracer().NowMicros();
    tel.tracer().AddSpan(std::string(label) + "/ShuffleElided",
                         telemetry::kCategoryStage, now_us, now_us,
                         /*worker=*/-1,
                         {{"bytes_saved", static_cast<double>(bytes)},
                          {"records", static_cast<double>(records)}});
  }

  ExecutionContextPtr ctx_;
  std::shared_ptr<Partitions> partitions_;
};

}  // namespace gradoop::dataflow

#endif  // GRADOOP_DATAFLOW_DATASET_H_
