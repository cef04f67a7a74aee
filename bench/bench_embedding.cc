// Ablation for the §3.3 embedding data structure: the paper's compact
// byte-array layout versus a naive object representation (vectors of
// typed fields). Measures append, merge, id access and wire size — the
// operations that dominate shuffle-heavy query execution.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "epgm/property_value.h"
#include "query/embedding.h"

namespace {

using gradoop::epgm::PropertyValue;
using gradoop::query::Embedding;

// Straw-man representation: one heap allocation per path and property,
// pointer-chasing on access, field-wise serialization.
struct NaiveEmbedding {
  std::vector<std::pair<bool, uint64_t>> ids;  // (is_path, id-or-index)
  std::vector<std::vector<uint64_t>> paths;
  std::vector<PropertyValue> props;

  void AppendId(uint64_t id) { ids.emplace_back(false, id); }
  void AppendPath(std::vector<uint64_t> via) {
    ids.emplace_back(true, paths.size());
    paths.push_back(std::move(via));
  }
  void AppendProperty(PropertyValue v) { props.push_back(std::move(v)); }
  uint64_t IdAt(int c) const { return ids[c].second; }

  static NaiveEmbedding Merge(const NaiveEmbedding& l,
                              const NaiveEmbedding& r) {
    NaiveEmbedding out = l;
    for (const auto& [is_path, payload] : r.ids) {
      if (is_path) {
        out.ids.emplace_back(true, out.paths.size() + payload);
      } else {
        out.ids.emplace_back(false, payload);
      }
    }
    out.paths.insert(out.paths.end(), r.paths.begin(), r.paths.end());
    out.props.insert(out.props.end(), r.props.begin(), r.props.end());
    return out;
  }

  size_t SerializedSize() const {
    size_t total = 3 * sizeof(uint32_t) + ids.size() * 9;
    for (const auto& p : paths) total += 4 + 8 * p.size();
    for (const auto& v : props) total += 4 + v.SerializedSize();
    return total;
  }
};

template <typename E>
E MakeSample(int columns) {
  E e;
  for (int i = 0; i < columns; ++i) e.AppendId(1000 + i);
  e.AppendPath({5, 20, 7, 30, 9});
  // Named locals instead of temporaries: inlining the PropertyValue
  // temporaries into push_back trips GCC 12's -Wmaybe-uninitialized on the
  // std::variant member (a known false positive).
  PropertyValue name("Alice");
  PropertyValue year(int64_t{2014});
  e.AppendProperty(std::move(name));
  e.AppendProperty(std::move(year));
  return e;
}

void BM_ByteArrayAppend(benchmark::State& state) {
  for (auto _ : state) {
    Embedding e;
    for (int i = 0; i < state.range(0); ++i) e.AppendId(i);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_ByteArrayAppend)->Arg(4)->Arg(16);

void BM_NaiveAppend(benchmark::State& state) {
  for (auto _ : state) {
    NaiveEmbedding e;
    for (int i = 0; i < state.range(0); ++i) e.AppendId(i);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_NaiveAppend)->Arg(4)->Arg(16);

void BM_ByteArrayMerge(benchmark::State& state) {
  const Embedding left = MakeSample<Embedding>(state.range(0));
  const Embedding right = MakeSample<Embedding>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Embedding::Merge(left, right));
  }
}
BENCHMARK(BM_ByteArrayMerge)->Arg(4)->Arg(16);

void BM_NaiveMerge(benchmark::State& state) {
  const NaiveEmbedding left = MakeSample<NaiveEmbedding>(state.range(0));
  const NaiveEmbedding right = MakeSample<NaiveEmbedding>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveEmbedding::Merge(left, right));
  }
}
BENCHMARK(BM_NaiveMerge)->Arg(4)->Arg(16);

void BM_ByteArrayIdAccess(benchmark::State& state) {
  const Embedding e = MakeSample<Embedding>(16);
  uint64_t sum = 0;
  for (auto _ : state) {
    // The clobber makes every iteration reload the ids; otherwise the
    // compiler hoists the loop-invariant sum out of the timed loop.
    benchmark::ClobberMemory();
    for (int c = 0; c < 16; ++c) sum += e.IdAt(c);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ByteArrayIdAccess);

void BM_NaiveIdAccess(benchmark::State& state) {
  const NaiveEmbedding e = MakeSample<NaiveEmbedding>(16);
  uint64_t sum = 0;
  for (auto _ : state) {
    // The clobber makes every iteration reload the ids; otherwise the
    // compiler hoists the loop-invariant sum out of the timed loop.
    benchmark::ClobberMemory();
    for (int c = 0; c < 16; ++c) sum += e.IdAt(c);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_NaiveIdAccess);

void BM_ByteArraySerializedSize(benchmark::State& state) {
  const Embedding e = MakeSample<Embedding>(8);
  for (auto _ : state) benchmark::DoNotOptimize(e.SerializedSize());
}
BENCHMARK(BM_ByteArraySerializedSize);

void BM_NaiveSerializedSize(benchmark::State& state) {
  const NaiveEmbedding e = MakeSample<NaiveEmbedding>(8);
  for (auto _ : state) benchmark::DoNotOptimize(e.SerializedSize());
}
BENCHMARK(BM_NaiveSerializedSize);

}  // namespace

// Console output plus a machine-readable BENCH_embedding.json, matching
// the harness benchmarks' JSON reports. An explicit --benchmark_out on
// the command line wins over the default file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_embedding.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
