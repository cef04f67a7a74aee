// Benchmark driver for perfbench/run.py. Two steps, each its own process
// so the load-and-query process never holds the generator's memory:
//
//   gradoop_perfbench generate --sf 1 --seed 42 --out DIR
//       Generates the LDBC-shaped graph, writes it as Gradoop CSV to DIR
//       and DIR/params.json: generation wall time and, per firstName, the
//       NameStats run.py picks query parameters by.
//
//   gradoop_perfbench run --graph DIR --engine row|batch
//       --queries Q1:Quentin,Q2:Quentin --seconds 10 --min-queries 12
//       --setup-reps 3
//       [--trace --spans FILE] --out FILE
//       Loads DIR the way a user does (ReadCsvLogicalGraph, then the
//       CypherEngine constructor) setup-reps times, runs each query once
//       untimed, then a closed loop (one client, one query at a time)
//       cycling through the queries for at least --seconds and
//       --min-queries, whole cycles only. Set-up and every query are timed
//       in wall and in process CPU time. Writes raw samples as JSON to
//       --out; run.py turns them into metrics and checks the counts. With
//       --seconds 0 --min-queries 0 only the untimed pass runs, which is
//       how run.py gets reference counts from the other engine.
//
// With --trace a second loop of the same length follows the timed one
// (whose rate trace.overhead compares against): engine telemetry on, the
// query pipeline driven module by module with a span around each public
// call.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/plan_verifier.h"
#include "cypher/parser.h"
#include "cypher/query_graph.h"
#include "dataflow/execution_context.h"
#include "epgm/csv_io.h"
#include "epgm/indexed_logical_graph.h"
#include "ldbc/ldbc_generator.h"
#include "ldbc/queries.h"
#include "query/batch_operators.h"
#include "query/cypher_engine.h"
#include "query/exec/plan_compiler.h"
#include "query/graph_statistics.h"
#include "query/planner.h"
#include "telemetry/query_profile.h"
#include "telemetry/tracer.h"

namespace {

using namespace gradoop;  // NOLINT: one-file driver
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU time of all threads of the process so far.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "gradoop_perfbench: " << message << "\n";
  std::exit(1);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// --key value pairs plus bare --flags.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Fail("unexpected argument " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Fail("missing --" + key);
    return it->second;
  }
  double Number(const std::string& key) const {
    return std::stod(Get(key));
  }

 private:
  std::map<std::string, std::string> values_;
};

// Process peak resident set (VmHWM), in bytes.
double PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0;
    }
  }
  return 0.0;
}

dataflow::ClusterConfig BenchCluster() {
  dataflow::ClusterConfig cluster;
  cluster.num_workers = 4;
  const unsigned nproc = std::thread::hardware_concurrency();
  cluster.host_threads = static_cast<int>(std::min(4u, std::max(1u, nproc)));
  return cluster;
}

// ---------------------------------------------------------------- generate

// Per Person firstName: how many persons carry it, how many messages
// those persons created (the size of Q1's answer for that name), how many
// comments their friends created (the comments Q3 expands from), and the
// rows Q3's replyOf* Expand starts from: per person, friends' comments
// times own posts (the comments that may reply to one of the posts).
struct NameStats {
  uint64_t persons = 0;
  uint64_t messages = 0;
  uint64_t friend_comments = 0;
  uint64_t q3_rows = 0;
};

std::map<std::string, NameStats> FirstNameStats(
    const ldbc::LdbcElements& elements) {
  std::map<epgm::GradoopId, std::string> person_name;
  std::map<epgm::GradoopId, bool> is_comment;
  for (const epgm::Vertex& v : elements.vertices) {
    if (v.label == "Person") {
      person_name[v.id] = v.properties.Get("firstName").string_value();
    } else if (v.label == "Comment") {
      is_comment[v.id] = true;
    }
  }
  std::map<std::string, NameStats> stats;
  std::map<epgm::GradoopId, uint64_t> comments_by;
  std::map<epgm::GradoopId, uint64_t> posts_by;
  std::map<epgm::GradoopId, uint64_t> friend_comments_of;
  for (const auto& [id, name] : person_name) stats[name].persons++;
  for (const epgm::Edge& e : elements.edges) {
    if (e.label != "hasCreator") continue;
    auto it = person_name.find(e.target_id);
    if (it == person_name.end()) continue;
    stats[it->second].messages++;
    if (is_comment.count(e.source_id)) {
      comments_by[e.target_id]++;
    } else {
      posts_by[e.target_id]++;
    }
  }
  for (const epgm::Edge& e : elements.edges) {
    if (e.label != "knows") continue;
    auto it = person_name.find(e.source_id);
    auto friend_comments = comments_by.find(e.target_id);
    if (it != person_name.end() && friend_comments != comments_by.end()) {
      stats[it->second].friend_comments += friend_comments->second;
      friend_comments_of[e.source_id] += friend_comments->second;
    }
  }
  for (const auto& [id, comments] : friend_comments_of) {
    auto posts = posts_by.find(id);
    if (posts != posts_by.end()) {
      stats[person_name[id]].q3_rows += comments * posts->second;
    }
  }
  return stats;
}

int Generate(const Args& args) {
  ldbc::LdbcConfig config;
  config.scale_factor = args.Number("sf");
  config.seed = static_cast<uint64_t>(std::stoull(args.Get("seed")));
  const std::string out = args.Get("out");

  const auto start = Clock::now();
  ldbc::LdbcGenerator generator(config);
  ldbc::LdbcElements elements = generator.GenerateElements();
  const double generate_s = SecondsSince(start);

  const std::map<std::string, NameStats> name_stats = FirstNameStats(elements);
  const size_t num_vertices = elements.vertices.size();
  const size_t num_edges = elements.edges.size();
  epgm::GraphHead head(0, "SocialNetwork");
  head.properties.Set("scaleFactor", config.scale_factor);
  epgm::LogicalGraph graph = epgm::LogicalGraph::FromVectors(
      dataflow::MakeContext(BenchCluster()), std::move(head),
      std::move(elements.vertices), std::move(elements.edges));
  Status written = epgm::WriteCsv(graph, out);
  if (!written.ok()) Fail("writing " + out + ": " + written.ToString());

  std::ofstream params(out + "/params.json");
  params << "{\"generate_s\": " << JsonNumber(generate_s)
         << ", \"vertices\": " << num_vertices << ", \"edges\": " << num_edges
         << ", \"first_names\": [";
  bool first = true;
  for (const auto& [name, stats] : name_stats) {
    params << (first ? "" : ", ") << "{\"name\": " << JsonString(name)
           << ", \"persons\": " << stats.persons
           << ", \"messages\": " << stats.messages
           << ", \"friend_comments\": " << stats.friend_comments
           << ", \"q3_rows\": " << stats.q3_rows << "}";
    first = false;
  }
  params << "]}\n";
  if (!params) Fail("writing params.json");
  return 0;
}

// --------------------------------------------------------------------- run

struct QuerySpec {
  std::string label;  // "Q1".."Q6"
  std::string text;
};

// "Q1:Quentin,Q4,...": LDBC query templates, with the firstName
// parameter after the colon for Q1-Q3.
std::vector<QuerySpec> ParseQueries(const std::string& list) {
  std::vector<QuerySpec> specs;
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t colon = item.find(':');
    const std::string label = item.substr(0, colon);
    const std::string name =
        colon == std::string::npos ? "" : item.substr(colon + 1);
    std::string text;
    if (label == "Q1") text = ldbc::Query1(name);
    if (label == "Q2") text = ldbc::Query2(name);
    if (label == "Q3") text = ldbc::Query3(name);
    if (label == "Q4") text = ldbc::Query4();
    if (label == "Q5") text = ldbc::Query5();
    if (label == "Q6") text = ldbc::Query6();
    if (text.empty()) Fail("unknown query " + item);
    specs.push_back({label, text});
  }
  if (specs.empty()) Fail("no queries");
  return specs;
}

// One benchmark-side span: a layer boundary around a call into the
// engine's public API. Kept in memory, written out at exit.
struct Span {
  std::string name;
  double begin_us;
  double end_us;
  int parent;    // index into the span list, -1 for a root
  int64_t query; // query id shared by one query's spans, -1 for set-up
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int Begin(const std::string& name, int parent, int64_t query) {
    spans_.push_back({name, NowUs(), 0.0, parent, query});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_us = NowUs(); }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
          << ", \"begin_us\": " << JsonNumber(s.begin_us)
          << ", \"end_us\": " << JsonNumber(s.end_us)
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query
          << "}\n";
    }
    if (!out) Fail("writing " + path);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Runs `fn` inside a span named `name` under `parent`; returns its result.
template <typename Fn>
auto Traced(SpanLog& log, const std::string& name, int parent, int64_t query,
            Fn&& fn) {
  const int id = log.Begin(name, parent, query);
  auto result = fn(id);
  log.End(id);
  return result;
}

struct Setup {
  std::unique_ptr<query::CypherEngine> engine;
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  // Peak RSS after the first set-up, before any engine was released: the
  // later repetitions' peaks depend on how much freed memory the
  // allocator kept.
  double peak_rss_bytes = 0.0;
};

// Loads the graph and builds the engine `reps` times (the previous engine
// is released first, so the peak holds one copy), keeping the last one.
// Traced set-up also times the engine constructor's two parts, the label
// index and the statistics, by calling each once more on the loaded
// graph.
Setup LoadEngine(const std::string& dir, query::PlannerOptions options,
                 int reps, SpanLog* log) {
  Setup setup;
  for (int rep = 0; rep < reps; ++rep) {
    setup.engine.reset();
    auto ctx = dataflow::MakeContext(BenchCluster());
    const auto start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const int root = log ? log->Begin("setup", -1, -1) : -1;
    const int load = log ? log->Begin("epgm.csv_load", root, -1) : -1;
    Result<epgm::LogicalGraph> graph = epgm::ReadCsvLogicalGraph(ctx, dir);
    if (log) log->End(load);
    if (!graph.ok()) Fail("loading " + dir + ": " + graph.status().ToString());
    const int construct =
        log ? log->Begin("query.engine_construct", root, -1) : -1;
    setup.engine = std::make_unique<query::CypherEngine>(
        std::move(graph).value(), options);
    if (log) log->End(construct);
    if (log) log->End(root);
    setup.setup_s.push_back(SecondsSince(start));
    setup.setup_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    if (rep == 0) setup.peak_rss_bytes = PeakRssBytes();
    if (log) {
      const epgm::LogicalGraph& g = setup.engine->graph();
      Traced(*log, "epgm.index_build", -1, -1, [&](int) {
        return epgm::IndexedLogicalGraph::Build(g);
      });
      Traced(*log, "query.stats_compute", -1, -1, [&](int) {
        return query::GraphStatistics::Compute(g);
      });
    }
  }
  return setup;
}

// Sum of self times per physical operator kind and of output rows over
// the executed tree, and the plan's worst cardinality Q-error.
struct OperatorTotals {
  std::map<std::string, double> self_s;  // scan / expand / join / filter
  uint64_t rows = 0;
  double max_qerror = 1.0;
};

const char* KindGroup(query::exec::PhysOpKind kind) {
  using query::exec::PhysOpKind;
  switch (kind) {
    case PhysOpKind::kVertexScan:
    case PhysOpKind::kEdgeScan:
      return "scan";
    case PhysOpKind::kJoin:
    case PhysOpKind::kValueJoin:
      return "join";
    case PhysOpKind::kExpand:
      return "expand";
    case PhysOpKind::kFilter:
      return "filter";
  }
  return "other";
}

void SumOperators(const query::exec::PhysicalOperator& op,
                  OperatorTotals& totals) {
  const query::exec::OperatorStats& stats = op.stats();
  totals.self_s[KindGroup(op.op_kind())] += stats.self_wall_sec;
  totals.rows += stats.actual_rows;
  totals.max_qerror = std::max(
      totals.max_qerror,
      telemetry::QError(op.estimated_cardinality(),
                        static_cast<double>(stats.actual_rows)));
  for (const auto& child : op.children()) SumOperators(*child, totals);
}

// Everything the traced loop records for one query beyond its spans.
struct TracedQuery {
  size_t tmpl;
  double wall_s;
  int64_t count;
  OperatorTotals ops;
  std::map<std::string, uint64_t> counters;
  double worker_busy_s = 0.0;
  double imbalance = 0.0;
  double sim_s = 0.0;
  uint64_t records = 0;
  uint64_t peak_bytes = 0;
};

template <typename T>
T ValueOrFail(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void OkOrFail(const Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

// One query through the engine's modules, mirroring CypherEngine::Execute
// (parse, analyze, plan, compile, execute) with a span around each public
// call. The LDBC queries use neither DISTINCT nor LIMIT, so the engine's
// result post-processing has nothing to do and is not mirrored.
TracedQuery RunTraced(query::CypherEngine& engine, const QuerySpec& spec,
                      size_t tmpl, int64_t query_id, SpanLog& log) {
  dataflow::ExecutionContext& ctx = *engine.graph().context();
  const query::PlannerOptions& options = engine.planner_options();
  const query::MorphismSetting semantics = query::MorphismSetting::Neo4j();
  ctx.tracker().Reset();
  ctx.telemetry().metrics().Reset();
  ctx.telemetry().tracer().Clear();

  TracedQuery traced;
  traced.tmpl = tmpl;
  const auto start = Clock::now();
  const int root = log.Begin("query." + spec.label, -1, query_id);
  cypher::CypherQuery ast = Traced(log, "cypher.parse", root, query_id,
                                   [&](int) {
    return ValueOrFail(cypher::ParseCypher(spec.text), "parse");
  });
  cypher::QueryGraph qg = Traced(log, "analysis.analyze", root, query_id,
                                 [&](int) {
    analysis::AnalyzerOptions analyzer;
    analyzer.statistics = &engine.statistics();
    analyzer.semantics = semantics;
    const analysis::AnalysisResult sema = analysis::AnalyzeQuery(ast, analyzer);
    if (sema.HasErrors()) Fail("analyze: " + sema.ErrorSummary());
    ast.where = sema.folded_where;
    return ValueOrFail(cypher::QueryGraph::Build(ast), "query graph");
  });
  if (qg.return_distinct() || qg.limit() >= 0) {
    Fail(spec.label + " uses DISTINCT/LIMIT, which the traced run omits");
  }
  query::PlanNodePtr plan = Traced(log, "query.plan", root, query_id,
                                   [&](int) {
    query::PlanNodePtr p = ValueOrFail(
        query::PlanQuery(qg, engine.statistics(), options), "plan");
    OkOrFail(analysis::VerifyPlan(qg, p), "verify plan");
    return p;
  });
  const int workers = ctx.num_workers();
  query::exec::PhysicalOperatorPtr physical =
      Traced(log, "exec.compile", root, query_id, [&](int) {
        query::exec::CompileOptions compile;
        compile.fuse_filters = options.fuse_filters;
        compile.prune_properties = options.prune_properties;
        compile.share_scans = options.share_scan_results;
        compile.elide_shuffles = options.elide_shuffles;
        compile.num_workers = workers;
        compile.statistics = &engine.statistics();
        compile.batch_size = options.batch_size;
        query::exec::PlanCompiler compiler(qg, semantics, compile);
        query::exec::PhysicalOperatorPtr op =
            ValueOrFail(compiler.Compile(plan), "compile");
        OkOrFail(analysis::VerifyCompiledPlan(qg, *op, workers,
                                              options.batch_size),
                 "verify compiled plan");
        return op;
      });
  dataflow::MemoryAccountant& accountant = ctx.accountant();
  traced.count = Traced(log, "exec.execute", root, query_id, [&](int exec) {
    query::ScanCache scan_cache;
    query::BatchScanCache batch_scan_cache;
    const bool share = options.share_scan_results;
    query::exec::ExecEnv env{&engine.indexed_graph(),
                             share ? &scan_cache : nullptr,
                             share ? &batch_scan_cache : nullptr};
    accountant.Reset();
    if (engine.account_memory()) accountant.Enable();
    Traced(log, "exec.open", exec, query_id, [&](int) {
      OkOrFail(physical->Open(env), "open");
      return 0;
    });
    query::EmbeddingSet rows;
    if (options.engine == query::PlannerOptions::ExecutionEngine::kBatch) {
      query::BatchSet batches = Traced(log, "exec.run", exec, query_id,
                                       [&](int) {
        return ValueOrFail(physical->ExecuteBatch(env), "execute");
      });
      rows = Traced(log, "query.batches_to_rows", exec, query_id, [&](int) {
        return query::BatchesToRows(batches);
      });
    } else {
      rows = Traced(log, "exec.run", exec, query_id, [&](int) {
        return ValueOrFail(physical->Execute(env), "execute");
      });
    }
    accountant.Disable();
    return Traced(log, "dataflow.count", exec, query_id, [&](int) {
      return static_cast<int64_t>(rows.data.Count());
    });
  });
  log.End(root);
  traced.wall_s = SecondsSince(start);

  SumOperators(*physical, traced.ops);
  traced.counters = ctx.telemetry().metrics().Snapshot().counters;
  const std::vector<telemetry::SpanRecord> engine_spans =
      ctx.telemetry().tracer().CollectSpans();
  const std::vector<telemetry::WorkerBusy> busy =
      telemetry::ComputeWorkerBusy(engine_spans, workers);
  for (const telemetry::WorkerBusy& w : busy) traced.worker_busy_s += w.busy_sec;
  traced.imbalance = telemetry::WorkerImbalance(busy);
  traced.sim_s = ctx.tracker().SimulatedSeconds();
  traced.records = ctx.tracker().TotalRecords();
  traced.peak_bytes = accountant.peak_bytes();
  return traced;
}

struct Sample {
  size_t tmpl;
  double wall_s;
  double cpu_s;
  int64_t count;  // -1 when the call failed
};

// Closed loop: one client, the next query starts when the previous one
// returned. Runs whole cycles over the templates until `seconds` have
// passed and at least `min_queries` queries ran.
template <typename RunOne>
double ClosedLoop(size_t num_templates, double seconds, size_t min_queries,
                  RunOne&& run_one) {
  const auto start = Clock::now();
  size_t done = 0;
  while (SecondsSince(start) < seconds || done < min_queries) {
    for (size_t t = 0; t < num_templates; ++t) run_one(t);
    done += num_templates;
  }
  return SecondsSince(start);
}

int64_t CountOnce(query::CypherEngine& engine, const std::string& text) {
  Result<uint64_t> count = engine.Count(text);
  if (!count.ok()) {
    std::cerr << "query failed: " << count.status().ToString() << "\n";
    return -1;
  }
  return static_cast<int64_t>(count.value());
}

std::string SamplesJson(const std::vector<Sample>& samples) {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    out += (i ? ", [" : "[") + std::to_string(samples[i].tmpl) + ", " +
           JsonNumber(samples[i].wall_s) + ", " +
           JsonNumber(samples[i].cpu_s) + ", " +
           std::to_string(samples[i].count) + "]";
  }
  return out + "]";
}

int Run(const Args& args) {
  const std::string dir = args.Get("graph");
  const std::vector<QuerySpec> specs = ParseQueries(args.Get("queries"));
  const double seconds = args.Number("seconds");
  const auto min_queries = static_cast<size_t>(args.Number("min-queries"));
  const int reps = static_cast<int>(args.Number("setup-reps"));
  const bool trace = args.Has("trace");
  query::PlannerOptions options;
  const std::string engine_name = args.Get("engine");
  if (engine_name == "batch") {
    options.engine = query::PlannerOptions::ExecutionEngine::kBatch;
  } else if (engine_name != "row") {
    Fail("--engine must be row or batch");
  }

  SpanLog log;
  Setup setup = LoadEngine(dir, options, reps, trace ? &log : nullptr);
  query::CypherEngine& engine = *setup.engine;

  // Untimed pass: warms caches and lazy state, and gives the counts the
  // timed and traced loops are checked against.
  std::vector<int64_t> untimed;
  for (const QuerySpec& spec : specs) {
    untimed.push_back(CountOnce(engine, spec.text));
  }

  std::vector<Sample> samples;
  const double loop_s = ClosedLoop(specs.size(), seconds, min_queries, [&](size_t t) {
    const auto start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const int64_t count = CountOnce(engine, specs[t].text);
    samples.push_back(
        {t, SecondsSince(start), ProcessCpuSeconds() - cpu_start, count});
  });

  std::ofstream out(args.Get("out"));
  out << "{\"queries\": [";
  for (size_t t = 0; t < specs.size(); ++t) {
    out << (t ? ", " : "") << JsonString(specs[t].label);
  }
  out << "], \"setup_s\": [";
  for (size_t i = 0; i < setup.setup_s.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(setup.setup_s[i]);
  }
  auto counts_json = [](const std::vector<int64_t>& counts) {
    std::string s = "[";
    for (size_t i = 0; i < counts.size(); ++i) {
      s += (i ? ", " : "") + std::to_string(counts[i]);
    }
    return s + "]";
  };
  out << "], \"setup_cpu_s\": [";
  for (size_t i = 0; i < setup.setup_cpu_s.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(setup.setup_cpu_s[i]);
  }
  out << "], \"untimed\": " << counts_json(untimed);
  out << ", \"loop_s\": " << JsonNumber(loop_s)
      << ", \"samples\": " << SamplesJson(samples);

  if (trace) {
    dataflow::ExecutionContext& ctx = *engine.graph().context();
    ctx.EnableTelemetry();
    std::vector<TracedQuery> traced;
    int64_t next_query = 0;
    const double traced_loop_s =
        ClosedLoop(specs.size(), seconds, min_queries, [&](size_t t) {
          traced.push_back(RunTraced(engine, specs[t], t, next_query++, log));
        });
    ctx.DisableTelemetry();
    out << ", \"traced_loop_s\": " << JsonNumber(traced_loop_s)
        << ", \"host_threads\": " << BenchCluster().host_threads
        << ", \"batch_size\": " << options.batch_size << ", \"traced\": [";
    for (size_t i = 0; i < traced.size(); ++i) {
      const TracedQuery& q = traced[i];
      out << (i ? ", " : "") << "{\"tmpl\": " << q.tmpl
          << ", \"wall_s\": " << JsonNumber(q.wall_s)
          << ", \"count\": " << q.count << ", \"op_self_s\": {";
      bool first = true;
      for (const auto& [group, s] : q.ops.self_s) {
        out << (first ? "" : ", ") << JsonString(group) << ": "
            << JsonNumber(s);
        first = false;
      }
      out << "}, \"rows\": " << q.ops.rows << ", \"max_qerror\": "
          << JsonNumber(q.ops.max_qerror) << ", \"counters\": {";
      first = true;
      for (const auto& [name, value] : q.counters) {
        out << (first ? "" : ", ") << JsonString(name) << ": " << value;
        first = false;
      }
      out << "}, \"worker_busy_s\": " << JsonNumber(q.worker_busy_s)
          << ", \"imbalance\": " << JsonNumber(q.imbalance)
          << ", \"sim_s\": " << JsonNumber(q.sim_s)
          << ", \"records\": " << q.records
          << ", \"peak_bytes\": " << q.peak_bytes << "}";
    }
    out << "]";
    log.Write(args.Get("spans"));
  }
  out << ", \"setup_peak_rss_bytes\": " << JsonNumber(setup.peak_rss_bytes)
      << ", \"peak_rss_bytes\": " << JsonNumber(PeakRssBytes()) << "}\n";
  if (!out) Fail("writing " + args.Get("out"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: gradoop_perfbench generate|run --key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "generate") return Generate(args);
  if (command == "run") return Run(args);
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
