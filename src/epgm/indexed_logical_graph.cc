#include "epgm/indexed_logical_graph.h"

#include <memory>

namespace gradoop::epgm {

namespace {

// Splits one element dataset into per-label datasets without moving records
// across partitions.
template <typename T>
std::map<std::string, dataflow::Dataset<T>> SplitByLabel(
    const dataflow::Dataset<T>& input) {
  using Partitions = typename dataflow::Dataset<T>::Partitions;
  const int p = input.num_partitions();
  std::map<std::string, std::shared_ptr<Partitions>> buckets;
  for (int i = 0; i < p; ++i) {
    for (const T& rec : input.partition(i)) {
      auto it = buckets.find(rec.label);
      if (it == buckets.end()) {
        it = buckets.emplace(rec.label, std::make_shared<Partitions>(p)).first;
      }
      (*it->second)[i].push_back(rec);
    }
  }
  std::map<std::string, dataflow::Dataset<T>> out;
  for (auto& [label, parts] : buckets) {
    out.emplace(label, dataflow::Dataset<T>(input.context(), parts));
  }
  return out;
}

// The datasets of `labels` (every label's when empty) out of `by_label`,
// or one empty dataset when there are none.
template <typename T>
std::vector<dataflow::Dataset<T>> DatasetsOf(
    const std::map<std::string, dataflow::Dataset<T>>& by_label,
    const std::vector<std::string>& labels,
    const dataflow::ExecutionContextPtr& ctx) {
  std::vector<dataflow::Dataset<T>> out;
  if (labels.empty()) {
    for (const auto& [label, ds] : by_label) out.push_back(ds);
  }
  for (const std::string& label : labels) {
    auto it = by_label.find(label);
    out.push_back(it == by_label.end() ? dataflow::Dataset<T>::Empty(ctx)
                                       : it->second);
  }
  if (out.empty()) out.push_back(dataflow::Dataset<T>::Empty(ctx));
  return out;
}

}  // namespace

EdgeBuildSide PrepareEdgeBuild(const dataflow::Dataset<Edge>& edges,
                               bool by_target, const char* label) {
  return edges.PrepareBuild(
      [by_target](const Edge& e) {
        return by_target ? e.target_id : e.source_id;
      },
      dataflow::JoinStrategy::kRepartition, label);
}

IndexedLogicalGraph IndexedLogicalGraph::Build(const LogicalGraph& graph) {
  IndexedLogicalGraph out;
  out.head_ = graph.head();
  out.ctx_ = graph.context();
  out.vertices_by_label_ = SplitByLabel(graph.vertices());
  out.edges_by_label_ = SplitByLabel(graph.edges());

  // One narrow pass over all elements (load-time re-bucketing).
  dataflow::StageCost cost;
  cost.label = "BuildIndex";
  uint64_t records = 0;
  for (int i = 0; i < graph.vertices().num_partitions(); ++i) {
    records += graph.vertices().partition(i).size();
    records += graph.edges().partition(i).size();
  }
  const auto& cfg = out.ctx_->config();
  cost.compute_sec = static_cast<double>(records) / cfg.num_workers *
                     cfg.seconds_per_record;
  cost.latency_sec = cfg.stage_latency_sec;
  out.ctx_->tracker().AddStage(cost);
  return out;
}

dataflow::Dataset<Vertex> IndexedLogicalGraph::VerticesByLabel(
    const std::string& label) const {
  auto it = vertices_by_label_.find(label);
  if (it == vertices_by_label_.end()) {
    return dataflow::Dataset<Vertex>::Empty(ctx_);
  }
  return it->second;
}

dataflow::Dataset<Edge> IndexedLogicalGraph::EdgesByLabel(
    const std::string& label) const {
  auto it = edges_by_label_.find(label);
  if (it == edges_by_label_.end()) {
    return dataflow::Dataset<Edge>::Empty(ctx_);
  }
  return it->second;
}

std::vector<dataflow::Dataset<Vertex>> IndexedLogicalGraph::VerticesByLabels(
    const std::vector<std::string>& labels) const {
  return DatasetsOf(vertices_by_label_, labels, ctx_);
}

std::vector<dataflow::Dataset<Edge>> IndexedLogicalGraph::EdgesByLabels(
    const std::vector<std::string>& types) const {
  return DatasetsOf(edges_by_label_, types, ctx_);
}

dataflow::Dataset<Vertex> IndexedLogicalGraph::AllVertices() const {
  dataflow::Dataset<Vertex> out = dataflow::Dataset<Vertex>::Empty(ctx_);
  for (const auto& [label, ds] : vertices_by_label_) out = out.Union(ds);
  return out;
}

dataflow::Dataset<Edge> IndexedLogicalGraph::AllEdges() const {
  dataflow::Dataset<Edge> out = dataflow::Dataset<Edge>::Empty(ctx_);
  for (const auto& [label, ds] : edges_by_label_) out = out.Union(ds);
  return out;
}

std::shared_ptr<const EdgeBuildSide> IndexedLogicalGraph::EdgeBuild(
    const std::vector<std::string>& types, bool by_target,
    const char* label) const {
  auto key = std::make_pair(types, by_target);
  {
    common::MutexLock lock(edge_builds_->mu);
    auto it = edge_builds_->builds.find(key);
    if (it != edge_builds_->builds.end()) return it->second;
  }
  // Built outside the lock: the build runs pool tasks. Two threads that
  // miss together both build, and the first to store it wins.
  auto build = std::make_shared<const EdgeBuildSide>(PrepareEdgeBuild(
      dataflow::Dataset<Edge>::Concat(ctx_, EdgesByLabels(types)), by_target,
      label));
  if (ctx_->cancellation().cancelled()) return build;
  common::MutexLock lock(edge_builds_->mu);
  return edge_builds_->builds.emplace(std::move(key), std::move(build))
      .first->second;
}

std::vector<std::string> IndexedLogicalGraph::VertexLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, ds] : vertices_by_label_) out.push_back(label);
  return out;
}

std::vector<std::string> IndexedLogicalGraph::EdgeLabels() const {
  std::vector<std::string> out;
  for (const auto& [label, ds] : edges_by_label_) out.push_back(label);
  return out;
}

}  // namespace gradoop::epgm
