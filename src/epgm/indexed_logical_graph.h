#ifndef GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_
#define GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "epgm/logical_graph.h"

namespace gradoop::epgm {

// An edge set as a join build side keyed on one endpoint id: the
// loop-invariant input that variable-length Expand probes every hop.
using EdgeBuildSide = dataflow::JoinBuildSide<Edge, uint64_t>;

// Exchanges `edges` on their source id (target id when `by_target`) and
// hashes them as a repartition join's build side (Dataset::PrepareBuild).
EdgeBuildSide PrepareEdgeBuild(const dataflow::Dataset<Edge>& edges,
                               bool by_target, const char* label);

// Alternative graph layout that partitions vertices and edges by type label
// and manages one dataset per label (§3.4). When a query element carries a
// label predicate, the planner loads only that label's dataset instead of
// filtering (and re-reading) the full element datasets.
class IndexedLogicalGraph {
 public:
  IndexedLogicalGraph() = default;

  // Splits the element datasets of `graph` label-wise, preserving each
  // record's partition (a narrow, local re-bucketing — no shuffle).
  static IndexedLogicalGraph Build(const LogicalGraph& graph);

  const GraphHead& head() const { return head_; }
  const dataflow::ExecutionContextPtr& context() const { return ctx_; }

  // Dataset holding exactly the vertices/edges with `label`; an empty
  // dataset when the label does not occur.
  dataflow::Dataset<Vertex> VerticesByLabel(const std::string& label) const;
  dataflow::Dataset<Edge> EdgesByLabel(const std::string& label) const;

  // The datasets of `labels` in order (every label's when empty): what a
  // scan of a label alternation or an unlabeled element reads in place
  // (§3.4). Never empty, so the result always has a context.
  std::vector<dataflow::Dataset<Vertex>> VerticesByLabels(
      const std::vector<std::string>& labels) const;
  std::vector<dataflow::Dataset<Edge>> EdgesByLabels(
      const std::vector<std::string>& types) const;

  // Union over all labels (used for unlabeled query elements).
  dataflow::Dataset<Vertex> AllVertices() const;
  dataflow::Dataset<Edge> AllEdges() const;

  std::vector<std::string> VertexLabels() const;
  std::vector<std::string> EdgeLabels() const;

  // The edges of `types` (EdgesByLabels, concatenated) as Expand's build
  // side keyed on `by_target`,
  // prepared under `label` by the first call for that (types, by_target)
  // and kept for the graph's lifetime — Flink likewise caches the
  // loop-invariant input of a bulk iteration. Nothing is charged here:
  // each probe of the build side charges its exchange and build again.
  // A build that the context's cancellation token interrupted is
  // returned but not kept. Called on the driver thread.
  std::shared_ptr<const EdgeBuildSide> EdgeBuild(
      const std::vector<std::string>& types, bool by_target,
      const char* label) const;

 private:
  struct EdgeBuildCache {
    common::Mutex mu{common::LockRank::kEngine, "epgm.edge_builds"};
    std::map<std::pair<std::vector<std::string>, bool>,
             std::shared_ptr<const EdgeBuildSide>>
        builds GUARDED_BY(mu);
  };

  GraphHead head_;
  dataflow::ExecutionContextPtr ctx_;
  std::map<std::string, dataflow::Dataset<Vertex>> vertices_by_label_;
  std::map<std::string, dataflow::Dataset<Edge>> edges_by_label_;
  // Shared by copies of this graph, which share its datasets too.
  std::shared_ptr<EdgeBuildCache> edge_builds_ =
      std::make_shared<EdgeBuildCache>();
};

}  // namespace gradoop::epgm

#endif  // GRADOOP_EPGM_INDEXED_LOGICAL_GRAPH_H_
