#ifndef GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_
#define GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cypher/query_graph.h"
#include "dataflow/dataset.h"
#include "epgm/indexed_logical_graph.h"
#include "query/batch_operators.h"
#include "query/embedding_meta_data.h"
#include "query/exec/memory_bound.h"
#include "query/exec/partitioning.h"
#include "query/match_semantics.h"
#include "query/operators.h"

namespace gradoop::query {

// Cache of edge-scan results within one query execution, keyed by the
// scan's data signature (types, direction, predicates, projection) —
// variable names are excluded since the embedding rows do not depend on
// them. Implements the paper's recurring-subquery reuse
// (PlannerOptions::share_scan_results).
using ScanCache = std::map<std::string, dataflow::Dataset<Embedding>>;

// The batch engine's counterpart, caching columnar edge-scan results
// under the same signatures (the two caches never mix representations).
using BatchScanCache = std::map<std::string, dataflow::Dataset<EmbeddingBatch>>;

namespace exec {

// Runtime statistics one compiled operator records per execution — the
// actual counterpart of the planner's estimates (Fig. 6 reports both).
struct OperatorStats {
  bool executed = false;
  uint64_t actual_rows = 0;     // output cardinality
  // Number of column batches produced — batch-engine execution only;
  // zero under the row engine, which is how the renderer tells the two
  // apart.
  uint64_t batches = 0;
  // Output rows per input row (1.0 on leaves), recorded by BOTH engines
  // so plan-quality telemetry is engine-agnostic.
  double selectivity = 0.0;
  // Wall time of this operator's own kernel (Run + stats collection),
  // excluding the children's Execute calls...
  double self_wall_sec = 0.0;
  // ...versus the cumulative time of the whole subtree rooted here. The
  // two are reported side by side so a parent is never misread as slow
  // when the time was really spent below it.
  double total_wall_sec = 0.0;
  uint64_t network_bytes = 0;   // shuffle bytes charged while it ran
  uint64_t spilled_bytes = 0;   // spill bytes charged while it ran
  uint64_t output_bytes = 0;    // serialized size of the output embeddings
  uint64_t property_bytes = 0;  // property payload share of output_bytes
  // Measured resident peak of this operator's subtree (accountant frame
  // delta; dataflow/memory_accountant.h). 0 when accounting was off. The
  // runtime counterpart of MemoryBound::peak_bytes.
  uint64_t actual_peak_bytes = 0;
};

// Everything an operator needs at run time. Column layouts are NOT here:
// they were resolved at compile time and live inside each operator.
struct ExecEnv {
  const epgm::IndexedLogicalGraph* graph = nullptr;
  ScanCache* scan_cache = nullptr;  // non-null enables edge-scan sharing
  // Batch-engine scan sharing; only consulted by ExecuteBatch.
  BatchScanCache* batch_scan_cache = nullptr;
};

enum class PhysOpKind {
  kVertexScan,
  kEdgeScan,
  kJoin,
  kValueJoin,
  kExpand,
  kFilter,
};

class PhysicalOperator;
using PhysicalOperatorPtr = std::shared_ptr<PhysicalOperator>;

// One compiled operator of a physical plan. Produced by PlanCompiler,
// which resolves the output EmbeddingMetaData, key columns and property
// slots once; Run() only executes the corresponding kernel. Execute()
// additionally drives the children and records OperatorStats, so
// estimated-vs-actual cardinalities can be rendered per operator
// (CypherEngine::ExplainAnalyze).
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual PhysOpKind op_kind() const = 0;
  // Stable operator name matching analysis::PlanKindName.
  virtual const char* name() const = 0;
  // One-line description without cardinalities ("JoinEmbeddings(on a,
  // repartition)").
  virtual std::string Describe() const = 0;

  // Prepares the tree for one execution: validates the environment and
  // clears previous statistics, recursively.
  Status Open(const ExecEnv& env);

  // Executes children, then this operator's kernel, recording statistics.
  Result<EmbeddingSet> Execute(const ExecEnv& env);

  // Columnar execution of the same compiled plan: children and kernel run
  // batch-at-a-time (RunBatch) through the same driver as Execute, so
  // frames, charges and counter deltas — and with them memory audits and
  // admission — are identical. Additionally records batches.
  Result<BatchSet> ExecuteBatch(const ExecEnv& env);

  const EmbeddingMetaData& output_meta() const { return output_meta_; }
  double estimated_cardinality() const { return estimated_cardinality_; }
  const MorphismSetting& semantics() const { return semantics_; }
  const std::vector<cypher::CnfClause>& fused_clauses() const {
    return fused_clauses_;
  }
  const std::vector<PhysicalOperatorPtr>& children() const {
    return children_;
  }
  const OperatorStats& stats() const { return stats_; }

  // Partitioning-property claim of the output layout, stamped bottom-up
  // by PlanCompiler from DerivePartitioning and independently re-derived
  // by VerifyCompiledPlan. Absent only on operators built outside the
  // compiler (hand-assembled test trees).
  bool has_output_partitioning() const { return has_output_partitioning_; }
  const PartitioningProperty& output_partitioning() const {
    return output_partitioning_;
  }
  void set_output_partitioning(PartitioningProperty p) {
    output_partitioning_ = std::move(p);
    has_output_partitioning_ = true;
  }

  // Memory-footprint claim of the subtree rooted here, stamped bottom-up
  // by PlanCompiler from DeriveMemoryBound and independently re-derived
  // by VerifyCompiledPlan (which, unlike for partitioning, REJECTS a
  // missing claim on compiled plans — admission control depends on it).
  bool has_memory_bound() const { return has_memory_bound_; }
  const MemoryBound& memory_bound() const { return memory_bound_; }
  void set_memory_bound(MemoryBound b) {
    memory_bound_ = b;
    has_memory_bound_ = true;
  }

  // Shuffle elision: which sides of a repartition join skip their
  // shuffle. PlanCompiler grants it from GrantShuffleElision, which only
  // ever grants joins, and VerifyCompiledPlan rejects any side it refuses.
  bool elide_left_shuffle() const { return elision_.left; }
  bool elide_right_shuffle() const { return elision_.right; }
  void set_shuffle_elision(bool left, bool right) { elision_ = {left, right}; }

  // Rows per column batch the vectorized kernels build to, stamped by
  // PlanCompiler from CompileOptions::batch_size (VerifyCompiledPlan
  // checks it against the batch size the plan will execute with).
  int batch_size() const { return batch_size_; }
  void set_batch_size(int rows) { batch_size_ = rows; }

  struct RenderOptions {
    bool actuals = false;  // append rows=<actual cardinality>
    bool timing = false;   // append wall/net/spill (non-deterministic)
    // Append batch=<n> (EXPLAIN under --engine=batch; row-engine output
    // stays byte-stable without it).
    bool batch_size = false;
  };
  // Indented operator-tree rendering (EXPLAIN / EXPLAIN ANALYZE output).
  std::string ToString(const RenderOptions& options, int indent = 0) const;
  std::string ToString() const { return ToString(RenderOptions()); }

 protected:
  PhysicalOperator(EmbeddingMetaData output_meta, double estimated_cardinality,
                   MorphismSetting semantics,
                   std::vector<cypher::CnfClause> fused_clauses,
                   std::vector<PhysicalOperatorPtr> children)
      : output_meta_(std::move(output_meta)),
        estimated_cardinality_(estimated_cardinality),
        semantics_(semantics),
        fused_clauses_(std::move(fused_clauses)),
        children_(std::move(children)) {}

  // Kernel invocation; `inputs` holds the children's outputs in order.
  virtual Result<EmbeddingSet> Run(const ExecEnv& env,
                                   std::vector<EmbeddingSet> inputs) = 0;

  // Columnar kernel invocation (the vectorized twin of Run).
  virtual Result<BatchSet> RunBatch(const ExecEnv& env,
                                    std::vector<BatchSet> inputs) = 0;

  // The one driver behind Execute (Set = EmbeddingSet) and ExecuteBatch
  // (Set = BatchSet): boundary cancellation checks, accountant frames,
  // stats and the operator span, around Run or RunBatch.
  template <typename Set>
  Result<Set> ExecuteAs(const ExecEnv& env);

  // Batch capacity the vectorized kernels build to.
  int RuntimeBatchSize() const {
    return batch_size_ > 0 ? batch_size_ : kDefaultBatchSize;
  }

  EmbeddingMetaData output_meta_;
  double estimated_cardinality_ = 0.0;
  MorphismSetting semantics_;
  std::vector<cypher::CnfClause> fused_clauses_;
  std::vector<PhysicalOperatorPtr> children_;
  OperatorStats stats_;
  PartitioningProperty output_partitioning_;
  bool has_output_partitioning_ = false;
  MemoryBound memory_bound_;
  bool has_memory_bound_ = false;
  ShuffleElision elision_;
  int batch_size_ = kDefaultBatchSize;
};

// --- one class per plan kind -----------------------------------------

class VertexScanOp final : public PhysicalOperator {
 public:
  VertexScanOp(EmbeddingMetaData meta, double estimate,
               MorphismSetting semantics,
               std::vector<cypher::CnfClause> fused,
               cypher::QueryVertex query_vertex,
               std::vector<cypher::CnfClause> predicates)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {}),
        query_vertex_(std::move(query_vertex)),
        predicates_(std::move(predicates)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kVertexScan; }
  const char* name() const override { return "ScanVertices"; }
  std::string Describe() const override;

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryVertex query_vertex_;
  std::vector<cypher::CnfClause> predicates_;
};

class EdgeScanOp final : public PhysicalOperator {
 public:
  EdgeScanOp(EmbeddingMetaData meta, double estimate,
             MorphismSetting semantics, std::vector<cypher::CnfClause> fused,
             cypher::QueryEdge query_edge,
             std::vector<cypher::CnfClause> predicates, bool self_loop,
             std::string signature)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {}),
        query_edge_(std::move(query_edge)),
        predicates_(std::move(predicates)),
        self_loop_(self_loop),
        signature_(std::move(signature)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kEdgeScan; }
  const char* name() const override { return "ScanEdges"; }
  std::string Describe() const override;

  bool self_loop() const { return self_loop_; }
  // Data signature for the scan cache; empty when sharing is disabled.
  const std::string& signature() const { return signature_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryEdge query_edge_;
  std::vector<cypher::CnfClause> predicates_;
  bool self_loop_ = false;
  std::string signature_;
};

class JoinOp final : public PhysicalOperator {
 public:
  JoinOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
         std::vector<cypher::CnfClause> fused, PhysicalOperatorPtr left,
         PhysicalOperatorPtr right, std::vector<std::string> join_variables,
         std::vector<int> left_columns, std::vector<int> right_columns,
         dataflow::JoinStrategy strategy)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused),
                         {std::move(left), std::move(right)}),
        join_variables_(std::move(join_variables)),
        left_columns_(std::move(left_columns)),
        right_columns_(std::move(right_columns)),
        strategy_(strategy) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kJoin; }
  const char* name() const override { return "JoinEmbeddings"; }
  std::string Describe() const override;

  const std::vector<std::string>& join_variables() const {
    return join_variables_;
  }
  const std::vector<int>& left_columns() const { return left_columns_; }
  const std::vector<int>& right_columns() const { return right_columns_; }
  dataflow::JoinStrategy strategy() const { return strategy_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<std::string> join_variables_;
  std::vector<int> left_columns_;
  std::vector<int> right_columns_;
  dataflow::JoinStrategy strategy_;
};

class ValueJoinOp final : public PhysicalOperator {
 public:
  ValueJoinOp(EmbeddingMetaData meta, double estimate,
              MorphismSetting semantics, std::vector<cypher::CnfClause> fused,
              PhysicalOperatorPtr left, PhysicalOperatorPtr right,
              std::vector<std::string> key_descriptions,
              std::vector<int> left_key_columns,
              std::vector<int> right_key_columns,
              dataflow::JoinStrategy strategy)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused),
                         {std::move(left), std::move(right)}),
        key_descriptions_(std::move(key_descriptions)),
        left_key_columns_(std::move(left_key_columns)),
        right_key_columns_(std::move(right_key_columns)),
        strategy_(strategy) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kValueJoin; }
  const char* name() const override { return "ValueJoinEmbeddings"; }
  std::string Describe() const override;

  const std::vector<int>& left_key_columns() const {
    return left_key_columns_;
  }
  const std::vector<int>& right_key_columns() const {
    return right_key_columns_;
  }
  const std::vector<std::string>& key_descriptions() const {
    return key_descriptions_;
  }
  dataflow::JoinStrategy strategy() const { return strategy_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<std::string> key_descriptions_;  // "a.x=b.y", for rendering
  std::vector<int> left_key_columns_;
  std::vector<int> right_key_columns_;
  dataflow::JoinStrategy strategy_;
};

class ExpandOp final : public PhysicalOperator {
 public:
  ExpandOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
           std::vector<cypher::CnfClause> fused, PhysicalOperatorPtr input,
           cypher::QueryEdge query_edge, int start_column,
           int bound_end_column, bool reverse)
      : PhysicalOperator(std::move(meta), estimate, semantics,
                         std::move(fused), {std::move(input)}),
        query_edge_(std::move(query_edge)),
        start_column_(start_column),
        bound_end_column_(bound_end_column),
        reverse_(reverse) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kExpand; }
  const char* name() const override { return "ExpandEmbeddings"; }
  std::string Describe() const override;

  int start_column() const { return start_column_; }
  int bound_end_column() const { return bound_end_column_; }
  bool reverse() const { return reverse_; }
  const cypher::QueryEdge& query_edge() const { return query_edge_; }

  // Estimated rows of the edge dataset each expansion hop joins against,
  // stamped by PlanCompiler from the graph statistics (0 when compiled
  // without statistics). Trusted operator data for the memory transfer
  // function, like the cardinality estimate.
  uint64_t edge_input_estimate() const { return edge_input_estimate_; }
  void set_edge_input_estimate(uint64_t rows) { edge_input_estimate_ = rows; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  cypher::QueryEdge query_edge_;
  int start_column_ = -1;
  int bound_end_column_ = -1;
  bool reverse_ = false;
  uint64_t edge_input_estimate_ = 0;
};

// Standalone filter stage; only compiled when filter fusion is disabled
// (CompileOptions::fuse_filters == false).
class FilterOp final : public PhysicalOperator {
 public:
  FilterOp(EmbeddingMetaData meta, double estimate, MorphismSetting semantics,
           PhysicalOperatorPtr input, std::vector<cypher::CnfClause> clauses)
      : PhysicalOperator(std::move(meta), estimate, semantics, {},
                         {std::move(input)}),
        clauses_(std::move(clauses)) {}

  PhysOpKind op_kind() const override { return PhysOpKind::kFilter; }
  const char* name() const override { return "SelectEmbeddings"; }
  std::string Describe() const override;

  const std::vector<cypher::CnfClause>& clauses() const { return clauses_; }

 protected:
  Result<EmbeddingSet> Run(const ExecEnv& env,
                           std::vector<EmbeddingSet> inputs) override;
  Result<BatchSet> RunBatch(const ExecEnv& env,
                            std::vector<BatchSet> inputs) override;

 private:
  std::vector<cypher::CnfClause> clauses_;
};

}  // namespace exec
}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_EXEC_PHYSICAL_OPERATOR_H_
