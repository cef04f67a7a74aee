#ifndef GRADOOP_QUERY_EXEC_PARTITIONING_H_
#define GRADOOP_QUERY_EXEC_PARTITIONING_H_

#include <string>
#include <vector>

namespace gradoop::query {
struct PlanNode;
}  // namespace gradoop::query

namespace gradoop::query::exec {

class PhysicalOperator;

// Partitioning-property dataflow analysis over compiled physical plans.
//
// Every operator's output dataset has a physical data layout across the
// simulated workers. The lattice below abstracts it; DerivePartitioning
// is the per-operator transfer function, applied bottom-up by
// PlanCompiler and re-applied independently by VerifyCompiledPlan, so an
// annotation the compiler made up (rather than derived) never survives
// to execution. When a repartition join's input is already
// hash-partitioned on exactly the join key, the shuffle for that side is
// provably a no-op — every record already sits at hash(key) % p — and
// the compiled JoinOp/ValueJoinOp elides it (docs/partitioning.md).

enum class PartitioningKind {
  // No invariant: records are wherever the producing stage left them
  // (round-robin sources, expansion emissions).
  kRandom,
  // Every record sits in partition hash(key bytes) % p for the key
  // described by key_kind/key_tokens.
  kHashPartitioned,
  // Every partition holds a full copy (broadcast build sides never
  // surface as datasets today; the element exists for completeness and
  // never justifies an elision).
  kReplicated,
  // All records share one partition (a cartesian repartition join hashes
  // the empty key, which lands everything on hash("") % p).
  kSingleton,
};

// What the hash key is made of. Id keys concatenate the 8-byte bindings
// of query variables; value keys concatenate encoded property values.
// The two domains produce different key bytes for the same embedding and
// must never satisfy each other's co-partitioning requirements.
enum class PartitionKeyKind {
  kIdColumns,       // tokens are query variable names, in key order
  kPropertyValues,  // tokens are "var.key" accesses, in key order
};

struct PartitioningProperty {
  PartitioningKind kind = PartitioningKind::kRandom;
  PartitionKeyKind key_kind = PartitionKeyKind::kIdColumns;
  // Key sequence, in hash order. Order matters: the key bytes are the
  // concatenation of the per-token bytes, so hash(a,b) != hash(b,a).
  std::vector<std::string> key_tokens;

  static PartitioningProperty Random() { return {}; }
  static PartitioningProperty Replicated() {
    PartitioningProperty p;
    p.kind = PartitioningKind::kReplicated;
    return p;
  }
  static PartitioningProperty Singleton() {
    PartitioningProperty p;
    p.kind = PartitioningKind::kSingleton;
    return p;
  }
  static PartitioningProperty HashOnVariables(
      std::vector<std::string> variables) {
    PartitioningProperty p;
    p.kind = PartitioningKind::kHashPartitioned;
    p.key_kind = PartitionKeyKind::kIdColumns;
    p.key_tokens = std::move(variables);
    return p;
  }
  static PartitioningProperty HashOnValues(
      std::vector<std::string> accesses) {
    PartitioningProperty p;
    p.kind = PartitioningKind::kHashPartitioned;
    p.key_kind = PartitionKeyKind::kPropertyValues;
    p.key_tokens = std::move(accesses);
    return p;
  }

  bool operator==(const PartitioningProperty& other) const = default;

  // "random", "replicated", "singleton", "hash(a,b)" or
  // "hash-values(a.x,b.y)".
  std::string ToString() const;
};

// True iff an input with property `input` makes the shuffle of a
// repartition-join side keyed by (key_kind, key_tokens) a provable
// no-op. Requires an exact key-sequence match in the matching key
// domain; the empty key (cartesian) never elides — a Singleton input
// happens to be aligned with hash(""), but the property does not record
// which partition it occupies, so the conservative answer is no.
bool ElidesShuffle(const PartitioningProperty& input,
                   PartitionKeyKind key_kind,
                   const std::vector<std::string>& key_tokens);

// Which sides of a join may skip their shuffle.
struct ShuffleElision {
  bool left = false;
  bool right = false;
};

// The shuffle-elision grant, the single definition both PlanCompiler
// (which applies it under CompileOptions::elide_shuffles) and
// VerifyCompiledPlan (which rejects any elided side it refuses) use. A
// side of a repartition JoinOp or ValueJoinOp may elide iff its child
// claims hash partitioning on exactly that side's key sequence, in the
// join's key domain (ElidesShuffle). Broadcast joins, cartesian joins
// and every other operator kind get no grant.
ShuffleElision GrantShuffleElision(const PhysicalOperator& op);

// Splits value-join key descriptions ("a.x=b.y") into the per-side
// access tokens ("a.x" for the left, "b.y" for the right) that form the
// value-key hash sequence of that side.
std::vector<std::string> ValueKeySideTokens(
    const std::vector<std::string>& key_descriptions, bool right_side);

// Transfer function over a compiled operator: the partitioning of its
// output, derived from the operator kind, its join strategy/keys and the
// children's claimed properties (a child without a claim counts as
// Random). Pure — never reads the operator's own claim.
PartitioningProperty DerivePartitioning(const PhysicalOperator& op);

// Same transfer function over a logical plan node, used by the planner
// to break join-order cost ties toward shuffle-free plans before
// anything is compiled.
PartitioningProperty DeriveLogicalPartitioning(const query::PlanNode& node);

}  // namespace gradoop::query::exec

#endif  // GRADOOP_QUERY_EXEC_PARTITIONING_H_
