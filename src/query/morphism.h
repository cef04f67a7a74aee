#ifndef GRADOOP_QUERY_MORPHISM_H_
#define GRADOOP_QUERY_MORPHISM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "query/embedding.h"
#include "query/embedding_batch.h"
#include "query/embedding_meta_data.h"
#include "query/match_semantics.h"

namespace gradoop::query {

// The global morphism constraints of one layout (§2.2), resolved once per
// operator: under vertex isomorphism all vertex columns hold pairwise
// distinct ids; under edge isomorphism all edge columns and the edges
// inside PATH columns do. Both engines check rows through this plan, and
// the joins check a (left, right) pair before merging it: column c of
// the merged layout is column c of the left row when c is below the left
// width, else column c - width of the right row.
class MorphismPlan {
 public:
  MorphismPlan(const EmbeddingMetaData& meta, const MorphismSetting& semantics)
      : vertex_columns_(meta.VertexColumns()),
        edge_columns_(meta.EdgeColumns()),
        path_columns_(meta.PathColumns()),
        vertex_iso_(semantics.vertex == MatchSemantics::kIsomorphism),
        edge_iso_(semantics.edge == MatchSemantics::kIsomorphism) {}

  bool Satisfies(const Embedding& e) const {
    return Check([&e](int c) { return e.IdAt(c); },
                 [&e](int c, auto push) { e.ForEachPathEdge(c, push); });
  }

  bool PairSatisfies(const Embedding& left, const Embedding& right) const {
    const int width = left.NumIdEntries();
    return Check(
        [&](int c) { return c < width ? left.IdAt(c) : right.IdAt(c - width); },
        [&](int c, auto push) {
          if (c < width) {
            left.ForEachPathEdge(c, push);
          } else {
            right.ForEachPathEdge(c - width, push);
          }
        });
  }

  bool PairSatisfies(const EmbeddingBatch& lb, uint32_t lrow,
                     const EmbeddingBatch& rb, uint32_t rrow) const {
    const int width = lb.num_id_columns();
    return Check(
        [&](int c) {
          return c < width ? lb.IdAt(c, lrow) : rb.IdAt(c - width, rrow);
        },
        [&](int c, auto push) {
          if (c < width) {
            lb.ForEachPathEdge(c, lrow, push);
          } else {
            rb.ForEachPathEdge(c - width, rrow, push);
          }
        });
  }

 private:
  // Ids of one distinctness check, on the stack unless a row binds more
  // than kInline of them (long paths under edge isomorphism).
  class IdSet {
   public:
    void Add(uint64_t id) {
      if (size_ < kInline) {
        inline_[size_] = id;
      } else {
        if (size_ == kInline) spill_.assign(inline_, inline_ + kInline);
        spill_.push_back(id);
      }
      ++size_;
    }
    bool AllDistinct() {
      uint64_t* begin = size_ <= kInline ? inline_ : spill_.data();
      uint64_t* end = begin + size_;
      std::sort(begin, end);
      return std::adjacent_find(begin, end) == end;
    }

   private:
    static constexpr size_t kInline = 16;
    uint64_t inline_[kInline];
    size_t size_ = 0;
    std::vector<uint64_t> spill_;
  };

  // `id_at(c)` reads id column c; `path_edges(c, push)` pushes the edge
  // ids of PATH column c.
  template <typename IdAt, typename PathEdges>
  bool Check(IdAt id_at, PathEdges path_edges) const {
    if (vertex_iso_) {
      IdSet ids;
      for (const int c : vertex_columns_) ids.Add(id_at(c));
      if (!ids.AllDistinct()) return false;
    }
    if (edge_iso_) {
      IdSet ids;
      for (const int c : edge_columns_) ids.Add(id_at(c));
      const auto push = [&ids](uint64_t id) { ids.Add(id); };
      for (const int c : path_columns_) path_edges(c, push);
      if (!ids.AllDistinct()) return false;
    }
    return true;
  }

  std::vector<int> vertex_columns_;
  std::vector<int> edge_columns_;
  std::vector<int> path_columns_;
  bool vertex_iso_ = false;
  bool edge_iso_ = false;
};

}  // namespace gradoop::query

#endif  // GRADOOP_QUERY_MORPHISM_H_
