#include <gtest/gtest.h>

#include "query/embedding.h"
#include "query/embedding_batch.h"
#include "query/embedding_meta_data.h"

namespace gradoop::query {
namespace {

using epgm::PropertyValue;

TEST(EmbeddingTest, EmptyEmbedding) {
  Embedding e;
  EXPECT_EQ(e.NumIdEntries(), 0);
  EXPECT_EQ(e.NumProperties(), 0);
  EXPECT_EQ(e.SerializedSize(), 3 * sizeof(uint32_t));
}

TEST(EmbeddingTest, PaperSection33Example) {
  // The physical embedding for the second row of Table 2b:
  //   idData  = {ID,10, PATH,0, ID,30}
  //   pathData = {3, 5, 20, 7}
  //   propData = {5,Alice, 3,Bob}
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendId(30);
  e.AppendProperty(PropertyValue("Alice"));
  e.AppendProperty(PropertyValue("Bob"));

  EXPECT_EQ(e.NumIdEntries(), 3);
  EXPECT_FALSE(e.IsPathEntry(0));
  EXPECT_TRUE(e.IsPathEntry(1));
  EXPECT_FALSE(e.IsPathEntry(2));
  EXPECT_EQ(e.IdAt(0), 10u);
  EXPECT_EQ(e.PathAt(1), (std::vector<uint64_t>{5, 20, 7}));
  EXPECT_EQ(e.IdAt(2), 30u);
  EXPECT_EQ(e.NumProperties(), 2);
  EXPECT_EQ(e.PropertyAt(0), PropertyValue("Alice"));
  EXPECT_EQ(e.PropertyAt(1), PropertyValue("Bob"));
}

TEST(EmbeddingTest, IdEntriesAreFixedWidth) {
  // Constant-time access relies on the 9-byte entry layout.
  Embedding e;
  for (uint64_t i = 0; i < 10; ++i) e.AppendId(i * 100);
  EXPECT_EQ(e.id_data().size(), 10 * Embedding::kEntryWidth);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(e.IdAt(i), static_cast<uint64_t>(i) * 100);
  }
}

TEST(EmbeddingTest, MultiplePathsUseOffsets) {
  Embedding e;
  e.AppendPath({1, 2, 3});
  e.AppendPath({4});
  e.AppendPath({});
  EXPECT_EQ(e.PathAt(0), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(e.PathAt(1), (std::vector<uint64_t>{4}));
  EXPECT_EQ(e.PathAt(2), (std::vector<uint64_t>{}));
}

TEST(EmbeddingTest, PropertyTypesRoundTrip) {
  Embedding e;
  e.AppendProperty(PropertyValue::Null());
  e.AppendProperty(PropertyValue(int64_t{2014}));
  e.AppendProperty(PropertyValue(2.5));
  e.AppendProperty(PropertyValue(true));
  e.AppendProperty(PropertyValue("Uni Leipzig"));
  EXPECT_TRUE(e.PropertyAt(0).is_null());
  EXPECT_EQ(e.PropertyAt(1), PropertyValue(int64_t{2014}));
  EXPECT_EQ(e.PropertyAt(2), PropertyValue(2.5));
  EXPECT_EQ(e.PropertyAt(3), PropertyValue(true));
  EXPECT_EQ(e.PropertyAt(4), PropertyValue("Uni Leipzig"));
}

TEST(EmbeddingTest, MergeAppendsAndRebasesPaths) {
  Embedding left;
  left.AppendId(10);
  left.AppendPath({5, 20, 7});
  left.AppendProperty(PropertyValue("Alice"));

  Embedding right;
  right.AppendPath({8, 9});
  right.AppendId(30);
  right.AppendProperty(PropertyValue("Bob"));

  Embedding merged = Embedding::Merge(left, right);
  EXPECT_EQ(merged.NumIdEntries(), 4);
  EXPECT_EQ(merged.IdAt(0), 10u);
  EXPECT_EQ(merged.PathAt(1), (std::vector<uint64_t>{5, 20, 7}));
  EXPECT_EQ(merged.PathAt(2), (std::vector<uint64_t>{8, 9}));  // rebased
  EXPECT_EQ(merged.IdAt(3), 30u);
  EXPECT_EQ(merged.NumProperties(), 2);
  EXPECT_EQ(merged.PropertyAt(0), PropertyValue("Alice"));
  EXPECT_EQ(merged.PropertyAt(1), PropertyValue("Bob"));
}

TEST(EmbeddingTest, MergeWithEmpty) {
  Embedding e;
  e.AppendId(1);
  e.AppendProperty(PropertyValue(int64_t{5}));
  Embedding empty;
  EXPECT_EQ(Embedding::Merge(e, empty), e);
  EXPECT_EQ(Embedding::Merge(empty, e), e);
}

TEST(EmbeddingTest, ContainsIdAt) {
  Embedding e;
  e.AppendId(10);
  e.AppendId(20);
  e.AppendPath({99});
  EXPECT_TRUE(e.ContainsIdAt(10, {0, 1}));
  EXPECT_TRUE(e.ContainsIdAt(20, {0, 1}));
  EXPECT_FALSE(e.ContainsIdAt(30, {0, 1}));
  // A path column never matches an id probe.
  EXPECT_FALSE(e.ContainsIdAt(99, {0, 1, 2}));
}

TEST(EmbeddingTest, PathContainsAlternation) {
  Embedding e;
  e.AppendId(1);
  e.AppendPath({5, 20, 7, 30, 9});  // edges 5,7,9; vertices 20,30
  EXPECT_TRUE(e.PathContains(5, {1}, /*edges=*/true));
  EXPECT_TRUE(e.PathContains(9, {1}, true));
  EXPECT_FALSE(e.PathContains(20, {1}, true));
  EXPECT_TRUE(e.PathContains(20, {1}, /*edges=*/false));
  EXPECT_TRUE(e.PathContains(30, {1}, false));
  EXPECT_FALSE(e.PathContains(5, {1}, false));
}

TEST(EmbeddingTest, WireFormatRoundTrip) {
  Embedding a;
  a.AppendId(10);
  a.AppendPath({5, 20, 7});
  a.AppendId(30);
  a.AppendProperty(PropertyValue("Alice"));
  a.AppendProperty(PropertyValue(int64_t{2014}));
  Embedding b;  // empty embedding round-trips too
  std::string wire;
  a.EncodeTo(&wire);
  b.EncodeTo(&wire);
  EXPECT_EQ(wire.size(), a.SerializedSize() + b.SerializedSize());

  size_t pos = 0;
  auto da = Embedding::DecodeFrom(wire, &pos);
  ASSERT_TRUE(da.ok()) << da.status();
  EXPECT_EQ(da.value(), a);
  EXPECT_EQ(da.value().NumProperties(), 2);
  EXPECT_EQ(da.value().PropertyAt(0), PropertyValue("Alice"));
  auto db = Embedding::DecodeFrom(wire, &pos);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value(), b);
  EXPECT_EQ(pos, wire.size());
}

TEST(EmbeddingTest, DecodeRejectsTruncatedWire) {
  Embedding a;
  a.AppendId(10);
  a.AppendProperty(PropertyValue("x"));
  std::string wire;
  a.EncodeTo(&wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    size_t pos = 0;
    const std::string truncated = wire.substr(0, cut);
    EXPECT_FALSE(Embedding::DecodeFrom(truncated, &pos).ok())
        << "cut at " << cut;
  }
}

TEST(EmbeddingTest, SerializedSizeGrowsWithContent) {
  Embedding small;
  small.AppendId(1);
  Embedding large;
  large.AppendId(1);
  large.AppendPath({1, 2, 3, 4, 5});
  large.AppendProperty(PropertyValue("some longer string value"));
  EXPECT_GT(large.SerializedSize(), small.SerializedSize());
}

TEST(EmbeddingTest, ToStringIsReadable) {
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendId(30);
  e.AppendProperty(PropertyValue("Alice"));
  EXPECT_EQ(e.ToString(), "[10, path(5,20,7), 30 | Alice]");
}

// --- wire goldens -------------------------------------------------------------
//
// The EncodeTo bytes below were captured from the three-array embedding
// that predates the one-buffer layout; the layout change must not move a
// single wire byte.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

// Checks the golden wire bytes, the DecodeFrom round trip and equality.
void ExpectWire(const Embedding& e, const std::string& golden_hex) {
  std::string wire;
  e.EncodeTo(&wire);
  EXPECT_EQ(Hex(wire), golden_hex);
  EXPECT_EQ(wire.size(), e.SerializedSize());
  EXPECT_EQ(e.id_data().size() + e.path_data().size() + e.prop_data().size() +
                3 * sizeof(uint32_t),
            wire.size());
  size_t pos = 0;
  auto decoded = Embedding::DecodeFrom(wire, &pos);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(pos, wire.size());
  EXPECT_EQ(decoded.value(), e);
  EXPECT_EQ(decoded.value().ToString(), e.ToString());
  EXPECT_EQ(decoded.value().NumProperties(), e.NumProperties());
  Embedding copy = e;
  EXPECT_EQ(copy, e);
  copy.AppendId(1);
  EXPECT_FALSE(copy == e);
}

TEST(EmbeddingWireGoldenTest, PaperSection33Example) {
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendId(30);
  e.AppendProperty(PropertyValue("Alice"));
  e.AppendProperty(PropertyValue("Bob"));
  ExpectWire(e,
             "1b000000000a00000000000000010000000000000000001e000000000000001c"
             "000000030000000500000000000000140000000000000007000000000000001a"
             "0000000a0000000405000000416c696365080000000403000000426f62");
}

TEST(EmbeddingWireGoldenTest, MergeRebasesRightPathsOverLeftPaths) {
  Embedding left;
  left.AppendId(10);
  left.AppendPath({5, 20, 7});
  left.AppendProperty(PropertyValue("Alice"));
  Embedding right;
  right.AppendPath({8, 9});
  right.AppendId(30);
  right.AppendPath({});
  right.AppendProperty(PropertyValue(int64_t{7}));
  const Embedding merged = Embedding::Merge(left, right);
  EXPECT_EQ(merged.PathAt(2), (std::vector<uint64_t>{8, 9}));
  EXPECT_EQ(merged.PathAt(4), (std::vector<uint64_t>{}));
  ExpectWire(merged,
             "2d000000000a00000000000000010000000000000000011c0000000000000000"
             "1e00000000000000013000000000000000340000000300000005000000000000"
             "0014000000000000000700000000000000020000000800000000000000090000"
             "0000000000000000001b0000000a0000000405000000416c6963650900000002"
             "0700000000000000");
}

TEST(EmbeddingWireGoldenTest, ExpandAppendsPathAndIdAfterProperties) {
  // Expand copies a row that already carries properties, then appends
  // the path column and the end vertex: both land in front of propData.
  Embedding e;
  e.AppendId(1);
  e.AppendId(2);
  e.AppendProperty(PropertyValue(2.5));
  e.AppendProperty(PropertyValue(true));
  Embedding grown = e.CopyWithRoom(64);
  grown.AppendPath({11, 12, 13});
  grown.AppendId(14);
  EXPECT_EQ(grown.PropertyAt(0), PropertyValue(2.5));
  EXPECT_EQ(grown.IdAt(3), 14u);
  const std::string golden =
      "2400000000010000000000000000020000000000000001000000000000000000"
      "0e000000000000001c000000030000000b000000000000000c00000000000000"
      "0d000000000000001300000009000000030000000000000440020000000101";
  ExpectWire(grown, golden);
  // Appending to a plain copy gives the same bytes.
  Embedding copied = e;
  copied.AppendPath({11, 12, 13});
  copied.AppendId(14);
  ExpectWire(copied, golden);
}

TEST(EmbeddingWireGoldenTest, RowAtInterleavesIdAndPathColumns) {
  EmbeddingBatch b({Embedding::kIdFlag, Embedding::kPathFlag,
                    Embedding::kIdFlag, Embedding::kPathFlag},
                   2);
  b.PushId(0, 100);
  b.PushPath(1, {3, 4, 5});
  b.PushId(2, 200);
  b.PushPath(3, {6});
  b.PushProperty(PropertyValue("p"));
  b.PushProperty(PropertyValue::Null());
  b.CommitRow();
  b.PushId(0, 101);
  b.PushPath(1, {});
  b.PushId(2, 201);
  b.PushPath(3, {7, 8, 9});
  b.PushProperty(PropertyValue(int64_t{-1}));
  b.PushProperty(PropertyValue("q"));
  b.CommitRow();
  ExpectWire(b.RowAt(0),
             "2400000000640000000000000001000000000000000000c80000000000000001"
             "1c00000000000000280000000300000003000000000000000400000000000000"
             "05000000000000000100000006000000000000000f0000000600000004010000"
             "00700100000000");
  ExpectWire(b.RowAt(1),
             "2400000000650000000000000001000000000000000000c90000000000000001"
             "0400000000000000200000000000000003000000070000000000000008000000"
             "000000000900000000000000170000000900000002ffffffffffffffff060000"
             "00040100000071");
  // AppendRow is RowAt's inverse.
  EmbeddingBatch again({Embedding::kIdFlag, Embedding::kPathFlag,
                        Embedding::kIdFlag, Embedding::kPathFlag},
                       2);
  again.AppendRow(b.RowAt(1));
  EXPECT_EQ(again.RowAt(0), b.RowAt(1));
}

TEST(EmbeddingTest, MovedFromEmbeddingIsEmpty) {
  Embedding e;
  e.AppendId(10);
  e.AppendPath({5, 20, 7});
  e.AppendProperty(PropertyValue("Alice"));
  const Embedding copy = e;
  Embedding moved = std::move(e);
  EXPECT_EQ(moved, copy);
  EXPECT_EQ(e, Embedding());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(e.NumIdEntries(), 0);
  EXPECT_EQ(e.NumProperties(), 0);
}

// --- EmbeddingMetaData ------------------------------------------------------

TEST(MetaDataTest, ColumnsAssignSequentially) {
  EmbeddingMetaData meta;
  EXPECT_EQ(meta.AddIdColumn("p1", EntryType::kVertex), 0);
  EXPECT_EQ(meta.AddIdColumn("s", EntryType::kEdge), 1);
  EXPECT_EQ(meta.AddIdColumn("u", EntryType::kVertex), 2);
  EXPECT_EQ(meta.AddPropertyColumn("p1", "name"), 0);
  EXPECT_EQ(meta.AddPropertyColumn("u", "name"), 1);

  EXPECT_EQ(meta.IdColumn("p1"), 0);
  EXPECT_EQ(meta.IdColumn("u"), 2);
  EXPECT_EQ(meta.IdColumn("ghost"), -1);
  EXPECT_EQ(meta.PropertyColumn("u", "name"), 1);
  EXPECT_EQ(meta.PropertyColumn("u", "city"), -1);
  EXPECT_EQ(meta.TypeOf("s"), EntryType::kEdge);
}

TEST(MetaDataTest, ColumnsByType) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("a", EntryType::kVertex);
  meta.AddIdColumn("e", EntryType::kEdge);
  meta.AddIdColumn("b", EntryType::kVertex);
  meta.AddIdColumn("p", EntryType::kPath);
  EXPECT_EQ(meta.VertexColumns(), (std::vector<int>{0, 2}));
  EXPECT_EQ(meta.EdgeColumns(), (std::vector<int>{1}));
  EXPECT_EQ(meta.PathColumns(), (std::vector<int>{3}));
}

TEST(MetaDataTest, MergeShiftsRightColumns) {
  EmbeddingMetaData left;
  left.AddIdColumn("a", EntryType::kVertex);
  left.AddIdColumn("e", EntryType::kEdge);
  left.AddPropertyColumn("a", "name");

  EmbeddingMetaData right;
  right.AddIdColumn("b", EntryType::kVertex);
  right.AddPropertyColumn("b", "name");

  EmbeddingMetaData merged = EmbeddingMetaData::Merge(left, right);
  EXPECT_EQ(merged.IdColumn("a"), 0);
  EXPECT_EQ(merged.IdColumn("e"), 1);
  EXPECT_EQ(merged.IdColumn("b"), 2);
  EXPECT_EQ(merged.PropertyColumn("a", "name"), 0);
  EXPECT_EQ(merged.PropertyColumn("b", "name"), 1);
  EXPECT_EQ(merged.id_column_count(), 3);
  EXPECT_EQ(merged.property_column_count(), 2);
}

TEST(MetaDataTest, MergeSharedVariableKeepsLeftColumn) {
  EmbeddingMetaData left;
  left.AddIdColumn("u", EntryType::kVertex);
  EmbeddingMetaData right;
  right.AddIdColumn("p2", EntryType::kVertex);
  right.AddIdColumn("u", EntryType::kVertex);  // shared join variable

  EmbeddingMetaData merged = EmbeddingMetaData::Merge(left, right);
  EXPECT_EQ(merged.IdColumn("u"), 0);  // left binding wins
  EXPECT_EQ(merged.IdColumn("p2"), 1);
  // Physical width still includes the duplicate column.
  EXPECT_EQ(merged.id_column_count(), 3);
  // VertexColumns addresses distinct variables only (no duplicate check
  // against the same variable's second copy).
  EXPECT_EQ(merged.VertexColumns().size(), 2u);
}

TEST(MetaDataTest, ResolverReadsProjectedProperties) {
  EmbeddingMetaData meta;
  meta.AddIdColumn("p", EntryType::kVertex);
  meta.AddPropertyColumn("p", "name");
  Embedding e;
  e.AppendId(10);
  e.AppendProperty(PropertyValue("Alice"));
  const auto resolver = meta.MakeResolver(e);
  EXPECT_EQ(resolver("p", "name"), PropertyValue("Alice"));
  EXPECT_TRUE(resolver("p", "ghost").is_null());
  EXPECT_TRUE(resolver("q", "name").is_null());
}

}  // namespace
}  // namespace gradoop::query
