// The kernel-family table: row i describes Algorithm i in presentation
// order, ids are unique and round-trip through parse_algorithm, and each
// row carries its family's pairing role, sampling support, operand
// placement and grid constraints.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.h"
#include "core/algorithm_table.h"

namespace indexmac::core {
namespace {

TEST(AlgorithmTable, RowsFollowTheEnumInPresentationOrder) {
  const auto table = algorithm_table();
  ASSERT_EQ(table.size(), 5u);
  const char* ids[] = {"rowwise", "indexmac", "indexmac4", "dense", "ssr"};
  std::set<std::string> seen;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table[i].algorithm, static_cast<Algorithm>(i)) << table[i].id;
    EXPECT_STREQ(table[i].id, ids[i]);
    EXPECT_TRUE(seen.insert(table[i].id).second) << "duplicate id " << table[i].id;
    EXPECT_NE(table[i].supports, nullptr) << table[i].id;
    EXPECT_NE(table[i].emit, nullptr) << table[i].id;
    EXPECT_EQ(&algorithm_row(table[i].algorithm), &table[i]) << table[i].id;
  }
  EXPECT_THROW((void)algorithm_row(static_cast<Algorithm>(table.size())), SimError);
}

TEST(AlgorithmTable, UnknownIdErrorListsEveryFamily) {
  try {
    (void)parse_algorithm("no-such-algorithm");
    FAIL() << "unknown id must raise";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "unknown algorithm \"no-such-algorithm\" (known: rowwise, indexmac, "
                           "indexmac4, dense, ssr)");
  }
}

TEST(AlgorithmTable, IdAndEnumLookupsRoundTrip) {
  for (const AlgorithmRow& row : algorithm_table()) {
    EXPECT_EQ(parse_algorithm(row.id), row.algorithm) << row.id;
    EXPECT_STREQ(algorithm_row(row.algorithm).id, row.id) << row.id;
    EXPECT_STREQ(algorithm_name(row.algorithm), row.display_name) << row.id;
  }
}

TEST(AlgorithmTable, RowsCarryTheExpectedPolicies) {
  const auto row = [](const char* id) -> const AlgorithmRow& {
    return algorithm_row(parse_algorithm(id));
  };
  EXPECT_EQ(row("rowwise").pairing, PairingRole::kBaseline);
  EXPECT_EQ(row("indexmac").pairing, PairingRole::kProposed);
  EXPECT_EQ(row("indexmac4").pairing, PairingRole::kProposedV2);
  EXPECT_EQ(row("dense").pairing, PairingRole::kStandalone);
  EXPECT_EQ(row("ssr").pairing, PairingRole::kStandalone);

  EXPECT_FALSE(row("dense").supports_sampled);
  EXPECT_TRUE(row("ssr").supports_sampled);
  EXPECT_TRUE(row("dense").dense_operands);
  EXPECT_EQ(row("dense").footprint, nullptr);  // no analytic model
  for (const char* id : {"rowwise", "indexmac", "indexmac4", "ssr"}) {
    EXPECT_NE(row(id).footprint, nullptr) << id;
    EXPECT_FALSE(row(id).dense_operands) << id;
  }
  EXPECT_EQ(row("rowwise").index_mode, sparse::IndexMode::kByteOffset);
  EXPECT_EQ(row("indexmac").index_mode, sparse::IndexMode::kVrfIndex);
  EXPECT_EQ(row("indexmac4").index_mode, sparse::IndexMode::kPackedNibble);
  EXPECT_EQ(row("ssr").index_mode, sparse::IndexMode::kVrfIndex);

  // Grid support: rowwise spans every cell; the custom-instruction
  // families are B-stationary; dense and ssr additionally pin unroll 1.
  using kernels::Dataflow;
  EXPECT_TRUE(row("rowwise").supports(Dataflow::kAStationary, 4));
  EXPECT_FALSE(row("indexmac").supports(Dataflow::kAStationary, 1));
  EXPECT_TRUE(row("indexmac").supports(Dataflow::kBStationary, 4));
  EXPECT_FALSE(row("indexmac4").supports(Dataflow::kCStationary, 4));
  EXPECT_TRUE(row("ssr").supports(Dataflow::kBStationary, 1));
  EXPECT_FALSE(row("ssr").supports(Dataflow::kBStationary, 2));
  EXPECT_FALSE(row("ssr").supports(Dataflow::kCStationary, 1));
  EXPECT_TRUE(row("dense").supports(Dataflow::kBStationary, 1));
  EXPECT_FALSE(row("dense").supports(Dataflow::kBStationary, 2));
}

TEST(AlgorithmTable, PairingRoleNames) {
  EXPECT_STREQ(pairing_role_name(PairingRole::kBaseline), "baseline");
  EXPECT_STREQ(pairing_role_name(PairingRole::kProposed), "proposed");
  EXPECT_STREQ(pairing_role_name(PairingRole::kProposedV2), "proposed-v2");
  EXPECT_STREQ(pairing_role_name(PairingRole::kStandalone), "standalone");
}

}  // namespace
}  // namespace indexmac::core
