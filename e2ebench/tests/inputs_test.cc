// The program receives only inputs generated from the workload seed: one
// seed gives byte-identical CSV inputs and lake contents, another seed
// gives different ones.
#include <gtest/gtest.h>

#include <vector>

#include "inputs.h"

namespace e2e {
namespace {

InputShape SmallShape() {
  InputShape shape;
  shape.lake_tables = 12;
  shape.query_tables = 4;
  shape.fresh_tables = 3;
  return shape;
}

// Hash of the lake's contents built from `in`: every table id and the
// bytes of every column embedding, in insertion order.
uint64_t LakeFingerprint(const Inputs& in, const ModelStack& stack) {
  uint64_t h = Fnv1a(nullptr, 0);
  for (size_t i = 0; i < in.lake_csv.size(); ++i) {
    h = Fnv1a(in.lake_ids[i].data(), in.lake_ids[i].size(), h);
    for (const auto& c : EmbedCsv(stack, in.lake_csv[i])) {
      h = Fnv1a(c.data(), c.size() * sizeof(float), h);
    }
  }
  return h;
}

TEST(Inputs, SameSeedSameBytes) {
  const Inputs a = GenerateInputs(SmallShape(), 7);
  const Inputs b = GenerateInputs(SmallShape(), 7);
  EXPECT_EQ(a.lake_csv, b.lake_csv);
  EXPECT_EQ(a.query_csv, b.query_csv);
  EXPECT_EQ(a.fresh_csv, b.fresh_csv);
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
  ModelStack s1, s2;
  EXPECT_EQ(LakeFingerprint(a, s1), LakeFingerprint(b, s2));
}

TEST(Inputs, OtherSeedOtherBytes) {
  const Inputs a = GenerateInputs(SmallShape(), 7);
  const Inputs b = GenerateInputs(SmallShape(), 8);
  EXPECT_NE(a.lake_csv, b.lake_csv);
  EXPECT_NE(a.query_csv, b.query_csv);
  EXPECT_NE(Fingerprint(a), Fingerprint(b));
  ModelStack stack;
  EXPECT_NE(LakeFingerprint(a, stack), LakeFingerprint(b, stack));
}

TEST(Inputs, QueryTablesAreHeldOutOfTheLake) {
  const Inputs in = GenerateInputs(SmallShape(), 7);
  for (const auto& q : in.query_csv) {
    for (const auto& t : in.lake_csv) EXPECT_NE(q, t);
  }
  ASSERT_EQ(in.queries.size(), in.query_csv.size());
  EXPECT_EQ(in.fresh_ids.size(), 3u);
}

}  // namespace
}  // namespace e2e
