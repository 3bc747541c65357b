// Unit tests of the benchmark's own helpers: the percentile rule, the
// seeded arrival schedule and the report-digest check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load.hpp"
#include "sesame/service/submission.hpp"
#include "stats.hpp"

namespace e2ebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, ReportsOnlyWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(one_to(199), 0.95).has_value());
  ASSERT_TRUE(tail_percentile(one_to(200), 0.95).has_value());
  EXPECT_EQ(*tail_percentile(one_to(200), 0.95), 190.0);  // 10 lie beyond
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).has_value());
  EXPECT_EQ(*tail_percentile(one_to(20), 0.5), 10.0);
  EXPECT_FALSE(tail_percentile({}, 0.95).has_value());
}

TEST(Percentile, DescriptionCarriesTheSampleCount) {
  EXPECT_EQ(describe_percentile(one_to(200), 0.95, "ms"),
            "p95 190.0000 ms (n=200)");
  EXPECT_EQ(describe_percentile(one_to(40), 0.95, "ms"),
            "p95 n/a (n=40, needs 200)");
}

TEST(Percentile, MedianOfAnyCount) {
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median(one_to(4)), 2.5);
  EXPECT_EQ(median(one_to(5)), 3.0);
}

LoadShape shape() {
  LoadShape s;
  s.light_rate_per_s = 20.0;
  s.light_s = 6.0;
  s.overload_rate_per_s = 80.0;
  s.overload_s = 4.0;
  return s;
}

bool same(const Arrival& a, const Arrival& b) {
  return a.due_s == b.due_s && a.overload == b.overload &&
         a.tenant == b.tenant && a.repeat == b.repeat &&
         a.preset == b.preset && a.campaign_seed == b.campaign_seed;
}

TEST(ArrivalSchedule, SameSeedSameSchedule) {
  const auto a = arrival_schedule(7, shape());
  const auto b = arrival_schedule(7, shape());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same(a[i], b[i])) << i;

  const auto c = arrival_schedule(8, shape());
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = !same(a[i], c[i]);
  EXPECT_TRUE(differs);
}

TEST(ArrivalSchedule, OrderedAndStratified) {
  const auto a = arrival_schedule(11, shape());
  std::size_t fresh_nominal = 0, repeats = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(a[i - 1].due_s, a[i].due_s);
    }
    EXPECT_EQ(a[i].overload, a[i].due_s >= 6.0);
    EXPECT_LT(a[i].tenant, 4u);
    if (a[i].repeat) {
      ++repeats;
    } else if (a[i].preset == "nominal") {
      ++fresh_nominal;
    }
    // Every complete block of ten holds exactly three repeats.
    if ((i + 1) % 10 == 0) {
      EXPECT_EQ(repeats, 3 * (i + 1) / 10);
    }
  }
  EXPECT_GT(fresh_nominal, 0u);
}

TEST(DigestCheck, CatchesOneFlippedByte) {
  const std::string report = "{\"schema\":\"sesame.campaign.report/3\"}";
  const std::uint64_t pinned = sesame::service::fnv1a64(report);
  EXPECT_TRUE(digest_matches(report, pinned));
  for (std::size_t i = 0; i < report.size(); ++i) {
    std::string flipped = report;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_FALSE(digest_matches(flipped, pinned)) << "byte " << i;
  }
}

}  // namespace
}  // namespace e2ebench
