// Deterministic whole-test sampling (obs/sampling.hpp): the sampled set is a
// pure function of (key, salt, denominator) — no wall clock, chunk, or
// thread input — and the budget rule degrades the denominator at fixed
// checkpoints instead of letting the observability footprint grow without
// bound.
#include "obs/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace swiftest::obs {
namespace {

/// The schedule a run of `tests` draws gets from `policy` with no budget
/// cost: one step, the policy's own denominator.
SampleSchedule unbudgeted(const SamplingPolicy& policy, std::uint64_t tests) {
  return SampleSchedule::plan(tests, policy, {});
}

TEST(SamplingPolicyParse, AcceptsOneOverNAndPlainN) {
  const auto one_in_8 = SamplingPolicy::parse("1/8");
  ASSERT_TRUE(one_in_8.has_value());
  EXPECT_EQ(one_in_8->denominator(), 8u);
  EXPECT_TRUE(one_in_8->enabled());
  EXPECT_EQ(one_in_8->describe(), "1/8");

  const auto plain = SamplingPolicy::parse("16");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->denominator(), 16u);

  // "1/1" and "1" are the explicit keep-everything spellings.
  for (const char* spec : {"1/1", "1"}) {
    const auto keep_all = SamplingPolicy::parse(spec);
    ASSERT_TRUE(keep_all.has_value()) << spec;
    EXPECT_FALSE(keep_all->enabled()) << spec;
    EXPECT_TRUE(unbudgeted(*keep_all, 12346).sampled(12345)) << spec;
  }
}

TEST(SamplingPolicyParse, RejectsMalformedSpecs) {
  // Only keep-1-in-N is expressible: numerators other than 1, zero
  // denominators, negatives, and junk all fail parse (the CLI exits 2).
  for (const char* spec :
       {"", "0", "1/0", "2/8", "1/", "/8", "1/x", "-1", "1/-4", "8.5",
        "1/99999999999999999999999"}) {
    EXPECT_FALSE(SamplingPolicy::parse(spec).has_value()) << spec;
  }
}

TEST(SamplingPolicy, SampledIsPureAndSaltSensitive) {
  SamplingPolicy policy;
  policy.set_denominator(8);
  policy.set_salt(42);
  const SampleSchedule schedule = unbudgeted(policy, 4096);
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 4096; ++key) first.push_back(schedule.sampled(key));
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(schedule.sampled(key), first[key]) << "decision must be pure";
  }

  // A different salt (run seed) selects a different subset.
  SamplingPolicy other;
  other.set_denominator(8);
  other.set_salt(43);
  const SampleSchedule other_schedule = unbudgeted(other, 4096);
  std::size_t differs = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    if (other_schedule.sampled(key) != first[key]) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(SamplingPolicy, KeepRateTracksDenominator) {
  SamplingPolicy policy;
  policy.set_denominator(8);
  policy.set_salt(7);
  constexpr std::uint64_t kKeys = 64 * 1024;
  const SampleSchedule schedule = unbudgeted(policy, kKeys);
  std::size_t kept = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (schedule.sampled(key)) ++kept;
  }
  // splitmix64 avalanches sequential keys; 1/8 ± 20% over 64k draws.
  const double rate = static_cast<double>(kept) / kKeys;
  EXPECT_GT(rate, 0.8 / 8.0);
  EXPECT_LT(rate, 1.2 / 8.0);
}

TEST(SamplingPolicy, MatchesSplitmix64Definition) {
  // The decision is documented as splitmix64(key ^ salt) % N == 0; pin that
  // so the sampled subset never silently changes between versions (stored
  // artifacts reference it).
  // The hash itself is pinned by its known first output from state 0.
  static_assert(core::splitmix64(0) == 0xE220A8397B1DCDAFull);
  SamplingPolicy policy;
  policy.set_denominator(8);
  policy.set_salt(99);
  const SampleSchedule schedule = unbudgeted(policy, 512);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(schedule.sampled(key), core::splitmix64(key ^ 99u) % 8 == 0);
  }
}

constexpr std::uint64_t kInterval = SampleSchedule::kCheckpointInterval;

TEST(SampleSchedule, DegradesOnlyAtCheckpoints) {
  // Every test costs one byte against a 5000-byte budget: the footprint
  // crosses the budget at test 5001, but the denominator only doubles at the
  // next checkpoint (8192), and again at every later over-budget one.
  SamplingPolicy policy;
  policy.set_budget_bytes(5000);
  SampleSchedule::CostModel model;
  model.per_test_bytes = 1;
  const std::uint64_t tests = 3 * kInterval + 1;
  const SampleSchedule schedule = SampleSchedule::plan(tests, policy, model);
  EXPECT_EQ(schedule.denominator_at(kInterval), 1u);
  EXPECT_EQ(schedule.denominator_at(2 * kInterval - 1), 1u);
  EXPECT_EQ(schedule.denominator_at(2 * kInterval), 2u);
  EXPECT_EQ(schedule.denominator_at(3 * kInterval - 1), 2u);
  EXPECT_EQ(schedule.denominator_at(3 * kInterval), 4u);
  for (std::uint64_t t = 1; t < tests; ++t) {
    if (schedule.denominator_at(t) != schedule.denominator_at(t - 1)) {
      EXPECT_EQ(t % kInterval, 0u) << "degraded between checkpoints at " << t;
    }
  }

  // No budget: never degrades, however large the modelled footprint.
  SamplingPolicy no_budget;
  SampleSchedule::CostModel huge;
  huge.base_bytes = UINT64_MAX / 2;
  const SampleSchedule flat = SampleSchedule::plan(tests, no_budget, huge);
  EXPECT_EQ(flat.denominator_at(tests - 1), 1u);
  EXPECT_EQ(flat.degradations_in(0, tests), 0u);
}

TEST(SampleSchedule, CapsAtMaxDenominator) {
  // Over budget at every checkpoint, starting one doubling below the cap:
  // the first checkpoint reaches the cap and later ones stop doubling (and
  // stop counting).
  SamplingPolicy policy;
  policy.set_denominator(SamplingPolicy::kMaxDenominator / 2);
  policy.set_budget_bytes(1);
  SampleSchedule::CostModel model;
  model.base_bytes = 2;
  const std::uint64_t tests = 3 * kInterval + 1;
  const SampleSchedule schedule = SampleSchedule::plan(tests, policy, model);
  EXPECT_EQ(schedule.denominator_at(kInterval - 1), SamplingPolicy::kMaxDenominator / 2);
  EXPECT_EQ(schedule.denominator_at(kInterval), SamplingPolicy::kMaxDenominator);
  EXPECT_EQ(schedule.denominator_at(tests - 1), SamplingPolicy::kMaxDenominator);
  EXPECT_EQ(schedule.degradations_in(0, tests), 1u);
}

TEST(SampleSchedule, DegradationsInAttributesEachStepToItsRange) {
  // Over budget from the start: one doubling at each of 4096, 8192, 12288.
  SamplingPolicy policy;
  policy.set_budget_bytes(1);
  SampleSchedule::CostModel model;
  model.base_bytes = 2;
  const std::uint64_t tests = 3 * kInterval + 1;
  const SampleSchedule schedule = SampleSchedule::plan(tests, policy, model);
  EXPECT_EQ(schedule.denominator_at(tests - 1), 8u);
  EXPECT_EQ(schedule.degradations_in(0, tests), 3u);
  // Ranges are half-open [begin, end): a step belongs to the range holding
  // the first test it applies to.
  EXPECT_EQ(schedule.degradations_in(0, kInterval), 0u);
  EXPECT_EQ(schedule.degradations_in(0, kInterval + 1), 1u);
  EXPECT_EQ(schedule.degradations_in(kInterval, kInterval + 1), 1u);
  EXPECT_EQ(schedule.degradations_in(kInterval + 1, 2 * kInterval), 0u);
  EXPECT_EQ(schedule.degradations_in(2 * kInterval, 3 * kInterval + 1), 2u);
  EXPECT_EQ(schedule.degradations_in(3 * kInterval + 1, tests), 0u);
  // Chunks tile the workload, so per-chunk counts sum to the total at any
  // chunk size.
  for (const std::uint64_t chunk : {256u, 1000u, 4096u}) {
    std::uint64_t sum = 0;
    for (std::uint64_t lo = 0; lo < tests; lo += chunk) {
      sum += schedule.degradations_in(lo, std::min(tests, lo + chunk));
    }
    EXPECT_EQ(sum, 3u) << "chunk=" << chunk;
  }
}

}  // namespace
}  // namespace swiftest::obs
