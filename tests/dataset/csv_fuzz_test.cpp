// Seeded mutational fuzzing of the campaign CSV reader.
//
// A 50-record campaign written by write_csv seeds kMutants mutants
// (tests/support/mutate.hpp). dataset::read_csv must either return records
// or throw std::runtime_error (the malformed-input contract in io.hpp) for
// every one of them: any other exception, a crash, or an ASan/UBSan report
// is a reader bug. tools/ci.sh runs it under ASan/UBSan.

#include <gtest/gtest.h>

#include <exception>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/rng.hpp"
#include "dataset/generator.hpp"
#include "dataset/io.hpp"
#include "support/mutate.hpp"

namespace swiftest::dataset {
namespace {

constexpr int kMutants = 1000;

/// Field and record separators, number syntax, and the letters of the
/// strings strtod also accepts (nan, inf).
constexpr std::string_view kCsvTokens = ",\n\r-+.0123456789eEnaif ";

TEST(CsvReaderFuzz, MutantsParseOrThrowRuntimeError) {
  std::ostringstream seed_out;
  write_csv(seed_out, generate_campaign(50, 2021, 5));
  const std::string seed = seed_out.str();

  int parsed = 0;
  int rejected = 0;
  core::Rng rng(0xC5F);
  for (int i = 0; i < kMutants; ++i) {
    std::istringstream in(test_support::mutate(seed, rng, kCsvTokens));
    try {
      (void)read_csv(in);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-runtime_error: " << e.what();
    }
  }
  EXPECT_EQ(parsed + rejected, kMutants);
  // Both outcomes occur, so the mutants reach past the header check.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace swiftest::dataset
