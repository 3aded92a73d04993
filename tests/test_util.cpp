// Unit tests for util: rng, units, stats, cli, csv, contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace ctesim {
namespace {

TEST(Check, ExpectsThrowsContractError) {
  auto bad = [] { CTESIM_EXPECTS(1 == 2); };
  EXPECT_THROW(bad(), ContractError);
  auto good = [] { CTESIM_EXPECTS(1 == 1); };
  EXPECT_NO_THROW(good());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 10);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 10);
    saw_lo |= v == 3;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.split();
  // Child continues differently from the parent.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Units, BytesBinary) {
  EXPECT_EQ(units::format_bytes_binary(256), "256 B");
  EXPECT_EQ(units::format_bytes_binary(1024), "1.00 KiB");
  EXPECT_EQ(units::format_bytes_binary(1 << 20), "1.00 MiB");
}

TEST(Units, Bandwidth) {
  EXPECT_EQ(units::format_bandwidth(862.6e9), "862.60 GB/s");
  EXPECT_EQ(units::format_bandwidth(6.8e9), "6.80 GB/s");
}

TEST(Units, Flops) {
  EXPECT_EQ(units::format_flops(70.40e9), "70.40 GFlop/s");
  EXPECT_EQ(units::format_flops(3379.2e9), "3.38 TFlop/s");
}

TEST(Units, Seconds) {
  EXPECT_EQ(units::format_seconds(1.5), "1.500 s");
  EXPECT_EQ(units::format_seconds(2.5e-3), "2.500 ms");
  EXPECT_EQ(units::format_seconds(3.0e-6), "3.000 us");
}

TEST(Units, ParseSize) {
  std::uint64_t v = 0;
  EXPECT_TRUE(units::parse_size("256", &v));
  EXPECT_EQ(v, 256u);
  EXPECT_TRUE(units::parse_size("4k", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(units::parse_size("2MB", &v));
  EXPECT_EQ(v, 2u << 20);
  EXPECT_TRUE(units::parse_size("1G", &v));
  EXPECT_EQ(v, 1u << 30);
  EXPECT_FALSE(units::parse_size("", &v));
  EXPECT_FALSE(units::parse_size("12x", &v));
  EXPECT_FALSE(units::parse_size("k12", &v));
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, HistogramBinsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-100.0);  // clamps to first bin
  h.add(100.0);   // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 2.0);
}

TEST(Stats, HistogramDetectsBimodality) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 40; ++i) h.add(2.5);
  for (int i = 0; i < 40; ++i) h.add(7.5);
  for (int i = 0; i < 5; ++i) h.add(5.0);
  EXPECT_EQ(h.modes(0.2), 2);
  Histogram uni(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) uni.add(5.0);
  EXPECT_EQ(uni.modes(0.2), 1);
}

TEST(Stats, Percentile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.5);
}

TEST(Cli, ParsesTypedOptions) {
  std::int64_t nodes = 4;
  double frac = 0.5;
  std::string name = "default";
  bool verbose = false;
  Cli cli("prog", "test");
  cli.option("nodes", &nodes, "node count")
      .option("frac", &frac, "fraction")
      .option("name", &name, "label")
      .flag("verbose", &verbose, "chatty");
  const char* argv[] = {"prog", "--nodes=16", "--frac", "0.25",
                        "--name=cte", "--verbose"};
  EXPECT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(nodes, 16);
  EXPECT_DOUBLE_EQ(frac, 0.25);
  EXPECT_EQ(name, "cte");
  EXPECT_TRUE(verbose);
}

TEST(Cli, RejectsUnknownAndMalformed) {
  std::int64_t n = 0;
  Cli cli("prog", "test");
  cli.option("n", &n, "num");
  const char* bad1[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, bad1));
  const char* bad2[] = {"prog", "--n=abc"};
  EXPECT_FALSE(cli.parse(2, bad2));
  EXPECT_NE(cli.exit_status(), 0);
  // A non-bool option with nothing after it is an error, not an empty value.
  std::string path = "unset";
  cli.option("csv", &path, "path");
  const char* missing[] = {"prog", "--csv"};
  EXPECT_FALSE(cli.parse(2, missing));
  EXPECT_NE(cli.exit_status(), 0);
  EXPECT_EQ(path, "unset");
  const char* missing_int[] = {"prog", "--n"};
  EXPECT_FALSE(cli.parse(2, missing_int));
  EXPECT_NE(cli.exit_status(), 0);
  // A following flag is not a value: neither --help nor another option is
  // taken as the path, and both are errors, not help.
  const char* flag_as_value[] = {"prog", "--csv", "--help"};
  EXPECT_FALSE(cli.parse(3, flag_as_value));
  EXPECT_EQ(cli.exit_status(), 2);
  EXPECT_EQ(path, "unset");
  const char* option_as_value[] = {"prog", "--csv", "--n", "5"};
  EXPECT_FALSE(cli.parse(4, option_as_value));
  EXPECT_EQ(cli.exit_status(), 2);
  EXPECT_EQ(path, "unset");
  EXPECT_EQ(n, 0);
  // The --name=value form takes any value, and "-5" is a value.
  const char* joined[] = {"prog", "--csv=--odd", "--n", "-5"};
  EXPECT_TRUE(cli.parse(4, joined));
  EXPECT_EQ(path, "--odd");
  EXPECT_EQ(n, -5);
  // An explicit empty value is still a value.
  const char* empty[] = {"prog", "--csv="};
  EXPECT_TRUE(cli.parse(2, empty));
  EXPECT_EQ(path, "");
  // --help stops the program too, but successfully.
  Cli help("prog", "test");
  const char* want_help[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(help.parse(2, want_help));
  EXPECT_NE(testing::internal::GetCapturedStdout().find("Options:"),
            std::string::npos);
  EXPECT_EQ(help.exit_status(), 0);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "ctesim_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row(std::vector<std::string>{"plain", "with,comma"});
    csv.row(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "a,b\nplain,\"with,comma\"\n1.5,2\n");
  std::remove(path.c_str());
}

TEST(Csv, EscapeQuotes) {
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
}

TEST(Csv, ReaderRoundTripsWriterOutput) {
  const std::string path = ::testing::TempDir() + "ctesim_csv_rw_test.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.row(std::vector<std::string>{"with,comma", "1.5"});
    csv.row(std::vector<std::string>{"say \"hi\"", "-2"});
  }
  CsvReader reader(path);
  std::remove(path.c_str());
  ASSERT_EQ(reader.header(),
            (std::vector<std::string>{"name", "value"}));
  ASSERT_EQ(reader.rows(), 2u);
  EXPECT_TRUE(reader.has_column("value"));
  EXPECT_FALSE(reader.has_column("nope"));
  EXPECT_EQ(reader.cell(0, "name"), "with,comma");
  EXPECT_EQ(reader.cell(1, 0), "say \"hi\"");
  EXPECT_DOUBLE_EQ(reader.number(0, "value"), 1.5);
  EXPECT_DOUBLE_EQ(reader.number(1, "value"), -2.0);
  EXPECT_THROW(reader.number(0, "name"), std::runtime_error);
  EXPECT_THROW(reader.cell(0, "nope"), std::runtime_error);
}

TEST(Csv, ReaderParsesQuotedFields) {
  const auto fields = CsvReader::parse_line("a,\"b,c\",\"d\"\"e\",");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
  EXPECT_EQ(fields[3], "");
}

TEST(Csv, ReaderRejectsMissingAndRaggedFiles) {
  EXPECT_THROW(CsvReader("/nonexistent/nope.csv"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "ctesim_csv_bad_test.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2,3\n";
  }
  EXPECT_THROW(CsvReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctesim
