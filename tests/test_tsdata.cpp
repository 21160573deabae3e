// Tests for the time-series container, pattern primitives and all four
// dataset generators (synthetic stress test, HPC telemetry, genome,
// turbine), plus CSV I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/text_io.hpp"
#include "csv_corpus.hpp"
#include "tsdata/genome.hpp"
#include "tsdata/hpc_telemetry.hpp"
#include "tsdata/io.hpp"
#include "tsdata/patterns.hpp"
#include "tsdata/repair.hpp"
#include "tsdata/synthetic.hpp"
#include "tsdata/time_series.hpp"
#include "tsdata/turbine.hpp"

namespace mpsim {
namespace {

TEST(TimeSeries, DimensionMajorLayout) {
  TimeSeries ts(4, 3);
  ts.at(1, 2) = 42.0;
  EXPECT_DOUBLE_EQ(ts.raw()[2 * 4 + 1], 42.0);
  EXPECT_DOUBLE_EQ(ts.dim(2)[1], 42.0);
  EXPECT_EQ(ts.dim(0).size(), 4u);
}

TEST(TimeSeries, SegmentCount) {
  TimeSeries ts(100, 1);
  EXPECT_EQ(ts.segment_count(10), 91u);
  EXPECT_EQ(ts.segment_count(100), 1u);
  EXPECT_EQ(ts.segment_count(101), 0u);
}

TEST(TimeSeries, SliceCopiesAllDimensions) {
  TimeSeries ts(10, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t t = 0; t < 10; ++t) ts.at(t, k) = double(10 * k + t);
  }
  const TimeSeries s = ts.slice(3, 4);
  EXPECT_EQ(s.length(), 4u);
  EXPECT_DOUBLE_EQ(s.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.at(3, 1), 16.0);
  EXPECT_THROW(ts.slice(8, 5), Error);
}

TEST(TimeSeries, MinMaxNormalize) {
  TimeSeries ts(5, 2);
  for (std::size_t t = 0; t < 5; ++t) {
    ts.at(t, 0) = double(t);      // 0..4
    ts.at(t, 1) = 7.0;            // constant dimension
  }
  ts.min_max_normalize(0.0, 100.0);
  EXPECT_DOUBLE_EQ(ts.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(ts.at(4, 0), 100.0);
  EXPECT_DOUBLE_EQ(ts.at(2, 0), 50.0);
  EXPECT_DOUBLE_EQ(ts.at(3, 1), 0.0);  // constant maps to lo
}

TEST(TimeSeries, RejectsMismatchedData) {
  EXPECT_THROW(TimeSeries(4, 2, std::vector<double>(7)), Error);
  EXPECT_THROW(TimeSeries(4, 0), Error);
}

class PatternShapes : public ::testing::TestWithParam<int> {};

TEST_P(PatternShapes, BoundedAndNonConstant) {
  const auto shape = PatternShape(GetParam());
  const auto samples = sample_pattern(shape, 128);
  ASSERT_EQ(samples.size(), 128u);
  double lo = 1e9, hi = -1e9;
  for (double v : samples) {
    EXPECT_GE(v, -1.0 - 1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi - lo, 0.5) << "pattern " << pattern_name(shape)
                          << " is too flat to detect";
}

TEST_P(PatternShapes, HasDistinctName) {
  const auto shape = PatternShape(GetParam());
  EXPECT_NE(std::string(pattern_name(shape)), "invalid");
}

INSTANTIATE_TEST_SUITE_P(AllEight, PatternShapes,
                         ::testing::Range(0, int(kPatternCount)));

TEST(Patterns, ShapesAreMutuallyDistinct) {
  // Z-normalisation aside, the eight primitives must differ pairwise.
  for (int a = 0; a < int(kPatternCount); ++a) {
    for (int b = a + 1; b < int(kPatternCount); ++b) {
      const auto sa = sample_pattern(PatternShape(a), 64);
      const auto sb = sample_pattern(PatternShape(b), 64);
      double diff = 0.0;
      for (std::size_t t = 0; t < 64; ++t) diff += std::fabs(sa[t] - sb[t]);
      EXPECT_GT(diff, 1.0) << a << " vs " << b;
    }
  }
}

TEST(Synthetic, ShapesAndDeterminism) {
  SyntheticSpec spec;
  spec.segments = 512;
  spec.dims = 4;
  spec.window = 32;
  spec.injections_per_dim = 3;
  const auto d1 = make_synthetic_dataset(spec);
  const auto d2 = make_synthetic_dataset(spec);
  EXPECT_EQ(d1.reference.length(), spec.series_length());
  EXPECT_EQ(d1.reference.dims(), 4u);
  EXPECT_EQ(d1.injections.size(), 12u);
  EXPECT_EQ(d1.reference.raw(), d2.reference.raw());  // same seed
  spec.seed = 43;
  const auto d3 = make_synthetic_dataset(spec);
  EXPECT_NE(d1.reference.raw(), d3.reference.raw());
}

TEST(Synthetic, InjectionsAreInRangeAndSpaced) {
  SyntheticSpec spec;
  spec.segments = 1024;
  spec.dims = 2;
  spec.window = 32;
  spec.injections_per_dim = 8;
  const auto data = make_synthetic_dataset(spec);
  for (const auto& inj : data.injections) {
    EXPECT_LT(inj.query_position, spec.segments);
    EXPECT_LT(inj.reference_position, spec.segments);
  }
  // Per dimension, query positions must be spaced by >= 2 windows.
  for (std::size_t k = 0; k < spec.dims; ++k) {
    std::vector<std::size_t> q;
    for (const auto& inj : data.injections) {
      if (inj.dim == k) q.push_back(inj.query_position);
    }
    std::sort(q.begin(), q.end());
    for (std::size_t i = 1; i < q.size(); ++i) {
      EXPECT_GE(q[i] - q[i - 1], 2 * spec.window);
    }
  }
}

TEST(Synthetic, InjectedPatternIsPresentInSeries) {
  SyntheticSpec spec;
  spec.segments = 512;
  spec.dims = 1;
  spec.window = 64;
  spec.injections_per_dim = 1;
  spec.noise_sigma = 0.1;
  spec.shape = PatternShape::kSquare;
  const auto data = make_synthetic_dataset(spec);
  const auto& inj = data.injections.front();
  const auto pattern = sample_pattern(spec.shape, spec.window);
  double err = 0.0;
  for (std::size_t t = 0; t < spec.window; ++t) {
    err += std::fabs(data.query.at(inj.query_position + t, 0) - pattern[t]);
  }
  EXPECT_LT(err / double(spec.window), 0.1);  // only residual noise
}

TEST(Synthetic, RejectsImpossiblePlacements) {
  SyntheticSpec spec;
  spec.segments = 300;
  spec.window = 64;
  spec.dims = 1;
  spec.injections_per_dim = 50;  // cannot fit with 2-window spacing
  EXPECT_THROW(make_synthetic_dataset(spec), Error);
}

TEST(NoiseSeries, MomentsMatch) {
  const auto ts = make_noise_series(20000, 2, 0.5, 9);
  for (std::size_t k = 0; k < 2; ++k) {
    double sum = 0.0, sumsq = 0.0;
    for (double v : ts.dim(k)) {
      sum += v;
      sumsq += v * v;
    }
    const double mean = sum / double(ts.length());
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(sumsq / double(ts.length()) - mean * mean, 0.25, 0.02);
  }
}

TEST(RandomWalk, AccumulatesSteps) {
  const auto walk = make_random_walk_series(5000, 2, 1.0, 21);
  // A walk wanders: the terminal displacement should be of order
  // sqrt(length), far beyond white noise's O(1).
  double max_abs = 0.0;
  for (double v : walk.dim(0)) max_abs = std::max(max_abs, std::fabs(v));
  EXPECT_GT(max_abs, 10.0);
  // Steps are the configured size.
  double step_sq = 0.0;
  const auto d0 = walk.dim(0);
  for (std::size_t t = 1; t < walk.length(); ++t) {
    const double s = d0[t] - d0[t - 1];
    step_sq += s * s;
  }
  EXPECT_NEAR(step_sq / double(walk.length() - 1), 1.0, 0.1);
}

TEST(HpcTelemetry, LabelsCoverTimelineAndClasses) {
  HpcTelemetrySpec spec;
  spec.length = 8192;
  const auto data = make_hpc_telemetry(spec);
  EXPECT_EQ(data.series.length(), spec.length);
  EXPECT_EQ(data.series.dims(), 16u);
  EXPECT_EQ(data.labels.size(), spec.length);
  std::set<int> seen(data.labels.begin(), data.labels.end());
  EXPECT_GE(seen.size(), 4u);  // idle + several applications
  for (int label : data.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, int(kHpcAppClassCount));
  }
}

TEST(HpcTelemetry, ClassSignaturesAreSeparable) {
  // Mean sensor level during a phase must differ between classes —
  // otherwise the nearest-neighbour classifier cannot work even at FP64.
  HpcTelemetrySpec spec;
  spec.length = 16384;
  spec.noise_sigma = 0.0;
  const auto data = make_hpc_telemetry(spec);
  std::vector<double> mean(kHpcAppClassCount, 0.0);
  std::vector<int> count(kHpcAppClassCount, 0);
  for (std::size_t t = 0; t < spec.length; ++t) {
    mean[std::size_t(data.labels[t])] += data.series.at(t, 0);
    count[std::size_t(data.labels[t])] += 1;
  }
  std::vector<double> levels;
  for (std::size_t c = 0; c < kHpcAppClassCount; ++c) {
    if (count[c] > 100) levels.push_back(mean[c] / count[c]);
  }
  ASSERT_GE(levels.size(), 3u);
  std::sort(levels.begin(), levels.end());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i] - levels[i - 1], 1e-3);
  }
}

TEST(HpcTelemetry, ClassNames) {
  EXPECT_STREQ(hpc_app_class_name(HpcAppClass::kNone), "None");
  EXPECT_STREQ(hpc_app_class_name(HpcAppClass::kQuicksilver), "Quicksilver");
}

TEST(Genome, EncodingMatchesPaper) {
  // A->1, C->2, T->3, G->4 (§VI-B).
  EXPECT_DOUBLE_EQ(encode_base('A'), 1.0);
  EXPECT_DOUBLE_EQ(encode_base('C'), 2.0);
  EXPECT_DOUBLE_EQ(encode_base('T'), 3.0);
  EXPECT_DOUBLE_EQ(encode_base('G'), 4.0);
  EXPECT_DOUBLE_EQ(encode_base('g'), 4.0);
  EXPECT_THROW(encode_base('N'), Error);
  const auto enc = encode_genome("ACTG");
  EXPECT_EQ(enc, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(Genome, DatasetSharesSubstringsBetweenRefAndQuery) {
  GenomeSpec spec;
  spec.length = 4096;
  spec.chromosomes = 2;
  spec.shared_fraction = 1.0;  // every block copied
  spec.mutation_rate = 0.0;
  const auto data = make_genome_dataset(spec);
  // With pure copying and no mutations, every query block must appear
  // verbatim in the reference.
  const auto& ref = data.reference_bases[0];
  const auto& qry = data.query_bases[0];
  const std::string probe = qry.substr(100, 64);
  EXPECT_NE(ref.find(probe), std::string::npos);
  // Encoded series uses only the values 1..4.
  for (double v : data.query.dim(0)) {
    EXPECT_TRUE(v == 1.0 || v == 2.0 || v == 3.0 || v == 4.0);
  }
}

TEST(Genome, MutationRateControlsDivergence) {
  GenomeSpec spec;
  spec.length = 8192;
  spec.chromosomes = 1;
  spec.shared_fraction = 1.0;
  spec.mutation_rate = 0.5;
  const auto noisy = make_genome_dataset(spec);
  spec.mutation_rate = 0.0;
  const auto clean = make_genome_dataset(spec);
  // Clean copies: long verbatim matches exist; mutated: they mostly don't.
  const std::string probe_clean = clean.query_bases[0].substr(0, 64);
  EXPECT_NE(clean.reference_bases[0].find(probe_clean), std::string::npos);
  const std::string probe_noisy = noisy.query_bases[0].substr(0, 64);
  EXPECT_EQ(noisy.reference_bases[0].find(probe_noisy), std::string::npos);
}

TEST(Turbine, StartupShapesRiseToNominal) {
  for (auto shape : {StartupShape::kP1, StartupShape::kP2}) {
    EXPECT_LT(startup_value(shape, 0.0), 0.1);
    EXPECT_GT(startup_value(shape, 1.0), 0.9);
    // Monotone non-decreasing within tolerance.
    double prev = -1.0;
    for (int i = 0; i <= 100; ++i) {
      const double v = startup_value(shape, i / 100.0);
      EXPECT_GE(v, prev - 0.02);
      prev = v;
    }
  }
}

TEST(Turbine, P1HasIgnitionPlateauP2DoesNot) {
  // P1's staged startup holds near 20% mid-ramp; P2 passes through
  // smoothly — this is what makes the two classes distinguishable.
  const double p1_mid = startup_value(StartupShape::kP1, 0.4);
  EXPECT_NEAR(p1_mid, 0.21, 0.03);
  const double p2_mid = startup_value(StartupShape::kP2, 0.4);
  EXPECT_LT(p2_mid, 0.45);
  EXPECT_GT(startup_value(StartupShape::kP2, 0.6), 0.7);
}

TEST(Turbine, SeriesEmbedsRequestedEvents) {
  TurbineSpec spec;
  spec.segments = 4096;
  spec.window = 256;
  const auto t = make_turbine_series(spec, 1, 3, 2);
  EXPECT_EQ(t.p1_starts.size(), 3u);
  EXPECT_EQ(t.p2_starts.size(), 2u);
  EXPECT_EQ(t.series.dims(), 1u);
  // Min-max normalised to [0, 1] (avoids FP16 overflow, §VI-C).
  const auto [mn, mx] = std::minmax_element(t.series.dim(0).begin(),
                                            t.series.dim(0).end());
  EXPECT_DOUBLE_EQ(*mn, 0.0);
  EXPECT_DOUBLE_EQ(*mx, 1.0);
  // A startup event actually reaches high speed near its end.
  const std::size_t pos = t.p1_starts.front();
  double peak = 0.0;
  for (std::size_t u = 0; u < spec.window; ++u) {
    peak = std::max(peak, t.series.at(pos + u, 0));
  }
  EXPECT_GT(peak, 0.8);
}

TEST(Turbine, DifferentTurbinesDiffer) {
  TurbineSpec spec;
  spec.segments = 2048;
  spec.window = 128;
  const auto t1 = make_turbine_series(spec, 1, 2, 2);
  const auto t2 = make_turbine_series(spec, 2, 2, 2);
  EXPECT_NE(t1.series.raw(), t2.series.raw());
}

TEST(Repair, InterpolatesNonFiniteRuns) {
  TimeSeries ts(8, 2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // dim 0: 0 1 NaN NaN 4 5 inf 7  -> linear fills
  const double v0[] = {0, 1, nan, nan, 4, 5, inf, 7};
  // dim 1: NaN 2 3 4 5 6 7 NaN   -> edge extrapolation
  const double v1[] = {nan, 2, 3, 4, 5, 6, 7, nan};
  for (std::size_t t = 0; t < 8; ++t) {
    ts.at(t, 0) = v0[t];
    ts.at(t, 1) = v1[t];
  }
  const std::size_t fixed = repair_non_finite(ts);
  EXPECT_EQ(fixed, 5u);
  EXPECT_DOUBLE_EQ(ts.at(2, 0), 2.0);
  EXPECT_DOUBLE_EQ(ts.at(3, 0), 3.0);
  EXPECT_DOUBLE_EQ(ts.at(6, 0), 6.0);
  EXPECT_DOUBLE_EQ(ts.at(0, 1), 2.0);  // left edge copies neighbour
  EXPECT_DOUBLE_EQ(ts.at(7, 1), 7.0);  // right edge copies neighbour
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_TRUE(std::isfinite(ts.at(t, k)));
    }
  }
}

TEST(Repair, AllNonFiniteDimensionZeroFills) {
  TimeSeries ts(4, 1);
  for (std::size_t t = 0; t < 4; ++t) {
    ts.at(t, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  EXPECT_EQ(repair_non_finite(ts), 4u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_DOUBLE_EQ(ts.at(t, 0), 0.0);
}

TEST(Repair, CleanSeriesUntouched) {
  TimeSeries ts(6, 2);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t t = 0; t < 6; ++t) ts.at(t, k) = double(t + k);
  }
  const TimeSeries before = ts;
  EXPECT_EQ(repair_non_finite(ts), 0u);
  EXPECT_EQ(ts.raw(), before.raw());
}

TEST(CsvIo, RoundTrip) {
  TimeSeries ts(16, 3);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t t = 0; t < 16; ++t) {
      ts.at(t, k) = double(k) * 100.0 + double(t) * 0.125;
    }
  }
  const auto path =
      (std::filesystem::temp_directory_path() / "mpsim_io_test.csv").string();
  write_csv(path, ts);
  const TimeSeries back = read_csv(path);
  EXPECT_EQ(back.length(), 16u);
  EXPECT_EQ(back.dims(), 3u);
  EXPECT_EQ(back.raw(), ts.raw());
  std::remove(path.c_str());
}

TEST(CsvIo, HeaderlessAndErrors) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_noheader.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1.5,2.5\n3.5,4.5\n", f);
    std::fclose(f);
  }
  const TimeSeries ts = read_csv(path);
  EXPECT_EQ(ts.length(), 2u);
  EXPECT_DOUBLE_EQ(ts.at(1, 1), 4.5);
  std::remove(path.c_str());
  EXPECT_THROW(read_csv((dir / "does_not_exist.csv").string()), Error);
}

TEST(CsvIo, CrlfLineEndingsAndBlankLines) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_crlf.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // CRLF file: header row, a blank CRLF-only line mid-file, data rows.
    std::fputs("alpha,beta\r\n1.5,2.5\r\n\r\n3.5,4.5\r\n", f);
    std::fclose(f);
  }
  const TimeSeries ts = read_csv(path);
  EXPECT_EQ(ts.length(), 2u);
  EXPECT_EQ(ts.dims(), 2u);
  EXPECT_DOUBLE_EQ(ts.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(ts.at(1, 1), 4.5);
  std::remove(path.c_str());
}

TEST(CsvIo, TrailingCommaIsAnErrorWithLineNumber) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_trailing.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1.0,2.0\n3.0,4.0,\n", f);
    std::fclose(f);
  }
  // The trailing comma makes row 2 a three-cell row: it must be rejected
  // (not silently read as two cells), and the error names the line.
  try {
    read_csv(path);
    FAIL() << "trailing comma did not raise";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CsvIo, NonNumericCellReportsLineNumber) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_nonnum.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1.0,2.0\n3.0,oops\n", f);
    std::fclose(f);
  }
  try {
    read_csv(path);
    FAIL() << "non-numeric cell did not raise";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2:"), std::string::npos) << what;
    EXPECT_NE(what.find("oops"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(CsvIo, HeaderOnlyFileIsAnError) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_headeronly.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("alpha,beta\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_csv(path), Error);
  std::remove(path.c_str());
}

// ---- CSV differential tests: read_csv against strtod -------------------

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t strtod_bits(const std::string& cell) {
  return bits_of(std::strtod(cell.c_str(), nullptr));
}

// parse_csv over an exact-size heap copy of `text` with no NUL after it,
// so a read past the last byte trips AddressSanitizer.
TimeSeries parse_unterminated(const std::string& text) {
  const auto buf = std::make_unique<char[]>(text.size());
  std::memcpy(buf.get(), text.data(), text.size());
  return parse_csv(std::string_view(buf.get(), text.size()), "buffer");
}

// Rows of `values` rendered as write_csv renders them, `dims` cells a row;
// `expect` gets strtod's bits of each rendered cell.
std::string render_rows(const std::vector<double>& values, std::size_t dims,
                        std::vector<std::uint64_t>& expect) {
  std::string text, cell;
  for (std::size_t i = 0; i < values.size(); ++i) {
    cell.clear();
    append_double(cell, values[i]);
    expect.push_back(strtod_bits(cell));
    text += cell;
    text += (i + 1) % dims == 0 ? '\n' : ',';
  }
  return text;
}

void expect_series_bits(const TimeSeries& ts, std::size_t dims,
                        const std::vector<std::uint64_t>& expect) {
  ASSERT_EQ(ts.dims(), dims);
  ASSERT_EQ(ts.length() * dims, expect.size());
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < ts.length(); ++t) {
    for (std::size_t k = 0; k < dims; ++k) {
      if (bits_of(ts.at(t, k)) != expect[t * dims + k] && ++mismatches < 5) {
        ADD_FAILURE() << "row " << t << " col " << k << ": read "
                      << ts.at(t, k) << ", strtod gives "
                      << std::bit_cast<double>(expect[t * dims + k]);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CsvDifferential, ParseMatchesStrtodOnRenderedCorpus) {
  // 4 chunks of 65536 rows x 4 cells: 2^20 random bit patterns, the edge
  // values in front.
  constexpr std::size_t kRows = 65536, kDims = 4, kChunks = 4;
  for (std::size_t c = 0; c < kChunks; ++c) {
    auto values = csv_random_values(kRows * kDims, 300 + c);
    if (c == 0) {
      const auto edges = csv_edge_values();
      std::copy(edges.begin(), edges.end(), values.begin());
    }
    std::vector<std::uint64_t> expect;
    const std::string text = render_rows(values, kDims, expect);
    expect_series_bits(parse_unterminated(text), kDims, expect);
  }
}

TEST(CsvDifferential, WriteCsvReadCsvMatchesStrtod) {
  const auto values = csv_random_values(4096 * 3, 400);
  TimeSeries ts(4096, 3);
  for (std::size_t t = 0; t < 4096; ++t) {
    for (std::size_t k = 0; k < 3; ++k) ts.at(t, k) = values[t * 3 + k];
  }
  std::vector<std::uint64_t> expect;
  render_rows(values, 3, expect);
  const auto path = (std::filesystem::temp_directory_path() /
                     "mpsim_io_corpus.csv").string();
  write_csv(path, ts);
  expect_series_bits(read_csv(path), 3, expect);
  std::remove(path.c_str());
}

TEST(CsvDifferential, CellsKeepTheirStrtodValue) {
  // Each cell parses to strtod's bits, in the first column (where it also
  // decides header detection) and in the last, with and without a final
  // newline.
  for (const std::string cell :
       {"+1.5", " 1.5", "\t1.5", "0x1p3", "-0X1P-2", "1e999", "-1e999",
        "1e-400", "-1e-400", "4.9e-324", "nan", "-nan", "inf", "-inf",
        "Infinity", "NAN(123)", "nan(0x8000000000001)", "1.5 ", "1.5\t",
        "-0", ".5", "5.", "1E+2", "0000.25", "1.5 \r"}) {
    const std::uint64_t want = strtod_bits(cell);
    const std::pair<std::string, std::size_t> placements[] = {
        {cell + ",0\n", 0}, {cell + ",0", 0}, {"0," + cell + "\n", 1},
        {"0," + cell, 1}};
    for (const auto& [text, k] : placements) {
      const TimeSeries ts = parse_unterminated(text);
      ASSERT_EQ(ts.length(), 1u) << "cell '" << cell << "'";
      EXPECT_EQ(bits_of(ts.at(0, k)), want)
          << "cell '" << cell << "' in '" << text << "'";
    }
  }
}

TEST(CsvDifferential, TrailingJunkIsANonNumericCell) {
  for (const std::string cell :
       {"1.5abc", "4x", "1.5 x", "0x", "0x1p3z", "1e", "nan(", "inf inf",
        "--1", "+-1", "", " ", "1,5"}) {
    const std::string text = "1,2\n3," + cell + "\n";
    try {
      parse_unterminated(text);
      FAIL() << "cell '" << cell << "' was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("buffer:2:"), std::string::npos) << what;
      if (cell.find(',') == std::string::npos) {
        EXPECT_NE(what.find("non-numeric cell '" + cell + "'"),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(CsvDifferential, HeaderDetectionUsesTheCellRule) {
  // A first cell with trailing junk is not a number, so its row is a
  // header; a first cell strtod reads whole keeps its row as data.
  const TimeSeries junk = parse_unterminated("3.0x,4\n1,2\n");
  EXPECT_EQ(junk.length(), 1u);
  EXPECT_EQ(junk.at(0, 1), 2.0);
  const TimeSeries hex = parse_unterminated("0x10,4\n1,2\n");
  ASSERT_EQ(hex.length(), 2u);
  EXPECT_EQ(hex.at(0, 0), 16.0);
}

TEST(CsvDifferential, LastRowMayEndAtTheEndOfTheFile) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "mpsim_io_nofinalnewline.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b\n1.5,2.5\n3.5,0x1p-1", f);
    std::fclose(f);
  }
  const TimeSeries ts = read_csv(path);
  ASSERT_EQ(ts.length(), 2u);
  EXPECT_EQ(ts.at(1, 0), 3.5);
  EXPECT_EQ(ts.at(1, 1), 0.5);
  std::remove(path.c_str());

  // The last byte of the buffer is the last byte of the last cell, for
  // each path a cell can take.
  for (const std::string last : {"4.25", "1e999", "0x1p3", "nan", "+1", "7 "}) {
    const TimeSeries end = parse_unterminated("1,2\r\n3," + last);
    ASSERT_EQ(end.length(), 2u) << last;
    EXPECT_EQ(bits_of(end.at(1, 1)), strtod_bits(last)) << last;
  }
  EXPECT_EQ(parse_unterminated("1\n2\r").at(1, 0), 2.0);
}

}  // namespace
}  // namespace mpsim
