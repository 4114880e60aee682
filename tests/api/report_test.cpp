// RunReport serialization: a golden file locks the JSON schema (key set,
// nesting, ordering), and the CSV row must stay aligned with its header.

#include "glove/api/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/util/csv.hpp"

namespace glove::api {
namespace {

/// A real run with the timing and memory fields zeroed, so serialization
/// is deterministic and golden-comparable.
RunReport deterministic_report() {
  const Engine engine;
  RunConfig config;
  config.k = 2;
  config.suppression = core::SuppressionThresholds{15'000.0, 360.0};
  auto result = engine.run(test::paired_dataset(), config);
  EXPECT_TRUE(result.ok());
  RunReport report = std::move(result).value();
  report.timings = RunTimings{};
  report.peak_rss_bytes = 0;
  return report;
}

TEST(RunReport, JsonSchemaMatchesGoldenFile) {
  test::expect_matches_golden("run_report.json",
                              to_json(deterministic_report()));
}

TEST(RunReport, ConfigSerializesEveryNonDefaultValueByKey) {
  // Every configurable value set away from its default, each to a
  // distinct value, so a field serialized from the wrong source or under
  // the wrong key shows up.  The golden above only holds defaults for the
  // strategy sections.
  RunConfig config;
  config.k = 3;
  config.limits = core::StretchLimits{12'345.0, 321.0, 0.25, 0.75};
  config.suppression = core::SuppressionThresholds{9'000.0, 120.0};
  config.reshape = false;
  config.leftover_policy = core::LeftoverPolicy::kSuppress;
  config.chunked.chunk_size = 123;
  config.sharded.tile_size_m = 4'321.5;
  config.sharded.max_shard_users = 77;
  config.sharded.workers = 3;
  config.sharded.border = shard::BorderPolicy::kNone;
  config.sharded.halo_m = 250.5;
  config.sharded.reconcile_chunk_users = 999;
  config.w4m.delta_m = 1'500.5;
  config.w4m.trash_fraction = 0.2;
  config.w4m.chunk_size = 64;
  config.w4m.match_tolerance_min = 2.5;
  const auto result = Engine{}.run(test::paired_dataset(), config);
  ASSERT_TRUE(result.ok()) << result.error().message;

  const std::string json = to_json(result.value());
  const std::size_t begin = json.find("  \"config\": {");
  const std::size_t end = json.find("  \"counters\": {");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(json.substr(begin, end - begin), R"(  "config": {
    "strategy": "full",
    "k": 3,
    "limits": {
      "phi_max_sigma_m": 12345.0,
      "phi_max_tau_min": 321.0,
      "w_sigma": 0.25,
      "w_tau": 0.75
    },
    "suppression": {
      "enabled": true,
      "max_spatial_extent_m": 9000.0,
      "max_temporal_extent_min": 120.0
    },
    "reshape": false,
    "leftover_policy": "suppress",
    "chunked": {
      "chunk_size": 123
    },
    "sharded": {
      "tile_size_m": 4321.5,
      "max_shard_users": 77,
      "workers": 3,
      "border": "none",
      "halo_m": 250.5,
      "reconcile_chunk_users": 999
    },
    "w4m": {
      "delta_m": 1500.5,
      "trash_fraction": 0.2,
      "chunk_size": 64,
      "match_tolerance_min": 2.5
    }
  },
)");
}

TEST(RunReport, CsvRowAlignsWithHeader) {
  const RunReport report = deterministic_report();
  const auto header = util::split_csv_line(report_csv_header());
  const std::string row_text = to_csv_row(report);
  const auto row = util::split_csv_line(row_text);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(row[0], "full");
  EXPECT_EQ(row[2], "2");  // k
}

TEST(RunReport, WriteReportFilePicksFormatByExtension) {
  const RunReport report = deterministic_report();
  test::TempDir dir;

  const std::string json_path = dir.file("report.json");
  write_report_file(json_path, report);
  std::ifstream json_in{json_path};
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_NE(json_text.str().find("\"schema\": \"glove.run_report.v8\""),
            std::string::npos);

  const std::string csv_path = dir.file("report.csv");
  write_report_file(csv_path, report);
  std::ifstream csv_in{csv_path};
  std::string header_line;
  std::getline(csv_in, header_line);
  EXPECT_EQ(header_line, report_csv_header());
}

TEST(RunReport, ExtraMetricsSerializeUnderMetrics) {
  RunReport report = deterministic_report();
  report.extra_metrics = {{"clusters", 4.0}, {"mean_position_error_m", 12.5}};
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"clusters\": 4.0"), std::string::npos);
  EXPECT_NE(json.find("\"mean_position_error_m\": 12.5"), std::string::npos);
}

}  // namespace
}  // namespace glove::api
