// Campaign figure output vs the hard-coded figure drivers it replaced.
//
// Figures 3–8 used to be produced by one C++ driver each; campaigns/fig3.json
// ... fig8.json now produce them through the campaign engine's figure
// writer. The fixtures under tests/golden/ (fig3_small.*, fig6_small.*)
// were written by those drivers at this test's reduced scale (16 peers,
// 2 AUs, 0.6 years, a 2 × 2 duration × coverage grid) for both attack
// families and all three figure metrics — the %.2e access-failure cells
// and the %.2f delay-ratio and friction cells — plus the companion trace
// CSV, which is the same for all three metrics of a family. This test
// runs the same grids as campaigns and compares every emitted byte.
//
// Regenerate after an intentional behavior change with
//   LOCKSS_REGEN_GOLDEN=1 ./build/campaign_fig_identity_test
// and commit the diff with a rationale (CI's golden-fixture guard demands
// one, the same policy as tests/golden_trace_test.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"

namespace lockss {
namespace {

bool regen_requested() {
  const char* env = std::getenv("LOCKSS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Compares `actual` with tests/golden/<fixture>, or rewrites the fixture
// under LOCKSS_REGEN_GOLDEN=1.
void check_fixture(const std::string& actual, const std::string& fixture) {
  const std::string path = std::string(LOCKSS_SOURCE_DIR) + "/tests/golden/" + fixture;
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    return;
  }
  EXPECT_EQ(slurp(path), actual) << fixture;
}

struct Family {
  const char* name;
  const char* kind;  // campaign phase kind
  const char* durations;
  const char* coverages;
};

TEST(CampaignFigIdentityTest, FigureCsvsMatchHardcodedDriversByteForByte) {
  const Family families[] = {
      {"fig3_small", "pipe_stoppage", "5, 30", "40, 100"},
      {"fig6_small", "admission_flood", "10, 90", "40, 100"},
  };
  for (const Family& family : families) {
    for (const std::string metric : {"access_failure", "delay_ratio", "friction"}) {
      const std::string name = std::string(family.name) + "_" + metric;
      const std::string csv = name + ".csv";
      const std::string spec_text = std::string("{\n") +
          "  \"name\": \"" + name + "\",\n" +
          "  \"deployment\": { \"peers\": 16, \"aus\": 2, \"duration_years\": 0.6, "
          "\"seeds\": 1 },\n" +
          "  \"damage\": { \"mean_disk_years_between_failures\": 0.6, \"aus_per_disk\": 2.0 },\n" +
          "  \"trace_days\": 7.0,\n" +
          "  \"adversary\": [ { \"kind\": \"" + family.kind +
          "\", \"recuperation_days\": 30 } ],\n" +
          "  \"sweep\": [\n" +
          "    { \"param\": \"attack_days\", \"phase\": 0, \"label\": \"d\", \"values\": [" +
          family.durations + "] },\n" +
          "    { \"param\": \"coverage_percent\", \"phase\": 0, \"label\": \"c\", \"values\": [" +
          family.coverages + "] }\n" +
          "  ],\n" +
          "  \"outputs\": { \"figure\": { \"metric\": \"" + metric + "\", \"row_header\": "
          "\"duration_days\", \"title\": \"" + name + "\", \"x_label\": \"Attack duration "
          "(days)\", \"csv\": \"" + csv + "\" } }\n" +
          "}\n";
      campaign::Json json;
      std::string error;
      ASSERT_TRUE(campaign::parse_json(spec_text, &json, &error)) << error;
      campaign::Spec spec;
      ASSERT_TRUE(campaign::parse_spec(json, name, &spec, &error)) << error;
      campaign::CompiledCampaign compiled;
      ASSERT_TRUE(campaign::compile_campaign(spec, &compiled, &error)) << error;
      campaign::RunOptions options;
      options.out_dir = testing::TempDir();
      options.quiet = true;
      campaign::CampaignOutcome outcome;
      ASSERT_TRUE(campaign::run_campaign(compiled, options, &outcome, &error)) << error;

      const std::string out = options.out_dir + csv;  // TempDir() ends in '/'
      check_fixture(slurp(out), std::string(family.name) + "." + metric + ".csv.golden");
      check_fixture(slurp(out + ".trace.csv"), std::string(family.name) + ".trace.csv.golden");
    }
  }
}

}  // namespace
}  // namespace lockss
