// Golden campaign manifest: runs the shipped campaigns/smoke.json (a
// windowed pipe stoppage over a continuous vote flood — phases the old
// single-enum AdversarySpec could not express) and compares the rendered
// manifest byte-for-byte against a committed fixture. This extends the
// golden corpus to the campaign engine end-to-end: JSON parsing, grid
// compilation, multi-phase fleet installation with activation windows, and
// deterministic manifest rendering.
//
// Regenerate after an intentional behavior change with
//   LOCKSS_REGEN_GOLDEN=1 ./build/campaign_golden_test
// and commit the diff with a rationale (CI's golden-fixture guard demands
// one, the same policy as tests/golden_trace_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/spec.hpp"

namespace lockss::campaign {
namespace {

std::string source_dir() { return std::string(LOCKSS_SOURCE_DIR); }

bool regen_requested() {
  const char* env = std::getenv("LOCKSS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void check_manifest_fixture(const std::string& campaign_file, const std::string& fixture_name) {
  Spec spec;
  std::string error;
  ASSERT_TRUE(load_spec_file(source_dir() + "/campaigns/" + campaign_file, &spec, &error))
      << error;
  CompiledCampaign compiled;
  ASSERT_TRUE(compile_campaign(spec, &compiled, &error)) << error;

  RunOptions options;
  options.out_dir = testing::TempDir();
  options.quiet = true;
  CampaignOutcome outcome;
  ASSERT_TRUE(run_campaign(compiled, options, &outcome, &error)) << error;
  const std::string manifest = render_manifest(compiled, outcome);

  const std::string fixture_path = source_dir() + "/tests/golden/" + fixture_name;
  if (regen_requested()) {
    std::ofstream out(fixture_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << fixture_path;
    out << manifest;
    SUCCEED() << "regenerated " << fixture_path;
    return;
  }
  std::ifstream in(fixture_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing fixture " << fixture_path
                            << " — run LOCKSS_REGEN_GOLDEN=1 ./campaign_golden_test";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), manifest)
      << "campaign manifest drifted from the committed fixture. If intentional, regenerate "
         "with LOCKSS_REGEN_GOLDEN=1 ./campaign_golden_test and commit with a rationale.";
}

TEST(CampaignGoldenTest, SmokeCampaignManifestMatchesFixture) {
  check_manifest_fixture("smoke.json", "campaign_smoke.manifest.golden");
}

// Dynamic-deployment campaigns: the fixtures pin the dynamics sections of
// the manifest (spec echo + per-cell churn/availability/intervention
// metrics) end to end — spec parsing, churn-schedule generation, operator
// engine, and the gated manifest rendering.
TEST(CampaignGoldenTest, ChurnBaselineManifestMatchesFixture) {
  check_manifest_fixture("churn_baseline.json", "churn_baseline.manifest.golden");
}

TEST(CampaignGoldenTest, RegionalOutageRecoveryManifestMatchesFixture) {
  check_manifest_fixture("regional_outage_recovery.json",
                         "regional_outage_recovery.manifest.golden");
}

// Unreliable-network campaign: pins the network_faults spec echo, the
// loss_rate sweep axis labels, and every cell's fault/timeout/abort
// accounting through the manifest — the campaign-level contract of the
// net::FaultModel delivery layer (docs/faults.md).
TEST(CampaignGoldenTest, LossyLinksManifestMatchesFixture) {
  check_manifest_fixture("lossy_links.json", "lossy_links.manifest.golden");
}

// Every shipped campaign file must always parse and compile (CI also
// validates them through the lockss_campaign binary; this covers local
// ctest runs). The directory is globbed, so a new file is covered the
// moment it lands.
TEST(CampaignGoldenTest, AllShippedCampaignsCompile) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(source_dir() + "/campaigns")) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    Spec spec;
    std::string error;
    ASSERT_TRUE(load_spec_file(path, &spec, &error)) << error;
    CompiledCampaign compiled;
    EXPECT_TRUE(compile_campaign(spec, &compiled, &error)) << path << ": " << error;
    EXPECT_FALSE(compiled.cells.empty()) << path;
  }
}

}  // namespace
}  // namespace lockss::campaign
