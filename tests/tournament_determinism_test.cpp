// Tournament determinism: the payoff matrix is an experiment artifact, so
// it obeys the same contract as the manifest — a pure function of the spec,
// byte-identical at every worker count (1/2/8) and across a kill +
// --resume at any journal offset. The
// shipped campaigns/tournament_smoke.json (adaptive adversary strategies ×
// operator playbooks over a churning deployment) is additionally pinned
// against golden fixtures for both the manifest and the payoff CSV.
//
// Regenerate the fixtures after an intentional behavior change with
//   LOCKSS_REGEN_GOLDEN=1 ./build/tournament_determinism_test
// and commit the diff with a rationale (CI's golden-fixture guard demands
// one, the same policy as tests/campaign_golden_test.cpp).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "campaign/engine.hpp"
#include "campaign/fault.hpp"
#include "campaign/spec.hpp"
#include "experiment/runner.hpp"

namespace lockss::campaign {
namespace {

std::string source_dir() { return std::string(LOCKSS_SOURCE_DIR); }

bool regen_requested() {
  const char* env = std::getenv("LOCKSS_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "tournament_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CompiledCampaign compile_file(const std::string& campaign_file) {
  Spec spec;
  std::string error;
  EXPECT_TRUE(load_spec_file(source_dir() + "/campaigns/" + campaign_file, &spec, &error))
      << error;
  CompiledCampaign compiled;
  EXPECT_TRUE(compile_campaign(spec, &compiled, &error)) << error;
  return compiled;
}

// Every artifact in `dir` except the journal (whose record order is
// completion-order-dependent) and temp files.
std::map<std::string, std::string> read_artifacts(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".journal") || name.ends_with(".tmp")) {
      continue;
    }
    files[name] = read_bytes(entry.path().string());
  }
  return files;
}

RunOptions make_options(const std::string& dir) {
  RunOptions options;
  options.out_dir = dir;
  options.quiet = true;
  return options;
}

std::map<std::string, std::string> run_at_workers(const CompiledCampaign& compiled,
                                                  unsigned workers, const std::string& tag) {
  const std::string dir = fresh_dir(tag);
  experiment::ParallelRunner::set_default_workers(workers);
  CampaignOutcome outcome;
  std::string error;
  EXPECT_TRUE(run_campaign(compiled, make_options(dir), &outcome, &error)) << error;
  experiment::ParallelRunner::set_default_workers(0);
  EXPECT_TRUE(outcome.all_ok());
  return read_artifacts(dir);
}

void expect_same_artifacts(const std::map<std::string, std::string>& reference,
                           const std::map<std::string, std::string>& probe,
                           const std::string& label) {
  ASSERT_EQ(probe.size(), reference.size()) << label;
  for (const auto& [name, bytes] : reference) {
    ASSERT_TRUE(probe.contains(name)) << label << ": missing " << name;
    EXPECT_EQ(probe.at(name), bytes) << label << ": " << name << " drifted";
  }
}

// --- Worker-count invariance ---------------------------------------------

// Every tournament artifact — manifest, payoff matrix, cells CSV, per-unit
// trace binaries — is byte-identical at 1, 2, and 8 workers. Unit
// completion order varies wildly across these; none of it may reach disk.
TEST(TournamentDeterminismTest, ArtifactsByteIdenticalAcrossWorkerCounts) {
  const CompiledCampaign compiled = compile_file("tournament_smoke.json");
  ASSERT_EQ(compiled.cells.size(), 4u);  // 2 adversary x 2 operator strategies
  const std::map<std::string, std::string> reference = run_at_workers(compiled, 1, "w1");
  ASSERT_TRUE(reference.contains("tournament_smoke.payoff.csv"));
  for (const unsigned workers : {2u, 8u}) {
    const std::map<std::string, std::string> probe =
        run_at_workers(compiled, workers, "w" + std::to_string(workers));
    expect_same_artifacts(reference, probe, "workers=" + std::to_string(workers));
  }
}

// --- Mid-tournament kill + resume ----------------------------------------

// Kill the campaign right after the nth journal record (SIGKILL semantics
// via _exit in a forked child), resume with --resume at a different worker
// count, and every artifact — payoff matrix included — matches the
// uninterrupted run byte for byte.
TEST(TournamentDeterminismTest, KillResumeReproducesPayoffByteForByte) {
  const CompiledCampaign compiled = compile_file("tournament_smoke.json");
  const std::string ref_dir = fresh_dir("resume_ref");
  {
    CampaignOutcome outcome;
    std::string error;
    ASSERT_TRUE(run_campaign(compiled, make_options(ref_dir), &outcome, &error)) << error;
    ASSERT_TRUE(outcome.all_ok());
  }
  const std::map<std::string, std::string> reference = read_artifacts(ref_dir);
  ASSERT_TRUE(reference.contains("tournament_smoke.payoff.csv"));

  // Offsets straddle the grid: 1 = baseline only journaled, 3 = mid-matrix.
  for (const uint64_t offset : {1ull, 3ull}) {
    for (const unsigned workers : {1u, 8u}) {
      const std::string dir =
          fresh_dir("resume_k" + std::to_string(offset) + "_w" + std::to_string(workers));
      const pid_t pid = fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        experiment::ParallelRunner::set_default_workers(workers);
        RunOptions options = make_options(dir);
        std::string error;
        ASSERT_TRUE(
            parse_fault_plan("kill:" + std::to_string(offset), &options.faults, &error));
        CampaignOutcome child_outcome;
        run_campaign(compiled, options, &child_outcome, &error);
        ::_exit(42);  // only reached if the kill offset never fired
      }
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), 137) << "kill offset " << offset << " never fired";

      experiment::ParallelRunner::set_default_workers(workers);
      RunOptions options = make_options(dir);
      options.resume = true;
      CampaignOutcome outcome;
      std::string error;
      ASSERT_TRUE(run_campaign(compiled, options, &outcome, &error)) << error;
      experiment::ParallelRunner::set_default_workers(0);
      EXPECT_TRUE(outcome.all_ok());
      EXPECT_EQ(outcome.units_resumed, offset);
      expect_same_artifacts(reference, read_artifacts(dir),
                            "kill:" + std::to_string(offset) +
                                " workers=" + std::to_string(workers));
    }
  }
}

// --- Golden fixtures ------------------------------------------------------

// The shipped tournament smoke campaign is golden-pinned end to end: both
// the manifest (spec echo, strategy axes, per-cell policy accounting) and
// the payoff matrix (afp / adversary effort / score blocks) must match the
// committed fixtures byte for byte.
TEST(TournamentDeterminismTest, SmokeTournamentMatchesGoldenFixtures) {
  const CompiledCampaign compiled = compile_file("tournament_smoke.json");
  RunOptions options;
  options.out_dir = testing::TempDir();
  options.quiet = true;
  CampaignOutcome outcome;
  std::string error;
  ASSERT_TRUE(run_campaign(compiled, options, &outcome, &error)) << error;
  ASSERT_TRUE(outcome.all_ok());

  const std::map<std::string, std::string> rendered = {
      {"tournament_smoke.manifest.golden", render_manifest(compiled, outcome)},
      {"tournament_smoke.payoff.golden", render_payoff_csv(compiled, outcome)},
  };
  for (const auto& [fixture_name, bytes] : rendered) {
    const std::string fixture_path = source_dir() + "/tests/golden/" + fixture_name;
    if (regen_requested()) {
      std::ofstream out(fixture_path, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.is_open()) << "cannot write " << fixture_path;
      out << bytes;
      continue;
    }
    std::ifstream in(fixture_path, std::ios::binary);
    ASSERT_TRUE(in.is_open()) << "missing fixture " << fixture_path
                              << " — run LOCKSS_REGEN_GOLDEN=1 ./tournament_determinism_test";
    std::stringstream committed;
    committed << in.rdbuf();
    EXPECT_EQ(committed.str(), bytes)
        << fixture_name
        << " drifted from the committed fixture. If intentional, regenerate with "
           "LOCKSS_REGEN_GOLDEN=1 ./tournament_determinism_test and commit with a rationale.";
  }
}

// --- Policy-free gating ---------------------------------------------------

// Campaigns without policies or tournaments must render exactly as the
// pre-policy engine did: no payoff artifact, no policy keys in the
// manifest, no policy columns in the cells CSV. (The golden corpus pins the
// bytes; this pins the gating logic by name.)
TEST(TournamentDeterminismTest, PolicyFreeCampaignsRenderNoPolicyArtifacts) {
  const CompiledCampaign compiled = compile_file("smoke.json");
  EXPECT_FALSE(spec_has_policies(compiled.spec));
  const std::string dir = fresh_dir("policy_free");
  CampaignOutcome outcome;
  std::string error;
  ASSERT_TRUE(run_campaign(compiled, make_options(dir), &outcome, &error)) << error;
  EXPECT_TRUE(render_payoff_csv(compiled, outcome).empty());
  const std::map<std::string, std::string> artifacts = read_artifacts(dir);
  for (const auto& [name, bytes] : artifacts) {
    EXPECT_FALSE(name.ends_with(".payoff.csv")) << name;
    EXPECT_EQ(bytes.find("policy_triggers"), std::string::npos) << name;
    EXPECT_EQ(bytes.find("\"tournament\""), std::string::npos) << name;
    EXPECT_EQ(bytes.find("adversary_policy"), std::string::npos) << name;
  }

  const CompiledCampaign tournament = compile_file("tournament_smoke.json");
  EXPECT_TRUE(spec_has_policies(tournament.spec));
}

// The payoff matrix itself is structurally sound: one row per adversary
// strategy in each of the three metric blocks, columns headed by the
// operator strategies, every cell a finite number.
TEST(TournamentDeterminismTest, PayoffMatrixShape) {
  const CompiledCampaign compiled = compile_file("tournament_smoke.json");
  RunOptions options;
  options.quiet = true;
  options.write_outputs = false;
  CampaignOutcome outcome;
  std::string error;
  ASSERT_TRUE(run_campaign(compiled, options, &outcome, &error)) << error;
  const std::string payoff = render_payoff_csv(compiled, outcome);

  size_t blocks = 0;
  size_t rows = 0;
  std::istringstream lines(payoff);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# payoff: ", 0) == 0) {
      ++blocks;
      continue;
    }
    if (line.rfind("adversary_strategy,", 0) == 0) {
      EXPECT_EQ(line, "adversary_strategy,handsoff,vigilant");
      continue;
    }
    if (line.empty()) {
      continue;
    }
    ++rows;
    EXPECT_TRUE(line.rfind("static,", 0) == 0 || line.rfind("opportunist,", 0) == 0) << line;
    EXPECT_EQ(line.find("failed"), std::string::npos) << line;
  }
  EXPECT_EQ(blocks, 3u);  // afp, adversary_effort_seconds, score
  EXPECT_EQ(rows, 6u);    // 2 adversary strategies x 3 blocks
}

}  // namespace
}  // namespace lockss::campaign
