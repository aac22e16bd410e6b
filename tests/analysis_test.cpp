// Network analysis (culprit detection) and the parallelism profiler.
#include "analysis/network_analysis.hpp"
#include "analysis/parallelism.hpp"

#include <gtest/gtest.h>

#include "rete/builder.hpp"
#include "workloads/workloads.hpp"

namespace psme::analysis {
namespace {

TEST(NetworkAnalysis, CleanProgramHasNoCulprits) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(p keyed (a ^x <v>) (b ^y <v>) --> (halt))
)");
  const auto net = rete::build_network(program);
  const NetworkReport report = analyze_network(*net, program);
  EXPECT_TRUE(report.culprits.empty());
  ASSERT_EQ(report.joins.size(), 1u);
  EXPECT_FALSE(report.joins[0].cross_product);
  EXPECT_EQ(report.joins[0].eq_tests, 1u);
  EXPECT_NE(render_report(report).find("no culprit productions"),
            std::string::npos);
}

TEST(NetworkAnalysis, DetectsCrossProducts) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(p culprit (a ^x <v>) (b ^y <w>) --> (halt))
(p pred-only (a ^x <v>) (b ^y > <v>) --> (halt))
(p keyed (a ^x <v>) (b ^y <v>) --> (halt))
)");
  const auto net = rete::build_network(program);
  const NetworkReport report = analyze_network(*net, program);
  ASSERT_EQ(report.culprits.size(), 2u);
  EXPECT_EQ(report.culprits[0].cross_product_joins, 1);
  int pred_only = 0;
  for (const JoinFinding& j : report.joins) pred_only += j.predicate_only;
  EXPECT_EQ(pred_only, 1);  // the ordering-predicate join
  const std::string text = render_report(report);
  EXPECT_NE(text.find("culprit"), std::string::npos);
  EXPECT_NE(text.find("pred-only"), std::string::npos);
  EXPECT_EQ(text.find("keyed:"), std::string::npos);
}

TEST(NetworkAnalysis, SharedJoinAttributesAllReachableProductions) {
  const auto program = ops5::Program::from_source(R"(
(literalize a x)
(literalize b y)
(literalize c z)
(p p1 (a ^x <v>) (b ^y <w>) (c ^z 1) --> (halt))
(p p2 (a ^x <v>) (b ^y <w>) (c ^z 2) --> (halt))
)");
  const auto net = rete::build_network(program);
  const NetworkReport report = analyze_network(*net, program);
  // The shared (a x b) cross product implicates both productions.
  bool found = false;
  for (const JoinFinding& j : report.joins) {
    if (j.cross_product && j.productions.size() == 2) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(report.culprits.size(), 2u);
}

TEST(NetworkAnalysis, TourneyCulpritsOutnumberFixedVariant) {
  for (const bool fixed : {false, true}) {
    const auto w = workloads::tourney(10, fixed);
    const auto program = ops5::Program::from_source(w.source);
    const auto net = rete::build_network(program);
    const NetworkReport report = analyze_network(*net, program);
    // The unfixed `propose-pairing` (team x team) is the canonical culprit;
    // the fixed variants key their team lookups by pool (their remaining
    // cross product is only the cheap goal x pool-pair prefix).
    bool team_cross_culprit = false;
    for (const auto& c : report.culprits)
      team_cross_culprit |= c.name == "propose-pairing" &&
                            c.cross_product_joins >= 2;
    EXPECT_EQ(team_cross_culprit, !fixed);
  }
}

TEST(Parallelism, SerialChainHasNoParallelism) {
  // Each firing produces exactly one dependent chain of tasks.
  const auto program = ops5::Program::from_source(R"(
(literalize counter n)
(p up (counter ^n { <v> < 5 }) --> (modify 1 ^n (compute <v> + 1)))
)");
  const auto profile =
      profile_parallelism(program, {"(counter ^n 0)"});
  EXPECT_GT(profile.total_tasks, 0u);
  // Little width: bound at 13 processors stays small.
  EXPECT_LT(profile.speedup_bound(13), 3.0);
  EXPECT_GE(profile.speedup_bound(13), 1.0);
}

TEST(Parallelism, WideFanoutApproachesProcessorCount) {
  // One change matched independently by many rules: near-perfect width.
  std::string src = "(literalize a x)\n(literalize log n)\n";
  for (int i = 0; i < 40; ++i) {
    src += "(p r" + std::to_string(i) + " (a ^x " + std::to_string(i) +
           ") (a ^x <v>) (a ^x <w>) --> (make log ^n " + std::to_string(i) +
           "))\n";
  }
  const auto program = ops5::Program::from_source(src);
  std::vector<std::string> wmes;
  for (int i = 0; i < 40; ++i)
    wmes.push_back("(a ^x " + std::to_string(i) + ")");
  const auto profile = profile_parallelism(program, wmes, {}, 0);
  EXPECT_GT(profile.intrinsic_parallelism(), 4.0);
  EXPECT_GT(profile.speedup_bound(13), 4.0);
  // The bound is monotone in processors and capped by intrinsic width.
  EXPECT_LE(profile.speedup_bound(2), 2.0 + 1e-9);
  EXPECT_LE(profile.speedup_bound(4), profile.speedup_bound(8) + 1e-9);
  EXPECT_LE(profile.speedup_bound(8), profile.speedup_bound(16) + 1e-9);
}

TEST(Parallelism, BoundsRespectDefinitions) {
  const auto w = workloads::rubik(6);
  const auto program = ops5::Program::from_source(w.source);
  const auto profile = profile_parallelism(program, w.initial_wmes);
  EXPECT_EQ(profile.total_tasks > 0, true);
  EXPECT_GE(profile.total_work, profile.total_critical);
  // bound(1) == 1 by construction.
  EXPECT_NEAR(profile.speedup_bound(1), 1.0, 1e-9);
  // bound(P) <= P and <= intrinsic parallelism.
  EXPECT_LE(profile.speedup_bound(13), 13.0 + 1e-9);
  const double render_check = profile.intrinsic_parallelism();
  EXPECT_GT(render_check, 1.0);
  EXPECT_NE(render_profile(profile).find("intrinsic parallelism"),
            std::string::npos);
}

TEST(Parallelism, LineBoundSeparatesKeylessFromKeyedWorkloads) {
  // Tourney's keyless cross-product joins put most of a phase's join work
  // on one hash line, so no processor count lifts it much past 1.6;
  // rubik's keyed joins spread over lines and keep its dataflow bound.
  const auto tourney = workloads::tourney();
  const auto tp = profile_parallelism(
      ops5::Program::from_source(tourney.source), tourney.initial_wmes);
  EXPECT_LT(tp.line_bound(4), 2.0);
  EXPECT_GT(tp.speedup_bound(4), 3.0);
  const auto rubik = workloads::rubik();
  const auto rp = profile_parallelism(
      ops5::Program::from_source(rubik.source), rubik.initial_wmes);
  EXPECT_GT(rp.line_bound(4), 3.0);
  // Charging the busiest line can only lower the bound.
  for (const int p : {1, 2, 4, 8, 16}) {
    EXPECT_LE(tp.line_bound(p), tp.speedup_bound(p) + 1e-9);
    EXPECT_LE(rp.line_bound(p), rp.speedup_bound(p) + 1e-9);
  }
  EXPECT_NE(render_profile(tp).find("line bounds:"), std::string::npos);
}

}  // namespace
}  // namespace psme::analysis
