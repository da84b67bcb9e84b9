// Tests for technology mapping and static timing analysis.
//
// The central property: for every generator circuit and parameter setting,
// the mapped netlist re-extracted as an AIG must be equivalent to the source
// AIG (mapping preserves function).  STA is validated on hand-computed
// netlists and by metamorphic properties (monotonicity under load, area
// additivity, delay-vs-area mode trade-off).

#include <gtest/gtest.h>

#include "aig/analysis.hpp"
#include "aig/sim.hpp"
#include "celllib/library.hpp"
#include "gen/circuits.hpp"
#include "gen/designs.hpp"
#include "mapper/mapper.hpp"
#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace aigml {
namespace {

using aig::Aig;
using cell::mini_sky130;
using map::map_to_cells;
using map::MapMode;
using map::MapParams;
using net::Netlist;
using sta::run_sta;
using sta::StaParams;

// ---- netlist basics ----------------------------------------------------------

TEST(Netlist, ConstructionAndStats) {
  const auto& lib = mini_sky130();
  Netlist n;
  const auto a = n.add_pi_net(0, "a");
  const auto b = n.add_pi_net(1, "b");
  const auto y = n.add_gate(lib.cell_id("NAND2_X1"), {a, b});
  const auto z = n.add_gate(lib.cell_id("INV_X1"), {y});
  n.add_output(z, "out");
  EXPECT_EQ(n.num_gates(), 2u);
  EXPECT_EQ(n.num_inputs(), 2u);
  EXPECT_EQ(n.num_outputs(), 1u);
  EXPECT_TRUE(n.check_topological());
  const double area = lib.cell(lib.cell_id("NAND2_X1")).area_um2 +
                      lib.cell(lib.cell_id("INV_X1")).area_um2;
  EXPECT_DOUBLE_EQ(n.total_area_um2(lib), area);
  const auto fanout = n.net_fanout_counts();
  EXPECT_EQ(fanout[a], 1u);
  EXPECT_EQ(fanout[y], 1u);
  EXPECT_EQ(fanout[z], 0u);  // PO reference tracked separately
  EXPECT_TRUE(n.net_drives_po()[z]);
  const auto hist = n.cell_histogram(lib);
  ASSERT_EQ(hist.size(), 2u);
}

TEST(Netlist, ToAigRebuildsFunction) {
  const auto& lib = mini_sky130();
  Netlist n;
  const auto a = n.add_pi_net(0);
  const auto b = n.add_pi_net(1);
  const auto y = n.add_gate(lib.cell_id("XOR2_X1"), {a, b});
  n.add_output(y, "x");
  const Aig g = net::to_aig(n, lib);
  ASSERT_EQ(g.num_inputs(), 2u);
  ASSERT_EQ(g.num_outputs(), 1u);
  for (std::uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(aig::simulate_pattern(g, p) & 1,
              static_cast<std::uint64_t>(((p & 1) != 0) != ((p & 2) != 0)));
  }
}

TEST(Netlist, ConstNets) {
  const auto& lib = mini_sky130();
  Netlist n;
  (void)n.add_pi_net(0);
  const auto c1 = n.add_const_net(true);
  const auto c0 = n.add_const_net(false);
  n.add_output(c1, "hi");
  n.add_output(c0, "lo");
  const Aig g = net::to_aig(n, lib);
  EXPECT_EQ(g.outputs()[0], aig::kLitTrue);
  EXPECT_EQ(g.outputs()[1], aig::kLitFalse);
}

// ---- STA on hand-built netlists ------------------------------------------------

TEST(Sta, SingleGateHandComputed) {
  const auto& lib = mini_sky130();
  Netlist n;
  const auto a = n.add_pi_net(0);
  const auto b = n.add_pi_net(1);
  const auto y = n.add_gate(lib.cell_id("NAND2_X1"), {a, b});
  n.add_output(y, "out");
  StaParams p;
  p.wire_cap_per_fanout_ff = 1.0;
  p.po_cap_ff = 3.0;
  const auto r = run_sta(n, lib, p);
  const auto& c = lib.cell(lib.cell_id("NAND2_X1"));
  // Output net load: PO cap only (no gate pins attached).
  const double expected = c.intrinsic_ps + c.resistance_ps_per_ff * 3.0;
  EXPECT_DOUBLE_EQ(r.max_delay_ps, expected);
  EXPECT_DOUBLE_EQ(r.total_area_um2, c.area_um2);
  ASSERT_EQ(r.critical_path.size(), 1u);
  EXPECT_EQ(r.critical_path[0].cell_name, "NAND2_X1");
}

TEST(Sta, ChainAccumulatesAndLoadMatters) {
  const auto& lib = mini_sky130();
  const auto inv = lib.cell_id("INV_X1");
  Netlist n;
  const auto a = n.add_pi_net(0);
  const auto x = n.add_gate(inv, {a});
  const auto y = n.add_gate(inv, {x});
  n.add_output(y, "out");
  StaParams p;
  p.wire_cap_per_fanout_ff = 1.0;
  p.po_cap_ff = 4.0;
  const auto r = run_sta(n, lib, p);
  const auto& c = lib.cell(inv);
  const double load_x = c.input_cap_ff + 1.0;  // one INV pin + wire
  const double d1 = c.intrinsic_ps + c.resistance_ps_per_ff * load_x;
  const double d2 = c.intrinsic_ps + c.resistance_ps_per_ff * 4.0;
  EXPECT_NEAR(r.max_delay_ps, d1 + d2, 1e-9);
  ASSERT_EQ(r.critical_path.size(), 2u);
}

TEST(Sta, FanoutIncreasesDelay) {
  const auto& lib = mini_sky130();
  const auto inv = lib.cell_id("INV_X1");
  // Same driver, growing fanout: driver delay must increase monotonically.
  double last_delay = 0.0;
  for (int fanout = 1; fanout <= 6; ++fanout) {
    Netlist n;
    const auto a = n.add_pi_net(0);
    const auto x = n.add_gate(inv, {a});
    for (int i = 0; i < fanout; ++i) {
      n.add_output(n.add_gate(inv, {x}), "o" + std::to_string(i));
    }
    const auto r = run_sta(n, lib, {});
    EXPECT_GT(r.max_delay_ps, last_delay);
    last_delay = r.max_delay_ps;
  }
}

TEST(Sta, SlackAndRequiredConsistency) {
  const auto& lib = mini_sky130();
  const auto inv = lib.cell_id("INV_X1");
  Netlist n;
  const auto a = n.add_pi_net(0);
  const auto b = n.add_pi_net(1);
  const auto x = n.add_gate(inv, {a});          // short path
  const auto y1 = n.add_gate(inv, {b});
  const auto y2 = n.add_gate(inv, {y1});
  const auto y3 = n.add_gate(inv, {y2});        // long path
  n.add_output(x, "short");
  n.add_output(y3, "long");
  const auto r = run_sta(n, lib, {});
  // Worst slack is zero (required time = latest arrival).
  EXPECT_NEAR(r.worst_slack_ps, 0.0, 1e-9);
  // The short path has positive slack.
  EXPECT_GT(r.net_slack_ps[x], 1.0);
  // Arrivals along the critical path are monotone.
  for (std::size_t i = 1; i < r.critical_path.size(); ++i) {
    EXPECT_GT(r.critical_path[i].arrival_ps, r.critical_path[i - 1].arrival_ps);
  }
  EXPECT_EQ(r.critical_output, 1u);
}

TEST(Sta, ClockPeriodShiftsSlack) {
  const auto& lib = mini_sky130();
  const auto inv = lib.cell_id("INV_X1");
  Netlist n;
  const auto a = n.add_pi_net(0);
  n.add_output(n.add_gate(inv, {a}), "o");
  StaParams tight;
  const auto r0 = run_sta(n, lib, tight);
  StaParams loose;
  loose.clock_period_ps = r0.max_delay_ps + 100.0;
  const auto r1 = run_sta(n, lib, loose);
  EXPECT_NEAR(r1.worst_slack_ps, 100.0, 1e-9);
}

TEST(Sta, RejectsNonTopological) {
  // Construct a netlist, then corrupt gate order via direct re-adding:
  // simplest check — add_gate with a later net is impossible through the
  // API, so validate check_topological()'s negative path via to_aig's guard
  // with a hand-built cyclic-ish netlist is unreachable.  Instead assert the
  // positive invariant on a mapped circuit.
  const auto& lib = mini_sky130();
  const Aig g = gen::multiplier(4);
  const Netlist n = map_to_cells(g, lib);
  EXPECT_TRUE(n.check_topological());
}

// ---- mapping: equivalence property across designs and parameters ---------------

struct MapCase {
  const char* design;
  MapMode mode;
  int cut_size;
};

// Print a case by its fields. The default printer dumps the raw bytes of
// MapCase, which hold a pointer and padding and so change from run to run;
// the printed value also names the test in ctest.
void PrintTo(const MapCase& c, std::ostream* os) {
  *os << c.design << (c.mode == MapMode::Delay ? "_Delay_k" : "_Area_k") << c.cut_size;
}

class MapEquivalence : public ::testing::TestWithParam<MapCase> {};

TEST_P(MapEquivalence, MappingPreservesFunction) {
  const auto param = GetParam();
  const auto& lib = mini_sky130();
  Aig g;
  const std::string name = param.design;
  if (name == "mult5") {
    g = gen::multiplier(5);
  } else if (name == "cla8") {
    g = gen::adder_cla(8);
  } else if (name == "alu4") {
    g = gen::alu(4);
  } else if (name == "ctrl") {
    g = gen::random_control(10, 6, 250, 7);
  } else {
    g = gen::build_design(name);
  }
  MapParams mp;
  mp.mode = param.mode;
  mp.cut_size = param.cut_size;
  map::MapStats stats;
  const Netlist n = map_to_cells(g, lib, mp, &stats);
  EXPECT_TRUE(n.check_topological());
  EXPECT_EQ(n.num_inputs(), g.num_inputs());
  EXPECT_EQ(n.num_outputs(), g.num_outputs());
  EXPECT_GT(stats.num_gates, 0u);
  const Aig back = net::to_aig(n, lib);
  const auto eq = aig::check_equivalence(g, back);
  EXPECT_TRUE(eq.equivalent) << "mapping broke output " << eq.failing_output << " of "
                             << name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapEquivalence,
    ::testing::Values(MapCase{"mult5", MapMode::Delay, 4}, MapCase{"mult5", MapMode::Area, 4},
                      MapCase{"mult5", MapMode::Delay, 3}, MapCase{"mult5", MapMode::Delay, 2},
                      MapCase{"cla8", MapMode::Delay, 4}, MapCase{"cla8", MapMode::Area, 4},
                      MapCase{"alu4", MapMode::Delay, 4}, MapCase{"alu4", MapMode::Area, 3},
                      MapCase{"ctrl", MapMode::Delay, 4}, MapCase{"ctrl", MapMode::Area, 4},
                      MapCase{"EX00", MapMode::Delay, 4}, MapCase{"EX68", MapMode::Area, 4},
                      MapCase{"EX02", MapMode::Delay, 4}));

TEST(Mapper, AreaModeTradesDelayForArea) {
  const auto& lib = mini_sky130();
  const Aig g = gen::multiplier(6);
  MapParams delay_params;
  delay_params.mode = MapMode::Delay;
  MapParams area_params;
  area_params.mode = MapMode::Area;
  map::MapStats sd, sa;
  const auto nd = map_to_cells(g, lib, delay_params, &sd);
  const auto na = map_to_cells(g, lib, area_params, &sa);
  const auto rd = run_sta(nd, lib, {});
  const auto ra = run_sta(na, lib, {});
  // Theorem-level invariant: the delay-mode DP minimizes estimated arrival,
  // so its estimate can never exceed area mode's.
  EXPECT_LE(sd.estimated_arrival_ps, sa.estimated_arrival_ps * 1.001);
  // Area mode must produce a smaller (or equal) cover.
  EXPECT_LE(ra.total_area_um2, rd.total_area_um2 * 1.001);
  // Post-STA delay: load effects can perturb the ordering, but delay mode
  // should stay in the same ballpark or better.
  EXPECT_LE(rd.max_delay_ps, ra.max_delay_ps * 1.25);
}

TEST(Mapper, ConstantOutputsMapToConstNets) {
  const auto& lib = mini_sky130();
  Aig g;
  const auto a = g.add_input();
  g.add_output(aig::kLitTrue, "hi");
  g.add_output(aig::kLitFalse, "lo");
  g.add_output(a, "pass");
  const Netlist n = map_to_cells(g, lib);
  const Aig back = net::to_aig(n, lib);
  EXPECT_TRUE(aig::equivalent(g, back));
}

TEST(Mapper, ReconvergentConstantNodeIsSimplified) {
  // AND(a&b, a&!b) == 0: the zero-leaf cut should collapse this to a const.
  const auto& lib = mini_sky130();
  Aig g;
  const auto a = g.add_input();
  const auto b = g.add_input();
  const auto x = g.make_and(a, b);
  const auto y = g.make_and(a, aig::lit_not(b));
  g.add_output(g.make_and(x, y), "zero");
  const Netlist n = map_to_cells(g, lib);
  EXPECT_EQ(n.num_gates(), 0u);  // pure constant, no logic needed
  const Aig back = net::to_aig(n, lib);
  EXPECT_TRUE(aig::equivalent(g, back));
}

TEST(Mapper, ComplementedOutputGetsPhase) {
  const auto& lib = mini_sky130();
  Aig g;
  const auto a = g.add_input();
  const auto b = g.add_input();
  g.add_output(g.make_nand(a, b), "nand");  // complemented literal
  const Netlist n = map_to_cells(g, lib);
  const Aig back = net::to_aig(n, lib);
  EXPECT_TRUE(aig::equivalent(g, back));
  // A NAND2 cell should implement this in one gate.
  EXPECT_EQ(n.num_gates(), 1u);
}

TEST(Mapper, PiDrivenAndInvertedPiOutputs) {
  const auto& lib = mini_sky130();
  Aig g;
  const auto a = g.add_input();
  g.add_output(a, "buf");
  g.add_output(aig::lit_not(a), "inv");
  const Netlist n = map_to_cells(g, lib);
  const Aig back = net::to_aig(n, lib);
  EXPECT_TRUE(aig::equivalent(g, back));
}

TEST(Mapper, RejectsBadParams) {
  const Aig g = gen::parity_tree(4);
  MapParams p;
  p.cut_size = 1;
  EXPECT_THROW((void)map_to_cells(g, mini_sky130(), p), std::invalid_argument);
  p.cut_size = 5;
  EXPECT_THROW((void)map_to_cells(g, mini_sky130(), p), std::invalid_argument);
  p.cut_size = 4;
  p.cuts_per_node = 0;
  EXPECT_THROW((void)map_to_cells(g, mini_sky130(), p), std::invalid_argument);
}

TEST(Mapper, LargerCutBudgetNeverHurtsEstimatedDelay) {
  const auto& lib = mini_sky130();
  const Aig g = gen::multiplier(6);
  map::MapStats s_small, s_large;
  MapParams small_params;
  small_params.cuts_per_node = 2;
  MapParams large_params;
  large_params.cuts_per_node = 12;
  (void)map_to_cells(g, lib, small_params, &s_small);
  (void)map_to_cells(g, lib, large_params, &s_large);
  EXPECT_LE(s_large.estimated_arrival_ps, s_small.estimated_arrival_ps * 1.01);
}

TEST(Mapper, DepthCompressionVsAig) {
  // Mapping 4-input cuts onto multi-input cells must compress stage count
  // well below the AIG level — this is miscorrelation source (a) from the
  // paper.
  const auto& lib = mini_sky130();
  const Aig g = gen::multiplier(7);
  const auto lvl = aig::aig_level(g);
  const Netlist n = map_to_cells(g, lib);
  const auto r = run_sta(n, lib, {});
  EXPECT_LT(r.critical_path.size(), lvl) << "mapped stages should be fewer than AIG levels";
  EXPECT_GT(r.critical_path.size(), lvl / 5) << "but not absurdly fewer";
}

TEST(Sta, MappedMultiplierDelayInPlausible130nmRange) {
  const auto& lib = mini_sky130();
  const Aig g = gen::multiplier(7);  // the Fig. 1 workload scale
  const auto r = run_sta(map_to_cells(g, lib), lib, {});
  // Table I reports 1.3-1.8 ns for mapped multiplier AIGs at 130nm; our
  // library should land within the same decade.
  EXPECT_GT(r.max_delay_ps, 300.0);
  EXPECT_LT(r.max_delay_ps, 10000.0);
}

TEST(Sta, TimingReportMentionsCriticalCells) {
  const auto& lib = mini_sky130();
  const Aig g = gen::adder_ripple(6);
  const Netlist n = map_to_cells(g, lib);
  const auto r = run_sta(n, lib, {});
  const std::string report = sta::timing_report(n, lib, r);
  EXPECT_NE(report.find("max delay"), std::string::npos);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_FALSE(r.critical_path.empty());
}

}  // namespace
}  // namespace aigml
