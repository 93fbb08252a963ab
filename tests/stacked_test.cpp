#include <set>

#include <gtest/gtest.h>

#include "arch/manycore.hpp"
#include "core/hotpotato.hpp"
#include "core/peak_temperature.hpp"
#include "floorplan/floorplan.hpp"
#include "sched/pcmig.hpp"
#include "sim/simulator.hpp"
#include "thermal/matex.hpp"
#include "thermal/rc_network.hpp"
#include "workload/benchmark.hpp"
#include "peak_queries.hpp"
#include "thermal_oracle.hpp"

namespace {

using hp::test::oracle_ambient_equilibrium;
using hp::test::oracle_steady_state;
using hp::arch::ManyCore;
using hp::floorplan::GridFloorplan;
using hp::linalg::Vector;
using hp::thermal::MatExSolver;
using hp::thermal::RcNetworkConfig;
using hp::thermal::ThermalModel;

constexpr double kAmbient = 45.0;

// -------------------------------------------------------------- floorplan ---

TEST(StackedFloorplan, LayerIndexing) {
    GridFloorplan plan(4, 4, 0.81, 2);
    EXPECT_EQ(plan.core_count(), 32u);
    EXPECT_EQ(plan.layer_core_count(), 16u);
    EXPECT_EQ(plan.layers(), 2u);
    EXPECT_EQ(plan.index_of(1, 2, 0), 6u);
    EXPECT_EQ(plan.index_of(1, 2, 1), 22u);
    EXPECT_EQ(plan.tile(22).layer, 1u);
    EXPECT_EQ(plan.tile(22).row, 1u);
    EXPECT_EQ(plan.tile(22).col, 2u);
    EXPECT_THROW((void)plan.index_of(0, 0, 2), std::out_of_range);
}

TEST(StackedFloorplan, NeighborsStayWithinLayer) {
    GridFloorplan plan(4, 4, 0.81, 2);
    for (std::size_t j : plan.neighbors(22))
        EXPECT_EQ(plan.tile(j).layer, 1u);
}

TEST(StackedFloorplan, StackNeighbors) {
    GridFloorplan plan(4, 4, 0.81, 3);
    EXPECT_EQ(plan.stack_neighbors(5), (std::vector<std::size_t>{21}));
    EXPECT_EQ(plan.stack_neighbors(21), (std::vector<std::size_t>{5, 37}));
    // Planar chips have none.
    GridFloorplan flat(4, 4, 0.81);
    EXPECT_TRUE(flat.stack_neighbors(5).empty());
}

TEST(StackedFloorplan, HopsCountLayerCrossings) {
    GridFloorplan plan(4, 4, 0.81, 2);
    EXPECT_EQ(plan.manhattan_hops(5, 21), 1u);   // straight up
    EXPECT_EQ(plan.manhattan_hops(0, 21), 3u);   // (0,0,0)->(1,1,1)
}

// ---------------------------------------------------------------- thermal ---

TEST(StackedThermal, NodeLayout) {
    GridFloorplan plan(4, 4, 0.81, 2);
    ThermalModel model(plan, RcNetworkConfig{});
    EXPECT_EQ(model.core_count(), 32u);
    // 32 silicon + 16 spreader + 1 sink.
    EXPECT_EQ(model.node_count(), 49u);
    EXPECT_TRUE(model.conductance().is_symmetric(1e-6));
}

TEST(StackedThermal, UpperLayerRunsHotterAtEqualPower) {
    // The defining 3D problem: the top layer reaches the sink only through
    // the bottom layer.
    GridFloorplan plan(4, 4, 0.81, 2);
    ThermalModel model(plan, RcNetworkConfig{});
    Vector p_low(32, 0.3), p_high(32, 0.3);
    p_low[5] = 5.0;    // centre core, bottom layer
    p_high[21] = 5.0;  // same position, top layer
    const Vector t_low =
        oracle_steady_state(model, model.pad_power(p_low), kAmbient);
    const Vector t_high =
        oracle_steady_state(model, model.pad_power(p_high), kAmbient);
    EXPECT_GT(t_high[21], t_low[5] + 3.0);
}

TEST(StackedThermal, StackedCoresCoupleStrongly) {
    // Heating the bottom core warms its vertical neighbour far more than a
    // lateral neighbour at the same hop distance.
    GridFloorplan plan(4, 4, 0.81, 2);
    ThermalModel model(plan, RcNetworkConfig{});
    Vector p(32, 0.0);
    p[5] = 5.0;
    const Vector t = oracle_steady_state(model, model.pad_power(p), 0.0);
    EXPECT_GT(t[21], 2.0 * t[6]);  // vertical vs lateral neighbour
}

TEST(StackedThermal, MatExStillValidOn3d) {
    GridFloorplan plan(3, 3, 0.81, 2);
    ThermalModel model(plan, RcNetworkConfig{});
    MatExSolver solver(model);
    for (std::size_t k = 0; k < model.node_count(); ++k)
        EXPECT_LT(solver.eigenvalues()[k], 0.0);
    Vector p(18, 2.0);
    const Vector padded = model.pad_power(p);
    const Vector t_inf =
        solver.transient(oracle_ambient_equilibrium(model, kAmbient), padded,
                         kAmbient, 1e4);
    EXPECT_LT((t_inf - oracle_steady_state(model, padded, kAmbient)).max_abs(),
              1e-6);
}

// ------------------------------------------------------------------- arch ---

TEST(StackedArch, RingsSpanLayersAtEqualAmd) {
    const ManyCore chip = ManyCore::stacked_32core();
    EXPECT_EQ(chip.core_count(), 32u);
    // Two stacked 4x4 layers: each ring contains both layers' cores.
    for (const auto& ring : chip.rings()) {
        std::set<std::size_t> layers;
        for (std::size_t core : ring.cores)
            layers.insert(chip.plan().tile(core).layer);
        EXPECT_EQ(layers.size(), 2u) << "ring AMD " << ring.amd;
    }
}

TEST(StackedArch, StackedPartnersAdjacentInRotationOrder) {
    // A rotation hop between vertically stacked cores is one TSV crossing;
    // the cycle ordering must keep them adjacent.
    const ManyCore chip = ManyCore::stacked_32core();
    const auto& ring = chip.rings().front();
    bool found_vertical_hop = false;
    for (std::size_t j = 0; j < ring.cores.size(); ++j) {
        const std::size_t a = ring.cores[j];
        const std::size_t b = ring.cores[(j + 1) % ring.cores.size()];
        EXPECT_LE(chip.plan().manhattan_hops(a, b), 2u);
        if (chip.plan().tile(a).row == chip.plan().tile(b).row &&
            chip.plan().tile(a).col == chip.plan().tile(b).col)
            found_vertical_hop = true;
    }
    EXPECT_TRUE(found_vertical_hop);
}

// ----------------------------------------------------------- end to end ---

struct StackedBench {
    ManyCore chip = ManyCore::stacked_32core();
    ThermalModel model{chip.plan(), RcNetworkConfig{}};
    MatExSolver solver{model};
};

const StackedBench& bench3d() {
    static const StackedBench b;
    return b;
}

TEST(Stacked3d, RotationAveragesAcrossLayers) {
    // One 6 W thread rotating through a layer-spanning ring stays far cooler
    // than pinned on the top layer.
    const auto& b = bench3d();
    hp::core::PeakTemperatureAnalyzer analyzer(b.solver, kAmbient, 0.3);

    const auto& ring = b.chip.rings().front();
    hp::core::RotationRingSpec spec;
    spec.cores = ring.cores;
    spec.slot_power_w.assign(ring.cores.size(), 0.3);
    spec.slot_power_w[0] = 6.0;
    hp::core::PeakWorkspace ws;
    const double rotating =
        hp::test::rotation_peak(analyzer, {spec}, 0.5e-3, 4, ws);

    Vector pinned(32, 0.3);
    pinned[b.chip.plan().index_of(1, 1, 1)] = 6.0;  // top-layer centre
    const double static_peak = hp::test::static_peak(analyzer, pinned, ws);
    EXPECT_LT(rotating, static_peak - 5.0);
}

TEST(Stacked3d, HotPotatoStaysSafeOn3dChip) {
    hp::sim::SimConfig cfg;
    cfg.max_sim_time_s = 5.0;
    hp::sim::Simulator sim(bench3d().chip, bench3d().model, bench3d().solver,
                           cfg);
    sim.add_task({&hp::workload::profile_by_name("blackscholes"), 2, 0.0});
    sim.add_task({&hp::workload::profile_by_name("bodytrack"), 4, 0.0});
    hp::core::HotPotatoScheduler hp_sched;
    const auto r = sim.run(hp_sched);
    ASSERT_TRUE(r.all_finished);
    EXPECT_EQ(r.dtm_triggers, 0u);
    EXPECT_LE(r.peak_temperature_c, 70.5);
}

TEST(Stacked3d, HotPotatoBeatsPcMigOn3dChip) {
    const auto run = [&](hp::sim::Scheduler& s) {
        hp::sim::SimConfig cfg;
        cfg.max_sim_time_s = 10.0;
        hp::sim::Simulator sim(bench3d().chip, bench3d().model,
                               bench3d().solver, cfg);
        for (int i = 0; i < 4; ++i)
            sim.add_task(
                {&hp::workload::profile_by_name("bodytrack"), 8, 0.0});
        return sim.run(s);
    };
    hp::core::HotPotatoScheduler hp_sched;
    hp::sched::PcMigScheduler pcmig;
    const auto r_hp = run(hp_sched);
    const auto r_mig = run(pcmig);
    ASSERT_TRUE(r_hp.all_finished);
    ASSERT_TRUE(r_mig.all_finished);
    EXPECT_LT(r_hp.makespan_s, r_mig.makespan_s);
}

}  // namespace
