#pragma once

#include <cstddef>
#include <cstdint>

#include "floorplan/floorplan.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace hp::thermal {

/// Physical parameters of the layered RC network generated for a grid
/// floorplan. The defaults are calibrated so that a 14 nm, 0.81 mm² core at
/// its ~6 W peak power reaches ≈ 80 °C on a 45 °C-ambient 16-core chip
/// (the paper's motivational example) while a fully-loaded 64-core chip at
/// medium power sits near the 70 °C DTM threshold.
struct RcNetworkConfig {
    // Heat capacities (J/K). Silicon nodes are fast (~ms), the spreader is
    // intermediate (~100 ms) and the sink is slow (~seconds); these three
    // time scales produce the epoch-level ripple plus slow drift seen in
    // interval thermal simulation.
    double silicon_capacitance = 2.0e-3;
    double spreader_capacitance = 0.2;
    double sink_capacitance_per_core = 0.3;

    // Thermal resistances (K/W). For 0.81 mm² cores the lateral silicon path
    // (thin die, small contact area) is weak and the vertical path through
    // die + TIM dominates, so single hot cores form sharp hotspots while the
    // copper spreader does the lateral averaging.
    double silicon_lateral_resistance = 50.0;     ///< between adjacent cores
    double spreader_lateral_resistance = 4.0;     ///< between adjacent spreader cells
    double silicon_to_spreader_resistance = 7.0;  ///< vertical, per core
    double spreader_to_sink_resistance = 1.6;     ///< vertical, per core
    double sink_to_ambient_resistance_per_core = 1.8;  ///< total R = this / n
    /// The physical spreader/sink overhang extends beyond the die edge, so
    /// boundary cells shed extra heat through the peripheral copper; modelled
    /// as an additional conductance to the sink per exposed tile edge. This
    /// is what makes high-AMD (boundary) rings thermally unconstrained, the
    /// gradient HotPotato's ring ordering exploits.
    double spreader_peripheral_resistance = 3.0;  ///< per missing neighbour
    /// Vertical resistance between stacked silicon layers (bond + TSV array)
    /// in a 3D floorplan; upper layers reach the sink only through the
    /// layers below them — the classic 3D-stacking thermal penalty.
    double interlayer_resistance = 3.0;
};

/// Compact RC thermal model A·T' + B·T = P + T_amb·G  (paper Eq. (1)).
///
/// Node layout for an n-core chip with footprint f (= cores per layer;
/// f == n for planar chips): nodes [0, n) are silicon (core) nodes, layer by
/// layer, [n, n+f) are the heat-spreader cells under layer 0 and node n+f is
/// the heat sink, giving N = n + f + 1 thermal nodes. Stacked layers couple
/// vertically through the inter-layer (TSV/bond) resistance; only layer 0
/// touches the spreader. A is diagonal (per-node capacitance), B is a
/// symmetric positive-definite conductance matrix and G couples the sink to
/// ambient.
///
/// The model is plain data. Every solve against B — steady state (paper
/// Eq. (3)), transients, peaks — goes through a TransientSolver built by
/// make_solver, and each backend owns its own factorisation of B; the
/// backends, not the model, reject a singular B.
class ThermalModel {
public:
    /// Builds the layered network for @p plan with parameters @p config.
    ThermalModel(const floorplan::GridFloorplan& plan,
                 const RcNetworkConfig& config);

    /// Constructs a model directly from matrices, for tests and synthetic
    /// networks. @p capacitance is the diagonal of A. Throws
    /// std::invalid_argument on inconsistent sizes, an asymmetric B or a
    /// non-positive capacitance.
    ThermalModel(linalg::Vector capacitance, linalg::Matrix conductance,
                 linalg::Vector ambient_conductance, std::size_t core_count);

    std::size_t node_count() const { return capacitance_.size(); }
    std::size_t core_count() const { return core_count_; }

    /// Diagonal of the capacitance matrix A (J/K).
    const linalg::Vector& capacitance() const { return capacitance_; }
    /// Conductance matrix B (W/K), symmetric positive definite.
    const linalg::Matrix& conductance() const { return conductance_; }
    /// Ambient coupling vector G (W/K).
    const linalg::Vector& ambient_conductance() const {
        return ambient_conductance_;
    }

    /// Expands an n-entry per-core power vector to the full N-entry node
    /// power vector (non-core nodes dissipate nothing).
    linalg::Vector pad_power(const linalg::Vector& core_power) const;

    /// pad_power without the allocation: writes the padded vector into the
    /// preallocated @p out (node_count() entries, non-core tail zeroed).
    void pad_power_into(const linalg::Vector& core_power,
                        linalg::Vector& out) const;

    /// Content hash (FNV-1a over the bit patterns of A, B, G and the core
    /// count), computed once at construction. Two models with identical
    /// matrices share a signature even when they are distinct objects — the
    /// solver/simulator misuse guard compares signatures, so a solver built
    /// for an equal model is accepted while one built for a different
    /// floorplan or parameterisation is rejected.
    std::uint64_t signature() const { return signature_; }

private:
    void validate() const;
    std::uint64_t compute_signature() const;

    std::size_t core_count_;
    linalg::Vector capacitance_;
    linalg::Matrix conductance_;
    linalg::Vector ambient_conductance_;
    std::uint64_t signature_ = 0;
};

}  // namespace hp::thermal
