#include "thermal/rc_network.hpp"

#include <algorithm>
#include <stdexcept>

namespace hp::thermal {

namespace {

/// Adds a conductance of 1/resistance between nodes a and b of the Laplacian.
void add_coupling(linalg::Matrix& b, std::size_t a_node, std::size_t b_node,
                  double resistance) {
    const double g = 1.0 / resistance;
    b(a_node, a_node) += g;
    b(b_node, b_node) += g;
    b(a_node, b_node) -= g;
    b(b_node, a_node) -= g;
}

}  // namespace

ThermalModel::ThermalModel(const floorplan::GridFloorplan& plan,
                           const RcNetworkConfig& config)
    : core_count_(plan.core_count()) {
    const std::size_t n = core_count_;
    const std::size_t footprint = plan.layer_core_count();
    const std::size_t total = n + footprint + 1;
    const std::size_t spreader_base = n;
    const std::size_t sink = n + footprint;

    capacitance_ = linalg::Vector(total);
    for (std::size_t i = 0; i < n; ++i)
        capacitance_[i] = config.silicon_capacitance;
    for (std::size_t c = 0; c < footprint; ++c)
        capacitance_[spreader_base + c] = config.spreader_capacitance;
    // The sink scales with the footprint, not the stack height.
    capacitance_[sink] =
        config.sink_capacitance_per_core * static_cast<double>(footprint);

    conductance_ = linalg::Matrix(total, total);
    for (std::size_t i = 0; i < n; ++i) {
        // Lateral silicon conduction within each layer (each edge once).
        for (std::size_t j : plan.neighbors(i))
            if (j > i)
                add_coupling(conductance_, i, j,
                             config.silicon_lateral_resistance);
        // Vertical conduction between stacked silicon layers.
        for (std::size_t j : plan.stack_neighbors(i))
            if (j > i)
                add_coupling(conductance_, i, j, config.interlayer_resistance);
        // Only the bottom layer touches the spreader. Layer-major tile ids
        // make the footprint cell index simply i mod footprint.
        if (plan.tile(i).layer == 0)
            add_coupling(conductance_, i, spreader_base + i % footprint,
                         config.silicon_to_spreader_resistance);
    }

    for (std::size_t c = 0; c < footprint; ++c) {
        // The layer-0 tile with the same footprint position defines the
        // spreader cell's adjacency.
        for (std::size_t j : plan.neighbors(c))
            if (j > c)
                add_coupling(conductance_, spreader_base + c,
                             spreader_base + j,
                             config.spreader_lateral_resistance);
        add_coupling(conductance_, spreader_base + c, sink,
                     config.spreader_to_sink_resistance);
        // Peripheral overhang: boundary spreader cells shed extra heat into
        // the copper that extends beyond the die edge.
        const std::size_t exposed_edges = 4 - plan.neighbors(c).size();
        for (std::size_t e = 0; e < exposed_edges; ++e)
            add_coupling(conductance_, spreader_base + c, sink,
                         config.spreader_peripheral_resistance);
    }

    ambient_conductance_ = linalg::Vector(total);
    const double g_amb = static_cast<double>(footprint) /
                         config.sink_to_ambient_resistance_per_core;
    ambient_conductance_[sink] = g_amb;
    conductance_(sink, sink) += g_amb;

    validate();
    signature_ = compute_signature();
}

ThermalModel::ThermalModel(linalg::Vector capacitance,
                           linalg::Matrix conductance,
                           linalg::Vector ambient_conductance,
                           std::size_t core_count)
    : core_count_(core_count),
      capacitance_(std::move(capacitance)),
      conductance_(std::move(conductance)),
      ambient_conductance_(std::move(ambient_conductance)) {
    validate();
    signature_ = compute_signature();
}

std::uint64_t ThermalModel::compute_signature() const {
    // FNV-1a over the exact bit patterns of the model's defining data, so
    // equality of signatures means equality of the physics (and therefore of
    // every derived solve), independent of object identity.
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mix_double = [&](double v) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    };
    mix(static_cast<std::uint64_t>(core_count_));
    mix(static_cast<std::uint64_t>(capacitance_.size()));
    for (std::size_t i = 0; i < capacitance_.size(); ++i)
        mix_double(capacitance_[i]);
    for (std::size_t i = 0; i < conductance_.rows(); ++i)
        for (std::size_t j = 0; j < conductance_.cols(); ++j)
            mix_double(conductance_(i, j));
    for (std::size_t i = 0; i < ambient_conductance_.size(); ++i)
        mix_double(ambient_conductance_[i]);
    return h;
}

void ThermalModel::validate() const {
    const std::size_t total = capacitance_.size();
    if (total == 0)
        throw std::invalid_argument("ThermalModel: empty network");
    if (core_count_ == 0 || core_count_ > total)
        throw std::invalid_argument("ThermalModel: invalid core count");
    if (conductance_.rows() != total || conductance_.cols() != total)
        throw std::invalid_argument("ThermalModel: B size mismatch");
    if (ambient_conductance_.size() != total)
        throw std::invalid_argument("ThermalModel: G size mismatch");
    if (!conductance_.is_symmetric(1e-9 * std::max(1.0, conductance_.max_abs())))
        throw std::invalid_argument("ThermalModel: B must be symmetric");
    for (double c : capacitance_)
        if (c <= 0.0)
            throw std::invalid_argument(
                "ThermalModel: capacitances must be positive");
}

linalg::Vector ThermalModel::pad_power(const linalg::Vector& core_power) const {
    if (core_power.size() != core_count_)
        throw std::invalid_argument("ThermalModel::pad_power: size mismatch");
    linalg::Vector full(node_count());
    for (std::size_t i = 0; i < core_count_; ++i) full[i] = core_power[i];
    return full;
}

void ThermalModel::pad_power_into(const linalg::Vector& core_power,
                                  linalg::Vector& out) const {
    if (core_power.size() != core_count_)
        throw std::invalid_argument("ThermalModel::pad_power: size mismatch");
    if (out.size() != node_count()) out = linalg::Vector(node_count());
    for (std::size_t i = 0; i < core_count_; ++i) out[i] = core_power[i];
    for (std::size_t i = core_count_; i < node_count(); ++i) out[i] = 0.0;
}

}  // namespace hp::thermal
