#pragma once

// Independent steady-state oracle for the thermal tests. The backends own
// their factorisations of B, so a test that checks a backend's steady state
// (or seeds a transient from one) builds its reference from an LU of B made
// here instead — otherwise the dense backend would be compared against
// itself. Same LU algorithm and right-hand-side expression as the dense
// backend, so bit-identity assertions against it still hold.

#include "linalg/lu.hpp"
#include "linalg/vector.hpp"
#include "thermal/rc_network.hpp"

namespace hp::test {

/// T = B^{-1}(P + T_amb·G) for a full node-power vector (paper Eq. (3)).
inline linalg::Vector oracle_steady_state(const thermal::ThermalModel& model,
                                          const linalg::Vector& node_power,
                                          double ambient_celsius) {
    return linalg::LuDecomposition(model.conductance())
        .solve(node_power + ambient_celsius * model.ambient_conductance());
}

/// The unpowered equilibrium B^{-1}·T_amb·G — every node at T_amb.
inline linalg::Vector oracle_ambient_equilibrium(
    const thermal::ThermalModel& model, double ambient_celsius) {
    return oracle_steady_state(model, linalg::Vector(model.node_count()),
                               ambient_celsius);
}

}  // namespace hp::test
