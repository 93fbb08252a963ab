#include "thermal/matex.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/eigen_sym.hpp"
#include "linalg/kernels.hpp"

namespace hp::thermal {

MatExSolver::MatExSolver(const ThermalModel& model)
    : model_(&model), lu_(model.conductance()) {
    const std::size_t n = model.node_count();
    const linalg::Vector& cap = model.capacitance();

    // Symmetrise: S = A^{-1/2} B A^{-1/2}. S shares eigenvalues with A^{-1}B.
    linalg::Vector inv_sqrt_cap(n);
    for (std::size_t i = 0; i < n; ++i) inv_sqrt_cap[i] = 1.0 / std::sqrt(cap[i]);
    linalg::Matrix s(n, n);
    const linalg::Matrix& b = model.conductance();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            s(i, j) = inv_sqrt_cap[i] * b(i, j) * inv_sqrt_cap[j];

    const linalg::SymmetricEigen eig = linalg::jacobi_eigen(s);

    // C = -A^{-1}B = V·diag(-μ)·V^{-1} with V = A^{-1/2}·U, V^{-1} = U^T·A^{1/2}.
    lambda_ = linalg::Vector(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (eig.values[k] <= 0.0)
            throw std::domain_error(
                "MatExSolver: conductance matrix is not positive definite");
        lambda_[k] = -eig.values[k];
    }
    v_ = linalg::Matrix(n, n);
    v_inv_ = linalg::Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double sqrt_cap = std::sqrt(cap[i]);
        for (std::size_t k = 0; k < n; ++k) {
            v_(i, k) = eig.vectors(i, k) * inv_sqrt_cap[i];
            v_inv_(k, i) = eig.vectors(i, k) * sqrt_cap;
        }
    }
}

linalg::Matrix MatExSolver::modal_steady_map() const {
    // β = V^{-1}·B^{-1} — the exact expression the analyzer historically
    // evaluated in its constructor, kept verbatim for bit-identity.
    return v_inv_ * lu_.inverse();
}

linalg::Vector MatExSolver::steady_state(const linalg::Vector& node_power,
                                         double ambient_celsius) const {
    if (node_power.size() != model_->node_count())
        throw std::invalid_argument(
            "MatExSolver::steady_state: power vector must cover all nodes");
    return lu_.solve(node_power +
                     ambient_celsius * model_->ambient_conductance());
}

void MatExSolver::steady_state_into(const linalg::Vector& node_power,
                                    double ambient_celsius,
                                    ThermalWorkspace& workspace,
                                    linalg::Vector& out) const {
    const std::size_t n = model_->node_count();
    if (node_power.size() != n)
        throw std::invalid_argument(
            "MatExSolver::steady_state: power vector must cover all nodes");
    workspace.resize(n);
    if (out.size() != n) out = linalg::Vector(n);
    const linalg::Vector& ambient =
        workspace.ambient_rhs(model_->ambient_conductance(), ambient_celsius);
    for (std::size_t i = 0; i < n; ++i)
        workspace.rhs[i] = node_power[i] + ambient[i];
    lu_.solve_into(workspace.rhs, out);
}

void MatExSolver::steady_state_batch_into(const double* node_powers,
                                          std::size_t nrhs,
                                          double ambient_celsius,
                                          ThermalWorkspace& workspace,
                                          double* out) const {
    const std::size_t n = model_->node_count();
    if (nrhs == 0) return;
    workspace.resize(n);
    const linalg::Vector& ambient =
        workspace.ambient_rhs(model_->ambient_conductance(), ambient_celsius);
    // Build the right-hand sides directly in the LU's node-major layout
    // (node i of RHS r at i·nrhs + r) — same adds as steady_state_into.
    std::pmr::vector<double>& rhs = workspace.batch_rhs(n * nrhs);
    std::pmr::vector<double>& sol = workspace.batch_sol(n * nrhs);
    for (std::size_t i = 0; i < n; ++i) {
        double* row = rhs.data() + i * nrhs;
        const double amb = ambient[i];
        for (std::size_t r = 0; r < nrhs; ++r)
            row[r] = node_powers[r * n + i] + amb;
    }
    lu_.solve_batch_into(rhs.data(), nrhs, sol.data());
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = sol.data() + i * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) out[r * n + i] = row[r];
    }
}

linalg::Vector MatExSolver::conductance_solve(const linalg::Vector& rhs) const {
    return lu_.solve(rhs);
}

void MatExSolver::conductance_solve_into(const linalg::Vector& rhs,
                                         ThermalWorkspace& workspace,
                                         linalg::Vector& out) const {
    (void)workspace;  // the LU substitution needs no scratch
    if (out.size() != lu_.size()) out = linalg::Vector(lu_.size());
    lu_.solve_into(rhs, out);
}

linalg::Vector MatExSolver::apply_exponential(const linalg::Vector& x,
                                              double dt) const {
    linalg::Vector modal = v_inv_ * x;
    for (std::size_t k = 0; k < modal.size(); ++k)
        modal[k] *= std::exp(lambda_[k] * dt);
    return v_ * modal;
}

void MatExSolver::apply_exponential_into(const linalg::Vector& x, double dt,
                                         ThermalWorkspace& workspace,
                                         linalg::Vector& out) const {
    const std::size_t n = lambda_.size();
    workspace.resize(n);
    if (out.size() != n) out = linalg::Vector(n);
    linalg::matvec_into(v_inv_, x, workspace.modal);
    const double* decay = workspace.exp_table(lambda_, dt);
    linalg::kernel_hadamard(n, decay, workspace.modal.data());
    linalg::matvec_into(v_, workspace.modal, out);
}

linalg::Vector MatExSolver::transient(const linalg::Vector& t_init,
                                      const linalg::Vector& node_power,
                                      double ambient_celsius, double dt) const {
    const linalg::Vector steady = steady_state(node_power, ambient_celsius);
    return steady + apply_exponential(t_init - steady, dt);
}

void MatExSolver::transient_into(const linalg::Vector& t_init,
                                 const linalg::Vector& node_power,
                                 double ambient_celsius, double dt,
                                 ThermalWorkspace& workspace,
                                 linalg::Vector& out) const {
    const std::size_t n = lambda_.size();
    if (t_init.size() != n)
        throw std::invalid_argument("transient: t_init size mismatch");
    workspace.resize(n);
    steady_state_into(node_power, ambient_celsius, workspace,
                      workspace.steady);
    // The offset is captured before out is written, so out may alias t_init.
    for (std::size_t i = 0; i < n; ++i)
        workspace.offset[i] = t_init[i] - workspace.steady[i];
    apply_exponential_into(workspace.offset, dt, workspace, out);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = workspace.steady[i] + out[i];
}

Peak MatExSolver::peak_core_temperature_exact(
    const linalg::Vector& t_init, const linalg::Vector& node_power,
    double ambient_celsius, double dt) const {
    return exact_peak_search(t_init, steady_state(node_power, ambient_celsius),
                             v_inv_, dt);
}

std::unique_ptr<const TransientSolver> MatExSolver::clone_rebound(
    const ThermalModel& model) const {
    if (model.signature() != model_->signature())
        throw std::invalid_argument(
            "MatExSolver::clone_rebound: model is not a replica "
            "(signature mismatch)");
    // Member-wise copy duplicates the LU and λ/V/V^{-1} bit-for-bit; only
    // the model pointer changes, so the clone's answers are bit-identical.
    auto clone = std::unique_ptr<MatExSolver>(new MatExSolver(*this));
    clone->model_ = &model;
    return clone;
}

}  // namespace hp::thermal
