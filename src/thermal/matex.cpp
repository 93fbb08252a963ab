#include "thermal/matex.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

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
    if (dt <= 0.0)
        throw std::invalid_argument(
            "peak_core_temperature_exact: dt must be positive");
    const linalg::Vector steady = steady_state(node_power, ambient_celsius);
    const linalg::Vector modal = v_inv_ * (t_init - steady);
    const std::size_t n = lambda_.size();

    // The endpoint/scan sample times are shared by every core, so their
    // e^{λ_k t} factors are computed once here instead of once per core
    // (the dominant cost of this routine). Bisection refinement happens at
    // core-specific times and keeps evaluating std::exp directly.
    constexpr int kScan = 16;
    std::vector<double> scan_t(kScan + 1);
    std::vector<double> scan_exp(static_cast<std::size_t>(kScan + 1) * n);
    for (int s = 0; s <= kScan; ++s) {
        const double t = dt * static_cast<double>(s) / kScan;
        scan_t[s] = t;
        double* row = &scan_exp[static_cast<std::size_t>(s) * n];
        for (std::size_t k = 0; k < n; ++k) row[k] = std::exp(lambda_[k] * t);
    }

    Peak best;
    best.temperature_c = -1e300;
    for (std::size_t i = 0; i < model_->core_count(); ++i) {
        // T_i(t) = steady_i + f(t), f(t) = sum_k c_k e^{lambda_k t}.
        const auto f = [&](double t) {
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += v_(i, k) * modal[k] * std::exp(lambda_[k] * t);
            return acc;
        };
        const auto df = [&](double t) {
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += v_(i, k) * modal[k] * lambda_[k] *
                       std::exp(lambda_[k] * t);
            return acc;
        };
        // Table-driven f/f' at scan sample s — bit-identical to f/df at
        // scan_t[s] (same factors, same accumulation order).
        const auto f_at = [&](int s) {
            const double* e = &scan_exp[static_cast<std::size_t>(s) * n];
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += v_(i, k) * modal[k] * e[k];
            return acc;
        };
        const auto df_at = [&](int s) {
            const double* e = &scan_exp[static_cast<std::size_t>(s) * n];
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += v_(i, k) * modal[k] * lambda_[k] * e[k];
            return acc;
        };

        // Candidates: both endpoints plus the first stationary point, found
        // by bisection on a sign change of f' (bracketed by a coarse scan)
        // refined with Newton steps.
        const double f_start = f_at(0);
        const double f_end = f_at(kScan);
        double cand_t = dt;
        double cand_v = std::max(f_start, f_end);
        double cand_at = f_start >= f_end ? 0.0 : dt;

        double prev_t = 0.0, prev_g = df_at(0);
        for (int s = 1; s <= kScan; ++s) {
            const double t = scan_t[s];
            const double g = df_at(s);
            if (prev_g == 0.0 || (prev_g > 0.0) != (g > 0.0)) {
                // Bracketed stationary point in [prev_t, t].
                double lo = prev_t, hi = t;
                double glo = prev_g;
                for (int it = 0; it < 60; ++it) {
                    const double mid = 0.5 * (lo + hi);
                    const double gm = df(mid);
                    if ((gm > 0.0) == (glo > 0.0)) {
                        lo = mid;
                        glo = gm;
                    } else {
                        hi = mid;
                    }
                }
                cand_t = 0.5 * (lo + hi);
                const double v = f(cand_t);
                if (v > cand_v) {
                    cand_v = v;
                    cand_at = cand_t;
                }
                break;  // first interior extremum is the relevant hump
            }
            prev_t = t;
            prev_g = g;
        }

        const double temp = steady[i] + cand_v;
        if (temp > best.temperature_c) {
            best.temperature_c = temp;
            best.time_s = cand_at;
            best.core = i;
        }
    }
    return best;
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
