#include "thermal/modal_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/tridiag_eigen.hpp"

namespace hp::thermal {

namespace {

/// Ceiling on the Taylor substep count the mode-selection loop will accept
/// for horizons just under τ_switch: large enough that the cut can land in
/// the spectral gap of every shipped floorplan, small enough that a single
/// mid-horizon query stays cheap.
constexpr double kSubstepCap = 512.0;

/// Scale (Kelvin) of the largest temperature offset from steady state the
/// truncation bound has to cover — conservatively, the full ambient-to-DTM
/// swing plus headroom.
constexpr double kOffsetScaleC = 50.0;

/// Per-core power scale (W) used when translating the per-watt quasi-static
/// residual into the reported Kelvin error bound.
constexpr double kReferencePowerW = 16.0;

/// Taylor substeps for horizon @p dt, as a double so that horizons far past
/// the cap compare without overflow: the smallest m with |λ_max|·dt/m ≤ 1
/// and a local remainder Ω·(|λ_max|·dt)⁴ / (24·m³) ≤ @p tolerance_c.
double substep_count(double lambda_max_abs, double tolerance_c, double dt) {
    const double z = lambda_max_abs * dt;
    const double m_acc =
        std::cbrt(kOffsetScaleC * z * z * z * z / (24.0 * tolerance_c));
    return std::max(1.0, std::ceil(std::max(z, m_acc)));
}

}  // namespace

TruncatedModalSolver::TruncatedModalSolver(const ThermalModel& model,
                                           const SolverConfig& config)
    : model_(&model) {
    if (config.tolerance_c <= 0.0)
        throw std::invalid_argument(
            "TruncatedModalSolver: tolerance must be positive");
    tolerance_c_ = config.tolerance_c;
    const std::size_t n = model.node_count();
    const std::size_t cores = model.core_count();
    total_ = n;
    const linalg::Vector& cap = model.capacitance();

    // Same symmetrisation as the dense backend — S = A^{-1/2} B A^{-1/2}
    // shares eigenvalues with A^{-1}B — but decomposed by the direct
    // tridiagonal path instead of Jacobi sweeps.
    linalg::Vector inv_sqrt_cap(n);
    for (std::size_t i = 0; i < n; ++i)
        inv_sqrt_cap[i] = 1.0 / std::sqrt(cap[i]);
    linalg::Matrix s(n, n);
    const linalg::Matrix& b = model.conductance();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            s(i, j) = inv_sqrt_cap[i] * b(i, j) * inv_sqrt_cap[j];
    const linalg::SymmetricEigen eig = linalg::tridiagonal_eigen(s);

    // λ_k = -μ_k, μ ascending: index 0 is the slowest mode.
    std::vector<double> lambda_full(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (eig.values[k] <= 0.0)
            throw std::domain_error(
                "TruncatedModalSolver: conductance matrix is not positive "
                "definite");
        lambda_full[k] = -eig.values[k];
    }
    lambda_max_abs_ = eig.values[n - 1];

    // Per-mode worst-case core amplitude per Kelvin of offset scale:
    // g_k = max_{core i}|V(i,k)| · ‖row k of V^{-1}‖₁, with
    // V = A^{-1/2}U and V^{-1} = U^T A^{1/2}. The dropped-tail bound of a
    // closed-form query at horizon τ is then Σ_{k≥K} g_k·Ω·e^{λ_k τ}.
    std::vector<double> g(n);
    for (std::size_t k = 0; k < n; ++k) {
        double colmax = 0.0;
        for (std::size_t i = 0; i < cores; ++i)
            colmax = std::max(colmax,
                              std::abs(eig.vectors(i, k)) * inv_sqrt_cap[i]);
        double rowsum = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            rowsum += std::abs(eig.vectors(j, k)) / inv_sqrt_cap[j];
        g[k] = colmax * rowsum;
    }

    // Mode selection: the smallest K whose dropped tail can be deferred to a
    // switch horizon the sparse Taylor propagator covers within the substep
    // cap. tail(K, τ) falls in both K and τ, so τ_need(K) — the smallest
    // switch horizon meeting the tolerance — shrinks as K grows, and the
    // first feasible K is found by binary search. With the shipped RC
    // parameters this lands in the spectral gap between the slow
    // spreader/sink cluster and the fast silicon cluster.
    const auto tail = [&](std::size_t k0, double tau) {
        double acc = 0.0;
        for (std::size_t k = k0; k < n; ++k)
            acc += g[k] * kOffsetScaleC * std::exp(lambda_full[k] * tau);
        return acc;
    };
    const auto tau_need = [&](std::size_t k0) {
        if (tail(k0, 0.0) <= tolerance_c_) return 0.0;
        double hi = 1e-4;
        while (tail(k0, hi) > tolerance_c_ && hi < 1e4) hi *= 2.0;
        double lo = 0.0;
        for (int it = 0; it < 60; ++it) {
            const double mid = 0.5 * (lo + hi);
            (tail(k0, mid) <= tolerance_c_ ? hi : lo) = mid;
        }
        return hi;
    };
    const auto feasible = [&](std::size_t k0) {
        return substep_count(lambda_max_abs_, tolerance_c_, tau_need(k0)) <=
               kSubstepCap;
    };
    kept_ = n;
    tau_switch_s_ = 0.0;
    if (n > 1 && feasible(n - 1)) {
        std::size_t lo = 1, hi = n - 1;  // hi is feasible
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (feasible(mid))
                hi = mid;
            else
                lo = mid + 1;
        }
        kept_ = lo;
        tau_switch_s_ = tau_need(lo);
    }

    // Retained-mode tables (slowest first, like the dense backend).
    lambda_k_ = linalg::Vector(kept_);
    for (std::size_t k = 0; k < kept_; ++k) lambda_k_[k] = lambda_full[k];
    v_k_ = linalg::Matrix(n, kept_);
    w_k_ = linalg::Matrix(kept_, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < kept_; ++k) {
            v_k_(i, k) = eig.vectors(i, k) * inv_sqrt_cap[i];
            w_k_(k, i) = eig.vectors(i, k) / inv_sqrt_cap[i];
        }
    beta_scale_ = linalg::Vector(kept_);
    for (std::size_t k = 0; k < kept_; ++k)
        beta_scale_[k] = 1.0 / eig.values[k];

    // Representative pole of the dropped cluster (amplitude-weighted mean);
    // the analyzer filters its quasi-static correction fields through it.
    double g_sum = 0.0, gl_sum = 0.0, spread = 0.0;
    for (std::size_t k = kept_; k < n; ++k) {
        g_sum += g[k];
        gl_sum += g[k] * lambda_full[k];
    }
    cluster_pole_ = g_sum > 0.0 ? gl_sum / g_sum : 0.0;
    for (std::size_t k = kept_; k < n; ++k)
        spread = std::max(spread, std::abs(lambda_full[k] - cluster_pole_));

    // Sparse/banded operators: exact steady solves and the O(nnz) Taylor
    // propagator.
    conductance_chol_ = linalg::BandedCholesky(b);
    c_sparse_ = linalg::SparseCsr(b);
    {
        std::vector<double> row_scale(n);
        for (std::size_t i = 0; i < n; ++i) row_scale[i] = -1.0 / cap[i];
        c_sparse_.scale_rows(row_scale.data());
    }

    // A-priori error bound: propagation budget + dropped-tail budget (each
    // ≤ tolerance by construction) plus the cluster-approximation term. The
    // latter is probed per core: maxd is the largest quasi-static
    // core-response residual |B^{-1}e_j - V_K β_K e_j| left after projecting
    // a unit core power onto the retained modes, and the spread factor
    // bounds how far one representative pole can mis-time that residual's
    // filtered response.
    if (truncated()) {
        double maxd = 0.0;
        linalg::Vector e(n, 0.0), x(n);
        std::vector<double> scratch(n), y(kept_);
        for (std::size_t j = 0; j < cores; ++j) {
            e[j] = 1.0;
            conductance_chol_.solve_into(e.data(), x.data(), scratch.data());
            e[j] = 0.0;
            for (std::size_t k = 0; k < kept_; ++k)
                y[k] = beta_scale_[k] * w_k_(k, j) / cap[j];
            // kept_field_i = V_K row i · y, four core rows per pass over y;
            // each row's sum keeps its ascending-k order.
            std::size_t i = 0;
            for (; i + 4 <= cores; i += 4) {
                const double* v0 = v_k_.data() + i * kept_;
                const double* v1 = v0 + kept_;
                const double* v2 = v1 + kept_;
                const double* v3 = v2 + kept_;
                double f0 = 0.0, f1 = 0.0, f2 = 0.0, f3 = 0.0;
                for (std::size_t k = 0; k < kept_; ++k) {
                    f0 += v0[k] * y[k];
                    f1 += v1[k] * y[k];
                    f2 += v2[k] * y[k];
                    f3 += v3[k] * y[k];
                }
                maxd = std::max(maxd, std::abs(x[i] - f0));
                maxd = std::max(maxd, std::abs(x[i + 1] - f1));
                maxd = std::max(maxd, std::abs(x[i + 2] - f2));
                maxd = std::max(maxd, std::abs(x[i + 3] - f3));
            }
            for (; i < cores; ++i) {
                double kept_field = 0.0;
                for (std::size_t k = 0; k < kept_; ++k)
                    kept_field += v_k_(i, k) * y[k];
                maxd = std::max(maxd, std::abs(x[i] - kept_field));
            }
        }
        const double spread_factor =
            cluster_pole_ < 0.0
                ? 1.0 - std::exp(-spread / std::abs(cluster_pole_))
                : 0.0;
        error_bound_c_ =
            2.0 * tolerance_c_ + kReferencePowerW * maxd * spread_factor;
    } else {
        error_bound_c_ = tolerance_c_;
    }
}

std::uint64_t TruncatedModalSolver::backend_signature() const {
    return detail::backend_signature_hash("modal", kept_, tolerance_c_,
                                          model_->signature());
}

linalg::Matrix TruncatedModalSolver::modal_steady_map() const {
    // β = V^{-1}B^{-1} restricted to retained rows, via the modal identity
    // β(k,j) = W(k,j) / (μ_k·a_j) — no solves needed.
    const linalg::Vector& cap = model_->capacitance();
    linalg::Matrix beta(kept_, total_);
    for (std::size_t k = 0; k < kept_; ++k)
        for (std::size_t j = 0; j < total_; ++j)
            beta(k, j) = beta_scale_[k] * w_k_(k, j) / cap[j];
    return beta;
}

std::size_t TruncatedModalSolver::substeps_for(double dt) const {
    return static_cast<std::size_t>(
        substep_count(lambda_max_abs_, tolerance_c_, dt));
}

void TruncatedModalSolver::steady_state_raw(const double* node_power,
                                            double ambient_celsius,
                                            ThermalWorkspace& ws,
                                            double* out) const {
    const std::size_t n = total_;
    const linalg::Vector& amb =
        ws.ambient_rhs(model_->ambient_conductance(), ambient_celsius);
    double* rhs = ws.rhs.data();
    for (std::size_t i = 0; i < n; ++i) rhs[i] = node_power[i] + amb[i];
    conductance_chol_.solve_into(rhs, out, ws.solver_scratch.data());
}

linalg::Vector TruncatedModalSolver::steady_state(
    const linalg::Vector& node_power, double ambient_celsius) const {
    ThermalWorkspace ws(total_);
    linalg::Vector out(total_);
    steady_state_into(node_power, ambient_celsius, ws, out);
    return out;
}

void TruncatedModalSolver::steady_state_into(const linalg::Vector& node_power,
                                             double ambient_celsius,
                                             ThermalWorkspace& workspace,
                                             linalg::Vector& out) const {
    if (node_power.size() != total_)
        throw std::invalid_argument(
            "TruncatedModalSolver::steady_state: power vector must cover all "
            "nodes");
    workspace.resize(total_);
    if (out.size() != total_) out = linalg::Vector(total_);
    steady_state_raw(node_power.data(), ambient_celsius, workspace,
                     out.data());
}

void TruncatedModalSolver::steady_state_batch_into(const double* node_powers,
                                                   std::size_t nrhs,
                                                   double ambient_celsius,
                                                   ThermalWorkspace& workspace,
                                                   double* out) const {
    if (nrhs == 0) return;
    workspace.resize(total_);
    const std::size_t n = total_;
    const linalg::Vector& amb =
        workspace.ambient_rhs(model_->ambient_conductance(), ambient_celsius);
    // Stage every right-hand side, then one lane-parallel banded sweep —
    // the batch form of steady_state_raw's rhs add + solve. The per-element
    // add and the per-lane solve sequence match the single path exactly, so
    // output r stays bit-identical to steady_state_into on RHS r.
    std::pmr::vector<double>& rhs = workspace.batch_rhs(n * nrhs);
    for (std::size_t r = 0; r < nrhs; ++r) {
        const double* p = node_powers + r * n;
        double* dst = rhs.data() + r * n;
        for (std::size_t i = 0; i < n; ++i) dst[i] = p[i] + amb[i];
    }
    std::pmr::vector<double>& lanes = workspace.batch_scratch(n * nrhs);
    conductance_chol_.solve_batch_into(rhs.data(), nrhs, out, lanes.data());
}

linalg::Vector TruncatedModalSolver::conductance_solve(
    const linalg::Vector& rhs) const {
    return conductance_chol_.solve(rhs);
}

void TruncatedModalSolver::conductance_solve_into(const linalg::Vector& rhs,
                                                  ThermalWorkspace& workspace,
                                                  linalg::Vector& out) const {
    if (rhs.size() != total_)
        throw std::invalid_argument(
            "TruncatedModalSolver::conductance_solve: size mismatch");
    workspace.resize(total_);
    if (out.size() != total_) out = linalg::Vector(total_);
    conductance_chol_.solve_into(rhs.data(), out.data(),
                                 workspace.solver_scratch.data());
}

void TruncatedModalSolver::conductance_solve_batch_into(
    const double* rhs, std::size_t nrhs, ThermalWorkspace& workspace,
    double* out) const {
    if (nrhs == 0) return;
    workspace.resize(total_);
    std::pmr::vector<double>& lanes = workspace.batch_scratch(total_ * nrhs);
    conductance_chol_.solve_batch_into(rhs, nrhs, out, lanes.data());
}

void TruncatedModalSolver::propagate_taylor(const double* x, double dt,
                                            ThermalWorkspace& ws,
                                            double* out) const {
    const std::size_t n = total_;
    const std::size_t m = substeps_for(dt);
    const double h = dt / static_cast<double>(m);
    double* r = ws.taylor_a.data();
    double* t1 = ws.taylor_b.data();
    double* t2 = ws.solver_scratch.data();
    for (std::size_t i = 0; i < n; ++i) r[i] = x[i];
    for (std::size_t step = 0; step < m; ++step) {
        // r ← r + h·Cr + h²/2·C²r + h³/6·C³r; three O(nnz) matvecs.
        c_sparse_.matvec_into(r, t1);
        c_sparse_.matvec_into(t1, t2);
        linalg::kernel_axpy(n, h, t1, r);
        linalg::kernel_axpy(n, 0.5 * h * h, t2, r);
        c_sparse_.matvec_into(t2, t1);
        linalg::kernel_axpy(n, h * h * h / 6.0, t1, r);
    }
    for (std::size_t i = 0; i < n; ++i) out[i] = r[i];
}

void TruncatedModalSolver::propagate_modal(const double* x, double dt,
                                           ThermalWorkspace& ws,
                                           double* out) const {
    double* w = ws.modal.data();
    linalg::kernel_matvec(w_k_.data(), kept_, total_, x, w);
    const double* e = ws.exp_table(lambda_k_, dt);
    linalg::kernel_hadamard(kept_, e, w);
    linalg::kernel_matvec(v_k_.data(), total_, kept_, w, out);
}

void TruncatedModalSolver::apply_exponential_raw(const double* x, double dt,
                                                 ThermalWorkspace& ws,
                                                 double* out) const {
    // Horizon split: at or past τ_switch the dropped tail has decayed under
    // the tolerance and the retained closed form is cheapest; below it the
    // sparse Taylor propagator carries the *entire* spectrum (no truncation
    // error at all, only the bounded substep remainder).
    if (!truncated() || dt >= tau_switch_s_)
        propagate_modal(x, dt, ws, out);
    else
        propagate_taylor(x, dt, ws, out);
}

linalg::Vector TruncatedModalSolver::apply_exponential(const linalg::Vector& x,
                                                       double dt) const {
    ThermalWorkspace ws(total_);
    linalg::Vector out(total_);
    apply_exponential_into(x, dt, ws, out);
    return out;
}

void TruncatedModalSolver::apply_exponential_into(const linalg::Vector& x,
                                                  double dt,
                                                  ThermalWorkspace& workspace,
                                                  linalg::Vector& out) const {
    if (x.size() != total_)
        throw std::invalid_argument(
            "TruncatedModalSolver::apply_exponential: size mismatch");
    workspace.resize(total_);
    if (out.size() != total_) out = linalg::Vector(total_);
    apply_exponential_raw(x.data(), dt, workspace, out.data());
}

linalg::Vector TruncatedModalSolver::transient(const linalg::Vector& t_init,
                                               const linalg::Vector& node_power,
                                               double ambient_celsius,
                                               double dt) const {
    ThermalWorkspace ws(total_);
    linalg::Vector out(total_);
    transient_into(t_init, node_power, ambient_celsius, dt, ws, out);
    return out;
}

void TruncatedModalSolver::transient_into(const linalg::Vector& t_init,
                                          const linalg::Vector& node_power,
                                          double ambient_celsius, double dt,
                                          ThermalWorkspace& workspace,
                                          linalg::Vector& out) const {
    const std::size_t n = total_;
    if (t_init.size() != n)
        throw std::invalid_argument("transient: t_init size mismatch");
    if (node_power.size() != n)
        throw std::invalid_argument(
            "TruncatedModalSolver::transient: power vector must cover all "
            "nodes");
    workspace.resize(n);
    if (out.size() != n) out = linalg::Vector(n);
    steady_state_raw(node_power.data(), ambient_celsius, workspace,
                     workspace.steady.data());
    // The offset is captured before out is written, so out may alias t_init.
    for (std::size_t i = 0; i < n; ++i)
        workspace.offset[i] = t_init[i] - workspace.steady[i];
    apply_exponential_raw(workspace.offset.data(), dt, workspace, out.data());
    for (std::size_t i = 0; i < n; ++i)
        out[i] = workspace.steady[i] + out[i];
}

Peak TruncatedModalSolver::peak_core_temperature_exact(
    const linalg::Vector& t_init, const linalg::Vector& node_power,
    double ambient_celsius, double dt) const {
    return exact_peak_search(t_init, steady_state(node_power, ambient_celsius),
                             w_k_, dt);
}

std::unique_ptr<const TransientSolver> TruncatedModalSolver::clone_rebound(
    const ThermalModel& model) const {
    if (model.signature() != model_->signature())
        throw std::invalid_argument(
            "TruncatedModalSolver::clone_rebound: model is not a replica "
            "(signature mismatch)");
    // Member-wise copy duplicates every table (retained modes, banded
    // Cholesky factor, CSR of C, error-bound scalars) bit-for-bit; only the
    // model pointer changes, so the clone's answers are bit-identical.
    auto clone =
        std::unique_ptr<TruncatedModalSolver>(new TruncatedModalSolver(*this));
    clone->model_ = &model;
    return clone;
}

}  // namespace hp::thermal
