#pragma once

#include <cstddef>
#include <vector>

#include "linalg/banded.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/vector.hpp"
#include "thermal/solver.hpp"

namespace hp::thermal {

/// Reduced-order TransientSolver: truncated modal decomposition + sparse
/// direct/Taylor propagation, the backend that scales S-NUCA thermal
/// analysis to 256/1024-core and 3D-stacked floorplans.
///
/// An RC grid's spectrum splits into a slow spreader/sink cluster (time
/// constants 0.1 s..1 s) and a fast silicon cluster (~10 ms); the paper's
/// rotation analysis lives on the slow side, but hotspot *amplitudes* have
/// large fast-mode content, so naively dropping fast modes loses tens of
/// Kelvin. This backend therefore never relies on truncation being small in
/// the field — it splits every query by horizon:
///
///  - *Steady states* are exact: B is factorised once by an RCM-ordered
///    banded Cholesky with the dense-coupled sink row bordered out through a
///    Schur complement (linalg::BandedCholesky), so a solve is O(N·b).
///  - *Short-horizon transients* (dt < τ_switch, the simulator micro-step
///    path) propagate the full offset with a substepped 3rd-order Taylor
///    expansion of e^{C·dt} over the sparse C = -A^{-1}B — O(nnz) per
///    substep, no modal projection, local error kept under tolerance_c by
///    the substep rule m ≥ (Ω·(|λ_max|dt)⁴ / 24·tol)^{1/3}.
///  - *Long-horizon transients* (dt ≥ τ_switch) use the K retained slowest
///    modes in closed form; K and τ_switch are chosen together so the
///    dropped tail Σ_{k≥K} g_k·Ω·e^{λ_k·τ_switch} is under tolerance_c
///    while the Taylor cost below τ_switch stays bounded — with the shipped
///    parameters the cut lands in the spectral gap between the clusters.
///  - *Periodic rotation analysis* (PeakTemperatureAnalyzer) gets the
///    retained modes plus cluster_pole()/conductance-solve hooks with which
///    it reconstructs the dropped modes' quasi-static response exactly and
///    low-pass-filters it through one representative fast pole λ̄.
///
/// Setup uses Householder tridiagonalization + implicit-QL
/// (linalg::tridiagonal_eigen) instead of Jacobi sweeps, keeping the
/// one-time O(N³) constant small at 513/2049 nodes.
///
/// error_bound_c() is the a-priori Kelvin bound on peak/transient queries:
/// 2·tolerance_c (propagation + tail) plus the cluster-spread term
/// P_ref·maxd·(1-e^{-Δλ/|λ̄|}) measured from per-core probe solves at
/// construction (DESIGN.md §11).
///
/// Thread safety: immutable after construction, all scratch caller-owned
/// (the TransientSolver contract).
class TruncatedModalSolver : public TransientSolver {
public:
    /// One-time setup for @p model (which must outlive the solver):
    /// eigendecomposition, mode selection against config.tolerance_c,
    /// banded factorisation of B, CSR of C and the error-bound probes.
    /// Throws std::invalid_argument on a non-positive tolerance.
    TruncatedModalSolver(const ThermalModel& model, const SolverConfig& config);

    const ThermalModel& model() const override { return *model_; }
    const char* backend_name() const override { return "modal"; }
    std::uint64_t backend_signature() const override;
    bool truncated() const override { return kept_ < total_; }
    double error_bound_c() const override { return error_bound_c_; }
    double tolerance_c() const override { return tolerance_c_; }

    std::size_t mode_count() const override { return kept_; }
    const linalg::Vector& eigenvalues() const override { return lambda_k_; }
    const linalg::Matrix& mode_shapes() const override { return v_k_; }
    linalg::Matrix modal_steady_map() const override;
    double cluster_pole() const override { return cluster_pole_; }

    /// Horizon at which queries switch from sparse Taylor propagation to the
    /// retained-mode closed form (0 when nothing is truncated).
    double tau_switch_s() const { return tau_switch_s_; }

    linalg::Vector steady_state(const linalg::Vector& node_power,
                                double ambient_celsius) const override;
    void steady_state_into(const linalg::Vector& node_power,
                           double ambient_celsius, ThermalWorkspace& workspace,
                           linalg::Vector& out) const override;
    void steady_state_batch_into(const double* node_powers, std::size_t nrhs,
                                 double ambient_celsius,
                                 ThermalWorkspace& workspace,
                                 double* out) const override;
    linalg::Vector conductance_solve(const linalg::Vector& rhs) const override;
    void conductance_solve_into(const linalg::Vector& rhs,
                                ThermalWorkspace& workspace,
                                linalg::Vector& out) const override;
    void conductance_solve_batch_into(const double* rhs, std::size_t nrhs,
                                      ThermalWorkspace& workspace,
                                      double* out) const override;

    linalg::Vector apply_exponential(const linalg::Vector& x,
                                     double dt) const override;
    void apply_exponential_into(const linalg::Vector& x, double dt,
                                ThermalWorkspace& workspace,
                                linalg::Vector& out) const override;

    linalg::Vector transient(const linalg::Vector& t_init,
                             const linalg::Vector& node_power,
                             double ambient_celsius, double dt) const override;
    void transient_into(const linalg::Vector& t_init,
                        const linalg::Vector& node_power,
                        double ambient_celsius, double dt,
                        ThermalWorkspace& workspace,
                        linalg::Vector& out) const override;

    Peak peak_core_temperature_exact(const linalg::Vector& t_init,
                                     const linalg::Vector& node_power,
                                     double ambient_celsius,
                                     double dt) const override;

    /// Taylor substep count the propagator would use for horizon @p dt
    /// (exposed for tests/benchmarks of the cost model).
    std::size_t substeps_for(double dt) const;

    /// Copies the retained-mode tables, banded factor and CSR bit-for-bit
    /// and rebinds to @p model (which must be a signature-equal replica) —
    /// no eigensolve, no refactorisation.
    std::unique_ptr<const TransientSolver> clone_rebound(
        const ThermalModel& model) const override;

private:
    /// e^{C·dt}·x via m-substep 3rd-order Taylor over the sparse C
    /// (dt < tau_switch_s_); x and out may alias.
    void propagate_taylor(const double* x, double dt, ThermalWorkspace& ws,
                          double* out) const;
    /// e^{C·dt}·x via the retained modes (dt >= tau_switch_s_).
    void propagate_modal(const double* x, double dt, ThermalWorkspace& ws,
                         double* out) const;
    void apply_exponential_raw(const double* x, double dt,
                               ThermalWorkspace& ws, double* out) const;
    void steady_state_raw(const double* node_power, double ambient_celsius,
                          ThermalWorkspace& ws, double* out) const;

    const ThermalModel* model_;
    std::size_t total_ = 0;  ///< node count N
    std::size_t kept_ = 0;   ///< retained modes K
    double tolerance_c_ = 0.0;
    double tau_switch_s_ = 0.0;
    double lambda_max_abs_ = 0.0;  ///< |λ| of the fastest mode (full system)
    double cluster_pole_ = 0.0;    ///< g-weighted mean dropped eigenvalue
    double error_bound_c_ = 0.0;

    linalg::Vector lambda_k_;  ///< retained eigenvalues, slowest first
    linalg::Matrix v_k_;       ///< N x K retained mode shapes
    linalg::Matrix w_k_;       ///< K x N retained left modes (V^{-1} rows)
    linalg::Vector beta_scale_;  ///< 1/μ_k: β = diag(1/μ)·W·A^{-1} scaling
    linalg::BandedCholesky conductance_chol_;  ///< bordered banded factor of B
    linalg::SparseCsr c_sparse_;               ///< CSR of C = -A^{-1}B
};

}  // namespace hp::thermal
