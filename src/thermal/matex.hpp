#pragma once

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/solver.hpp"
#include "thermal/workspace.hpp"

namespace hp::thermal {

/// Analytic transient solver after MatEx (Pagani et al., DATE'15) — the
/// exact "dense" TransientSolver backend.
///
/// Diagonalises C = -A^{-1}B once via the symmetrised eigenproblem
/// S = A^{-1/2} B A^{-1/2} (A is diagonal, B symmetric positive definite, so
/// all eigenvalues of C are strictly negative — exactly the property the
/// paper's periodic-steady-state argument, Eq. (8)-(9), relies on). After the
/// one-time O(N^3) setup, evaluating the exact transient response
///
///   T(t) = T_steady + e^{Ct} (T_init - T_steady)          (paper Eq. (4))
///
/// for any t costs a pair of O(N^2) matrix-vector products, with no
/// time-stepping error.
///
/// Steady states T = B^{-1}(P + T_amb·G) (paper Eq. (3)) and raw B solves
/// use an LU decomposition of B that the solver factors once and owns.
///
/// Thread safety: immutable after construction — the eigendecomposition,
/// the LU of B and every derived table are computed in the constructor and
/// all member functions are const with no mutable state or lazy caches. One
/// solver may therefore be shared read-only by any number of concurrent
/// simulations (the campaign engine relies on this; see campaign::StudySetup).
class MatExSolver : public TransientSolver {
public:
    /// One-time LU of B and eigendecomposition of the model's C matrix.
    /// Throws std::domain_error when B is singular or not positive definite.
    /// The solver keeps a reference to @p model, which must outlive it.
    explicit MatExSolver(const ThermalModel& model);

    const ThermalModel& model() const override { return *model_; }

    // Fidelity metadata: the dense backend keeps the whole spectrum, so it
    // is exact and its retained-mode views are simply λ and V.
    const char* backend_name() const override { return "dense"; }
    std::uint64_t backend_signature() const override {
        return detail::backend_signature_hash("dense", lambda_.size(), 0.0,
                                              model_->signature());
    }
    bool truncated() const override { return false; }
    double error_bound_c() const override { return 0.0; }
    double tolerance_c() const override { return 0.0; }
    std::size_t mode_count() const override { return lambda_.size(); }
    const linalg::Matrix& mode_shapes() const override { return v_; }
    linalg::Matrix modal_steady_map() const override;
    double cluster_pole() const override { return 0.0; }

    /// Eigenvalues of C, ascending (all strictly negative; 1/|λ| are the
    /// network's thermal time constants in seconds).
    const linalg::Vector& eigenvalues() const override { return lambda_; }

    linalg::Vector steady_state(const linalg::Vector& node_power,
                                double ambient_celsius) const override;
    /// steady_state without allocations: the right-hand side is a fused add
    /// of @p node_power and the workspace's memoised T_amb·G, solved in place
    /// into @p out (resized on first use, untouched thereafter). Bit-identical
    /// to steady_state — same products, sums and substitution order. @p out
    /// may alias @p node_power but not a workspace buffer.
    void steady_state_into(const linalg::Vector& node_power,
                           double ambient_celsius, ThermalWorkspace& workspace,
                           linalg::Vector& out) const override;
    /// One multi-RHS LU substitution pass over @p nrhs RHS-major power
    /// vectors; the transposes to the LU's node-major layout are exact
    /// copies, so output r is bit-identical to steady_state_into on RHS r.
    /// @p out must not alias @p node_powers or a workspace buffer.
    void steady_state_batch_into(const double* node_powers, std::size_t nrhs,
                                 double ambient_celsius,
                                 ThermalWorkspace& workspace,
                                 double* out) const override;
    linalg::Vector conductance_solve(const linalg::Vector& rhs) const override;
    void conductance_solve_into(const linalg::Vector& rhs,
                                ThermalWorkspace& workspace,
                                linalg::Vector& out) const override;

    /// Applies e^{C·dt} to @p x in O(N^2).
    linalg::Vector apply_exponential(const linalg::Vector& x,
                                     double dt) const override;

    /// apply_exponential without allocations: modal projection into the
    /// workspace, decay through its memoised e^{λ·dt} table, projection back
    /// into @p out (resized on first use). Bit-identical to
    /// apply_exponential. @p out may alias @p x; neither may be a workspace
    /// buffer other than workspace.offset for @p x (the transient path).
    void apply_exponential_into(const linalg::Vector& x, double dt,
                                ThermalWorkspace& workspace,
                                linalg::Vector& out) const override;

    /// Exact temperature after holding @p node_power constant for @p dt
    /// seconds starting from @p t_init (paper Eq. (4)).
    linalg::Vector transient(const linalg::Vector& t_init,
                             const linalg::Vector& node_power,
                             double ambient_celsius, double dt) const override;

    /// transient without allocations — the simulator's per-micro-step kernel.
    /// Bit-identical to transient. @p out may alias @p t_init (the usual
    /// temps → temps update); it must not alias @p node_power or a workspace
    /// buffer.
    void transient_into(const linalg::Vector& t_init,
                        const linalg::Vector& node_power,
                        double ambient_celsius, double dt,
                        ThermalWorkspace& workspace,
                        linalg::Vector& out) const override;

    /// Exact peak core temperature over [0, dt]: exact_peak_search over
    /// the whole spectrum, with w = V^{-1}·(T_init − T_steady).
    Peak peak_core_temperature_exact(const linalg::Vector& t_init,
                                     const linalg::Vector& node_power,
                                     double ambient_celsius,
                                     double dt) const override;

    /// Copies λ/V/V^{-1} and the LU of B bit-for-bit and rebinds to @p model
    /// (which must be a signature-equal replica) — no eigensolve, no
    /// factorisation.
    std::unique_ptr<const TransientSolver> clone_rebound(
        const ThermalModel& model) const override;

private:
    const ThermalModel* model_;
    linalg::LuDecomposition lu_;  ///< of B; every steady/conductance solve
    linalg::Vector lambda_;
    linalg::Matrix v_;
    linalg::Matrix v_inv_;
};

}  // namespace hp::thermal
