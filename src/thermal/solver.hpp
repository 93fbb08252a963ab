#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "thermal/rc_network.hpp"
#include "thermal/workspace.hpp"

namespace hp::thermal {

/// Location and value of a core-temperature peak (shared across backends).
struct Peak {
    double temperature_c = 0.0;
    double time_s = 0.0;
    std::size_t core = 0;
};

/// Abstract transient thermal solver for one ThermalModel — the backend
/// seam between the simulator/schedulers/analyzer and the numerics that
/// realise T(t) = T_steady + e^{Ct}(T_init - T_steady).
///
/// Contract (DESIGN.md §11):
///  - *Thread safety*: implementations are immutable after construction;
///    every member function is const with no mutable or lazy state, so one
///    solver is shared read-only by all campaign workers.
///  - *Workspace ownership*: the `_into`/`_batch_into` entry points touch
///    only caller-owned buffers and the caller's ThermalWorkspace (sized by
///    node_count(); one per thread). After warm-up they are allocation-free.
///  - *Batch semantics*: output r of every `_batch_into` is bit-identical to
///    the corresponding single `_into` call on input r.
///  - *Error-bound semantics*: error_bound_c() is an a-priori bound on the
///    absolute core-temperature error of any transient/peak query against
///    the exact dense solution of the same model. Exact backends report 0;
///    steady-state queries are exact (direct solves) in every backend.
///  - *Misuse guard*: consumers pair solver and model by model_signature()
///    (content hash), not object identity, so equal models interoperate.
///  - *Factorisation ownership*: ThermalModel is plain data. Each backend
///    factors B itself (dense: LU, modal: banded Cholesky), and that
///    factorisation is the only steady-state path — TSP budgets and the
///    simulator's initial temperatures included.
///  - *Base implementations*: conductance_solve_batch_into,
///    apply_exponential_batch_into, transient_batch_into, exponential and
///    the sampled peak_core_temperature are written once, in solver.cpp,
///    over the single-vector calls every backend implements; only the
///    modal backend overrides the batched conductance solve. The exact
///    peak search is written once too (exact_peak_search); each backend's
///    peak_core_temperature_exact only supplies its steady state and its
///    map to modal coordinates.
class TransientSolver {
public:
    virtual ~TransientSolver() = default;

    // ---- Identity and fidelity metadata -------------------------------
    virtual const ThermalModel& model() const = 0;
    /// Signature of the model this solver was built for
    /// (== model().signature()).
    std::uint64_t model_signature() const { return model().signature(); }
    /// Stable short name: "dense" | "modal".
    virtual const char* backend_name() const = 0;
    /// Hash of backend identity: name, mode count, tolerance and model
    /// signature. Keyed into prediction caches so two backends (or two
    /// tolerances) can never alias each other's cached results.
    virtual std::uint64_t backend_signature() const = 0;
    /// True when the backend drops part of the spectrum (modal truncation).
    virtual bool truncated() const = 0;
    /// A-priori bound on the absolute core-temperature error (Kelvin) of
    /// transient and peak queries; 0 for exact backends.
    virtual double error_bound_c() const = 0;
    /// The tolerance the backend was configured to meet (0 for exact).
    virtual double tolerance_c() const = 0;

    /// Workspace-size query: ThermalWorkspace::resize(node_count()).
    std::size_t node_count() const { return model().node_count(); }

    // ---- Modal metadata (the analyzer's design-time inputs) -----------
    /// Number of retained eigenmodes K (== node_count() when not truncated).
    virtual std::size_t mode_count() const = 0;
    /// Retained eigenvalues of C, slowest mode first (all negative, |λ|
    /// ascending), K entries; 1/|λ| are the thermal time constants.
    virtual const linalg::Vector& eigenvalues() const = 0;
    /// Node-space shapes of the retained modes: N x K, column k is mode k
    /// (== eigenvectors V for the dense backend).
    virtual const linalg::Matrix& mode_shapes() const = 0;
    /// The K x N map β = V^{-1}·B^{-1} from node power to the modal image of
    /// its steady response (Algorithm 1's β matrix, restricted to retained
    /// modes). Built on demand — callers (analyzer construction) cache it.
    virtual linalg::Matrix modal_steady_map() const = 0;
    /// Representative pole λ̄ < 0 of the *dropped* mode cluster, with which
    /// the analyzer low-pass-filters its quasi-static correction fields;
    /// 0 when nothing is dropped.
    virtual double cluster_pole() const = 0;

    // ---- Steady state (exact in every backend) ------------------------
    /// T = B^{-1}(P + T_amb·G); @p node_power is a full node vector.
    virtual linalg::Vector steady_state(const linalg::Vector& node_power,
                                        double ambient_celsius) const = 0;
    virtual void steady_state_into(const linalg::Vector& node_power,
                                   double ambient_celsius,
                                   ThermalWorkspace& workspace,
                                   linalg::Vector& out) const = 0;
    /// RHS-major batch; output r bit-identical to steady_state_into on r.
    virtual void steady_state_batch_into(const double* node_powers,
                                         std::size_t nrhs,
                                         double ambient_celsius,
                                         ThermalWorkspace& workspace,
                                         double* out) const = 0;
    /// Raw conductance solve B·x = rhs (no ambient term) — the analyzer's
    /// design-time building block (β, ambient offset, correction fields).
    virtual linalg::Vector conductance_solve(const linalg::Vector& rhs)
        const = 0;
    virtual void conductance_solve_into(const linalg::Vector& rhs,
                                        ThermalWorkspace& workspace,
                                        linalg::Vector& out) const = 0;
    /// RHS-major batched conductance solve; output r bit-identical to
    /// conductance_solve_into on RHS r. The base default loops the single
    /// solve through workspace staging (bit-preserving copies); backends
    /// with a lane-parallel factorisation (the modal backend's banded
    /// Cholesky) override it — this is what lets the analyzer's
    /// dropped-cluster correction solve all δ epoch fields in one sweep.
    virtual void conductance_solve_batch_into(const double* rhs,
                                              std::size_t nrhs,
                                              ThermalWorkspace& workspace,
                                              double* out) const;

    // ---- Transients ----------------------------------------------------
    /// Applies e^{C·dt} to @p x.
    virtual linalg::Vector apply_exponential(const linalg::Vector& x,
                                             double dt) const = 0;
    /// @p out may alias @p x; neither may be a workspace buffer other than
    /// workspace.offset for @p x (the transient path).
    virtual void apply_exponential_into(const linalg::Vector& x, double dt,
                                        ThermalWorkspace& workspace,
                                        linalg::Vector& out) const = 0;
    /// RHS-major batch; @p outs may alias @p xs. The base runs
    /// apply_exponential_into once per RHS, in place through
    /// workspace.offset (bit-preserving copies in and out).
    virtual void apply_exponential_batch_into(const double* xs,
                                              std::size_t nrhs, double dt,
                                              ThermalWorkspace& workspace,
                                              double* outs) const;
    /// Materialises the full matrix e^{C·dt}, one apply_exponential_into
    /// per unit column (O(N) applications; tests only).
    virtual linalg::Matrix exponential(double dt) const;

    /// Temperature after holding @p node_power for @p dt from @p t_init.
    virtual linalg::Vector transient(const linalg::Vector& t_init,
                                     const linalg::Vector& node_power,
                                     double ambient_celsius,
                                     double dt) const = 0;
    /// The simulator's per-micro-step kernel. @p out may alias @p t_init; it
    /// must not alias @p node_power or a workspace buffer.
    virtual void transient_into(const linalg::Vector& t_init,
                                const linalg::Vector& node_power,
                                double ambient_celsius, double dt,
                                ThermalWorkspace& workspace,
                                linalg::Vector& out) const = 0;
    /// Batched transient from one shared @p t_init; @p outs must not alias
    /// @p node_powers. The base composes steady_state_batch_into, the
    /// offsets, apply_exponential_batch_into in place and the steady states
    /// added back — transient_into's operations per RHS.
    virtual void transient_batch_into(const linalg::Vector& t_init,
                                      const double* node_powers,
                                      std::size_t nrhs,
                                      double ambient_celsius, double dt,
                                      ThermalWorkspace& workspace,
                                      double* outs) const;

    // ---- Peaks ---------------------------------------------------------
    /// Largest core temperature reached in (0, dt], sampled at @p samples
    /// evenly spaced times (the per-node transient is not monotonic, so the
    /// endpoint alone can miss an interior hump): one steady_state_into,
    /// then one apply_exponential_into per sample. Throws
    /// std::invalid_argument when @p samples is 0.
    virtual double peak_core_temperature(const linalg::Vector& t_init,
                                         const linalg::Vector& node_power,
                                         double ambient_celsius, double dt,
                                         std::size_t samples = 8) const;
    /// Exact (within error_bound_c()) peak over [0, dt] via the analytic
    /// derivative of the per-core exponential sum (exact_peak_search).
    /// Throws std::invalid_argument when @p dt is not positive or @p t_init
    /// or @p node_power does not cover every node.
    virtual Peak peak_core_temperature_exact(const linalg::Vector& t_init,
                                             const linalg::Vector& node_power,
                                             double ambient_celsius,
                                             double dt) const = 0;

    // ---- Replication ---------------------------------------------------
    /// Deep copy of this solver rebound to @p model, which must be a
    /// replica of the original model (equal signature(); throws
    /// std::invalid_argument otherwise). Every numeric table is copied
    /// bit-for-bit — nothing is recomputed, no eigensolve, no factorisation
    /// — so the clone answers every query bit-identically to the original.
    /// This is the NUMA replication hook: the campaign engine copies a
    /// StudySetup's solver once per node so worker reads stay node-local,
    /// and bit-identical cloning is what keeps records placement-invariant.
    virtual std::unique_ptr<const TransientSolver> clone_rebound(
        const ThermalModel& model) const = 0;

protected:
    /// The MatEx peak search (Pagani et al., DATE'15) behind every
    /// backend's peak_core_temperature_exact. Per core the transient from
    /// @p t_init towards @p steady is a sum of decaying exponentials,
    /// T_i(t) = steady_i + Σ_k c_ik·e^{λ_k·t} with c_ik = V(i,k)·w_k over
    /// mode_shapes() and eigenvalues(), where w = @p modal_map·(t_init −
    /// steady) (the retained rows of V^{-1}). When the backend truncates,
    /// one more term carries the projection residual offset_i − Σ_k c_ik at
    /// cluster_pole(), the decomposition the analyzer uses. Candidates are
    /// both endpoints and the first stationary point, bracketed by a
    /// 16-interval scan of the analytic derivative and refined by 60
    /// bisections — no time-stepping or sampling error. Validates @p dt > 0
    /// and @p t_init's size; @p steady must cover every node.
    Peak exact_peak_search(const linalg::Vector& t_init,
                           const linalg::Vector& steady,
                           const linalg::Matrix& modal_map, double dt) const;
};

/// Which numeric backend realises the TransientSolver.
enum class SolverBackend {
    kAuto,   ///< dense up to SolverConfig::dense_node_threshold nodes,
             ///< modal above; HOTPOTATO_SOLVER=dense|modal overrides
    kDense,  ///< full eigendecomposition (MatExSolver) — exact, O(N^2)/step
    kModal,  ///< truncated modal + sparse propagation — bounded error,
             ///< O(N·b)/step
};

/// Backend selection and fidelity knobs (CLI: --solver / --solver-tol).
struct SolverConfig {
    SolverBackend backend = SolverBackend::kAuto;

    /// Temperature tolerance (Kelvin) the modal backend must meet when
    /// choosing its mode cut; also the per-query budget of its sparse
    /// propagator.
    double tolerance_c = 0.01;

    /// kAuto picks dense at or below this many thermal nodes (every shipped
    /// ≤64-core model has ≤129 nodes and stays dense — bit-identical to the
    /// pre-backend code), modal above (paper_256core has 513).
    std::size_t dense_node_threshold = 256;

    static SolverConfig dense() {
        SolverConfig c;
        c.backend = SolverBackend::kDense;
        return c;
    }
    static SolverConfig modal(double tolerance = 0.01) {
        SolverConfig c;
        c.backend = SolverBackend::kModal;
        c.tolerance_c = tolerance;
        return c;
    }
};

namespace detail {

/// Shared backend_signature() recipe: FNV-1a over the backend name, retained
/// mode count, tolerance bit pattern and the model signature. Centralised so
/// every backend keys prediction caches the same way.
inline std::uint64_t backend_signature_hash(const char* name,
                                            std::size_t mode_count,
                                            double tolerance_c,
                                            std::uint64_t model_signature) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t word) {
        for (int b = 0; b < 8; ++b) {
            h ^= (word >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const char* p = name; *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 1099511628211ull;
    }
    mix(static_cast<std::uint64_t>(mode_count));
    std::uint64_t tol_bits;
    static_assert(sizeof(tol_bits) == sizeof(tolerance_c));
    __builtin_memcpy(&tol_bits, &tolerance_c, sizeof(tol_bits));
    mix(tol_bits);
    mix(model_signature);
    return h;
}

}  // namespace detail

/// Name of a backend ("auto" | "dense" | "modal").
std::string to_string(SolverBackend backend);

/// Parses a backend name; throws std::invalid_argument on anything else.
SolverBackend parse_solver_backend(const std::string& name);

/// Instantiates the backend selected by @p config for @p model (which must
/// outlive the solver). With backend == kAuto the HOTPOTATO_SOLVER
/// environment variable ("dense" | "modal"), when set, wins over the node
/// threshold — the CI lever that forces the whole suite through one
/// backend. Throws std::invalid_argument on a non-positive tolerance, and
/// std::domain_error or std::invalid_argument when B is singular or not
/// positive definite.
std::unique_ptr<const TransientSolver> make_solver(const ThermalModel& model,
                                                   const SolverConfig& config);

}  // namespace hp::thermal
