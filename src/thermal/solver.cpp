#include "thermal/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "thermal/matex.hpp"
#include "thermal/modal_solver.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace hp::thermal {

// Base implementations over the single-vector calls. Every copy below is a
// plain load/store, so a batch output r keeps the bits of the single call on
// input r.

void TransientSolver::conductance_solve_batch_into(const double* rhs,
                                                   std::size_t nrhs,
                                                   ThermalWorkspace& workspace,
                                                   double* out) const {
    const std::size_t n = node_count();
    workspace.resize(n);
    for (std::size_t r = 0; r < nrhs; ++r) {
        std::copy_n(rhs + r * n, n, workspace.rhs.data());
        conductance_solve_into(workspace.rhs, workspace, workspace.steady);
        std::copy_n(workspace.steady.data(), n, out + r * n);
    }
}

void TransientSolver::apply_exponential_batch_into(const double* xs,
                                                   std::size_t nrhs,
                                                   double dt,
                                                   ThermalWorkspace& workspace,
                                                   double* outs) const {
    const std::size_t n = node_count();
    workspace.resize(n);
    // RHS r is read in full before output r is written, so outs may alias
    // xs; the _into contract lets x and out both be workspace.offset.
    linalg::Vector& stage = workspace.offset;
    for (std::size_t r = 0; r < nrhs; ++r) {
        std::copy_n(xs + r * n, n, stage.data());
        apply_exponential_into(stage, dt, workspace, stage);
        std::copy_n(stage.data(), n, outs + r * n);
    }
}

linalg::Matrix TransientSolver::exponential(double dt) const {
    const std::size_t n = node_count();
    ThermalWorkspace ws(n);
    linalg::Matrix out(n, n);
    linalg::Vector unit(n, 0.0), col(n);
    for (std::size_t j = 0; j < n; ++j) {
        unit[j] = 1.0;
        apply_exponential_into(unit, dt, ws, col);
        unit[j] = 0.0;
        for (std::size_t i = 0; i < n; ++i) out(i, j) = col[i];
    }
    return out;
}

void TransientSolver::transient_batch_into(const linalg::Vector& t_init,
                                           const double* node_powers,
                                           std::size_t nrhs,
                                           double ambient_celsius, double dt,
                                           ThermalWorkspace& workspace,
                                           double* outs) const {
    const std::size_t n = node_count();
    if (t_init.size() != n)
        throw std::invalid_argument("transient: t_init size mismatch");
    if (nrhs == 0) return;
    workspace.resize(n);
    std::pmr::vector<double>& steady = workspace.batch_steady(n * nrhs);
    steady_state_batch_into(node_powers, nrhs, ambient_celsius, workspace,
                            steady.data());
    // Offsets are built in outs and decayed in place, then the steady states
    // are added back: transient_into's subtraction and final-add order.
    for (std::size_t r = 0; r < nrhs; ++r) {
        const double* st = steady.data() + r * n;
        double* o = outs + r * n;
        for (std::size_t i = 0; i < n; ++i) o[i] = t_init[i] - st[i];
    }
    apply_exponential_batch_into(outs, nrhs, dt, workspace, outs);
    for (std::size_t r = 0; r < nrhs; ++r) {
        const double* st = steady.data() + r * n;
        double* o = outs + r * n;
        for (std::size_t i = 0; i < n; ++i) o[i] = st[i] + o[i];
    }
}

double TransientSolver::peak_core_temperature(const linalg::Vector& t_init,
                                              const linalg::Vector& node_power,
                                              double ambient_celsius,
                                              double dt,
                                              std::size_t samples) const {
    if (samples == 0)
        throw std::invalid_argument(
            "peak_core_temperature: samples must be > 0");
    const std::size_t n = node_count();
    if (t_init.size() != n)
        throw std::invalid_argument(
            "peak_core_temperature: t_init size mismatch");
    ThermalWorkspace ws(n);
    linalg::Vector steady(n), offset(n), resp(n);
    steady_state_into(node_power, ambient_celsius, ws, steady);
    for (std::size_t i = 0; i < n; ++i) offset[i] = t_init[i] - steady[i];
    const std::size_t cores = model().core_count();
    double peak = -1e300;
    for (std::size_t s = 1; s <= samples; ++s) {
        const double t =
            dt * static_cast<double>(s) / static_cast<double>(samples);
        apply_exponential_into(offset, t, ws, resp);
        for (std::size_t i = 0; i < cores; ++i)
            peak = std::max(peak, steady[i] + resp[i]);
    }
    return peak;
}

Peak TransientSolver::exact_peak_search(const linalg::Vector& t_init,
                                        const linalg::Vector& steady,
                                        const linalg::Matrix& modal_map,
                                        double dt) const {
    if (dt <= 0.0)
        throw std::invalid_argument(
            "peak_core_temperature_exact: dt must be positive");
    if (t_init.size() != node_count())
        throw std::invalid_argument(
            "peak_core_temperature_exact: t_init size mismatch");
    const linalg::Vector offset = t_init - steady;
    const linalg::Vector w = modal_map * offset;
    const linalg::Matrix& v = mode_shapes();
    const linalg::Vector& lambda = eigenvalues();
    const std::size_t kept = lambda.size();
    const bool use_residual = truncated() && cluster_pole() < 0.0;
    const std::size_t terms = kept + (use_residual ? 1 : 0);

    // One block: the rates λ, the current core's coefficients c, a probe row
    // of e^{λ·t} at a core-specific time, then the e^{λ·t} rows of the scan
    // times, which every core shares (computing them once is most of this
    // routine's speed). A stored factor has the bits of the std::exp it
    // replaces, so every sum below is the direct evaluation's.
    constexpr int kScan = 16;
    std::vector<double> block(static_cast<std::size_t>(kScan + 4) * terms);
    double* lam = block.data();
    double* coeff = lam + terms;
    double* probe = coeff + terms;
    double* scan_exp = probe + terms;
    std::copy_n(lambda.data(), kept, lam);
    if (use_residual) lam[kept] = cluster_pole();
    const auto scan_time = [dt](int s) {
        return dt * static_cast<double>(s) / kScan;
    };
    const auto exps_at = [&](double t, double* row) {
        for (std::size_t k = 0; k < terms; ++k) row[k] = std::exp(lam[k] * t);
    };
    const auto scan_row = [&](int s) {
        return scan_exp + static_cast<std::size_t>(s) * terms;
    };
    for (int s = 0; s <= kScan; ++s) exps_at(scan_time(s), scan_row(s));
    // f(t) = Σ_k c_k·e^{λ_k t} and f'(t), from a row of e^{λ_k t}.
    const auto f = [&](const double* e) {
        double acc = 0.0;
        for (std::size_t k = 0; k < terms; ++k) acc += coeff[k] * e[k];
        return acc;
    };
    const auto df = [&](const double* e) {
        double acc = 0.0;
        for (std::size_t k = 0; k < terms; ++k)
            acc += coeff[k] * lam[k] * e[k];
        return acc;
    };

    Peak best;
    best.temperature_c = -1e300;
    for (std::size_t i = 0; i < model().core_count(); ++i) {
        const double* v_row = v.data() + i * v.cols();
        double kept_field = 0.0;
        for (std::size_t k = 0; k < kept; ++k) {
            coeff[k] = v_row[k] * w[k];
            kept_field += coeff[k];
        }
        if (use_residual) coeff[kept] = offset[i] - kept_field;

        const double f_start = f(scan_row(0));
        const double f_end = f(scan_row(kScan));
        double cand_v = std::max(f_start, f_end);
        double cand_at = f_start >= f_end ? 0.0 : dt;

        double prev_t = 0.0, prev_g = df(scan_row(0));
        for (int s = 1; s <= kScan; ++s) {
            const double t = scan_time(s);
            const double grad = df(scan_row(s));
            if (prev_g == 0.0 || (prev_g > 0.0) != (grad > 0.0)) {
                // Bracketed stationary point in [prev_t, t].
                double lo = prev_t, hi = t;
                double glo = prev_g;
                for (int it = 0; it < 60; ++it) {
                    const double mid = 0.5 * (lo + hi);
                    exps_at(mid, probe);
                    const double gm = df(probe);
                    if ((gm > 0.0) == (glo > 0.0)) {
                        lo = mid;
                        glo = gm;
                    } else {
                        hi = mid;
                    }
                }
                const double t_star = 0.5 * (lo + hi);
                exps_at(t_star, probe);
                const double value = f(probe);
                if (value > cand_v) {
                    cand_v = value;
                    cand_at = t_star;
                }
                break;  // first interior extremum is the relevant hump
            }
            prev_t = t;
            prev_g = grad;
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

std::string to_string(SolverBackend backend) {
    switch (backend) {
        case SolverBackend::kAuto:
            return "auto";
        case SolverBackend::kDense:
            return "dense";
        case SolverBackend::kModal:
            return "modal";
    }
    return "auto";
}

SolverBackend parse_solver_backend(const std::string& name) {
    if (name == "auto") return SolverBackend::kAuto;
    if (name == "dense") return SolverBackend::kDense;
    if (name == "modal") return SolverBackend::kModal;
    throw std::invalid_argument("unknown solver backend '" + name +
                                "' (expected auto, dense or modal)");
}

namespace {

/// Hands the heap's free pages back to the OS. The modal decomposition of
/// a 513-node chip passes through three N x N temporaries (2.1 MB each).
/// In a process's first build they are mapped and unmapped by glibc, but
/// freeing them raises its mmap threshold above their size, so every later
/// build (a second setup, a re-timed one) frees them into the heap, where
/// they stay resident: about 4 MB of free heap for the life of the
/// process, and whether later allocations happened to fit in those holes
/// moved the peak resident set by about 2 MB between identical runs.
void release_free_heap() {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

}  // namespace

std::unique_ptr<const TransientSolver> make_solver(const ThermalModel& model,
                                                   const SolverConfig& config) {
    if (config.tolerance_c <= 0.0)
        throw std::invalid_argument(
            "make_solver: solver tolerance must be positive");
    SolverBackend backend = config.backend;
    if (backend == SolverBackend::kAuto) {
        // Environment override first (CI forces the modal leg this way),
        // then the size rule: dense keeps every existing small-config result
        // bit-identical, modal takes over where O(N^2) steps stop scaling.
        if (const char* env = std::getenv("HOTPOTATO_SOLVER");
            env != nullptr && *env != '\0')
            backend = parse_solver_backend(env);
        else
            backend = model.node_count() <= config.dense_node_threshold
                          ? SolverBackend::kDense
                          : SolverBackend::kModal;
    }
    if (backend == SolverBackend::kModal) {
        auto solver = std::make_unique<TruncatedModalSolver>(model, config);
        release_free_heap();
        return solver;
    }
    return std::make_unique<MatExSolver>(model);
}

}  // namespace hp::thermal
