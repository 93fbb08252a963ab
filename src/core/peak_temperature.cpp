#include "core/peak_temperature.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/simd.hpp"

namespace hp::core {

namespace {

/// Ensures @p v has exactly @p n entries (reallocates only on size change;
/// assign keeps the vector's allocator, so arena-backed workspace members
/// stay on their resource).
void ensure_size(linalg::Vector& v, std::size_t n) {
    if (v.size() != n) v.assign(n);
}

/// Ensures the first @p count entries of @p list are vectors of @p size.
/// The list only grows (shrinking would free the spare buffers and defeat
/// reuse across rings of different sizes); new entries allocate from @p mr
/// (the owning workspace's resource). With @p zero set, the used entries
/// are cleared to 0 — required for buffers that are accumulated into
/// rather than overwritten.
void ensure_list(std::vector<linalg::Vector>& list, std::size_t count,
                 std::size_t size, bool zero, std::pmr::memory_resource* mr) {
    while (list.size() < count) list.emplace_back(mr);
    for (std::size_t i = 0; i < count; ++i) {
        if (list[i].size() != size) {
            list[i].assign(size);
        } else if (zero) {
            double* data = list[i].data();
            for (std::size_t j = 0; j < size; ++j) data[j] = 0.0;
        }
    }
}

/// Dropped-cluster response of one core at an intra-epoch sample:
/// c_e + e^{λ̄ τ s/S}·(x*_{e-1} - c_e), which at s = S is the boundary state
/// x*_e. The one expression project_row and stage_memo's correction maxima
/// fold in, so the exact and the bound stage see the same bits.
inline double dropped_response(double ce, double prev, double qs) {
    return ce + qs * (prev - ce);
}

/// Relative and absolute slack of the pruned maxima's bounds. Rounding can
/// move a computed ring-response sum away from its exact bound by at most
/// (3K + 4R + 6)·u·(1 + O((K+R)·u)) times the magnitudes the slack
/// multiplies (K retained modes, R rings, u = 2^-53; DESIGN.md §14.5):
/// below 1.9e-12 for K + R ≤ 4096, so 1e-11 of them (plus 1e-11 absolute,
/// for underflow) covers it five times over.
constexpr double kBoundSlack = 1e-11;

/// Source of PeakTemperatureAnalyzer serials; 0 is never handed out, so it
/// can mark an empty ring memo.
std::atomic<std::uint64_t> g_next_analyzer_serial{1};

/// Core rows of the all-idle steady state: every core at @p idle_power_w,
/// the rest of the stack unpowered.
linalg::Vector idle_baseline(const thermal::TransientSolver& solver,
                             double ambient_c, double idle_power_w) {
    const thermal::ThermalModel& model = solver.model();
    const std::size_t n = model.core_count();
    const linalg::Vector t = solver.steady_state(
        model.pad_power(linalg::Vector(n, idle_power_w)), ambient_c);
    linalg::Vector core(n);
    for (std::size_t i = 0; i < n; ++i) core[i] = t[i];
    return core;
}

/// Sorts @p ring's positions by ascending core index into @p order (grown
/// only, so a warm workspace does not allocate). Throws
/// std::invalid_argument for a core index ≥ @p cores or a repeated core.
const std::size_t* sort_ring_positions(const RotationRingSpec& ring,
                                       std::size_t cores,
                                       std::pmr::vector<std::size_t>& order) {
    const std::size_t k = ring.cores.size();
    for (std::size_t c : ring.cores)
        if (c >= cores)
            throw std::invalid_argument("rotation_peak: ring core out of range");
    if (order.size() < k) order.resize(k);
    for (std::size_t pos = 0; pos < k; ++pos) order[pos] = pos;
    const auto by_core = [&](std::size_t a, std::size_t b) {
        return ring.cores[a] < ring.cores[b];
    };
    std::sort(order.begin(), order.begin() + k, by_core);
    for (std::size_t i = 1; i < k; ++i)
        if (ring.cores[order[i]] == ring.cores[order[i - 1]])
            throw std::invalid_argument("rotation_peak: ring core repeated");
    return order.data();
}

}  // namespace

PeakTemperatureAnalyzer::PeakTemperatureAnalyzer(
    const thermal::TransientSolver& solver, double ambient_c,
    double idle_power_w)
    : serial_(g_next_analyzer_serial.fetch_add(1, std::memory_order_relaxed)),
      solver_(&solver),
      ambient_c_(ambient_c),
      idle_power_w_(idle_power_w),
      modes_(solver.mode_count()),
      truncated_(solver.truncated()),
      cluster_pole_(solver.cluster_pole()),
      idle_core_c_(idle_baseline(solver, ambient_c, idle_power_w)) {
    const thermal::ThermalModel& model = solver.model();
    // Design-time phase (Algorithm 1 lines 1-7): β = V^{-1}·B^{-1} (retained
    // rows) and the ambient offset; both are floorplan constants.
    beta_ = solver.modal_steady_map();
    beta_t_ = beta_.transpose();
    const std::size_t cores = model.core_count();
    v_cores_ = linalg::Matrix(cores, modes_);
    for (std::size_t i = 0; i < cores; ++i)
        for (std::size_t k = 0; k < modes_; ++k)
            v_cores_(i, k) = solver.mode_shapes()(i, k);
    ambient_offset_ =
        solver.conductance_solve(ambient_c * model.ambient_conductance());

    // Truncated backends additionally need the dropped-cluster targets
    // c_f(i) = (B^{-1}P_f)(i) - Σ_k V(i,k)·(β·P_f)(k) at run time. Both terms
    // are linear in P_f, so their composition is one fixed map Q with
    // Q(j, i) = (B^{-1})(i, j) - Σ_k V(i, k)·β(k, j), a floorplan constant:
    // rotation power vectors have only a handful of non-zeros, which turns
    // the per-query banded solves into a few axpys over Q's rows. B is
    // symmetric (SPD — it admits the banded Cholesky factorisation), so its
    // core *rows* are the core unit-vector *solves*, batched here once.
    if (truncated_) {
        const std::size_t big_n = model.node_count();
        quasi_static_map_ = linalg::Matrix(big_n, cores);
        // Retained-mode part first: Q_kept(j, i) = Σ_k V(i, k)·β(k, j) as one
        // matmat over β^T's rows (RHS-major, one RHS per node j).
        linalg::kernel_matmat(v_cores_.data(), cores, modes_, beta_t_.data(),
                              big_n, &quasi_static_map_(0, 0));
        thermal::ThermalWorkspace scratch;
        constexpr std::size_t kChunk = 64;
        std::vector<double> rhs(kChunk * big_n), sol(kChunk * big_n);
        for (std::size_t base = 0; base < cores; base += kChunk) {
            const std::size_t m = std::min(kChunk, cores - base);
            std::fill(rhs.begin(), rhs.begin() + m * big_n, 0.0);
            for (std::size_t c = 0; c < m; ++c) rhs[c * big_n + base + c] = 1.0;
            solver.conductance_solve_batch_into(rhs.data(), m, scratch,
                                                sol.data());
            for (std::size_t c = 0; c < m; ++c) {
                const double* s = sol.data() + c * big_n;
                const std::size_t i = base + c;
                for (std::size_t j = 0; j < big_n; ++j)
                    quasi_static_map_(j, i) = s[j] - quasi_static_map_(j, i);
            }
        }
    }
}

std::vector<linalg::Vector> PeakTemperatureAnalyzer::boundary_temperatures(
    const std::vector<linalg::Vector>& core_power_per_epoch,
    double tau) const {
    const thermal::ThermalModel& model = solver_->model();
    const std::size_t delta = core_power_per_epoch.size();
    if (delta == 0)
        throw std::invalid_argument("boundary_temperatures: empty schedule");
    if (tau <= 0.0)
        throw std::invalid_argument("boundary_temperatures: tau must be > 0");

    const std::size_t big_n = model.node_count();
    const std::size_t k_modes = modes_;
    const linalg::Vector& lambda = solver_->eigenvalues();
    const linalg::Matrix& v = solver_->mode_shapes();

    // Modal images of the per-epoch steady-state targets: y_f = β·P_f.
    std::vector<linalg::Vector> y;
    y.reserve(delta);
    for (const linalg::Vector& p : core_power_per_epoch)
        y.push_back(beta_ * model.pad_power(p));

    // On a truncated backend the dropped cluster's periodic boundary state is
    // reconstructed from the exact quasi-static targets
    // c_f = B^{-1}P_f - V_K·y_f tracked through the representative pole λ̄
    // (the full-node analog of stage_samples' core correction).
    std::vector<linalg::Vector> xstar;
    if (truncated_ && cluster_pole_ < 0.0) {
        std::vector<linalg::Vector> c;
        c.reserve(delta);
        for (std::size_t f = 0; f < delta; ++f) {
            linalg::Vector cf =
                solver_->conductance_solve(
                    model.pad_power(core_power_per_epoch[f]));
            for (std::size_t i = 0; i < big_n; ++i) {
                double kept = 0.0;
                for (std::size_t k = 0; k < k_modes; ++k)
                    kept += v(i, k) * y[f][k];
                cf[i] -= kept;
            }
            c.push_back(std::move(cf));
        }
        const double q = std::exp(cluster_pole_ * tau);
        const double qd = std::pow(q, static_cast<double>(delta));
        xstar.assign(delta, linalg::Vector(big_n, 0.0));
        for (std::size_t f = 0; f < delta; ++f) {
            const double w =
                (1.0 - q) / (1.0 - qd) *
                std::pow(q, static_cast<double>((delta - f) % delta));
            for (std::size_t i = 0; i < big_n; ++i)
                xstar[0][i] += w * c[f][i];
        }
        for (std::size_t e = 1; e < delta; ++e)
            for (std::size_t i = 0; i < big_n; ++i)
                xstar[e][i] = c[e][i] + q * (xstar[e - 1][i] - c[e][i]);
    }

    std::vector<linalg::Vector> out;
    out.reserve(delta);
    for (std::size_t e = 0; e < delta; ++e) {
        linalg::Vector z(k_modes);
        for (std::size_t k = 0; k < k_modes; ++k) {
            const double ek = std::exp(lambda[k] * tau);
            const double denom = 1.0 - std::pow(ek, static_cast<double>(delta));
            double acc = 0.0;
            for (std::size_t f = 0; f < delta; ++f) {
                const std::size_t g = (e + delta - f) % delta;
                acc += std::pow(ek, static_cast<double>(g)) * y[f][k];
            }
            z[k] = (1.0 - ek) / denom * acc;
        }
        linalg::Vector t = ambient_offset_ + v * z;
        if (!xstar.empty())
            for (std::size_t i = 0; i < big_n; ++i) t[i] += xstar[e][i];
        out.push_back(std::move(t));
    }
    return out;
}

void PeakTemperatureAnalyzer::reserve_sample_batch(
    std::size_t max_delta, std::size_t samples_per_epoch,
    PeakWorkspace& ws) const {
    // Grow the staging buffer once for the largest ring of the query instead
    // of once per distinct ring size inside stage_samples — rings are
    // visited smallest-first, so growing lazily would reallocate on every
    // size step of the first query. project_row needs one row's responses.
    const std::size_t nsamp = max_delta * samples_per_epoch;
    if (ws.zs_batch_.size() < nsamp * modes_)
        ws.zs_batch_.resize(nsamp * modes_);
    if (ws.resp_batch_.size() < nsamp) ws.resp_batch_.resize(nsamp);
}

template <class EpochPower>
void PeakTemperatureAnalyzer::build_modal_targets(
    std::size_t delta, std::size_t support, const EpochPower& epoch_power,
    PeakWorkspace& ws) const {
    const std::size_t cores = solver_->model().core_count();

    // Modal images y_f = β·P_f, exploiting that rotation power vectors are
    // sparse (non-zero only on the rotating ring's cores): accumulate the
    // corresponding β columns instead of a dense mat-vec.
    //
    // Truncated backend: also the τ-independent dropped-cluster targets
    // c_f(i) = (B^{-1}P_f)(i) - Σ_k V(i,k)·y_{f,k}. The whole expression is
    // linear in P_f, so it is a gather over the precomputed quasi-static map:
    // a few axpys per epoch for sparse rotation deltas, instead of a banded
    // solve plus a retained-mode projection per query.
    ensure_list(ws.y_, delta, modes_, /*zero=*/true, ws.resource());
    if (truncated_)
        ensure_list(ws.cfield_, delta, cores, /*zero=*/true, ws.resource());
    for (std::size_t f = 0; f < delta; ++f) {
        double* yf = ws.y_[f].data();
        double* cf = truncated_ ? ws.cfield_[f].data() : nullptr;
        for (std::size_t i = 0; i < support; ++i) {
            const auto [node, pj] = epoch_power(f, i);
            if (pj == 0.0) continue;
            linalg::kernel_axpy(modes_, pj, beta_t_.data() + node * modes_, yf);
            if (cf)
                linalg::kernel_axpy(
                    cores, pj, quasi_static_map_.data() + node * cores, cf);
        }
    }
}

void PeakTemperatureAnalyzer::fill_tau_tables(const double* taus,
                                              std::size_t entries,
                                              std::size_t samples_per_epoch,
                                              PeakWorkspace& ws) const {
    const std::size_t k_modes = modes_;
    const std::size_t stride = samples_per_epoch * k_modes;
    const linalg::Vector& lambda = solver_->eigenvalues();
    if (ws.tau_modes_.size() < entries * stride)
        ws.tau_modes_.resize(entries * stride);
    if (corrected() &&
        ws.tau_cluster_.size() < entries * (samples_per_epoch + 1))
        ws.tau_cluster_.resize(entries * (samples_per_epoch + 1));
    for (std::size_t e = 0; e < entries; ++e) {
        const double tau = taus[e];
        // e^{λ_k τ}, then the epoch-independent interior-sample decay
        // factors e^{λ_k τ s/S}. λτ·frac rounds differently from
        // λ·(τ·frac), so these are not ThermalWorkspace's exp memo.
        double* table = ws.tau_modes_.data() + e * stride;
        for (std::size_t k = 0; k < k_modes; ++k)
            table[k] = std::exp(lambda[k] * tau);
        for (std::size_t s = 1; s < samples_per_epoch; ++s) {
            const double frac =
                static_cast<double>(s) / static_cast<double>(samples_per_epoch);
            double* eks = table + s * k_modes;
            for (std::size_t k = 0; k < k_modes; ++k)
                eks[k] = std::exp(lambda[k] * tau * frac);
        }
        if (!corrected()) continue;
        double* q = ws.tau_cluster_.data() + e * (samples_per_epoch + 1);
        q[0] = std::exp(cluster_pole_ * tau);
        for (std::size_t s = 1; s <= samples_per_epoch; ++s)
            q[s] = std::exp(cluster_pole_ * tau * static_cast<double>(s) /
                            static_cast<double>(samples_per_epoch));
    }
}

void PeakTemperatureAnalyzer::stage_samples(std::size_t delta,
                                            std::size_t tau_entry,
                                            std::size_t samples_per_epoch,
                                            PeakWorkspace& ws) const {
    const std::size_t k_modes = modes_;
    const std::size_t cores = solver_->model().core_count();
    const std::vector<linalg::Vector>& y = ws.y_;
    // This τ's row of e^{λ_k τ}, followed by its interior decay factors.
    const double* ek =
        ws.tau_modes_.data() + tau_entry * samples_per_epoch * k_modes;

    // Geometric tables e^{λ_k τ g}, g = 0..δ (pow-free).
    if (ws.ek_pow_.size() < (delta + 1) * k_modes)
        ws.ek_pow_.resize((delta + 1) * k_modes);
    std::pmr::vector<double>& ek_pow = ws.ek_pow_;
    for (std::size_t k = 0; k < k_modes; ++k) {
        double acc = 1.0;
        for (std::size_t g = 0; g <= delta; ++g) {
            ek_pow[g * k_modes + k] = acc;
            acc *= ek[k];
        }
    }

    // Periodic boundary solution in modal space (paper Eq. (10)): z_e is the
    // f-ordered geometric accumulation scaled by (1-e^{λτ})/(1-e^{λδτ}) —
    // the accumulation and the single closing multiply match the historical
    // k-at-a-time recurrence bit for bit.
    ensure_size(ws.coeff_, k_modes);
    for (std::size_t k = 0; k < k_modes; ++k)
        ws.coeff_[k] = (1.0 - ek[k]) / (1.0 - ek_pow[delta * k_modes + k]);
    ensure_list(ws.z_, delta, k_modes, /*zero=*/true, ws.resource());
    std::vector<linalg::Vector>& z = ws.z_;
    for (std::size_t e = 0; e < delta; ++e) {
        double* ze = z[e].data();
        for (std::size_t f = 0; f < delta; ++f)
            linalg::kernel_fma_acc(
                k_modes, ek_pow.data() + ((e + delta - f) % delta) * k_modes,
                y[f].data(), ze);
        linalg::kernel_hadamard(k_modes, ws.coeff_.data(), ze);
    }

    // Dropped-cluster periodic boundary states: the scalar (per-core) analog
    // of z_e over the representative pole λ̄ and the quasi-static targets c_f
    // built by build_modal_targets. Geometric closure for epoch 0, then the
    // one-pole forward recurrence x*_e = c_e + q·(x*_{e-1} - c_e).
    ws.staged_tau_ = tau_entry;
    if (corrected()) {
        const double q = ws.tau_cluster_[tau_entry * (samples_per_epoch + 1)];
        if (ws.qpow_.size() < delta + 1) ws.qpow_.resize(delta + 1);
        double qacc = 1.0;
        for (std::size_t g = 0; g <= delta; ++g) {
            ws.qpow_[g] = qacc;
            qacc *= q;
        }
        ensure_list(ws.cstar_, delta, cores, /*zero=*/true, ws.resource());
        double* x0 = ws.cstar_[0].data();
        const double closing = (1.0 - q) / (1.0 - ws.qpow_[delta]);
        for (std::size_t f = 0; f < delta; ++f) {
            const double w = closing * ws.qpow_[(delta - f) % delta];
            const double* cf = ws.cfield_[f].data();
            for (std::size_t i = 0; i < cores; ++i) x0[i] += w * cf[i];
        }
        for (std::size_t e = 1; e < delta; ++e) {
            const double* prev = ws.cstar_[e - 1].data();
            const double* ce = ws.cfield_[e].data();
            double* xe = ws.cstar_[e].data();
            for (std::size_t i = 0; i < cores; ++i)
                xe[i] = ce[i] + q * (prev[i] - ce[i]);
        }
    }

    // Stage all δ·S modal samples RHS-major (into the buffer
    // reserve_sample_batch sized): epoch boundaries plus interior points,
    // sample m = e·S + s - 1 for s = 1..S (s = S is the boundary).
    double* zs_batch = ws.zs_batch_.data();
    for (std::size_t e = 0; e < delta; ++e) {
        const linalg::Vector& z_prev = z[(e + delta - 1) % delta];
        for (std::size_t s = 1; s <= samples_per_epoch; ++s) {
            double* zs = zs_batch + (e * samples_per_epoch + s - 1) * k_modes;
            if (s == samples_per_epoch) {
                const double* ze = z[e].data();
                for (std::size_t k = 0; k < k_modes; ++k) zs[k] = ze[k];
            } else {
                // Inside epoch e: decay from the previous boundary towards
                // this epoch's steady-state target y[e].
                linalg::kernel_decay_mix(k_modes, ek + s * k_modes,
                                         z_prev.data(), y[e].data(), zs);
            }
        }
    }
}

bool PeakTemperatureAnalyzer::memo_matches(
    const PeakWorkspace::RingMemo& memo, const RotationRingSpec& ring,
    double tau, std::size_t samples_per_epoch) const {
    const std::size_t k = ring.cores.size();
    return memo.analyzer == serial_ &&
           memo.tier == static_cast<int>(linalg::simd::active_tier()) &&
           memo.samples == samples_per_epoch &&
           std::bit_cast<std::uint64_t>(memo.tau) ==
               std::bit_cast<std::uint64_t>(tau) &&
           memo.cores.size() == k &&
           std::equal(ring.cores.begin(), ring.cores.end(),
                      memo.cores.begin()) &&
           std::memcmp(ring.slot_power_w.data(), memo.power.data(),
                       k * sizeof(double)) == 0;
}

void PeakTemperatureAnalyzer::stage_memo(const RotationRingSpec& ring,
                                         double tau,
                                         std::size_t samples_per_epoch,
                                         PeakWorkspace& ws,
                                         PeakWorkspace::RingMemo& memo) const {
    const std::size_t k_modes = modes_;
    const std::size_t cores = solver_->model().core_count();
    const std::size_t delta = ring.cores.size();
    const std::size_t nsamp = delta * samples_per_epoch;
    const double* zs_batch = ws.zs_batch_.data();
    memo.analyzer = serial_;
    memo.tier = static_cast<int>(linalg::simd::active_tier());
    memo.samples = samples_per_epoch;
    memo.tau = tau;
    memo.cores.assign(ring.cores.begin(), ring.cores.end());
    memo.power.assign(ring.slot_power_w.begin(), ring.slot_power_w.end());
    if (memo.values.size() < 3 * k_modes + 3 * cores)
        memo.values.resize(3 * k_modes + 3 * cores);
    // No row has been projected exactly yet.
    std::fill(memo.values.begin() + 3 * k_modes + 2 * cores,
              memo.values.begin() + 3 * k_modes + 3 * cores,
              std::numeric_limits<double>::quiet_NaN());

    // Per mode k the ring's staged samples lie within c_k ± ρ_k (midrange
    // and half-range); x is its last sample. The max and min run in the c
    // and ρ slots, then become c and ρ.
    double* c = memo.values.data();
    double* x = c + k_modes;
    double* rho = x + k_modes;
    for (std::size_t k = 0; k < k_modes; ++k) c[k] = rho[k] = zs_batch[k];
    for (std::size_t m = 1; m < nsamp; ++m) {
        const double* zs = zs_batch + m * k_modes;
        for (std::size_t k = 0; k < k_modes; ++k) {
            c[k] = std::max(c[k], zs[k]);
            rho[k] = std::min(rho[k], zs[k]);
        }
    }
    const double* last = zs_batch + (nsamp - 1) * k_modes;
    for (std::size_t k = 0; k < k_modes; ++k) {
        const double mx = c[k];
        const double mn = rho[k];
        c[k] = 0.5 * (mx + mn);
        x[k] = last[k];
        rho[k] = 0.5 * (mx - mn);
    }
    if (!corrected()) return;

    // The dropped-cluster term per core: its exact maximum over the samples
    // and its value at the last sample (the expression project_row folds
    // in).
    const double* qfrac = ws.staged_qfrac(samples_per_epoch);
    double* cmax = rho + k_modes;
    double* clast = cmax + cores;
    for (std::size_t i = 0; i < cores; ++i) cmax[i] = -1e300;
    for (std::size_t e = 0; e < delta; ++e) {
        const double* prev = ws.cstar_[(e + delta - 1) % delta].data();
        const double* ce = ws.cfield_[e].data();
        for (std::size_t s = 1; s <= samples_per_epoch; ++s) {
            const double qs = qfrac[s - 1];
            for (std::size_t i = 0; i < cores; ++i)
                cmax[i] = std::max(cmax[i], dropped_response(ce[i], prev[i], qs));
        }
    }
    const double* prev_last = ws.cstar_[(2 * delta - 2) % delta].data();
    const double* ce_last = ws.cfield_[delta - 1].data();
    const double q_last = qfrac[samples_per_epoch - 1];
    for (std::size_t i = 0; i < cores; ++i)
        clast[i] = dropped_response(ce_last[i], prev_last[i], q_last);
}

void PeakTemperatureAnalyzer::add_ring_addends(const double* addends,
                                               double* modal,
                                               double* rows) const {
    const std::size_t k_modes = modes_;
    const std::size_t cores = solver_->model().core_count();
    // The rung sums over rings: modal = [Σc | Σx | Σρ | Σ(|c|+ρ)] and
    // rows = [Σ max_s corr | Σ corr_last | Σ(|max_s corr| + |corr_last|)],
    // the magnitudes for the slack.
    const double* c = addends;
    const double* x = c + k_modes;
    const double* rho = x + k_modes;
    for (std::size_t k = 0; k < k_modes; ++k) {
        modal[k] += c[k];
        modal[k_modes + k] += x[k];
        modal[2 * k_modes + k] += rho[k];
        modal[3 * k_modes + k] += std::abs(c[k]) + rho[k];
    }
    if (!corrected()) return;
    const double* cmax = rho + k_modes;
    const double* clast = cmax + cores;
    for (std::size_t i = 0; i < cores; ++i) {
        rows[i] += cmax[i];
        rows[cores + i] += clast[i];
        rows[2 * cores + i] += std::abs(cmax[i]) + std::abs(clast[i]);
    }
}

void PeakTemperatureAnalyzer::rung_bounds(const double* modal,
                                          const double* rows,
                                          PeakWorkspace& ws, double* ub,
                                          double* lb) const {
    const std::size_t cores = solver_->model().core_count();
    double* out = ws.bound_out_.data();
    linalg::kernel_bound_matvec(v_cores_.data(), cores, modes_, modal, out);
    const double* vc = out;
    const double* vx = out + cores;
    const double* vr = out + 2 * cores;
    const double* vm = out + 3 * cores;
    for (std::size_t i = 0; i < cores; ++i) {
        const double slack =
            kBoundSlack * (vm[i] + rows[2 * cores + i]) + kBoundSlack;
        ub[i] = vc[i] + vr[i] + rows[i] + slack;
        lb[i] = vx[i] + rows[cores + i] - slack;
    }
}

double PeakTemperatureAnalyzer::project_row(std::size_t row, std::size_t delta,
                                            std::size_t samples_per_epoch,
                                            PeakWorkspace& ws) const {
    // Maximum over epoch boundaries plus interior samples of one core row
    // (Eq. (11) constrains core temperatures only): the row's dot product
    // with every staged sample, the dropped-cluster fold, the max.
    // kernel_matmat reduces every row independently of the others, so the
    // bits do not depend on which other rows a query projects.
    const std::size_t nsamp = delta * samples_per_epoch;
    double* resp = ws.resp_batch_.data();
    linalg::kernel_matmat(v_cores_.data() + row * modes_, 1, modes_,
                          ws.zs_batch_.data(), nsamp, resp);
    const bool correct = corrected();
    const double* qfrac =
        correct ? ws.staged_qfrac(samples_per_epoch) : nullptr;
    double peak = -1e300;
    for (std::size_t e = 0; e < delta; ++e)
        for (std::size_t s = 1; s <= samples_per_epoch; ++s) {
            double v = resp[e * samples_per_epoch + s - 1];
            if (correct)
                v += dropped_response(
                    ws.cfield_[e][row], ws.cstar_[(e + delta - 1) % delta][row],
                    qfrac[s - 1]);
            if (peak < v) peak = v;
        }
    return peak;
}

double PeakTemperatureAnalyzer::schedule_peak(
    const std::vector<linalg::Vector>& core_power_per_epoch, double tau,
    std::size_t samples_per_epoch, PeakWorkspace& workspace) const {
    const thermal::ThermalModel& model = solver_->model();
    const std::size_t delta = core_power_per_epoch.size();
    const std::size_t n = model.core_count();
    if (delta == 0 || tau <= 0.0 || samples_per_epoch == 0)
        throw std::invalid_argument("schedule_peak: bad arguments");
    for (const linalg::Vector& p : core_power_per_epoch)
        if (p.size() != n)
            throw std::invalid_argument("schedule_peak: size mismatch");
    // Only core nodes carry power, so the n core entries, ascending, are the
    // padded node vector's possible non-zeros in scan order.
    build_modal_targets(
        delta, n,
        [&](std::size_t f, std::size_t j) {
            return std::pair{j, core_power_per_epoch[f][j]};
        },
        workspace);
    fill_tau_tables(&tau, 1, samples_per_epoch, workspace);
    reserve_sample_batch(delta, samples_per_epoch, workspace);
    stage_samples(delta, 0, samples_per_epoch, workspace);
    double peak = -1e300;
    for (std::size_t i = 0; i < n; ++i)
        peak = std::max(peak, ambient_offset_[i] +
                                  project_row(i, delta, samples_per_epoch,
                                              workspace));
    return peak;
}

void PeakTemperatureAnalyzer::static_peaks(const double* core_powers,
                                           std::size_t nrhs,
                                           PeakWorkspace& workspace,
                                           double* peaks,
                                           double* core_peak_c) const {
    if (nrhs == 0) return;
    const std::size_t n = solver_->model().core_count();
    const std::size_t big_n = solver_->model().node_count();

    // Pad each candidate to the node vector (zero power off the core layer),
    // solve, and leave the RHS-major steady states in `steady`.
    const double* steady;
    if (nrhs == 1) {
        linalg::Vector& padded = workspace.node_power_;
        ensure_size(padded, big_n);
        for (std::size_t i = 0; i < n; ++i) padded[i] = core_powers[i];
        for (std::size_t i = n; i < big_n; ++i) padded[i] = 0.0;
        solver_->steady_state_into(padded, ambient_c_, workspace.thermal_,
                                   workspace.t_static_);
        steady = workspace.t_static_.data();
    } else {
        std::pmr::vector<double>& padded = workspace.batch_node_power_;
        if (padded.size() < big_n * nrhs) padded.resize(big_n * nrhs);
        std::pmr::vector<double>& out = workspace.batch_steady_;
        if (out.size() < big_n * nrhs) out.resize(big_n * nrhs);
        for (std::size_t r = 0; r < nrhs; ++r) {
            double* dst = padded.data() + r * big_n;
            const double* src = core_powers + r * n;
            for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
            for (std::size_t i = n; i < big_n; ++i) dst[i] = 0.0;
        }
        solver_->steady_state_batch_into(padded.data(), nrhs, ambient_c_,
                                         workspace.thermal_, out.data());
        steady = out.data();
    }

    for (std::size_t r = 0; r < nrhs; ++r) {
        const double* t = steady + r * big_n;
        double peak = -1e300;
        for (std::size_t i = 0; i < n; ++i) peak = std::max(peak, t[i]);
        peaks[r] = peak;
        if (core_peak_c) std::copy(t, t + n, core_peak_c + r * n);
    }
}

void PeakTemperatureAnalyzer::rotation_peaks(
    const std::vector<RotationRingSpec>& rings, const double* taus,
    std::size_t count, std::size_t samples_per_epoch, PeakWorkspace& workspace,
    double* peaks, double* core_peak_c) const {
    ring_peaks(rings, taus, /*ring_stride=*/0, count, samples_per_epoch,
               workspace, peaks, core_peak_c);
}

double PeakTemperatureAnalyzer::rotation_peak(
    const std::vector<RotationRingSpec>& rings,
    const std::vector<double>& tau_per_ring, std::size_t samples_per_epoch,
    PeakWorkspace& workspace) const {
    if (tau_per_ring.size() != rings.size())
        throw std::invalid_argument(
            "rotation_peak: one tau per ring required");
    double peak = 0.0;
    ring_peaks(rings, tau_per_ring.data(), /*ring_stride=*/1, /*count=*/1,
               samples_per_epoch, workspace, &peak, nullptr);
    return peak;
}

void PeakTemperatureAnalyzer::ring_peaks(
    const std::vector<RotationRingSpec>& rings, const double* taus,
    std::size_t ring_stride, std::size_t count, std::size_t samples_per_epoch,
    PeakWorkspace& workspace, double* peaks, double* core_peak_c) const {
    const std::size_t tau_count = ring_stride != 0 ? rings.size() : count;
    for (std::size_t t = 0; t < tau_count; ++t)
        if (!(taus[t] > 0.0))
            throw std::invalid_argument("rotation_peak: tau must be > 0");
    if (samples_per_epoch == 0)
        throw std::invalid_argument(
            "rotation_peak: samples_per_epoch must be > 0");
    const std::size_t n = solver_->model().core_count();
    bool active = false;
    std::size_t max_delta = 0;
    for (const RotationRingSpec& ring : rings) {
        if (ring.slot_power_w.size() != ring.cores.size())
            throw std::invalid_argument(
                "rotation_peak: ring slot/core size mismatch");
        sort_ring_positions(ring, n, workspace.ring_order_);
        active = active || ring_active(ring);
        max_delta = std::max(max_delta, ring.cores.size());
    }
    workspace.reused_rings_ = workspace.ring_evals_ = 0;
    if (count == 0) return;

    // Every exponential of τ, once per interval; an all-idle query is the
    // baseline alone and needs none.
    if (active)
        fill_tau_tables(taus, tau_count, samples_per_epoch, workspace);
    std::pmr::vector<double>& extra = workspace.extra_batch_;
    if (extra.size() < count * n) extra.resize(count * n);
    for (std::size_t i = 0; i < count * n; ++i) extra[i] = 0.0;
    reserve_sample_batch(max_delta, samples_per_epoch, workspace);
    pruned_ring_peaks(rings, taus, ring_stride, count, samples_per_epoch,
                      workspace, peaks, core_peak_c);
}

bool PeakTemperatureAnalyzer::ring_active(const RotationRingSpec& ring) const {
    for (double p : ring.slot_power_w)
        if (std::abs(p - idle_power_w_) > 1e-12) return true;
    return false;
}

bool PeakTemperatureAnalyzer::ring_targets(const RotationRingSpec& ring,
                                           PeakWorkspace& workspace) const {
    if (!ring_active(ring)) return false;

    // Per-epoch power deltas: at epoch f the occupant of initial slot j sits
    // on cores[(j + f) mod k], so position pos carries slot (pos - f) mod k.
    // Positions are visited by ascending core, the order a scan of the
    // padded node vector meets them in. The targets are τ-independent:
    // build them once, then run only the geometric-series evaluation per
    // rung.
    const std::size_t k = ring.cores.size();
    const std::size_t* order = sort_ring_positions(
        ring, solver_->model().core_count(), workspace.ring_order_);
    build_modal_targets(
        k, k,
        [&](std::size_t f, std::size_t i) {
            const std::size_t pos = order[i];
            return std::pair{ring.cores[pos],
                             ring.slot_power_w[(pos + k - f) % k] -
                                 idle_power_w_};
        },
        workspace);
    return true;
}

void PeakTemperatureAnalyzer::pruned_ring_peaks(
    const std::vector<RotationRingSpec>& rings, const double* taus,
    std::size_t ring_stride, std::size_t count, std::size_t samples_per_epoch,
    PeakWorkspace& ws, double* peaks, double* core_peak_c) const {
    const std::size_t n = solver_->model().core_count();
    const std::size_t k_modes = modes_;
    const double* t_idle = idle_core_c_.data();
    const bool map = core_peak_c != nullptr;

    // Sizing: bound buffers, every row list at core_count() per rung, so
    // survivor counts can vary freely without re-allocating, and one memo
    // per ring. A hint from a chip of another size indexes the wrong rows:
    // drop it.
    if (ws.bound_modal_.size() < 4 * k_modes * count)
        ws.bound_modal_.resize(4 * k_modes * count);
    if (ws.bound_rows_.size() < 3 * n * count)
        ws.bound_rows_.resize(3 * n * count);
    if (ws.bound_out_.size() < 4 * n) ws.bound_out_.resize(4 * n);
    if (ws.bound_sums_.size() < 2 * n) ws.bound_sums_.resize(2 * n);
    for (PeakWorkspace::RungRows* list :
         {&ws.hint_, &ws.survivors_, &ws.missing_}) {
        if (list->rows.size() < count * n) list->rows.resize(count * n);
        if (list->len.size() < count) list->len.resize(count, 0);
    }
    while (ws.memo_.size() < rings.size()) ws.memo_.emplace_back(ws.resource());
    if (ws.hint_cores_ != n) {
        ws.forget_survivors();
        ws.hint_cores_ = n;
    }
    double* modal = ws.bound_modal_.data();
    double* row_stats = ws.bound_rows_.data();
    std::fill(modal, modal + 4 * k_modes * count, 0.0);
    std::fill(row_stats, row_stats + 3 * n * count, 0.0);
    double* extra = ws.extra_batch_.data();

    // Ring r at rung t is staged only when its memo cannot answer: on a key
    // miss, or for a row the memo has not projected yet. Its targets are
    // built only when the workspace does not hold them already.
    std::size_t built = rings.size();
    const auto stage = [&](std::size_t r, std::size_t t) {
        if (built != r) {
            ring_targets(rings[r], ws);
            built = r;
        }
        stage_samples(rings[r].cores.size(), r * ring_stride + t,
                      samples_per_epoch, ws);
    };
    // Ring r's exact maximum at @p row, from @p stored (the memo's rows, or
    // null for an evicted memo) or projected from the staged samples.
    const auto exact_row = [&](std::size_t r, std::size_t t, bool& staged,
                               double* stored, std::size_t row) {
        if (stored && !std::isnan(stored[row])) return stored[row];
        if (!staged) {
            stage(r, t);
            staged = true;
        }
        const double v = project_row(row, rings[r].cores.size(),
                                     samples_per_epoch, ws);
        if (stored) stored[row] = v;
        return v;
    };
    const std::size_t rows_at = 3 * k_modes + 2 * n;

    // Bound stage. Per ring and rung: the ring's addends join the rung's
    // sums, and the rows on the exact list get their exact maxima, added in
    // ring order from 0. The list is the hint (the previous query's
    // survivors), or every row for a map query, which needs them all and so
    // skips the bounds.
    std::size_t reused = 0, evals = 0;
    for (std::size_t r = 0; r < rings.size(); ++r) {
        if (!ring_active(rings[r])) continue;
        PeakWorkspace::RingMemo& memo = ws.memo_[r];
        for (std::size_t t = 0; t < count; ++t) {
            const double tau = taus[r * ring_stride + t];
            bool staged = false;
            ++evals;
            if (memo_matches(memo, rings[r], tau, samples_per_epoch)) {
                ++reused;
            } else {
                stage(r, t);
                staged = true;
                stage_memo(rings[r], tau, samples_per_epoch, ws, memo);
            }
            if (!map)
                add_ring_addends(memo.values.data(), modal + t * 4 * k_modes,
                                 row_stats + t * 3 * n);
            double* stored = memo.values.data() + rows_at;
            const std::size_t* hint = ws.hint_.rows.data() + t * n;
            const std::size_t listed = map ? n : ws.hint_.len[t];
            for (std::size_t h = 0; h < listed; ++h) {
                const std::size_t row = map ? h : hint[h];
                extra[t * n + row] += exact_row(r, t, staged, stored, row);
            }
        }
    }
    ws.reused_rings_ = reused;
    ws.ring_evals_ = evals;

    // A map query's rows all hold their exact sums: the map is the baseline
    // plus those sums. The hint stays as the last map-free query left it.
    if (map) {
        for (std::size_t t = 0; t < count; ++t) {
            const double* extra_t = extra + t * n;
            double* map_t = core_peak_c + t * n;
            double peak = -1e300;
            for (std::size_t i = 0; i < n; ++i) {
                map_t[i] = t_idle[i] + extra_t[i];
                peak = std::max(peak, map_t[i]);
            }
            peaks[t] = peak;
        }
        ws.exact_rows_ = count * n;
        return;
    }

    // Survivors: one bound sweep per rung. L is at most a realised core
    // total, so L ≤ peak, and a row whose upper bound is below L cannot
    // hold the peak. Exact ties survive.
    double* ub = ws.bound_sums_.data();
    double* lb = ub + n;
    bool rebuild = false;
    std::size_t exact_rows = 0;
    for (std::size_t t = 0; t < count; ++t) {
        rung_bounds(modal + t * 4 * k_modes, row_stats + t * 3 * n, ws, ub, lb);
        const double* extra_t = extra + t * n;
        const std::size_t* hint = ws.hint_.rows.data() + t * n;
        const std::size_t hint_len = ws.hint_.len[t];
        double lower = -std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < n; ++i)
            lower = std::max(lower, t_idle[i] + lb[i]);
        for (std::size_t h = 0; h < hint_len; ++h)
            lower = std::max(lower, t_idle[hint[h]] + extra_t[hint[h]]);
        std::size_t* surv = ws.survivors_.rows.data() + t * n;
        std::size_t* miss = ws.missing_.rows.data() + t * n;
        std::size_t surv_len = 0, miss_len = 0, h = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!(t_idle[i] + ub[i] >= lower)) continue;
            surv[surv_len++] = i;
            while (h < hint_len && hint[h] < i) ++h;
            if (h == hint_len || hint[h] != i) miss[miss_len++] = i;
        }
        ws.survivors_.len[t] = surv_len;
        ws.missing_.len[t] = miss_len;
        exact_rows += hint_len + miss_len;
        rebuild = rebuild || miss_len > 0;
    }

    // Exact stage for survivors outside the hint, from each ring's memo
    // where it still holds this rung (a ladder query keeps only its last
    // rung per ring); otherwise the ring is staged again, because the
    // workspace holds one ring's samples at a time.
    if (rebuild) {
        for (std::size_t r = 0; r < rings.size(); ++r) {
            if (!ring_active(rings[r])) continue;
            PeakWorkspace::RingMemo& memo = ws.memo_[r];
            for (std::size_t t = 0; t < count; ++t) {
                if (ws.missing_.len[t] == 0) continue;
                bool staged = false;
                double* stored =
                    memo_matches(memo, rings[r], taus[r * ring_stride + t],
                                 samples_per_epoch)
                        ? memo.values.data() + rows_at
                        : nullptr;
                const std::size_t* miss = ws.missing_.rows.data() + t * n;
                for (std::size_t m = 0; m < ws.missing_.len[t]; ++m)
                    extra[t * n + miss[m]] +=
                        exact_row(r, t, staged, stored, miss[m]);
            }
        }
    }

    // Every survivor now holds its exact sum; the peak is their maximum.
    for (std::size_t t = 0; t < count; ++t) {
        const double* extra_t = extra + t * n;
        const std::size_t* surv = ws.survivors_.rows.data() + t * n;
        double peak = -1e300;
        for (std::size_t s = 0; s < ws.survivors_.len[t]; ++s)
            peak = std::max(peak, t_idle[surv[s]] + extra_t[surv[s]]);
        peaks[t] = peak;
    }
    // This query's survivors become the next query's hint; rungs beyond
    // @p count get none.
    for (std::size_t t = count; t < ws.survivors_.len.size(); ++t)
        ws.survivors_.len[t] = 0;
    ws.hint_.rows.swap(ws.survivors_.rows);
    ws.hint_.len.swap(ws.survivors_.len);
    ws.exact_rows_ = exact_rows;
}

}  // namespace hp::core
