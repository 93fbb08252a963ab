#include "core/hotpotato.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/peak_cache.hpp"

namespace hp::core {

namespace {
constexpr double kInfPeak = std::numeric_limits<double>::infinity();
}

std::size_t HotPotatoScheduler::Ring::occupied() const {
    std::size_t count = 0;
    for (sim::ThreadId id : slots)
        if (id != sim::kNone) ++count;
    return count;
}

std::optional<std::size_t> HotPotatoScheduler::Ring::first_free_slot() const {
    for (std::size_t j = 0; j < slots.size(); ++j)
        if (slots[j] == sim::kNone) return j;
    return std::nullopt;
}

HotPotatoScheduler::HotPotatoScheduler(HotPotatoParams params)
    : params_(std::move(params)) {
    if (params_.tau_ladder_s.empty())
        throw std::invalid_argument("HotPotato: empty tau ladder");
    if (!std::is_sorted(params_.tau_ladder_s.begin(),
                        params_.tau_ladder_s.end()))
        throw std::invalid_argument("HotPotato: tau ladder must be ascending");
}

void HotPotatoScheduler::rebuild_rings(sim::SimContext& ctx) {
    rings_.clear();
    for (const arch::AmdRing& r : ctx.chip().rings()) {
        Ring ring;
        ring.amd = r.amd;
        for (std::size_t c : r.cores)
            if (ctx.core_available(c)) ring.cores.push_back(c);
        if (ring.cores.empty()) continue;  // whole ring lost
        ring.slots.assign(ring.cores.size(), sim::kNone);
        for (std::size_t j = 0; j < ring.cores.size(); ++j) {
            const sim::ThreadId id = ctx.thread_on(ring.cores[j]);
            if (id != sim::kNone && !ctx.thread(id).finished)
                ring.slots[j] = id;
        }
        rings_.push_back(std::move(ring));
    }
}

void HotPotatoScheduler::initialize(sim::SimContext& ctx) {
    // Borrow the (arena-backed) peak workspace from the campaign worker's
    // scratch bag when one exists: one workspace per worker, warm across
    // runs.
    if (exec::WorkerScratch* scratch = ctx.worker_scratch())
        peak_ws_ = &scratch->slot<PeakWorkspace>();
    else
        peak_ws_ = &own_peak_ws_;
    peak_ws_->forget_survivors();
    rebuild_rings(ctx);
    displaced_.clear();
    sensor_fallback_ = false;
    // Start at the ladder rung closest to the requested initial τ.
    tau_index_ = 0;
    double best = kInfPeak;
    for (std::size_t i = 0; i < params_.tau_ladder_s.size(); ++i) {
        const double d = std::abs(params_.tau_ladder_s[i] -
                                  params_.initial_rotation_interval_s);
        if (d < best) {
            best = d;
            tau_index_ = i;
        }
    }
    rotation_on_ = true;
    next_rotation_s_ = params_.tau_ladder_s[tau_index_];
    obs_ = ctx.observer();
    if (obs_) {
        obs_alg1_ = &obs_->counter("hotpotato.alg1_evals");
        obs_tau_changes_ = &obs_->counter("hotpotato.tau_changes");
        obs_batch_size_ = &obs_->histogram(
            "hotpotato.batch_size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
        obs_rows_exact_ = &obs_->counter("hotpotato.alg1_rows_exact");
        obs_rows_total_ = &obs_->counter("hotpotato.alg1_rows_total");
        obs_rings_reused_ = &obs_->counter("hotpotato.alg1_rings_reused");
        obs_rings_total_ = &obs_->counter("hotpotato.alg1_rings_total");
    }
    ensure_analyzer(ctx);
}

void HotPotatoScheduler::note_tau_change(sim::SimContext& ctx) {
    if (!obs_) return;
    obs_tau_changes_->add();
    obs_->record({ctx.now(), obs::EventKind::kTauAdapt,
                  rotation_on_ ? 1u : 0u, 0,
                  rotation_on_ ? rotation_interval_s() : 0.0});
}

double HotPotatoScheduler::rotation_interval_s() const {
    return params_.tau_ladder_s[tau_index_];
}

void HotPotatoScheduler::ensure_analyzer(sim::SimContext& ctx) {
    if (analyzer_) return;
    const double idle = ctx.power_model().idle_power_w(ctx.config().t_dtm_c);
    analyzer_ = std::make_unique<PeakTemperatureAnalyzer>(
        ctx.solver(), ctx.config().ambient_c, idle);
}

void HotPotatoScheduler::sync_finished_threads(sim::SimContext& ctx) {
    for (Ring& ring : rings_)
        for (sim::ThreadId& id : ring.slots)
            if (id != sim::kNone && ctx.thread(id).finished) id = sim::kNone;
}

double HotPotatoScheduler::slot_power(sim::SimContext& ctx,
                                      sim::ThreadId id) const {
    // Measured 10 ms power history once the thread runs (Algorithm 1 input);
    // a model estimate before first placement. Quantised to the prediction
    // grid (quantise_power_w), which every recorded decision depends on.
    if (ctx.core_of(id) != sim::kNone)
        return quantise_power_w(ctx.thread_recent_power(id));
    const auto loc = locate(id);
    const std::size_t core =
        loc ? rings_[loc->first].cores[loc->second] : 0;
    return quantise_power_w(
        ctx.estimate_thread_power(id, core, ctx.chip().dvfs().f_max_hz));
}

const std::vector<RotationRingSpec>& HotPotatoScheduler::build_ring_specs(
    sim::SimContext& ctx) const {
    const double idle = analyzer_->idle_power_w();
    if (spec_scratch_.size() != rings_.size())
        spec_scratch_.resize(rings_.size());
    for (std::size_t r = 0; r < rings_.size(); ++r) {
        const Ring& ring = rings_[r];
        RotationRingSpec& spec = spec_scratch_[r];
        spec.cores = ring.cores;
        spec.slot_power_w.assign(ring.cores.size(), idle);
        for (std::size_t j = 0; j < ring.slots.size(); ++j)
            if (ring.slots[j] != sim::kNone)
                spec.slot_power_w[j] = slot_power(ctx, ring.slots[j]);
    }
    return spec_scratch_;
}

void HotPotatoScheduler::build_static_powers(sim::SimContext& ctx) const {
    const double idle = analyzer_->idle_power_w();
    const std::size_t n = ctx.chip().core_count();
    if (static_power_scratch_.size() != n)
        static_power_scratch_ = linalg::Vector(n);
    for (std::size_t i = 0; i < n; ++i) static_power_scratch_[i] = idle;
    for (const Ring& ring : rings_)
        for (std::size_t j = 0; j < ring.slots.size(); ++j)
            if (ring.slots[j] != sim::kNone)
                static_power_scratch_[ring.cores[j]] =
                    slot_power(ctx, ring.slots[j]);
}

double HotPotatoScheduler::predict_peak_with(sim::SimContext& ctx,
                                             bool rotation_on,
                                             std::size_t tau_index) const {
    if (obs_alg1_) obs_alg1_->add();
    obs::ScopedPhase timer(obs_, obs::Phase::kPeakAnalysis);
    if (obs_batch_size_) obs_batch_size_->observe(1.0);
    double peak;
    if (!rotation_on) {
        build_static_powers(ctx);
        analyzer_->static_peaks(static_power_scratch_.data(), 1, *peak_ws_,
                                &peak);
        return peak;
    }
    build_ring_specs(ctx);
    analyzer_->rotation_peaks(spec_scratch_, &params_.tau_ladder_s[tau_index],
                              1, params_.samples_per_epoch, *peak_ws_, &peak);
    if (obs_rows_exact_) {
        obs_rows_exact_->add(peak_ws_->last_exact_rows());
        obs_rows_total_->add(ctx.chip().core_count());
        obs_rings_reused_->add(peak_ws_->last_reused_rings());
        obs_rings_total_->add(peak_ws_->last_ring_evals());
    }
    return peak;
}

double HotPotatoScheduler::predict_peak(sim::SimContext& ctx) const {
    return predict_peak_with(ctx, rotation_on_, tau_index_);
}

std::optional<std::pair<std::size_t, std::size_t>> HotPotatoScheduler::locate(
    sim::ThreadId id) const {
    for (std::size_t r = 0; r < rings_.size(); ++r)
        for (std::size_t j = 0; j < rings_[r].slots.size(); ++j)
            if (rings_[r].slots[j] == id) return std::make_pair(r, j);
    return std::nullopt;
}

void HotPotatoScheduler::assign(sim::SimContext& ctx, sim::ThreadId id,
                                std::size_t ring, std::size_t slot) {
    rings_[ring].slots[slot] = id;
    ctx.place(id, rings_[ring].cores[slot]);
}

void HotPotatoScheduler::move_thread(sim::SimContext& ctx, sim::ThreadId id,
                                     std::size_t dest_ring,
                                     std::size_t dest_slot) {
    const auto loc = locate(id);
    if (!loc) throw std::logic_error("HotPotato::move_thread: unknown thread");
    rings_[loc->first].slots[loc->second] = sim::kNone;
    rings_[dest_ring].slots[dest_slot] = id;
    ctx.migrate(id, rings_[dest_ring].cores[dest_slot]);
}

std::optional<std::size_t> HotPotatoScheduler::best_static_slot(
    sim::SimContext& ctx, std::size_t ring_index, sim::ThreadId id) {
    Ring& ring = rings_[ring_index];
    slate_slots_.clear();
    for (std::size_t j = 0; j < ring.slots.size(); ++j)
        if (ring.slots[j] == sim::kNone) slate_slots_.push_back(j);
    if (slate_slots_.empty()) return std::nullopt;
    const std::size_t count = slate_slots_.size();
    const std::size_t n = ctx.chip().core_count();

    // The whole slate is one Algorithm-1 query site: one counter tick, one
    // phase, the histogram records how many candidates were requested.
    if (obs_alg1_) obs_alg1_->add();
    obs::ScopedPhase timer(obs_, obs::Phase::kPeakAnalysis);
    if (obs_batch_size_) obs_batch_size_->observe(static_cast<double>(count));

    // Candidate power vectors: the thread tentatively in each free slot —
    // exactly the vectors the historical per-slot loop evaluated one by one.
    if (slate_powers_.size() < count * n) slate_powers_.resize(count * n);
    if (slate_peaks_.size() < count) slate_peaks_.resize(count);
    for (std::size_t c = 0; c < count; ++c) {
        const std::size_t j = slate_slots_[c];
        ring.slots[j] = id;
        build_static_powers(ctx);
        ring.slots[j] = sim::kNone;
        double* row = slate_powers_.data() + c * n;
        for (std::size_t i = 0; i < n; ++i) row[i] = static_power_scratch_[i];
    }

    // One batched steady-state slate (bit-identical per candidate to a
    // single-candidate static_peaks).
    analyzer_->static_peaks(slate_powers_.data(), count, *peak_ws_,
                            slate_peaks_.data());

    // First-lowest wins, matching the historical ascending-slot scan.
    std::optional<std::size_t> best;
    double best_peak = kInfPeak;
    for (std::size_t c = 0; c < count; ++c) {
        if (slate_peaks_[c] < best_peak) {
            best_peak = slate_peaks_[c];
            best = slate_slots_[c];
        }
    }
    return best;
}

bool HotPotatoScheduler::place_thread(sim::SimContext& ctx,
                                      sim::ThreadId id) {
    const double limit = ctx.config().t_dtm_c - params_.headroom_delta_c;

    // Lines 2-6: lowest-AMD ring whose best free slot is thermally safe.
    for (std::size_t r = 0; r < rings_.size(); ++r) {
        Ring& ring = rings_[r];
        std::optional<std::size_t> slot;
        if (rotation_on_) {
            // Under rotation the thread will visit every slot of the ring, so
            // all free slots are equivalent for the sustained peak; take the
            // first (the paper's per-slot evaluation degenerates to this).
            slot = ring.first_free_slot();
        } else {
            // Without rotation the slot matters: pick the free slot with the
            // lowest static steady-state peak, scored as one batched slate.
            slot = best_static_slot(ctx, r, id);
        }
        if (!slot) continue;

        ring.slots[*slot] = id;  // tentative
        const double peak = predict_peak_with(ctx, rotation_on_, tau_index_);
        if (peak < limit) {
            ring.slots[*slot] = sim::kNone;
            assign(ctx, id, r, *slot);
            last_predicted_peak_c_ = peak;
            max_predicted_peak_c_ = std::max(max_predicted_peak_c_, peak);
            return true;
        }
        ring.slots[*slot] = sim::kNone;
    }

    // Lines 7-14: nothing is safe — take the highest-AMD ring with space and
    // let restore_safety() speed the rotation / demote threads.
    for (std::size_t r = rings_.size(); r-- > 0;) {
        const auto slot = rings_[r].first_free_slot();
        if (!slot) continue;
        assign(ctx, id, r, *slot);
        restore_safety(ctx);
        return true;
    }
    return false;  // chip is full: keep the task queued
}

bool HotPotatoScheduler::on_task_arrival(sim::SimContext& ctx,
                                         sim::TaskId task) {
    ensure_analyzer(ctx);
    sync_finished_threads(ctx);

    const sim::Task& t = ctx.task(task);
    std::size_t free_slots = 0;
    for (const Ring& ring : rings_) free_slots += ring.slots.size() - ring.occupied();
    if (free_slots < t.thread_count) return false;

    for (sim::ThreadId id : t.threads)
        if (!place_thread(ctx, id))
            throw std::logic_error(
                "HotPotato: placement failed despite free capacity");
    return true;
}

void HotPotatoScheduler::on_task_finish(sim::SimContext& ctx,
                                        sim::TaskId /*task*/) {
    sync_finished_threads(ctx);
    retry_displaced(ctx);
    exploit_headroom(ctx);
}

void HotPotatoScheduler::retry_displaced(sim::SimContext& ctx) {
    if (displaced_.empty()) return;
    std::vector<sim::ThreadId> still_waiting;
    for (sim::ThreadId id : displaced_) {
        if (ctx.thread(id).finished || ctx.core_of(id) != sim::kNone) continue;
        if (!place_thread(ctx, id)) still_waiting.push_back(id);
    }
    displaced_ = std::move(still_waiting);
}

void HotPotatoScheduler::on_core_failure(
    sim::SimContext& ctx, std::size_t /*core*/,
    const std::vector<sim::ThreadId>& evicted) {
    ensure_analyzer(ctx);
    sync_finished_threads(ctx);
    // Re-form the rotation domains without the dead core: surviving threads
    // keep their cores (slots re-seeded from the live mapping), the ring
    // merely closes ranks around the hole.
    rebuild_rings(ctx);
    for (sim::ThreadId id : evicted)
        if (!place_thread(ctx, id)) displaced_.push_back(id);
    restore_safety(ctx);
}

void HotPotatoScheduler::on_core_recovery(sim::SimContext& ctx,
                                          std::size_t /*core*/) {
    sync_finished_threads(ctx);
    rebuild_rings(ctx);
    retry_displaced(ctx);
}

void HotPotatoScheduler::update_sensor_fallback(sim::SimContext& ctx) {
    const bool untrusted = ctx.untrusted_sensor_count() > 0;
    if (untrusted == sensor_fallback_) return;
    const arch::DvfsParams& dvfs = ctx.chip().dvfs();
    // Sensing is compromised: the peak predictions feeding Algorithm 1/2 can
    // no longer be cross-checked against reality, so surrender performance
    // for guaranteed headroom until the voting filter trusts the bank again.
    const double f =
        untrusted ? dvfs.quantize_down(params_.sensor_fallback_freq_fraction *
                                       dvfs.f_max_hz)
                  : dvfs.f_max_hz;
    for (std::size_t c = 0; c < ctx.chip().core_count(); ++c)
        ctx.set_frequency(c, f);
    sensor_fallback_ = untrusted;
    if (obs_)
        obs_->record({ctx.now(), obs::EventKind::kSensorFallback,
                      untrusted ? 1u : 0u, 0, f});
}

void HotPotatoScheduler::restore_safety(sim::SimContext& ctx) {
    const double limit = ctx.config().t_dtm_c - params_.headroom_delta_c;
    double peak = predict_peak(ctx);

    // Lines 8-11: demote the least memory-bound (lowest CPI) threads to
    // higher-AMD rings while the schedule stays unsafe.
    std::size_t guard = rings_.empty() ? 0 : 2 * ctx.chip().core_count();
    while (peak >= limit && guard-- > 0) {
        sim::ThreadId victim = sim::kNone;
        double victim_cpi = kInfPeak;
        std::size_t victim_ring = 0;
        for (std::size_t r = 0; r + 1 < rings_.size(); ++r) {
            bool outer_space = false;
            for (std::size_t r2 = r + 1; r2 < rings_.size(); ++r2)
                if (rings_[r2].first_free_slot()) outer_space = true;
            if (!outer_space) continue;
            for (sim::ThreadId id : rings_[r].slots) {
                if (id == sim::kNone) continue;
                const double cpi = ctx.thread_cpi(id);
                if (cpi < victim_cpi) {
                    victim_cpi = cpi;
                    victim = id;
                    victim_ring = r;
                }
            }
        }
        if (victim == sim::kNone) break;
        // Next higher ring with a free slot.
        bool moved = false;
        for (std::size_t r2 = victim_ring + 1; r2 < rings_.size(); ++r2) {
            const auto slot = rings_[r2].first_free_slot();
            if (!slot) continue;
            move_thread(ctx, victim, r2, *slot);
            moved = true;
            break;
        }
        if (!moved) break;
        peak = predict_peak(ctx);
    }

    // Lines 12-14: speed the rotation until headroom appears, one query per
    // rung.
    while (peak >= limit) {
        if (!rotation_on_) {
            rotation_on_ = true;
            tau_index_ = params_.tau_ladder_s.size() - 1;
            next_rotation_s_ = ctx.now() + rotation_interval_s();
        } else if (tau_index_ > 0) {
            --tau_index_;
        } else {
            break;  // fastest rotation already; DTM is the backstop
        }
        note_tau_change(ctx);
        peak = predict_peak(ctx);
    }
    last_predicted_peak_c_ = peak;
    max_predicted_peak_c_ = std::max(max_predicted_peak_c_, peak);
}

void HotPotatoScheduler::exploit_headroom(sim::SimContext& ctx) {
    const double t_dtm = ctx.config().t_dtm_c;
    const double delta = params_.headroom_delta_c;
    double peak = predict_peak(ctx);

    // Lines 16-22: promote the most memory-bound (highest CPI) threads to
    // the lowest-AMD ring that stays thermally safe.
    std::size_t promotions = 0;
    while (t_dtm - peak > delta &&
           promotions < params_.max_promotions_per_epoch) {
        // Highest-CPI thread that is not already in the innermost ring with
        // free space below it.
        sim::ThreadId candidate = sim::kNone;
        double candidate_cpi = -kInfPeak;
        std::size_t candidate_ring = 0;
        for (std::size_t r = 1; r < rings_.size(); ++r) {
            bool inner_space = false;
            for (std::size_t r2 = 0; r2 < r; ++r2)
                if (rings_[r2].first_free_slot()) inner_space = true;
            if (!inner_space) continue;
            for (sim::ThreadId id : rings_[r].slots) {
                if (id == sim::kNone) continue;
                const double cpi = ctx.thread_cpi(id);
                if (cpi > candidate_cpi) {
                    candidate_cpi = cpi;
                    candidate = id;
                    candidate_ring = r;
                }
            }
        }
        if (candidate == sim::kNone) break;

        // Lowest-AMD ring with space; tentative safety check first.
        bool committed = false;
        for (std::size_t r2 = 0; r2 < candidate_ring && !committed; ++r2) {
            const auto slot = rings_[r2].first_free_slot();
            if (!slot) continue;
            const auto loc = locate(candidate);
            rings_[loc->first].slots[loc->second] = sim::kNone;
            rings_[r2].slots[*slot] = candidate;  // tentative
            const double new_peak =
                predict_peak_with(ctx, rotation_on_, tau_index_);
            rings_[r2].slots[*slot] = sim::kNone;
            rings_[loc->first].slots[loc->second] = candidate;
            if (new_peak < t_dtm - delta) {
                move_thread(ctx, candidate, r2, *slot);
                peak = new_peak;
                ++promotions;
                committed = true;
            }
        }
        if (!committed) break;
    }

    // Lines 23-27: slow the rotation (and eventually stop it) while the
    // schedule remains safe — fewer migrations, better performance.
    while (t_dtm - peak > delta) {
        if (!rotation_on_) break;
        const bool at_top = tau_index_ + 1 >= params_.tau_ladder_s.size();
        const double new_peak =
            at_top ? predict_peak_with(ctx, false, tau_index_)
                   : predict_peak_with(ctx, true, tau_index_ + 1);
        if (new_peak < t_dtm - delta) {
            if (at_top) {
                rotation_on_ = false;
            } else {
                ++tau_index_;
            }
            note_tau_change(ctx);
            peak = new_peak;
        } else {
            break;
        }
    }
    last_predicted_peak_c_ = peak;
    max_predicted_peak_c_ = std::max(max_predicted_peak_c_, peak);
}

void HotPotatoScheduler::on_epoch(sim::SimContext& ctx) {
    ensure_analyzer(ctx);
    sync_finished_threads(ctx);
    update_sensor_fallback(ctx);
    retry_displaced(ctx);
    const double limit = ctx.config().t_dtm_c - params_.headroom_delta_c;
    const double peak = predict_peak(ctx);
    last_predicted_peak_c_ = peak;
    max_predicted_peak_c_ = std::max(max_predicted_peak_c_, peak);
    if (peak >= limit) {
        restore_safety(ctx);
    } else if (ctx.config().t_dtm_c - peak > params_.headroom_delta_c) {
        exploit_headroom(ctx);
    }
}

void HotPotatoScheduler::on_step(sim::SimContext& ctx) {
    if (!rotation_on_) return;
    if (ctx.now() + 1e-12 < next_rotation_s_) return;
    for (Ring& ring : rings_) {
        if (ring.cores.size() < 2 || ring.occupied() == 0) continue;
        ctx.rotate(ring.cores);
        // Mirror the cyclic shift in the slot bookkeeping; the scratch
        // vector's capacity is reused across rings and steps.
        shift_scratch_.resize(ring.slots.size());
        for (std::size_t j = 0; j < ring.slots.size(); ++j)
            shift_scratch_[(j + 1) % ring.slots.size()] = ring.slots[j];
        std::swap(ring.slots, shift_scratch_);
    }
    next_rotation_s_ = ctx.now() + rotation_interval_s();
}

}  // namespace hp::core
