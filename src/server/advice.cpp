#include "server/advice.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arch/manycore.hpp"
#include "power/power_model.hpp"

namespace hp::server {
namespace {

template <typename Compute>
double eval_cached(core::ConcurrentPeakCache* cache,
                   const core::CacheKey& key, Compute&& compute) {
    double value;
    if (cache && cache->lookup(key.data(), key.size(), &value)) return value;
    value = compute();
    if (cache) cache->insert(key.data(), key.size(), value);
    return value;
}

}  // namespace

AdviceBundle::AdviceBundle(campaign::StudySetup setup, AdviceDefaults defaults)
    : setup_(std::move(setup)), defaults_(std::move(defaults)) {
    // Idle power evaluated conservatively at the DTM threshold, matching
    // HotPotato's run-time analyzer construction.
    power::PowerModel power(power::PowerParams{}, setup_.chip().dvfs());
    idle_power_w_ = power.idle_power_w(defaults_.t_dtm_c);
    analyzer_ = std::make_unique<core::PeakTemperatureAnalyzer>(
        setup_.solver(), defaults_.ambient_c, idle_power_w_);
    backend_signature_ = setup_.solver().backend_signature();
}

std::size_t AdviceBundle::core_count() const {
    return setup_.chip().core_count();
}

std::size_t AdviceBundle::max_key_words() const {
    return core::peak_key_words(core_count(), setup_.chip().rings().size());
}

AdviceBundle AdviceBundle::replicate() const {
    return AdviceBundle(setup_.replicate(), defaults_);
}

AdviceResponse advise(const AdviceBundle& bundle,
                      const AdviceRequest& request, AdviceScratch& scratch,
                      core::ConcurrentPeakCache* cache) {
    const arch::ManyCore& chip = bundle.setup().chip();
    const std::vector<arch::AmdRing>& rings = chip.rings();
    const AdviceDefaults& d = bundle.defaults();
    const std::size_t n = chip.core_count();
    const std::size_t threads = request.thread_power_w.size();

    // --- semantic validation (protocol-level framing was already checked) --
    if (threads > n)
        throw std::invalid_argument(
            "advise: " + std::to_string(threads) + " threads exceed the " +
            std::to_string(n) + " cores of config '" + request.config + "'");
    for (double p : request.thread_power_w)
        if (!std::isfinite(p) || p < 0.0)
            throw std::invalid_argument(
                "advise: thread power must be finite and non-negative");
    for (double t : request.tau_grid_s)
        if (!std::isfinite(t) || t <= 0.0)
            throw std::invalid_argument(
                "advise: tau grid entries must be finite and positive");

    // --- quantise (same grid as the run-time schedulers, which is what
    // makes cache hits bit-identical to fresh evaluations) -----------------
    scratch.qpower_.resize(threads);
    for (std::size_t t = 0; t < threads; ++t)
        scratch.qpower_[t] = core::quantise_power_w(request.thread_power_w[t]);

    // --- scan grid, slowest (largest τ) first ------------------------------
    scratch.taus_ =
        request.tau_grid_s.empty() ? d.tau_ladder_s : request.tau_grid_s;
    std::sort(scratch.taus_.begin(), scratch.taus_.end(),
              std::greater<double>());
    scratch.taus_.erase(
        std::unique(scratch.taus_.begin(), scratch.taus_.end()),
        scratch.taus_.end());

    // --- placement: request order into the lowest-AMD rings ----------------
    // The online scheduler places *arriving* threads one at a time
    // (Algorithm 2); the oracle answers for a complete thread set, so it
    // fills the performance-preferred low-AMD rings in request order and
    // certifies the whole assignment per rotation setting below.
    AdviceResponse response;
    response.core_of_thread.resize(threads);
    scratch.rings_.resize(rings.size());
    for (std::size_t r = 0; r < rings.size(); ++r) {
        scratch.rings_[r].cores = rings[r].cores;
        scratch.rings_[r].slot_power_w.assign(rings[r].cores.size(),
                                              bundle.idle_power_w());
    }
    {
        std::size_t ring = 0, slot = 0;
        for (std::size_t t = 0; t < threads; ++t) {
            while (slot >= rings[ring].cores.size()) {
                ++ring;
                slot = 0;
            }
            scratch.rings_[ring].slot_power_w[slot] = scratch.qpower_[t];
            response.core_of_thread[t] =
                static_cast<std::uint32_t>(rings[ring].cores[slot]);
            ++slot;
        }
    }

    const double limit = d.t_dtm_c - d.headroom_delta_c;
    const core::PeakTemperatureAnalyzer& analyzer = bundle.analyzer();
    response.error_bound_c = bundle.setup().solver().error_bound_c();
    scratch.map_.resize(n);

    // --- static candidate (rotation off) -----------------------------------
    if (scratch.static_power_.size() != n) scratch.static_power_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        scratch.static_power_[i] = bundle.idle_power_w();
    for (std::size_t t = 0; t < threads; ++t)
        scratch.static_power_[response.core_of_thread[t]] =
            scratch.qpower_[t];

    core::stage_static_key(scratch.key_, bundle.backend_signature(),
                           scratch.static_power_.data(), n);
    const double static_peak = eval_cached(cache, scratch.key_, [&] {
        double peak;
        analyzer.static_peaks(scratch.static_power_.data(), 1,
                              scratch.workspace_, &peak);
        return peak;
    });

    if (static_peak < limit) {
        response.rotation_on = 0;
        response.tau_s = 0.0;
        response.thermally_safe = 1;
        // The chosen setting's map is always evaluated fresh; its scalar is
        // the same deterministic computation the (possibly cached) scan
        // value came from, so the response carries identical bits either
        // way.
        analyzer.static_peaks(scratch.static_power_.data(), 1,
                              scratch.workspace_, &response.predicted_peak_c,
                              scratch.map_.data());
        response.peak_core_c = scratch.map_;
        return response;
    }

    // --- rotation scan: slowest safe τ, else fastest-and-unsafe ------------
    double chosen_tau = scratch.taus_.back();  // fastest rung as fallback
    bool safe = false;
    for (double tau : scratch.taus_) {
        core::stage_rotation_key(scratch.key_, bundle.backend_signature(),
                                 tau, d.samples_per_epoch, scratch.rings_);
        const double peak = eval_cached(cache, scratch.key_, [&] {
            double value;
            analyzer.rotation_peaks(scratch.rings_, &tau, 1,
                                    d.samples_per_epoch, scratch.workspace_,
                                    &value);
            return value;
        });
        if (peak < limit) {
            chosen_tau = tau;
            safe = true;
            break;
        }
    }

    response.rotation_on = 1;
    response.tau_s = chosen_tau;
    analyzer.rotation_peaks(scratch.rings_, &chosen_tau, 1,
                            d.samples_per_epoch, scratch.workspace_,
                            &response.predicted_peak_c, scratch.map_.data());
    response.peak_core_c = scratch.map_;
    response.thermally_safe =
        (safe || response.predicted_peak_c < limit) ? 1 : 0;
    return response;
}

std::vector<AdviceResponse> advise_batch(
    const AdviceBundle& bundle, const std::vector<AdviceRequest>& requests) {
    AdviceScratch scratch;
    std::vector<AdviceResponse> responses;
    responses.reserve(requests.size());
    for (const AdviceRequest& request : requests)
        responses.push_back(advise(bundle, request, scratch,
                                   /*cache=*/nullptr));
    return responses;
}

}  // namespace hp::server
