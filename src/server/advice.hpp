#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "campaign/study_setup.hpp"
#include "core/peak_cache.hpp"
#include "core/peak_temperature.hpp"
#include "server/protocol.hpp"
#include "thermal/solver.hpp"

namespace hp::server {

/// Evaluation defaults the server applies to every request of a bundle —
/// mirrors SimConfig's thermal contract (DTM threshold, ambient) and
/// HotPotatoParams' τ ladder so an advice answer matches what the run-time
/// scheduler would certify.
struct AdviceDefaults {
    double t_dtm_c = 70.0;
    double ambient_c = 45.0;
    /// Safety margin under the DTM threshold; an assignment is advised as
    /// safe when its certified peak stays below t_dtm_c - headroom_delta_c.
    double headroom_delta_c = 1.0;
    std::size_t samples_per_epoch = 2;
    /// Default τ grid (ascending), used when a request carries none.
    std::vector<double> tau_ladder_s = {0.125e-3, 0.25e-3, 0.5e-3,
                                        1e-3,     2e-3,    4e-3};
};

/// The expensive, immutable, strictly-read-only half of advice serving for
/// one chip configuration: the StudySetup bundle plus the Algorithm-1
/// analyzer built over its solver. Construction pairs solver and model by
/// model_signature (the StudySetup invariant) and performs the analyzer's
/// design-time phase; afterwards every member is const and any number of
/// request threads may query concurrently (one PeakWorkspace per thread).
///
/// replicate() deep-copies the whole bundle — StudySetup::replicate() plus a
/// fresh analyzer over the replica's solver — for per-NUMA-node instances,
/// exactly as the campaign engine replicates StudySetups (PR 8).
class AdviceBundle {
public:
    AdviceBundle(campaign::StudySetup setup, AdviceDefaults defaults);

    const campaign::StudySetup& setup() const { return setup_; }
    const AdviceDefaults& defaults() const { return defaults_; }
    const core::PeakTemperatureAnalyzer& analyzer() const {
        return *analyzer_;
    }
    std::uint64_t backend_signature() const { return backend_signature_; }
    double idle_power_w() const { return idle_power_w_; }
    std::size_t core_count() const;

    /// Upper bound on cache-key length for this bundle (sizes the shared
    /// concurrent cache).
    std::size_t max_key_words() const;

    AdviceBundle replicate() const;

private:
    campaign::StudySetup setup_;
    AdviceDefaults defaults_;
    std::unique_ptr<core::PeakTemperatureAnalyzer> analyzer_;
    std::uint64_t backend_signature_ = 0;
    double idle_power_w_ = 0.0;
};

/// Per-worker mutable state for advise(): the arena-backed Algorithm-1
/// workspace plus staging buffers reused across requests. Never shared
/// between threads.
class AdviceScratch {
public:
    AdviceScratch() = default;
    /// All grown buffers come from @p mr (the worker's node-local arena).
    explicit AdviceScratch(std::pmr::memory_resource* mr) : workspace_(mr) {}

private:
    friend AdviceResponse advise(const AdviceBundle&, const AdviceRequest&,
                                 AdviceScratch&, core::ConcurrentPeakCache*);
    core::PeakWorkspace workspace_;
    core::CacheKey key_;
    std::vector<core::RotationRingSpec> rings_;
    std::vector<double> qpower_;        ///< quantised thread powers
    std::vector<double> taus_;          ///< descending scan grid
    linalg::Vector static_power_;       ///< per-core static candidate
    std::vector<double> map_;           ///< per-core peak staging
};

/// Answers one request against @p bundle: places threads ring-greedily
/// (lowest-AMD ring first, in request order), then certifies the cheapest
/// safe rotation setting — static if the pinned placement already holds the
/// limit, otherwise the slowest safe τ on the grid, otherwise the fastest
/// rung flagged unsafe. Scan evaluations are memoised in @p cache (may be
/// null) under backend_signature-prefixed quantised keys; the chosen
/// setting's full peak map is always evaluated fresh, so responses are
/// bit-identical with the cache on, off, shared or racing — the cache can
/// change only how fast the scan runs, never what is answered.
///
/// Throws std::invalid_argument on semantically invalid requests (unknown
/// sizes, non-finite powers, more threads than cores...).
AdviceResponse advise(const AdviceBundle& bundle,
                      const AdviceRequest& request, AdviceScratch& scratch,
                      core::ConcurrentPeakCache* cache);

/// The single-threaded reference path: every request evaluated in order
/// with a private scratch and no cache. The soak tests byte-compare server
/// responses against this.
std::vector<AdviceResponse> advise_batch(
    const AdviceBundle& bundle, const std::vector<AdviceRequest>& requests);

}  // namespace hp::server
