#include "core/peak_cache.hpp"

#include "core/peak_temperature.hpp"

namespace hp::core {

namespace {
constexpr std::uint64_t kStaticTag = 0x5354415449435f50ull;    // "STATIC_P"
constexpr std::uint64_t kRotationTag = 0x524f544154455f50ull;  // "ROTATE_P"
}  // namespace

void stage_static_key(CacheKey& key, std::uint64_t backend_signature,
                      const double* core_power_w, std::size_t cores) {
    key.clear();
    key.push(backend_signature);
    key.push(kStaticTag);
    key.push(static_cast<std::uint64_t>(cores));
    for (std::size_t i = 0; i < cores; ++i) key.push(core_power_w[i]);
}

void stage_rotation_key(CacheKey& key, std::uint64_t backend_signature,
                        double tau_s, std::size_t samples_per_epoch,
                        const std::vector<RotationRingSpec>& rings) {
    key.clear();
    key.push(backend_signature);
    key.push(kRotationTag);
    key.push(tau_s);
    key.push(static_cast<std::uint64_t>(samples_per_epoch));
    key.push(static_cast<std::uint64_t>(rings.size()));
    for (const RotationRingSpec& ring : rings) {
        key.push(static_cast<std::uint64_t>(ring.slot_power_w.size()));
        for (double p : ring.slot_power_w) key.push(p);
    }
}

std::size_t peak_key_words(std::size_t cores, std::size_t rings) {
    return 5 + rings + cores;
}

}  // namespace hp::core
