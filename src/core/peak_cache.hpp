#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace hp::core {

/// Quantises a slot/core power to the prediction-cache grid (steps of
/// 2^-10 W ≈ 1 mW). The grid step is an exact binary fraction, so quantised
/// powers round-trip through the cache key bit-exactly, and the quantisation
/// itself is far below the watt-level signal the thermal model reacts to.
/// Callers quantise *before* prediction whether or not a cache is enabled —
/// that is what makes a cache hit bit-identical to a fresh evaluation (both
/// see the same quantised inputs). HotPotato and PCMig key no cache but
/// quantise their prediction inputs on the same grid, so every recorded
/// scheduling decision depends on it.
inline double quantise_power_w(double power_w) {
    return static_cast<double>(std::llround(power_w * 1024.0)) / 1024.0;
}

/// Staging buffer for ConcurrentPeakCache keys. Lives with the caller (one
/// per worker thread in the advice server) because the cache itself holds
/// no per-query mutable state. Reserve the longest key
/// up front and pushes never allocate.
class CacheKey {
public:
    void clear() { words_.clear(); }
    void push(std::uint64_t word) { words_.push_back(word); }
    /// Appends the bit pattern of a double (quantised values only: -0.0 and
    /// 0.0 differ bitwise, but llround never produces -0.0).
    void push(double value) {
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        words_.push_back(bits);
    }
    const std::uint64_t* data() const { return words_.data(); }
    std::size_t size() const { return words_.size(); }
    void reserve(std::size_t n) { words_.reserve(n); }

private:
    std::vector<std::uint64_t> words_;
};

struct RotationRingSpec;

/// The one key format of Algorithm-1 predictions, used by the advice
/// daemon. Both forms start with the solver backend_signature
/// (separating backends and chip models) and a tag word (so a static and a
/// rotation query over the same powers never alias):
///
///   static:   backend · "STATIC_P" · core count · one power per core
///   rotation: backend · "ROTATE_P" · τ bits · samples_per_epoch ·
///             ring count · per ring (slot count · one power per slot)
///
/// Powers must already be quantised (quantise_power_w). Ring core lists are
/// not part of the key: a cache holds one chip's ring layout, so a caller
/// whose rings re-form must invalidate.
void stage_static_key(CacheKey& key, std::uint64_t backend_signature,
                      const double* core_power_w, std::size_t cores);
void stage_rotation_key(CacheKey& key, std::uint64_t backend_signature,
                        double tau_s, std::size_t samples_per_epoch,
                        const std::vector<RotationRingSpec>& rings);
/// Longest key either builder stages for a chip of @p cores cores in
/// @p rings rings (the rotation form dominates).
std::size_t peak_key_words(std::size_t cores, std::size_t rings);

/// Sharded, lock-free, lossy memo of scalar thermal predictions, keyed by an
/// opaque sequence of 64-bit words (the solver backend_signature, a
/// static/rotation discriminator and the quantised powers). The one
/// prediction cache of the repo: the advice server shares one per chip
/// config across its worker pool. (The simulator's schedulers keep none;
/// HotPotato's repeats are answered by the peak workspace's ring memo.)
///
/// Correctness contract: the cache may only memoise values that are pure
/// functions of the key. Under that contract every race below degrades to a
/// miss or to re-reading an identical value — a hit is always exactly what
/// recomputing would produce, and a miss is always safe because the caller
/// recomputes. Allocation-free after configure().
///
/// Layout: power-of-two shard count × power-of-two slots per shard, open
/// addressing with a probe window inside one shard (a query touches exactly
/// one shard). Each slot publishes through a single 64-bit atomic packing
///
///   [bit 63: writer-busy][bits 48..62: write seq][bits 32..47: key tag]
///   [bits 0..31: generation]
///
/// seqlock-style. Readers load the packed word, read the slot body with
/// acquire atomics, then validate the packed word is unchanged
/// (validate-after-read); the write sequence makes any intervening publish —
/// even of the same tag and generation — change the packed value, so a torn
/// body read cannot validate. Writers claim a slot with one CAS that sets
/// the busy bit and store the body with release atomics; a writer that
/// loses the CAS simply drops its insert (lossy overwrite on collision — the
/// value was a memo, the loser's caller already holds the computed result).
/// invalidate() bumps a global 32-bit generation in O(1); slots written
/// under an older generation never match and are recycled as empty. The
/// 15-bit sequence would need 32768 complete publishes to the same slot
/// inside one reader's ~nanosecond validate window to ABA, and the 32-bit
/// generation wraps after 4·10^9 invalidation events — both beyond any
/// realistic horizon.
///
/// Statistics are relaxed atomics: hits, misses, and races (validation
/// failures and lost writer claims). invalidate() keeps them.
class ConcurrentPeakCache {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t races = 0;
    };

    ConcurrentPeakCache() = default;

    /// Sizes the cache for at least @p entries total slots holding keys of
    /// up to @p max_key_words words, spread over @p shards shards (0 picks a
    /// default; both are rounded up to powers of two). Clears any previous
    /// contents and statistics. NOT thread-safe: configure before sharing.
    /// A later key longer than @p max_key_words is simply not cacheable
    /// (lookups miss, inserts are dropped) rather than an error.
    void configure(std::size_t entries, std::size_t max_key_words,
                   std::size_t shards = 0) {
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        races_.store(0, std::memory_order_relaxed);
        generation_.store(0, std::memory_order_relaxed);
        if (entries == 0 || max_key_words == 0) {
            shards_ = slots_per_shard_ = total_slots_ = max_words_ = 0;
            tag_gen_.reset();
            len_.reset();
            value_.reset();
            words_.reset();
            return;
        }
        shards_ = round_up_pow2(shards ? shards : kDefaultShards);
        std::size_t per_shard = (entries + shards_ - 1) / shards_;
        if (per_shard < kProbeWindow) per_shard = kProbeWindow;
        slots_per_shard_ = round_up_pow2(per_shard);
        total_slots_ = shards_ * slots_per_shard_;
        max_words_ = max_key_words;
        tag_gen_ = std::make_unique<std::atomic<std::uint64_t>[]>(
            total_slots_);
        len_ = std::make_unique<std::atomic<std::uint64_t>[]>(total_slots_);
        value_ = std::make_unique<std::atomic<std::uint64_t>[]>(total_slots_);
        words_ = std::make_unique<std::atomic<std::uint64_t>[]>(
            total_slots_ * max_words_);
        for (std::size_t s = 0; s < total_slots_; ++s) {
            tag_gen_[s].store(0, std::memory_order_relaxed);
            len_[s].store(0, std::memory_order_relaxed);
            value_[s].store(0, std::memory_order_relaxed);
        }
    }

    bool enabled() const { return total_slots_ != 0; }

    /// Looks @p key up; on hit writes the memoised value to @p out and
    /// returns true. Counts the hit/miss either way; a reader that catches a
    /// slot mid-rewrite counts one race and treats the slot as a miss.
    bool lookup(const std::uint64_t* key, std::size_t len,
                double* out) const {
        if (!enabled() || len == 0 || len > max_words_) {
            misses_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        const std::uint64_t h = hash(key, len);
        const std::uint64_t gen =
            generation_.load(std::memory_order_acquire) & kGenMask;
        const std::uint64_t tag = tag_of_hash(h);
        for (std::size_t p = 0; p < kProbeWindow; ++p) {
            const std::size_t s = probe_slot(h, p);
            const std::uint64_t t1 =
                tag_gen_[s].load(std::memory_order_acquire);
            if (t1 & kBusyBit) continue;            // mid-write
            if (seq_of(t1) == 0) continue;          // never published
            if (gen_of(t1) != gen) continue;        // stale generation
            if (tag_of(t1) != tag) continue;        // different key (likely)
            // Read the body with acquire loads, then validate the packed
            // word is unchanged. An acquire load that reads a body word of a
            // newer write synchronises with that writer's release store, so
            // the writer's earlier claim CAS happens-before the t2 re-load:
            // t2 must then see the busy word or a later publish, never t1.
            // A publish between t1 and t2 always changes the write sequence,
            // so a possibly-torn body is detected and discarded. (Acquire
            // loads rather than a fence: TSan does not model fences, and on
            // x86 both are plain loads.)
            const std::uint64_t slot_len =
                len_[s].load(std::memory_order_acquire);
            bool match = slot_len == len;
            if (match) {
                const std::atomic<std::uint64_t>* w =
                    words_.get() + s * max_words_;
                for (std::size_t i = 0; i < len; ++i)
                    if (w[i].load(std::memory_order_acquire) != key[i]) {
                        match = false;
                        break;
                    }
            }
            const std::uint64_t bits =
                value_[s].load(std::memory_order_acquire);
            const std::uint64_t t2 =
                tag_gen_[s].load(std::memory_order_acquire);
            if (t2 != t1) {
                races_.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (!match) continue;
            hits_.fetch_add(1, std::memory_order_relaxed);
            double value;
            std::memcpy(&value, &bits, sizeof value);
            *out = value;
            return true;
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    /// Stores @p value under @p key. Lossy: if another writer holds the
    /// target slot the insert is dropped (counted as a race) — never blocks,
    /// and dropping is safe because the caller already computed the value.
    void insert(const std::uint64_t* key, std::size_t len, double value) {
        if (!enabled() || len == 0 || len > max_words_) return;
        const std::uint64_t h = hash(key, len);
        const std::uint64_t gen =
            generation_.load(std::memory_order_acquire) & kGenMask;
        const std::uint64_t tag = tag_of_hash(h);
        // Victim: first empty or stale-generation slot in the window, or a
        // slot already publishing our tag (refresh); otherwise overwrite the
        // window's first slot — bounded displacement, no aging under
        // concurrency.
        std::size_t victim = probe_slot(h, 0);
        for (std::size_t p = 0; p < kProbeWindow; ++p) {
            const std::size_t s = probe_slot(h, p);
            const std::uint64_t t =
                tag_gen_[s].load(std::memory_order_relaxed);
            if (t & kBusyBit) continue;
            if (seq_of(t) == 0 || gen_of(t) != gen || tag_of(t) == tag) {
                victim = s;
                break;
            }
        }
        std::uint64_t cur = tag_gen_[victim].load(std::memory_order_relaxed);
        if (cur & kBusyBit) {
            races_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Claim the slot; a lost CAS means another writer got here first —
        // drop (lossy). The release body stores below keep the claim ordered
        // before every body word, which is what lets a reader that sees any
        // new word also see the claim (see lookup).
        if (!tag_gen_[victim].compare_exchange_strong(
                cur, cur | kBusyBit, std::memory_order_acquire,
                std::memory_order_relaxed)) {
            races_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        len_[victim].store(len, std::memory_order_release);
        std::atomic<std::uint64_t>* w = words_.get() + victim * max_words_;
        for (std::size_t i = 0; i < len; ++i)
            w[i].store(key[i], std::memory_order_release);
        std::uint64_t bits;
        std::memcpy(&bits, &value, sizeof bits);
        value_[victim].store(bits, std::memory_order_release);
        // Publish: busy bit cleared, write sequence advanced (skipping 0,
        // which is reserved for never-published), tag and generation set.
        tag_gen_[victim].store(pack(next_seq(seq_of(cur)), tag, gen),
                               std::memory_order_release);
    }

    /// Drops every entry in O(1) by bumping the global generation; the
    /// statistics are kept (invalidations are part of the hit/miss
    /// story). Safe to call concurrently with lookups/inserts: an insert
    /// that raced the bump may land with the old generation, where it is
    /// unreachable — exactly as if it had been dropped.
    void invalidate() { generation_.fetch_add(1, std::memory_order_acq_rel); }

    Stats stats() const {
        return Stats{hits_.load(std::memory_order_relaxed),
                     misses_.load(std::memory_order_relaxed),
                     races_.load(std::memory_order_relaxed)};
    }

private:
    static constexpr std::size_t kProbeWindow = 8;
    static constexpr std::size_t kDefaultShards = 16;
    static constexpr std::uint64_t kBusyBit = 1ull << 63;
    static constexpr std::uint64_t kGenMask = 0xFFFFFFFFull;
    static constexpr std::uint64_t kSeqMask = 0x7FFFull;
    static constexpr std::uint64_t kTagMask = 0xFFFFull;

    static std::uint64_t seq_of(std::uint64_t t) { return (t >> 48) & kSeqMask; }
    static std::uint64_t tag_of(std::uint64_t t) { return (t >> 32) & kTagMask; }
    static std::uint64_t gen_of(std::uint64_t t) { return t & kGenMask; }
    static std::uint64_t tag_of_hash(std::uint64_t h) {
        return (h >> 32) & kTagMask;
    }
    static std::uint64_t next_seq(std::uint64_t seq) {
        const std::uint64_t n = (seq + 1) & kSeqMask;
        return n == 0 ? 1 : n;
    }
    static std::uint64_t pack(std::uint64_t seq, std::uint64_t tag,
                              std::uint64_t gen) {
        return (seq << 48) | (tag << 32) | gen;
    }
    static std::size_t round_up_pow2(std::size_t v) {
        std::size_t p = 1;
        while (p < v) p <<= 1;
        return p;
    }

    static std::uint64_t hash(const std::uint64_t* key, std::size_t len) {
        // FNV-1a over the words, then a murmur3 finalizer. The finalizer is
        // load-bearing: FNV's multiply only carries bit differences upward,
        // so two keys differing in the top bits of one word (e.g. only in a
        // double's exponent, like a τ ladder) share every low hash bit —
        // identical slot, shard and tag, and the entries evict each other.
        // fmix64's shift-xor steps diffuse high bits back down.
        std::uint64_t h = 1469598103934665603ull;
        for (std::size_t i = 0; i < len; ++i) {
            h ^= key[i];
            h *= 1099511628211ull;
        }
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ull;
        h ^= h >> 33;
        return h;
    }

    /// Shard from the hash's top bits, in-shard base from its low bits, so
    /// the two selections stay independent of each other and of the 16-bit
    /// tag (bits 32..47).
    std::size_t probe_slot(std::uint64_t h, std::size_t p) const {
        const std::size_t shard =
            static_cast<std::size_t>(h >> 48) & (shards_ - 1);
        const std::size_t base =
            static_cast<std::size_t>(h) & (slots_per_shard_ - 1);
        return shard * slots_per_shard_ +
               ((base + p) & (slots_per_shard_ - 1));
    }

    std::size_t shards_ = 0;
    std::size_t slots_per_shard_ = 0;
    std::size_t total_slots_ = 0;
    std::size_t max_words_ = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> tag_gen_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> len_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> value_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
    std::atomic<std::uint64_t> generation_{0};
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> races_{0};
};

}  // namespace hp::core
