// ConcurrentPeakCache: the one prediction cache, shared by the advice
// server's worker pool (DESIGN.md §9.3, §13), and the power quantisation its
// keys rely on. The stress tests here are the body of the CI server-soak
// job's TSan leg: every shared access in the cache is a std::atomic, so a
// data-race report from any interleaving is a real bug.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "core/peak_cache.hpp"

namespace {

using hp::core::CacheKey;
using hp::core::ConcurrentPeakCache;

// The pure-function-of-key contract: a cache may only memoise values
// derivable from the key alone, which is what makes every race benign. The
// tests insert f(key) and demand that every hit equals it exactly.
double value_of(std::uint64_t a, std::uint64_t b) {
    return static_cast<double>((a * 2654435761ull + b) & 0xFFFFFull) * 0.5;
}

TEST(QuantisePower, ExactBinaryGridAndIdempotence) {
    // 2^-10 W grid: grid points round-trip exactly.
    EXPECT_EQ(hp::core::quantise_power_w(0.0), 0.0);
    EXPECT_EQ(hp::core::quantise_power_w(1.0), 1.0);
    EXPECT_EQ(hp::core::quantise_power_w(3.0 / 1024.0), 3.0 / 1024.0);
    // Off-grid values land on the nearest grid point…
    const double q = hp::core::quantise_power_w(2.3456789);
    EXPECT_NEAR(q, 2.3456789, 0.5 / 1024.0);
    // …and quantisation is idempotent (the property the cache key relies on).
    EXPECT_EQ(hp::core::quantise_power_w(q), q);
    // llround never produces -0.0, so keys of "zero watts" are unambiguous.
    EXPECT_FALSE(std::signbit(hp::core::quantise_power_w(-1e-12)));
}

CacheKey make_key(std::uint64_t a, std::uint64_t b) {
    CacheKey key;
    key.push(a);
    key.push(b);
    return key;
}

TEST(ConcurrentCacheTest, InsertLookupRoundTrip) {
    ConcurrentPeakCache cache;
    cache.configure(256, 8);
    EXPECT_TRUE(cache.enabled());

    const CacheKey key = make_key(1, 2);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
    cache.insert(key.data(), key.size(), 42.5);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 42.5);

    const CacheKey other = make_key(3, 4);
    EXPECT_FALSE(cache.lookup(other.data(), other.size(), &value));

    const ConcurrentPeakCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST(ConcurrentCacheTest, DisabledCacheAlwaysMisses) {
    ConcurrentPeakCache cache;  // never configured
    const CacheKey key = make_key(1, 2);
    double value = 0.0;
    cache.insert(key.data(), key.size(), 1.0);
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));

    cache.configure(256, 8);
    cache.insert(key.data(), key.size(), 1.0);
    EXPECT_TRUE(cache.lookup(key.data(), key.size(), &value));
    cache.configure(0, 8);  // explicit disable drops storage
    EXPECT_FALSE(cache.enabled());
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
}

TEST(ConcurrentCacheTest, OversizeKeyIsNotCacheable) {
    ConcurrentPeakCache cache;
    cache.configure(256, /*max_key_words=*/2);
    CacheKey key;
    for (std::uint64_t i = 0; i < 3; ++i) key.push(i + 1);
    double value = 0.0;
    cache.insert(key.data(), key.size(), 7.0);
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
}

// The PR's O(1) invalidation contract, concurrent-cache side: a generation
// bump makes every prior entry unreachable, with no per-slot work.
TEST(ConcurrentCacheTest, GenerationBumpDropsEveryEntry) {
    ConcurrentPeakCache cache;
    cache.configure(1024, 4);
    for (std::uint64_t i = 0; i < 200; ++i) {
        const CacheKey key = make_key(i, i + 1);
        cache.insert(key.data(), key.size(), value_of(i, i + 1));
    }
    double value = 0.0;
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const CacheKey key = make_key(i, i + 1);
        if (cache.lookup(key.data(), key.size(), &value)) ++hits;
    }
    EXPECT_GT(hits, 0u);

    cache.invalidate();
    for (std::uint64_t i = 0; i < 200; ++i) {
        const CacheKey key = make_key(i, i + 1);
        EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value))
            << "stale hit survived the generation bump for key " << i;
    }

    // Stale-generation slots are recycled: inserts work again afterwards.
    const CacheKey key = make_key(9999, 1);
    cache.insert(key.data(), key.size(), 3.25);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 3.25);
}

// Lossy overwrite under deliberate capacity pressure: hits may become
// misses, but a hit can never return a value that does not belong to the
// queried key.
TEST(ConcurrentCacheTest, CollisionsNeverCorruptValues) {
    ConcurrentPeakCache cache;
    cache.configure(/*entries=*/16, /*max_key_words=*/2, /*shards=*/1);
    const std::uint64_t keys = 4096;
    for (std::uint64_t i = 0; i < keys; ++i) {
        const CacheKey key = make_key(i, i * 3);
        cache.insert(key.data(), key.size(), value_of(i, i * 3));
    }
    std::size_t hits = 0;
    for (std::uint64_t i = 0; i < keys; ++i) {
        const CacheKey key = make_key(i, i * 3);
        double value = 0.0;
        if (cache.lookup(key.data(), key.size(), &value)) {
            ++hits;
            EXPECT_EQ(value, value_of(i, i * 3)) << "wrong value for key " << i;
        }
    }
    EXPECT_LT(hits, keys);  // far over capacity: most entries were displaced
}

// The server-soak stress: 32 threads of mixed insert/lookup/invalidate over
// a deliberately small cache. Correctness bar: every hit equals f(key)
// bit-exactly, and the hit/miss counters account for every lookup. Run
// under TSan by the server-soak CI job.
TEST(ConcurrentCacheTest, StressMixedInsertLookupInvalidate) {
    ConcurrentPeakCache cache;
    cache.configure(/*entries=*/512, /*max_key_words=*/4, /*shards=*/4);

    const std::size_t threads = 32;
    const std::size_t iterations = 20000;
    const std::uint64_t key_space = 1024;
    std::atomic<std::uint64_t> wrong_hits{0};
    std::atomic<std::uint64_t> lookups{0};

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::mt19937_64 rng(t + 1);
            CacheKey key;
            std::uint64_t my_lookups = 0;
            for (std::size_t i = 0; i < iterations; ++i) {
                const std::uint64_t a = rng() % key_space;
                const std::uint64_t b = rng() % 7;
                key.clear();
                key.push(a);
                key.push(b);
                const std::uint64_t op = rng() % 16;
                if (op == 0 && t == 0) {
                    // One thread occasionally drops everything; hits before
                    // and after remain pure functions of the key.
                    cache.invalidate();
                } else if (op < 8) {
                    cache.insert(key.data(), key.size(), value_of(a, b));
                } else {
                    double value = 0.0;
                    ++my_lookups;
                    if (cache.lookup(key.data(), key.size(), &value) &&
                        value != value_of(a, b))
                        wrong_hits.fetch_add(1, std::memory_order_relaxed);
                }
            }
            lookups.fetch_add(my_lookups, std::memory_order_relaxed);
        });
    }
    for (std::thread& worker : pool) worker.join();

    EXPECT_EQ(wrong_hits.load(), 0u);
    const ConcurrentPeakCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups.load());
    EXPECT_GT(stats.hits, 0u);
}

// --- single-shard semantics --------------------------------------------------
//
// One shard, a CacheKey cleared and refilled per query, configure(0, 0) for a
// disabled cache: the single-threaded unit semantics every caller relies on.

TEST(PredictionCache, MissThenHitWithExactKeyMatch) {
    ConcurrentPeakCache cache;
    cache.configure(16, 4, /*shards=*/1);
    ASSERT_TRUE(cache.enabled());

    CacheKey key;
    key.push(std::uint64_t{42});
    key.push(1.5);
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
    cache.insert(key.data(), key.size(), 73.25);
    EXPECT_EQ(cache.stats().misses, 1u);

    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 73.25);
    EXPECT_EQ(cache.stats().hits, 1u);

    // One different word → different key → miss.
    key.clear();
    key.push(std::uint64_t{43});
    key.push(1.5);
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
    // A prefix of a stored key is not a match either.
    key.clear();
    key.push(std::uint64_t{42});
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
}

TEST(PredictionCache, InvalidateDropsEntriesKeepsStats) {
    ConcurrentPeakCache cache;
    cache.configure(8, 2, /*shards=*/1);
    CacheKey key;
    key.push(std::uint64_t{7});
    double value = 0.0;
    cache.insert(key.data(), key.size(), 1.0);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(cache.stats().hits, 1u);

    cache.invalidate();
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value))
        << "entry survived invalidate()";
    EXPECT_EQ(cache.stats().hits, 1u) << "stats must survive invalidate()";
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PredictionCache, GenerationBumpLeavesNoStaleHitsBehind) {
    // invalidate() is an O(1) generation bump — no slot is cleared. The
    // regression bar: no key inserted before a bump may ever hit after it,
    // across repeated bumps and slot reuse, because a stale hit would let a
    // prediction made before an invalidation outlive it.
    ConcurrentPeakCache cache;
    cache.configure(16, 2, /*shards=*/1);  // smaller than the key set
    CacheKey key;
    double value = 0.0;
    for (std::uint64_t round = 0; round < 5; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k) {
            key.clear();
            key.push(k);
            key.push(round);
            cache.insert(key.data(), key.size(), double(round * 1000 + k));
        }
        cache.invalidate();
        for (std::uint64_t k = 0; k < 64; ++k) {
            key.clear();
            key.push(k);
            key.push(round);
            EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value))
                << "stale hit for key " << k << " survived bump " << round;
        }
    }
    // Stale-generation slots are preferred insert victims: the cache keeps
    // serving after any number of bumps.
    key.clear();
    key.push(std::uint64_t{7});
    cache.insert(key.data(), key.size(), 42.0);
    ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value));
    EXPECT_EQ(value, 42.0);
}

TEST(PredictionCache, OversizeKeysAndDisabledCacheAreSafeNoOps) {
    ConcurrentPeakCache cache;
    cache.configure(4, 2, /*shards=*/1);
    CacheKey key;
    for (std::uint64_t i = 0; i < 3; ++i) key.push(i);  // 3 > 2 words
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));
    cache.insert(key.data(), key.size(), 9.0);  // dropped, not stored
    EXPECT_FALSE(cache.lookup(key.data(), key.size(), &value));

    ConcurrentPeakCache off;
    off.configure(0, 0);  // the disabled configuration
    EXPECT_FALSE(off.enabled());
    key.clear();
    key.push(std::uint64_t{1});
    EXPECT_FALSE(off.lookup(key.data(), key.size(), &value));
    off.insert(key.data(), key.size(), 1.0);  // no-op, must not crash
    EXPECT_FALSE(off.lookup(key.data(), key.size(), &value));
}

TEST(PredictionCache, EvictionKeepsServingUnderPressure) {
    // A tiny cache and a 256-entry one, each fed 16× its capacity:
    // inserts must evict, and the most recent key is always resident.
    for (const std::size_t entries : {4u, 256u}) {
        ConcurrentPeakCache cache;
        cache.configure(entries, 1, /*shards=*/1);
        CacheKey key;
        double value = 0.0;
        const std::uint64_t keys = 16 * entries;
        for (std::uint64_t k = 0; k < keys; ++k) {
            key.clear();
            key.push(k);
            if (!cache.lookup(key.data(), key.size(), &value))
                cache.insert(key.data(), key.size(), double(k));
        }
        key.clear();
        key.push(keys - 1);
        ASSERT_TRUE(cache.lookup(key.data(), key.size(), &value))
            << entries << " entries";
        EXPECT_EQ(value, double(keys - 1));
    }
}

}  // namespace
