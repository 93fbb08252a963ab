// Sustained-load benchmark of the thermal-advice server (DESIGN.md §13).
//
// Brings a real AdviceServer up on a Unix-domain socket (8 workers, 64- and
// 256-core configs, shared concurrent prediction cache) and drives it from
// 1, 8 and 32 blocking client threads cycling a deterministic request mix.
// Reported per leg: sustained qps (ns_per_op = wall ns per answered
// request) and, from the 8-client leg, the client-observed p99 latency
// (ns_per_op of the `server_p99_us` case = p99 in nanoseconds). Cache
// hit/miss/race totals are printed for context.
//
// allocs_per_op is reported as 0.0 by design: request handling allocates
// only inside worker-owned buffers that amortise to zero, and a cross-thread
// allocation gate would be flaky — the regression gate for this benchmark is
// time-only (scripts/check_bench.py, --server-tolerance).
//
// Emits BENCH_server.json (--out PATH overrides); --smoke cuts request
// counts for the tier-1 ctest invocation. Schema matches bench_hotpath so
// check_bench.py can gate both files in one invocation.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "server/client.hpp"
#include "server/server.hpp"


namespace {

using Clock = std::chrono::steady_clock;
using namespace hp::server;

struct Case {
    std::string name;
    double ns_per_op = 0.0;
    double allocs_per_op = 0.0;
    double ops = 0.0;
};

std::vector<Case> g_cases;

/// Deterministic request mix over both served configs: light loads that stay
/// static, saturating loads that walk the τ ladder, and explicit grids.
std::vector<AdviceRequest> request_pool() {
    std::vector<AdviceRequest> pool;
    const auto add = [&](const char* config, std::vector<double> powers,
                         std::vector<double> taus = {}) {
        AdviceRequest request;
        request.config = config;
        request.thread_power_w = std::move(powers);
        request.tau_grid_s = std::move(taus);
        pool.push_back(std::move(request));
    };
    add("paper_64core", {1.0, 1.5, 2.0, 2.5});
    add("paper_64core", std::vector<double>(32, 2.0));
    add("paper_64core", std::vector<double>(64, 3.0));
    add("paper_64core", {6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0},
        {0.25e-3, 0.5e-3, 1e-3});
    add("paper_256core", std::vector<double>(16, 2.5));
    add("paper_256core", std::vector<double>(64, 3.5));
    return pool;
}

/// 256-core-only mix for the dedicated scale-up leg: every request lands on
/// the paper_256core bundle (truncated-modal backend), so the leg isolates
/// the large-config serving cost from the mixed pool above.
std::vector<AdviceRequest> request_pool_256() {
    std::vector<AdviceRequest> pool;
    const auto add = [&](std::vector<double> powers,
                         std::vector<double> taus = {}) {
        AdviceRequest request;
        request.config = "paper_256core";
        request.thread_power_w = std::move(powers);
        request.tau_grid_s = std::move(taus);
        pool.push_back(std::move(request));
    };
    add(std::vector<double>(16, 2.5));
    add(std::vector<double>(64, 3.5));
    add(std::vector<double>(128, 2.0));
    add(std::vector<double>(8, 6.0), {0.25e-3, 0.5e-3, 1e-3});
    return pool;
}

struct LegResult {
    double wall_s = 0.0;
    double qps = 0.0;
    std::vector<double> latency_ns;  ///< every request, unsorted
};

/// One load leg: @p clients threads, each its own connection, each issuing
/// @p per_client requests round-robin over the pool (offset by client index
/// so concurrent clients are never in lockstep).
LegResult run_leg(const std::string& socket, std::size_t clients,
                  std::size_t per_client,
                  const std::vector<AdviceRequest>& pool) {
    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto start = Clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            AdviceClient client(socket);
            std::vector<double>& mine = latencies[c];
            mine.reserve(per_client);
            for (std::size_t r = 0; r < per_client; ++r) {
                const AdviceRequest& request = pool[(c + r) % pool.size()];
                const auto t0 = Clock::now();
                (void)client.query(request);
                mine.push_back(std::chrono::duration<double, std::nano>(
                                   Clock::now() - t0)
                                   .count());
            }
        });
    }
    for (std::thread& t : threads) t.join();
    LegResult leg;
    leg.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    const double total = static_cast<double>(clients * per_client);
    leg.qps = total / leg.wall_s;
    for (std::vector<double>& mine : latencies)
        leg.latency_ns.insert(leg.latency_ns.end(), mine.begin(), mine.end());
    return leg;
}

double percentile_ns(std::vector<double> latencies, double q) {
    if (latencies.empty()) return 0.0;
    std::sort(latencies.begin(), latencies.end());
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1));
    return latencies[rank];
}

void write_json(const std::string& path, bool smoke) {
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"bench_server\",\n  \"mode\": \""
        << (smoke ? "smoke" : "full") << "\",\n";
    hp::bench::write_provenance(out);
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < g_cases.size(); ++i) {
        const Case& c = g_cases[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                      "\"allocs_per_op\": %.3f, \"ops\": %.0f}%s\n",
                      c.name.c_str(), c.ns_per_op, c.allocs_per_op, c.ops,
                      i + 1 < g_cases.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n}\n";
    std::printf("\n  wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_server.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    hp::bench::print_header(
        "Advice-server benchmark: sustained qps and tail latency",
        "request-serving throughput tracking (BENCH_server.json)");

    ServerConfig config;
    config.socket_path =
        "/tmp/hp_bench_server_" + std::to_string(::getpid()) + ".sock";
    config.threads = 8;
    config.configs = {"paper_64core", "paper_256core"};

    std::printf("\n  building bundles (64- and 256-core)...\n");
    const auto setup_start = Clock::now();
    AdviceServer server(config);
    std::printf("  server up in %.2f s: %zu workers, cache %zu entries\n",
                std::chrono::duration<double>(Clock::now() - setup_start)
                    .count(),
                config.threads, config.cache_entries);

    const std::vector<AdviceRequest> pool = request_pool();
    const std::size_t per_client = smoke ? 25 : 500;

    // Warm the caches and the τ ladder once so every leg measures
    // steady-state serving, not first-touch evaluation.
    run_leg(config.socket_path, 1, pool.size(), pool);

    std::vector<double> p99_pool_ns;
    for (const std::size_t clients : {std::size_t{1}, std::size_t{8},
                                      std::size_t{32}}) {
        const LegResult leg =
            run_leg(config.socket_path, clients, per_client, pool);
        Case c;
        c.name = "server_qps_" + std::to_string(clients) +
                 (clients == 1 ? "client" : "clients");
        c.ns_per_op = 1e9 / leg.qps;  // wall ns per answered request
        c.ops = static_cast<double>(clients * per_client);
        std::printf(
            "  %-28s %10.0f qps %12.0f ns/req  p50 %7.0f us  p99 %7.0f us\n",
            c.name.c_str(), leg.qps, c.ns_per_op,
            percentile_ns(leg.latency_ns, 0.50) / 1e3,
            percentile_ns(leg.latency_ns, 0.99) / 1e3);
        g_cases.push_back(std::move(c));
        if (clients == 8) p99_pool_ns = leg.latency_ns;
    }

    // Tail latency from the 8-client leg (the gated configuration):
    // ns_per_op carries the p99 in nanoseconds so the shared tooling's
    // ns-based comparison applies unchanged.
    Case p99;
    p99.name = "server_p99_us";
    p99.ns_per_op = percentile_ns(p99_pool_ns, 0.99);
    p99.ops = static_cast<double>(p99_pool_ns.size());
    std::printf("  %-28s %10.1f us\n", p99.name.c_str(),
                p99.ns_per_op / 1e3);
    g_cases.push_back(std::move(p99));

    // Dedicated 256-core leg: 8 clients, every request on the paper_256core
    // bundle — the batched modal hot path end to end through advise().
    {
        const std::vector<AdviceRequest> pool256 = request_pool_256();
        run_leg(config.socket_path, 1, pool256.size(), pool256);  // warm-up
        const std::size_t clients = 8;
        const LegResult leg =
            run_leg(config.socket_path, clients, per_client, pool256);
        Case c;
        c.name = "server_qps_256core";
        c.ns_per_op = 1e9 / leg.qps;
        c.ops = static_cast<double>(clients * per_client);
        std::printf(
            "  %-28s %10.0f qps %12.0f ns/req  p50 %7.0f us  p99 %7.0f us\n",
            c.name.c_str(), leg.qps, c.ns_per_op,
            percentile_ns(leg.latency_ns, 0.50) / 1e3,
            percentile_ns(leg.latency_ns, 0.99) / 1e3);
        g_cases.push_back(std::move(c));
        Case p99_256;
        p99_256.name = "server_p99_256core_us";
        p99_256.ns_per_op = percentile_ns(leg.latency_ns, 0.99);
        p99_256.ops = static_cast<double>(leg.latency_ns.size());
        std::printf("  %-28s %10.1f us\n", p99_256.name.c_str(),
                    p99_256.ns_per_op / 1e3);
        g_cases.push_back(std::move(p99_256));
    }

    // Cache effectiveness, for the log and the JSON reader's context.
    std::uint64_t hits = 0, misses = 0, races = 0;
    const hp::obs::MetricsSnapshot snapshot = server.metrics();
    for (const auto& counter : snapshot.counters) {
        if (counter.name == "server.cache_hits") hits = counter.value;
        if (counter.name == "server.cache_misses") misses = counter.value;
        if (counter.name == "server.cache_races") races = counter.value;
    }
    const double lookups = static_cast<double>(hits + misses);
    std::printf(
        "  cache: %llu hits / %llu misses / %llu races (%.1f%% hit rate), "
        "%llu requests served\n",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(races),
        lookups > 0 ? 100.0 * static_cast<double>(hits) / lookups : 0.0,
        static_cast<unsigned long long>(server.requests_served()));

    server.stop();
    write_json(out_path, smoke);
    return 0;
}
