#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>

#include "campaign/campaign.hpp"
#include "campaign/study_setup.hpp"
#include "exec/exec.hpp"
#include "exec/topology.hpp"
#include "linalg/simd.hpp"

// Provenance baked in by bench/CMakeLists.txt for the benches that write a
// BENCH JSON; harmless fallbacks keep every other bench compilable.
#ifndef HP_BENCH_GIT_SHA
#define HP_BENCH_GIT_SHA "unknown"
#endif
#ifndef HP_BENCH_BUILD_TYPE
#define HP_BENCH_BUILD_TYPE "unknown"
#endif

namespace hp::bench {

/// Shared paper machines; built once per benchmark binary. The returned
/// setup is immutable and thread-safe, so one instance backs every
/// (possibly parallel) campaign a bench runs — see campaign::StudySetup.
inline const campaign::StudySetup& testbed_16core() {
    static const campaign::StudySetup t = campaign::StudySetup::paper_16core();
    return t;
}

inline const campaign::StudySetup& testbed_64core() {
    static const campaign::StudySetup t = campaign::StudySetup::paper_64core();
    return t;
}

inline const campaign::StudySetup& testbed_256core() {
    static const campaign::StudySetup t = campaign::StudySetup::paper_256core();
    return t;
}

/// 32x32 scale-up machine (2049 thermal nodes). Setup runs a full
/// eigendecomposition, so benches should only touch this in full mode.
inline const campaign::StudySetup& testbed_1024core() {
    static const campaign::StudySetup t =
        campaign::StudySetup::paper_1024core();
    return t;
}

inline void print_header(const char* title, const char* paper_ref) {
    std::printf("\n=============================================================================\n");
    std::printf("%s\n", title);
    std::printf("  reproduces: %s\n", paper_ref);
    std::printf("=============================================================================\n");
}

/// Command line of the JSON-emitting benches (bench_hotpath, bench_server).
struct JsonBenchArgs {
    bool smoke = false;
    std::string out_path;
};

/// Parses `[--smoke] [--out PATH] [--help]` into @p args (out_path starts
/// as @p default_out). Returns -1 when the bench should run; otherwise the
/// exit code main must return without running or writing anything: 0 for
/// --help (usage on stdout), 2 for an unknown argument or a missing PATH
/// (the error and usage on stderr) — so a mistyped flag can never start a
/// full run that overwrites a committed baseline.
inline int parse_json_bench_args(int argc, char** argv,
                                 const char* default_out,
                                 JsonBenchArgs& args) {
    args.out_path = default_out;
    const auto usage = [&](std::FILE* to) {
        std::fprintf(to,
                     "usage: %s [--smoke] [--out PATH]\n"
                     "  --smoke     tiny repetition counts (the ctest run)\n"
                     "  --out PATH  JSON output (default %s)\n"
                     "  --help      print this and exit\n",
                     argv[0], default_out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            args.out_path = argv[++i];
        } else if (arg == "--help") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                         arg == "--out" ? "missing PATH after"
                                        : "unknown argument",
                         argv[i]);
            usage(stderr);
            return 2;
        }
    }
    return -1;
}

/// Worker-thread count for bench campaigns: the value of a "--jobs N"
/// argument when present, else @p fallback (0 = one worker per hardware
/// thread, the bench default — results are deterministic at any value).
inline std::size_t jobs_from_args(int argc, char** argv,
                                  std::size_t fallback = 0) {
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--jobs")
            return static_cast<std::size_t>(std::strtoull(argv[i + 1],
                                                          nullptr, 10));
    return fallback;
}

/// Runs @p spec with @p jobs workers and a completion counter on stderr.
inline campaign::CampaignResult run_with_progress(
    const campaign::CampaignSpec& spec, std::size_t jobs) {
    campaign::CampaignOptions options;
    options.jobs = jobs;
    options.progress = [](const campaign::RunRecord& record, std::size_t done,
                          std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] %s (%.1f s)%s\n", done, total,
                     campaign::to_string(record.key).c_str(),
                     record.wall_time_s, record.failed ? " FAILED" : "");
    };
    return campaign::run_campaign(spec, options);
}

/// First "model name" line of /proc/cpuinfo, or "unknown" off-Linux.
inline std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        std::size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
    }
    return "unknown";
}

inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

inline std::string compiler_id() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// Writes the `"provenance": {...}` member of a BENCH JSON (bench_hotpath
/// and bench_server share the schema). scripts/check_bench.py warns when a
/// comparison crosses machines, SIMD dispatch tiers, build types, host
/// topology or pin policy, and when a server_qps_Nclients case ran more
/// clients than the host has hardware threads.
inline void write_provenance(std::ostream& out) {
    using linalg::simd::active_tier;
    using linalg::simd::tier_name;
    const exec::Topology topo = exec::discover_topology();
    const std::size_t cpus_per_node =
        topo.nodes.empty() ? 0 : topo.nodes.front().cpus.size();
    exec::ExecPolicy policy;
    policy.apply_env_overrides();
    out << "  \"provenance\": {\n"
        << "    \"git_sha\": \"" << json_escape(HP_BENCH_GIT_SHA) << "\",\n"
        << "    \"compiler\": \"" << json_escape(compiler_id()) << "\",\n"
        << "    \"build_type\": \"" << json_escape(HP_BENCH_BUILD_TYPE)
        << "\",\n"
        << "    \"cpu\": \"" << json_escape(cpu_model()) << "\",\n"
        << "    \"numa_nodes\": " << topo.node_count() << ",\n"
        << "    \"cpus_per_node\": " << cpus_per_node << ",\n"
        << "    \"hardware_threads\": "
        << std::thread::hardware_concurrency() << ",\n"
        << "    \"pin_policy\": \"" << exec::to_string(policy.pin) << "\",\n"
        << "    \"dispatch\": \"" << tier_name(active_tier()) << "\"\n"
        << "  },\n";
}

}  // namespace hp::bench
