#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/benchmark.hpp"
#include "workload/generator.hpp"

namespace hp::workload {

/// Text formats for user-defined workloads, so downstream users can describe
/// benchmarks and task mixes without recompiling.
///
/// Benchmark profile format (one directive per line; the shared input rules
/// of src/textio apply):
///
///     benchmark <name>
///     threads <default_thread_count>
///     phase <label> <master_Minstr> <worker_Minstr> <cpi> <apki> <watts> [miss_ratio]
///     phase ...
///     end
///
/// Instruction budgets are given in millions. Several `benchmark` blocks may
/// appear in one file.
///
/// Task-list format (one task per line):
///
///     task <benchmark-name> <threads> <arrival_seconds>
///
/// Task lines resolve benchmark names against the profiles passed in (plus
/// the built-in PARSEC set).

/// Parses benchmark profile blocks from @p in; @p source_name labels
/// diagnostics.
std::vector<BenchmarkProfile> read_profiles(
    std::istream& in, const std::string& source_name = "<stream>");
std::vector<BenchmarkProfile> read_profiles_file(const std::string& path);

/// Writes @p profiles in the same format (round-trips with read_profiles).
void write_profiles(std::ostream& out,
                    const std::vector<BenchmarkProfile>& profiles);

/// Parses a task list; benchmark names are resolved against @p profiles
/// first, then the built-in PARSEC profiles. The returned TaskSpecs point
/// into @p profiles / the built-in set, which must outlive them. Unknown
/// benchmark names are rejected like malformed lines.
std::vector<TaskSpec> read_tasks(std::istream& in,
                                 const std::vector<BenchmarkProfile>& profiles,
                                 const std::string& source_name = "<stream>");
std::vector<TaskSpec> read_tasks_file(
    const std::string& path, const std::vector<BenchmarkProfile>& profiles);

/// Writes @p tasks in the same format (round-trips with read_tasks).
void write_tasks(std::ostream& out, const std::vector<TaskSpec>& tasks);

}  // namespace hp::workload
