// Host-side readings every run records next to its metrics: the noise a
// shared virtual machine adds (steal time, CPU time against wall time) and
// the build that produced the numbers.  None of them is gated on.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Monotonic wall clock in seconds.
double wall_seconds();

/// CPU seconds (user + system) this process has used so far.
double process_cpu_seconds();

/// Steal jiffies summed over all CPUs, from the "cpu" line of /proc/stat
/// (-1 when the file cannot be read).
std::int64_t steal_jiffies();

/// Peak resident set size of this process in MiB (VmHWM), -1 if unknown.
double peak_rss_mib();

/// One-line JSON object with the run's host record: steal jiffies spent
/// since `steal_at_start`, process CPU seconds, wall seconds, nproc,
/// compiler and build type.
std::string host_record_json(std::int64_t steal_at_start, double wall_s);

}  // namespace perfbench
