#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  std::int64_t fields[8] = {};
  if (!(stat >> label) || label != "cpu") return -1;
  for (std::int64_t& field : fields) {
    if (!(stat >> field)) return -1;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return -1;
}

std::string host_record_json(std::int64_t steal_at_start, double wall_s) {
  const std::int64_t steal_now = steal_jiffies();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"steal_jiffies\": %lld, \"cpu_s\": %.4f, \"wall_s\": %.4f, "
                "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\"}",
                static_cast<long long>(
                    steal_now < 0 || steal_at_start < 0 ? -1
                                                        : steal_now - steal_at_start),
                process_cpu_seconds(), wall_s, sysconf(_SC_NPROCESSORS_ONLN),
                __VERSION__, PERFBENCH_BUILD_TYPE);
  return buf;
}

}  // namespace perfbench
