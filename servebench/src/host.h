// Host readings taken around the measured phases: hypervisor steal, CPU
// time of the process and of the calling thread, and resident memory. A
// slow host (steal) and a slow program (CPU per operation) read apart.
#pragma once

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace servebench {

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// Machine-wide steal time so far, in seconds (the `steal` column of the
/// aggregate cpu line of /proc/stat); -1 when unreadable.
inline double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.compare(0, 4, "cpu ") != 0) return -1;
  std::istringstream fields(line.substr(4));
  unsigned long long v[8] = {};
  for (auto& x : v) {
    if (!(fields >> x)) return -1;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A "VmRSS"/"VmHWM" line of /proc/self/status, in MiB; -1 when absent.
inline double StatusMiB(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) / 1024.0;  // kB
    }
  }
  return -1;
}

}  // namespace servebench
