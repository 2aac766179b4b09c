#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

// Readings of the host the benchmark runs on. On a virtual machine whose
// host is shared, another tenant's load shows up in the guest as steal time
// (a vCPU wanted to run and the hypervisor ran something else). Closed-loop
// latency is dominated by thread wake-ups, which steal slows several-fold,
// so the timing metrics are taken from intervals without steal.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

/// Steady-clock time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An interval is quiet when none of its CPU time was stolen. Slices with
/// even a few percent of steal ran measurably slower than steal-free ones
/// of the same run.
constexpr double kQuietSteal = 0.0;

/// Aggregate CPU tick counters from /proc/stat (zero when unreadable).
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};

inline CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  for (int i = 0; i < n; ++i) t.total += v[i];
  if (n == 8) t.steal = v[7];
  return t;
}

/// Share of the CPU time between two readings that was stolen.
inline double StealShare(const CpuTicks& from, const CpuTicks& to) {
  int64_t total = to.total - from.total;
  return total > 0 ? static_cast<double>(to.steal - from.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

/// Peak resident set size of this process, MB.
inline double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
