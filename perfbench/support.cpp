// Process probes, the latency histogram and the span log (see bench.h).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

// --- process probes ----------------------------------------------------------

namespace {

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_kb("VmHWM:") * 1024.0 / 1e6; }
double current_rss_mb() { return status_kb("VmRSS:") * 1024.0 / 1e6; }

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t voluntary_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

// --- latency histogram -------------------------------------------------------

namespace {
constexpr double kHistMinUs = 0.01;
constexpr double kHistGrowth = 1.001;
const double kLogGrowth = std::log(kHistGrowth);
const auto kHistBins =
    static_cast<std::size_t>(std::log(1e8 / kHistMinUs) / kLogGrowth) + 1;
}  // namespace

Histogram::Histogram() : bins_(kHistBins, 0) {}

void Histogram::add(double us) {
  const double pos =
      us <= kHistMinUs ? 0.0 : std::log(us / kHistMinUs) / kLogGrowth;
  bins_[std::min(kHistBins - 1, static_cast<std::size_t>(pos))] += 1;
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kHistBins; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < kHistBins; ++i) {
    const auto n = static_cast<double>(bins_[i]);
    if (n > 0.0 && seen + n >= rank) {
      const double frac = std::clamp((rank - seen) / n, 0.0, 1.0);
      return kHistMinUs *
             std::exp((static_cast<double>(i) + frac) * kLogGrowth);
    }
    seen += n;
  }
  return kHistMinUs * std::exp(static_cast<double>(kHistBins) * kLogGrowth);
}

// --- spans -------------------------------------------------------------------

std::vector<SpanLog::SelfTime> SpanLog::self_times() const {
  // Children of a span share its id and name it as parent.
  std::unordered_map<std::string, std::int64_t> covered;
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) {
      if (*s.parent == '\0') continue;
      covered[std::string(s.parent) + '#' + std::to_string(s.id)] +=
          s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) {
      SelfTime& st = by_name[s.name];
      st.name = s.name;
      const auto it = covered.find(std::string(s.name) + '#' +
                                   std::to_string(s.id));
      const std::int64_t child = it == covered.end() ? 0 : it->second;
      st.total_s += static_cast<double>(s.end_ns - s.start_ns - child) * 1e-9;
      ++st.count;
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, st] : by_name) out.push_back(st);
  return out;
}

void SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id,name,parent,start_ns,end_ns\n");
  for (const auto& spans : per_thread_) {
    for (const Span& s : spans) {
      std::fprintf(f, "%llu,%s,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(s.id), s.name, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
