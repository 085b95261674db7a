#include "util/concurrency.h"

#include <algorithm>
#include <thread>

namespace ftbfs {

unsigned hardware_workers() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1u : hardware;
}

unsigned resolve_jobs(unsigned jobs, std::size_t work) {
  const unsigned requested =
      jobs == 0 ? hardware_workers() : std::min(jobs, kMaxJobs);
  return static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(requested, work)));
}

}  // namespace ftbfs
