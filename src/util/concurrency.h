// Shared worker-count policy. Every layer that spawns a crew — batched
// queries, the serve front-ends, the parallel constructions, the benches —
// used to hand-roll the same min(requested, work, hardware_concurrency())
// clamp with the same ==0 fallback; this header is the one copy.
#pragma once

#include <cstddef>

namespace ftbfs {

// std::thread::hardware_concurrency() with its 0-means-unknown fallback to 1.
[[nodiscard]] unsigned hardware_workers();

// Sanity ceiling for an explicit --jobs request.
inline constexpr unsigned kMaxJobs = 256;

// Resolves a --jobs style knob: 0 means auto (hardware_workers(), hardware-
// clamped); explicit values are honored without the hardware clamp — the
// parallel builds are byte-identical at any job count, so oversubscribing is
// safe and the determinism tests rely on it — bounded by the number of
// independent work items and kMaxJobs.
[[nodiscard]] unsigned resolve_jobs(unsigned jobs, std::size_t work);

}  // namespace ftbfs
