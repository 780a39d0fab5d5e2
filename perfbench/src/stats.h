#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of raw samples: the smallest sample such that
// at least a fraction `q` (0 < q <= 1) of all samples are at or below
// it. Never interpolates and never reads histogram buckets, so a
// reported p50 is always a latency some request actually had. Returns
// 0 for no samples.
double Percentile(std::vector<double> samples, double q);

// How many of `n` samples lie strictly beyond the nearest-rank
// `q`-percentile position (n - ceil(q * n)). A p99 is only reported as
// trustworthy when this is at least 10.
size_t SamplesBeyond(size_t n, double q);

// 64-bit FNV-1a of `text`: the fingerprint answers are compared by.
uint64_t Fingerprint(std::string_view text);

// The part of an answer a user reads and a reference must reproduce: the
// extensional table followed by the intensional prose, minus the
// "  rewrite: ..." plan annotations the semantic optimizer adds (the
// references are computed with the optimizer off, and a rewrite never
// changes the answer itself).
std::string CanonicalAnswer(const std::string& table,
                            const std::string& prose);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
