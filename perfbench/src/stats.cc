#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of the q-percentile among n samples.
size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t index = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double q) {
  return n - NearestRank(n, q);
}

uint64_t Fingerprint(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string CanonicalAnswer(const std::string& table,
                            const std::string& prose) {
  static constexpr std::string_view kRewrite = "  rewrite: ";
  std::string out = table;
  out += "\n--\n";
  size_t pos = 0;
  while (pos < prose.size()) {
    size_t end = prose.find('\n', pos);
    end = end == std::string::npos ? prose.size() : end + 1;
    std::string_view line(prose.data() + pos, end - pos);
    if (line.substr(0, kRewrite.size()) != kRewrite) out += line;
    pos = end;
  }
  return out;
}

}  // namespace perfbench
