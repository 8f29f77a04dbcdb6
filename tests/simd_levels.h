// The SIMD dispatch levels a bit-identity test sweeps, and a scope guard
// that pins one. simd_levels() is every util::simd::Level up to what this
// CPU runs (max_supported_level()), scalar first, so a level added to the
// enum is swept by every test that uses it, with no list to update.
#pragma once

#include <vector>

#include "util/simd.h"

namespace cgx::test {

inline std::vector<util::simd::Level> simd_levels() {
  std::vector<util::simd::Level> out;
  for (int l = 0; l <= static_cast<int>(util::simd::max_supported_level());
       ++l) {
    out.push_back(static_cast<util::simd::Level>(l));
  }
  return out;
}

// Pins a dispatch level for one scope, restoring the previous level after.
class ScopedLevel {
 public:
  explicit ScopedLevel(util::simd::Level l)
      : prev_(util::simd::active_level()) {
    util::simd::set_level(l);
  }
  ~ScopedLevel() { util::simd::set_level(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  util::simd::Level prev_;
};

}  // namespace cgx::test
