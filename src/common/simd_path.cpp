#include "carbon/common/simd_path.hpp"

#include <atomic>

namespace carbon::common::simd {

namespace {

// -1 until the first use resolves the path.
std::atomic<int>& active_slot() noexcept {
  static std::atomic<int> slot{-1};
  return slot;
}

[[nodiscard]] Path resolve(std::string_view request) noexcept {
  if (request == "scalar") return Path::kScalar;
  // "avx2" and "auto" both take AVX2 when it is actually available; an
  // explicit "avx2" on an unsupported machine degrades to scalar rather than
  // crashing, and path_name() shows it.
  return avx2_available() ? Path::kAvx2 : Path::kScalar;
}

}  // namespace

Path active_path() noexcept {
  int p = active_slot().load(std::memory_order_acquire);
  if (p < 0) {
    // A benign race resolves to the same path on every thread.
    p = static_cast<int>(resolve("auto"));
    active_slot().store(p, std::memory_order_release);
  }
  return static_cast<Path>(p);
}

const char* path_name() noexcept {
  return active_path() == Path::kAvx2 ? "avx2" : "scalar";
}

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool avx2_available() noexcept {
#if defined(CARBON_SIMD_AVX2)
  return cpu_supports_avx2();
#else
  return false;
#endif
}

Path select_path(Path path) noexcept {
  return select_path(path == Path::kAvx2 ? "avx2" : "scalar");
}

Path select_path(std::string_view name) noexcept {
  const Path p = resolve(name);
  active_slot().store(static_cast<int>(p), std::memory_order_release);
  return p;
}

}  // namespace carbon::common::simd
