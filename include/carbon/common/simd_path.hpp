// The one runtime switch between the portable kernels and the AVX2 kernels.
//
// Two layers carry an AVX2 kernel set: the GP bytecode kernels
// (gp/simd.hpp) and the simplex pricing panel kernel (lp/column_panels.hpp).
// Both read this switch, so one process runs one path everywhere and a
// journal's `run_start.simd` names the path that produced every number in
// it. Every path computes the same bits (each kernel's file argues why), so
// the choice only changes speed.
//
// The path is picked once per process, on first use, by the build and the
// CPU: AVX2 when the -mavx2 translation units are compiled in
// (CARBON_ENABLE_AVX2, the default) and the CPU reports AVX2, the portable
// path otherwise. select_path() overrides it programmatically at any time;
// the tests flip paths mid-process to run the differential fuzzes and the
// golden matrices. Nothing outside the -mavx2 translation units executes an
// AVX2 instruction, so the binary stays runnable on pre-AVX2 hardware.
#pragma once

#include <string_view>

namespace carbon::common::simd {

enum class Path { kScalar, kAvx2 };

/// The active path. The first call picks it from the build and the CPU
/// (later calls are one atomic load).
[[nodiscard]] Path active_path() noexcept;
/// "scalar" or "avx2": the active path's name.
[[nodiscard]] const char* path_name() noexcept;

/// True when this CPU reports AVX2 support.
[[nodiscard]] bool cpu_supports_avx2() noexcept;
/// True when the AVX2 kernels were compiled into this binary AND the CPU
/// supports them, i.e. select_path(Path::kAvx2) would actually take effect.
[[nodiscard]] bool avx2_available() noexcept;

/// Forces the active path; returns what is active afterwards (forcing AVX2
/// without build or CPU support falls back to scalar). Value-safe at any
/// time: every path computes identical bits.
Path select_path(Path path) noexcept;
/// String form: "auto", "scalar" or "avx2" (anything else reads as auto).
Path select_path(std::string_view name) noexcept;

}  // namespace carbon::common::simd
