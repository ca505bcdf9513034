#include "calibrate.h"

#include "spans.h"

namespace flexos {
namespace hostbench {
namespace {

constexpr size_t kLargeWords = size_t{1} << 20;  // 8 MiB.
constexpr size_t kSmallWords = size_t{1} << 12;  // 32 KiB.
constexpr int kLargeSteps = 3'000;
constexpr int kSmallSteps = 30'000;

// Keeps the loop's result alive so the compiler cannot drop it.
volatile uint64_t calibration_sink;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

CalibrationLoop::CalibrationLoop()
    : large_(kLargeWords, 1), small_(kSmallWords, 1) {}

int64_t CalibrationLoop::RunNs() {
  const int64_t start = NowNs();
  uint64_t x = state_;
  uint64_t acc = 0;
  for (int i = 0; i < kLargeSteps; ++i) {
    x = XorShift(x);
    uint64_t& slot = large_[x & (kLargeWords - 1)];
    slot = slot * 31 + (x >> 32);
    acc += slot;
  }
  for (int i = 0; i < kSmallSteps; ++i) {
    x = XorShift(x);
    uint64_t& slot = small_[(x ^ acc) & (kSmallWords - 1)];
    if ((slot & 3) == 0) {
      acc += slot >> 2;
    } else if ((slot & 3) == 1) {
      acc ^= x;
    } else {
      acc = acc * 3 + 1;
    }
    slot += x >> 40;
  }
  state_ = x;
  calibration_sink = acc;
  return NowNs() - start;
}

}  // namespace hostbench
}  // namespace flexos
