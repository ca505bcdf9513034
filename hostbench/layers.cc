#include "layers.h"

#include <algorithm>
#include <memory>
#include <set>

#include "core/image_builder.h"
#include "net/checksum.h"
#include "net/wire.h"
#include "sched/coop_scheduler.h"
#include "vmem/address_space.h"

namespace flexos {
namespace hostbench {
namespace {

constexpr uint64_t kGateCalls = 20'000;
constexpr int kMapReps = 7;
constexpr uint64_t kWriteBytes = 32ull << 20;
constexpr uint64_t kWriteSpaceBytes = 4ull << 20;
constexpr uint64_t kParseFrames = 200'000;
constexpr uint64_t kChecksumBytes = 64ull << 20;
constexpr int kYieldsPerThread = 50'000;

// Written once per replay so the compiler cannot drop the checksums.
volatile uint64_t g_checksum_sink = 0;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : values[values.size() / 2];
}

// Builds each job's image, times the build, counts its mapped pages, and
// times gate calls on its app -> net route.
void ReplayImages(const std::vector<JobSpec>& jobs, SpanRecorder& spans,
                  LayerReplay* out) {
  double build_ns = 0;
  double mapped_pages = 0;
  double gate_ns = 0;
  for (const JobSpec& job : jobs) {
    Machine machine(Clock::kDefaultFreqHz, job.config.costs);
    machine.SetVCpuCount(job.config.vcpus);
    ImageBuilder builder(machine);
    const int64_t start = NowNs();
    std::unique_ptr<Image> image;
    {
      ScopedSpan span(spans, Layer::kImageBuild);
      image = builder.Build(job.config.image).value();
    }
    build_ns += static_cast<double>(NowNs() - start);

    ScopedSpan span(spans, Layer::kReplay);
    std::set<AddressSpace*> spaces = {&image->SpaceOf(kLibPlatform)};
    for (int comp = 0; comp < image->compartment_count(); ++comp) {
      spaces.insert(image->compartment(comp).space);
    }
    for (AddressSpace* space : spaces) {
      for (Gaddr addr = 0; addr < space->size_bytes(); addr += kPageSize) {
        mapped_pages += space->IsMapped(addr) ? 1 : 0;
      }
    }

    const RouteHandle route = image->Resolve(kLibApp, kLibNet);
    const auto empty = [] {};
    for (int i = 0; i < 256; ++i) {
      image->Call(route, empty);  // Warm up.
    }
    const int64_t calls_start = NowNs();
    for (uint64_t i = 0; i < kGateCalls; ++i) {
      image->Call(route, empty);
    }
    gate_ns += static_cast<double>(NowNs() - calls_start) /
               static_cast<double>(kGateCalls);
  }
  const double count = static_cast<double>(jobs.size());
  out->image_build_ms = build_ns / 1e6 / count;
  out->mapped_mib_per_job =
      mapped_pages * kPageSize / static_cast<double>(1 << 20) / count;
  out->gate_host_ns = gate_ns / count;
}

// Maps fresh pages the size of one compartment heap of the job's config.
double ReplayMap(const ImageConfig& image) {
  const uint64_t size = image.heap_bytes_per_compartment;
  std::vector<double> ms_per_gib;
  for (int rep = 0; rep < kMapReps; ++rep) {
    Machine machine;
    AddressSpace space(machine, "replay", size);
    const int64_t start = NowNs();
    const Status status = space.Map(0, size, /*key=*/0);
    const int64_t elapsed = NowNs() - start;
    FLEXOS_CHECK(status.ok(), "replay map failed");
    ms_per_gib.push_back(static_cast<double>(elapsed) / 1e6 *
                         static_cast<double>(1ull << 30) /
                         static_cast<double>(size));
  }
  return Median(ms_per_gib);
}

// Checked writes of the captured frame bytes into a mapped region.
double ReplayWrite(const FrameCapture& capture) {
  Machine machine;
  AddressSpace space(machine, "replay", kWriteSpaceBytes);
  FLEXOS_CHECK(space.Map(0, kWriteSpaceBytes, /*key=*/0).ok(),
               "replay map failed");
  uint64_t written = 0;
  Gaddr cursor = 0;
  const int64_t start = NowNs();
  while (written < kWriteBytes) {
    for (const std::vector<uint8_t>& frame : capture.frames) {
      if (cursor + frame.size() > kWriteSpaceBytes) {
        cursor = 0;
      }
      space.Write(cursor, frame.data(), frame.size());
      cursor += frame.size();
      written += frame.size();
    }
  }
  return static_cast<double>(NowNs() - start) /
         (static_cast<double>(written) / 1024.0);
}

double ReplayParse(const FrameCapture& capture) {
  uint64_t parsed = 0;
  uint64_t ok = 0;
  const int64_t start = NowNs();
  while (parsed < kParseFrames) {
    for (const std::vector<uint8_t>& frame : capture.frames) {
      ok += ParseFrame(frame).ok() ? 1 : 0;
      ++parsed;
    }
  }
  const int64_t elapsed = NowNs() - start;
  FLEXOS_CHECK(ok == parsed, "a captured frame failed to parse");
  return static_cast<double>(elapsed) / static_cast<double>(parsed);
}

double ReplayChecksum(const FrameCapture& capture) {
  uint64_t bytes = 0;
  uint64_t sink = 0;
  const int64_t start = NowNs();
  while (bytes < kChecksumBytes) {
    for (const std::vector<uint8_t>& frame : capture.frames) {
      sink += Checksum(frame.data(), frame.size());
      bytes += frame.size();
    }
  }
  const int64_t elapsed = NowNs() - start;
  g_checksum_sink = sink;  // Keeps the sums live.
  return static_cast<double>(elapsed) / (static_cast<double>(bytes) / 1024);
}

double ReplayYield() {
  Machine machine;
  CoopScheduler scheduler(machine);
  auto ping_pong = [&scheduler] {
    for (int i = 0; i < kYieldsPerThread; ++i) {
      scheduler.Yield();
    }
  };
  FLEXOS_CHECK(scheduler.Spawn("ping", ping_pong).ok(), "spawn failed");
  FLEXOS_CHECK(scheduler.Spawn("pong", ping_pong).ok(), "spawn failed");
  const int64_t start = NowNs();
  FLEXOS_CHECK(scheduler.Run().ok(), "ping-pong run failed");
  return static_cast<double>(NowNs() - start) /
         static_cast<double>(std::max<uint64_t>(1,
                                                scheduler.context_switches()));
}

}  // namespace

LayerReplay ReplayLayers(const std::vector<JobSpec>& jobs,
                         const FrameCapture& capture, SpanRecorder& spans) {
  LayerReplay replay;
  ReplayImages(jobs, spans, &replay);
  ScopedSpan span(spans, Layer::kReplay);
  replay.map_ms_per_gib = ReplayMap(jobs.front().config.image);
  replay.switch_host_ns = ReplayYield();
  if (!capture.frames.empty()) {
    replay.write_ns_per_kib = ReplayWrite(capture);
    replay.parse_ns_per_frame = ReplayParse(capture);
    replay.checksum_ns_per_kib = ReplayChecksum(capture);
  }
  return replay;
}

}  // namespace hostbench
}  // namespace flexos
