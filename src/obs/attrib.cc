#include "obs/attrib.h"

#include "obs/names.h"

namespace flexos {
namespace obs {

Attributor::Attributor() {
  ThreadState& platform = states_[0];
  platform.tid = 0;
  platform.path = "platform";
  platform.active_once = true;
  for (Lane& lane : lanes_) lane.active = &platform;
}

void Attributor::SetEnabled(bool on, uint64_t now_cycles) {
  if (on == enabled_) {
    return;
  }
  if (on) {
    // Anchor the current lane at now; the others anchor lazily on first
    // switch-in so their epochs start on their own clocks.
    for (Lane& lane : lanes_) lane.anchored = false;
    lanes_[current_lane_].last_cycles = now_cycles;
    lanes_[current_lane_].anchored = true;
    enabled_ = true;
  } else {
    Charge(now_cycles);
    enabled_ = false;
  }
}

void Attributor::ChargeLane(Lane& lane, uint64_t now_cycles) {
  if (!enabled_ || !lane.anchored || now_cycles <= lane.last_cycles) {
    return;
  }
  const uint64_t delta = now_cycles - lane.last_cycles;
  lane.last_cycles = now_cycles;
  lane.attributed += delta;
  attributed_cycles_ += delta;
  ThreadState& active = *lane.active;
  flame_[active.path] += delta;
  const Frame* top = active.frames.empty() ? nullptr : &active.frames.back();
  const bool in_gate = top != nullptr && top->gate;
  // Lib frames charge their compartment; an empty stack charges the thread's
  // ambient context (platform, comp -1) so cycles are never dropped.
  const int comp = (top != nullptr && !in_gate) ? top->comp : -1;
  if (in_gate) {
    backend_cycles_[top->label.substr(5)] += delta;  // strip "gate:"
  } else {
    comp_cycles_[comp] += delta;
  }
  if (active.request != 0) {
    RequestRecord& rec = RecordFor(active.request);
    rec.execute_cycles += delta;
    if (in_gate) {
      rec.gate_cycles += delta;
    } else {
      rec.comp_cycles[comp] += delta;
    }
  }
}

void Attributor::SwitchLane(int lane, uint64_t old_lane_now_cycles,
                            uint64_t new_lane_now_cycles) {
  if (lane == current_lane_ || lane < 0 || lane >= kMaxVCpus) {
    return;
  }
  if (enabled_) {
    ChargeLane(lanes_[current_lane_], old_lane_now_cycles);
  }
  current_lane_ = lane;
  Lane& next = lanes_[lane];
  if (enabled_ && !next.anchored) {
    next.last_cycles = new_lane_now_cycles;
    next.anchored = true;
  }
  // An already-anchored lane keeps its old epoch: the gap since we left it
  // (idle skips via AdvanceAllClocksTo) is charged to its active state —
  // the platform run loop — at the next charge, so per-lane conservation
  // holds.
}

void Attributor::SyncLane(int lane, uint64_t now_cycles) {
  if (lane < 0 || lane >= kMaxVCpus) {
    return;
  }
  ChargeLane(lanes_[lane], now_cycles);
}

RequestRecord& Attributor::RecordFor(uint64_t id) {
  RequestRecord& rec = requests_[id];
  if (rec.id == 0 && id == kUnattributedRequestId && rec.name.empty()) {
    rec.name = "unattributed";
  }
  rec.id = id;
  return rec;
}

void Attributor::ActivateThread(uint64_t tid, std::string_view name,
                                uint64_t now_cycles) {
  if (!enabled_) {
    return;
  }
  Charge(now_cycles);
  Lane& lane = lanes_[current_lane_];
  if (lane.active->tid == tid) {
    return;
  }
  lane.active->deactivated_at = now_cycles;
  lane.active->deactivated_lane = current_lane_;
  auto [it, inserted] = states_.try_emplace(tid);
  ThreadState& state = it->second;
  if (inserted || !state.active_once) {
    state.tid = tid;
    state.path = name.empty() ? "t" + std::to_string(tid) : std::string(name);
    state.active_once = true;
  }
  // Time spent descheduled while a request was bound counts as queue wait —
  // but only when the deschedule stamp came from this lane's clock; stamps
  // from another vCPU are not comparable.
  if (state.request != 0 && state.deactivated_at != 0 &&
      state.deactivated_lane == current_lane_ &&
      now_cycles > state.deactivated_at) {
    RecordFor(state.request).queue_wait_cycles +=
        now_cycles - state.deactivated_at;
  }
  state.deactivated_at = 0;
  state.deactivated_lane = -1;
  lane.active = &state;
}

void Attributor::PushFrame(std::string_view lib, int comp,
                           uint64_t now_cycles) {
  if (!enabled_) {
    return;
  }
  Charge(now_cycles);
  ThreadState& active = ActiveState();
  Frame frame;
  frame.label = std::string(lib);
  frame.comp = comp;
  frame.gate = false;
  frame.prev_path_len = static_cast<uint32_t>(active.path.size());
  active.path += ';';
  active.path += frame.label;
  active.frames.push_back(std::move(frame));
}

void Attributor::PushGateFrame(std::string_view backend, uint64_t now_cycles) {
  if (!enabled_) {
    return;
  }
  Charge(now_cycles);
  ThreadState& active = ActiveState();
  Frame frame;
  frame.label = "gate:";
  frame.label += backend;
  frame.gate = true;
  frame.prev_path_len = static_cast<uint32_t>(active.path.size());
  active.path += ';';
  active.path += frame.label;
  active.frames.push_back(std::move(frame));
}

void Attributor::PopFrame(uint64_t now_cycles) {
  if (!enabled_) {
    return;
  }
  Charge(now_cycles);
  ThreadState& active = ActiveState();
  if (active.frames.empty()) {
    return;  // Enabled mid-call: unmatched pop, ignore.
  }
  active.path.resize(active.frames.back().prev_path_len);
  active.frames.pop_back();
}

size_t Attributor::frame_depth() const {
  if (!enabled_) {
    return 0;
  }
  return ActiveState().frames.size();
}

void Attributor::UnwindFramesTo(size_t depth, uint64_t now_cycles) {
  if (!enabled_) {
    return;
  }
  while (ActiveState().frames.size() > depth) {
    PopFrame(now_cycles);
  }
}

TraceContext Attributor::BeginRequest(std::string_view name,
                                      uint64_t now_cycles, uint64_t now_ns) {
  if (!enabled_) {
    return TraceContext{};
  }
  Charge(now_cycles);
  const uint64_t id = next_request_id_++;
  RequestRecord& rec = requests_[id];
  rec.id = id;
  rec.name = std::string(name);
  rec.start_ns = now_ns;
  rec.open = true;
  ActiveState().request = id;
  return TraceContext{id, now_ns};
}

void Attributor::EndRequest(uint64_t id, uint64_t now_cycles,
                            uint64_t now_ns) {
  if (!enabled_ || id == 0) {
    return;
  }
  Charge(now_cycles);
  auto it = requests_.find(id);
  if (it == requests_.end() || !it->second.open) {
    return;
  }
  it->second.open = false;
  it->second.end_ns = now_ns;
  for (auto& [tid, state] : states_) {
    if (state.request == id) {
      state.request = 0;
    }
  }
}

uint64_t Attributor::current_request() const {
  return ActiveState().request;
}

void Attributor::OnGateCrossing(std::string_view backend, int from_comp,
                                int to_comp, uint64_t overhead_ns) {
  if (!enabled_) {
    return;
  }
  RequestRecord& rec = RecordFor(ActiveState().request);
  rec.crossings += 1;
  rec.boundary_gate_ns[GateMetricName("latency_ns", backend, from_comp,
                                      to_comp)] += overhead_ns;
}

void Attributor::Sync(uint64_t now_cycles) { Charge(now_cycles); }

std::vector<FlameEntry> Attributor::Flame() const {
  std::vector<FlameEntry> out;
  out.reserve(flame_.size());
  for (const auto& [stack, cycles] : flame_) {
    out.push_back(FlameEntry{stack, cycles});
  }
  return out;
}

std::string Attributor::CollapsedStacks() const {
  std::string out;
  for (const auto& [stack, cycles] : flame_) {
    out += stack;
    out += ' ';
    out += std::to_string(cycles);
    out += '\n';
  }
  return out;
}

std::vector<const RequestRecord*> Attributor::Requests() const {
  std::vector<const RequestRecord*> out;
  out.reserve(requests_.size());
  for (const auto& [id, rec] : requests_) {
    out.push_back(&rec);
  }
  return out;
}

const RequestRecord* Attributor::FindRequest(uint64_t id) const {
  auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second;
}

void Attributor::Reset(uint64_t now_cycles) {
  flame_.clear();
  comp_cycles_.clear();
  backend_cycles_.clear();
  requests_.clear();
  next_request_id_ = 1;
  attributed_cycles_ = 0;
  states_.clear();
  ThreadState& platform = states_[0];
  platform.tid = 0;
  platform.path = "platform";
  platform.active_once = true;
  for (Lane& lane : lanes_) {
    lane.active = &platform;
    lane.attributed = 0;
    lane.anchored = false;
  }
  lanes_[current_lane_].last_cycles = now_cycles;
  lanes_[current_lane_].anchored = true;
}

}  // namespace obs
}  // namespace flexos
