#include "net/netstack.h"

#include "obs/names.h"
#include "support/log.h"

namespace flexos {

NetStack::NetStack(const Deps& deps, TcpConfig tcp_config)
    : machine_(deps.machine),
      space_(deps.space),
      nic_(deps.nic),
      router_(deps.router),
      platform_to_net_(deps.router.Resolve(kLibPlatform, kLibNet)),
      tcp_(TcpEngine::Deps{.machine = deps.machine,
                           .space = deps.space,
                           .allocator = deps.allocator,
                           .scheduler = deps.scheduler,
                           .nic = deps.nic,
                           .router = deps.router},
           tcp_config),
      udp_(deps.machine, deps.space, deps.scheduler, deps.nic, deps.router),
      arp_(deps.machine, deps.scheduler, deps.nic, deps.router) {
  obs::MetricsRegistry& metrics = machine_.metrics();
  frames_polled_counter_ = &metrics.GetCounter(obs::kMetricFramesPolled);
  parse_errors_counter_ = &metrics.GetCounter(obs::kMetricParseErrors);
  unhandled_frames_counter_ = &metrics.GetCounter(obs::kMetricUnhandledFrames);
  icmp_echoes_counter_ = &metrics.GetCounter(obs::kMetricIcmpEchoes);
}

const NetStackStats& NetStack::stats() const {
  stats_.frames_polled = frames_polled_counter_->value();
  stats_.parse_errors = parse_errors_counter_->value();
  stats_.unhandled_frames = unhandled_frames_counter_->value();
  stats_.icmp_echoes_answered = icmp_echoes_counter_->value();
  return stats_;
}

Result<int> NetStack::TcpConnect(Ipv4Addr dst_ip, Port dst_port) {
  FLEXOS_ASSIGN_OR_RETURN(MacAddr dst_mac, arp_.Resolve(dst_ip));
  return tcp_.Connect(dst_ip, dst_mac, dst_port);
}

std::optional<uint64_t> NetStack::NextEventCycles() const {
  std::optional<uint64_t> next = tcp_.NextTimerCycles();
  const std::optional<uint64_t> arp_next = arp_.NextTimerCycles();
  if (arp_next.has_value() && (!next.has_value() || *arp_next < *next)) {
    next = arp_next;
  }
  return next;
}

bool NetStack::Poll() {
  bool progress = false;
  uint64_t frames = 0;
  // Stamped before the gate crossing so the poll span covers it.
  obs::Tracer& tracer = machine_.tracer();
  const bool tracing = tracer.enabled();
  const uint64_t poll_start_ns = tracing ? tracer.NowNs() : 0;
  const Status poll_status = router_.TryCall(platform_to_net_, [&] {
    // All semaphore wakeups this poll produces (data arrival, window
    // opening, accept, FIN, reset — across every frame drained below and
    // any timers that fire) may share one net -> libc crossing.
    tcp_.BeginSignalScope();
    while (nic_.HasRx()) {
      progress = true;
      ++frames;
      frames_polled_counter_->Add();
      const std::vector<uint8_t> raw = nic_.PopRx();
      // `parsed` views `raw`, which lives until this iteration ends.
      Result<ParsedFrame> parsed = ParseFrame(raw);
      if (!parsed.ok()) {
        parse_errors_counter_->Add();
        FLEXOS_DEBUG("netstack: dropping frame: %s",
                     parsed.status().ToString().c_str());
        continue;
      }
      const ParsedFrame& frame = parsed.value();
      if (arp_.OnFrame(frame)) {
        continue;
      }
      if (frame.icmp.has_value()) {
        // Answer echo requests addressed to us.
        if (frame.icmp->type == kIcmpEchoRequest &&
            frame.ip.dst == nic_.ip()) {
          icmp_echoes_counter_->Add();
          machine_.ChargeCompute(machine_.costs().pkt_rx_fixed / 2);
          machine_.ChargeCompute(machine_.costs().pkt_tx_fixed / 2);
          IcmpEcho reply;
          reply.type = kIcmpEchoReply;
          reply.id = frame.icmp->id;
          reply.seq = frame.icmp->seq;
          nic_.Transmit(BuildIcmpEchoFrame(
              nic_.mac(), frame.eth.src, nic_.ip(), frame.ip.src, reply,
              frame.payload.data(), frame.payload.size()));
        }
        continue;
      }
      if (!tcp_.OnFrame(frame) && !udp_.OnFrame(frame)) {
        unhandled_frames_counter_->Add();
      }
    }
    if (tcp_.ProcessTimers()) {
      progress = true;
    }
    tcp_.EndSignalScope();
    if (arp_.ProcessTimers()) {
      progress = true;
    }
  });
  if (!poll_status.ok()) {
    // The net compartment is quarantined (or its poll trapped and was
    // contained): inbound frames stay queued on the NIC and drain after the
    // supervisor re-admits the compartment. No progress reported, so the
    // idle loop falls through to its next-event computation — which
    // includes the supervisor's restart deadline — instead of spinning.
    return false;
  }
  // Only productive polls get a span: the idle loop polls constantly and
  // would otherwise flood the trace ring with empty entries.
  if (tracing && progress) {
    tracer.RecordComplete(obs::TraceCat::kNet, "net.poll", poll_start_ns,
                          tracer.NowNs() - poll_start_ns,
                          platform_to_net_.to_comp + 1, frames, 0);
  }
  return progress;
}

}  // namespace flexos
