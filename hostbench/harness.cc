#include "harness.h"

#include <algorithm>
#include <cstring>

#include "apps/redis_server.h"

namespace flexos {
namespace hostbench {

size_t ScriptedRedisClient::ProduceData(uint8_t* out, size_t max) {
  if (broken_) {
    return 0;
  }
  if (started_ == completed_) {
    if (started_ == script_.ops.size()) {
      return 0;
    }
    ++started_;  // Closed loop: the previous reply is in.
    tx_offset_ = 0;
  }
  const std::string& request = script_.ops[started_ - 1].request;
  const size_t n = std::min(max, request.size() - tx_offset_);
  std::memcpy(out, request.data() + tx_offset_, n);
  tx_offset_ += n;
  return n;
}

bool ScriptedRedisClient::Finished() const {
  return broken_ || completed_ == script_.ops.size();
}

void ScriptedRedisClient::OnReceive(const uint8_t* data, size_t len) {
  rx_.append(reinterpret_cast<const char*>(data), len);
  while (!broken_) {
    const int64_t length = RespReplyLength(rx_);
    if (length == 0) {
      break;
    }
    if (length < 0 || completed_ == started_) {
      broken_ = true;  // Unframeable or unsolicited: the rest all fail.
      rx_.clear();
      break;
    }
    const size_t n = static_cast<size_t>(length);
    if (static_cast<int64_t>(completed_) == corrupt_reply_) {
      rx_[n - 3] ^= 0x01;  // The byte before the closing "\r\n".
    }
    if (std::string_view(rx_).substr(0, n) ==
        script_.ops[completed_].expected_reply) {
      ++correct_;
    }
    ++completed_;
    rx_.erase(0, n);
  }
}

size_t IperfSender::ProduceData(uint8_t* out, size_t max) {
  const size_t n =
      static_cast<size_t>(std::min<uint64_t>(max, total_ - handed_));
  size_t done = 0;
  while (done < n) {
    const size_t offset =
        static_cast<size_t>((handed_ + done) % pattern_.size());
    const size_t chunk = std::min(n - done, pattern_.size() - offset);
    std::memcpy(out + done, pattern_.data() + offset, chunk);
    done += chunk;
  }
  handed_ += n;
  return n;
}

uint64_t IperfSender::completed() const {
  if (peer_ == nullptr) {
    return 0;
  }
  return std::min(peer_->stats().bytes_acked, total_) / 1024;
}

size_t TimedApp::ProduceData(uint8_t* out, size_t max) {
  size_t n = 0;
  {
    ScopedSpan span(spans_, Layer::kApp);
    n = inner_.ProduceData(out, max);
  }
  Sync();
  return n;
}

void TimedApp::OnReceive(const uint8_t* data, size_t len) {
  {
    ScopedSpan span(spans_, Layer::kApp);
    inner_.OnReceive(data, len);
  }
  Sync();
}

void TimedApp::Sync() {
  const uint64_t started = inner_.started();
  const uint64_t completed = inner_.completed();
  if (started == seen_started_ && completed == seen_completed_) {
    return;
  }
  const int64_t now = NowNs();
  for (; seen_started_ < started; ++seen_started_) {
    start_ns_.push_back(now);
  }
  for (; seen_completed_ < completed && !start_ns_.empty();
       ++seen_completed_) {
    if (latencies_us_ != nullptr) {
      latencies_us_->push_back(
          static_cast<float>(now - start_ns_.front()) / 1e3f);
    }
    start_ns_.pop_front();
  }
}

PeerHub::PeerHub(Link& link, SpanRecorder& spans) : spans_(spans) {
  link.AttachB(this);
}

void PeerHub::Register(RemoteTcpPeer& peer, TimedApp& app) {
  peers_.push_back(&peer);
  apps_.push_back(&app);
}

void PeerHub::DeliverFrame(std::vector<uint8_t> frame) {
  ++frames_;
  {
    ScopedSpan span(spans_, Layer::kPeerRx);
    if (peers_.size() == 1) {
      // What a directly attached peer gets (the iperf setup).
      peers_.front()->DeliverFrame(std::move(frame));
    } else {
      // What RemoteHub does: one copy per peer.
      for (RemoteTcpPeer* peer : peers_) {
        peer->DeliverFrame(frame);
      }
    }
  }
  for (TimedApp* app : apps_) {
    app->Sync();  // Acknowledgments complete iperf operations.
  }
}

NicTap::NicTap(Link& link, Nic& nic, SpanRecorder& spans,
               FrameCapture* capture)
    : nic_(nic), spans_(spans), capture_(capture) {
  link.AttachA(this);
}

void NicTap::DeliverFrame(std::vector<uint8_t> frame) {
  if (capture_ != nullptr &&
      capture_->frames.size() < FrameCapture::kMaxFrames) {
    capture_->frames.push_back(frame);
  }
  ScopedSpan span(spans_, Layer::kNicRx);
  nic_.DeliverFrame(std::move(frame));
}

}  // namespace hostbench
}  // namespace flexos
