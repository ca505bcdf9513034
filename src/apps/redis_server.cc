#include "apps/redis_server.h"

#include "support/log.h"
#include "support/strings.h"

namespace flexos {
namespace {

// Parses "<digits>\r\n" at `pos`; advances pos past the terminator.
// Returns nullopt if incomplete, -2 as the value on malformed input.
std::optional<int64_t> ParseRespInt(std::string_view data, size_t* pos) {
  const size_t end = data.find("\r\n", *pos);
  if (end == std::string_view::npos) {
    return std::nullopt;
  }
  std::string_view digits = data.substr(*pos, end - *pos);
  bool negative = false;
  if (!digits.empty() && digits.front() == '-') {
    negative = true;
    digits.remove_prefix(1);
  }
  const std::optional<uint64_t> value = ParseU64(digits);
  if (!value.has_value()) {
    return -2;
  }
  *pos = end + 2;
  const int64_t magnitude = static_cast<int64_t>(*value);
  return negative ? -magnitude : magnitude;
}

}  // namespace

int64_t ParseRespCommand(std::string_view data, RespCommand* out) {
  if (data.empty()) {
    return 0;
  }
  if (data[0] != '*') {
    return -1;
  }
  size_t pos = 1;
  const std::optional<int64_t> count = ParseRespInt(data, &pos);
  if (!count.has_value()) {
    return 0;
  }
  if (*count < 1 || *count > 64) {
    return -1;
  }
  out->args.clear();
  for (int64_t i = 0; i < *count; ++i) {
    if (pos >= data.size()) {
      return 0;
    }
    if (data[pos] != '$') {
      return -1;
    }
    ++pos;
    const std::optional<int64_t> len = ParseRespInt(data, &pos);
    if (!len.has_value()) {
      return 0;
    }
    if (*len < 0 || *len > 1 << 20) {
      return -1;
    }
    const size_t need = static_cast<size_t>(*len);
    if (data.size() - pos < need + 2) {
      return 0;
    }
    out->args.emplace_back(data.substr(pos, need));
    pos += need;
    if (data.substr(pos, 2) != "\r\n") {
      return -1;
    }
    pos += 2;
  }
  return static_cast<int64_t>(pos);
}

std::string EncodeRespCommand(const std::vector<std::string>& args) {
  std::string out = StrFormat("*%zu\r\n", args.size());
  for (const std::string& arg : args) {
    out += StrFormat("$%zu\r\n", arg.size());
    out += arg;
    out += "\r\n";
  }
  return out;
}

int64_t RespReplyLength(std::string_view data) {
  if (data.empty()) {
    return 0;
  }
  if (data[0] == '+' || data[0] == '-' || data[0] == ':') {
    const size_t end = data.find("\r\n");
    if (end == std::string_view::npos) {
      return 0;
    }
    return static_cast<int64_t>(end + 2);
  }
  if (data[0] == '$') {
    size_t pos = 1;
    const std::optional<int64_t> len = ParseRespInt(data, &pos);
    if (!len.has_value()) {
      return 0;
    }
    if (*len == -1) {
      return static_cast<int64_t>(pos);  // Null bulk: "$-1\r\n".
    }
    if (*len < 0) {
      return -1;
    }
    const size_t need = static_cast<size_t>(*len) + 2;
    if (data.size() - pos < need) {
      return 0;
    }
    return static_cast<int64_t>(pos + need);
  }
  return -1;
}

namespace {

struct RedisValue {
  Gaddr addr;
  uint64_t size;
};

// Degraded-mode crossing into the net compartment: a quarantined or
// trapped callee comes back kUnavailable instead of crashing the image.
// Between retries, wait out a pending quarantine window by yielding until
// the supervisor's restart deadline — context switches charge cycles, so
// virtual time reaches the deadline and the next attempt re-admits (and
// restarts) the compartment. Gives up once the retry budget is spent or
// when no restart is pending (unsupervised image, or a permanently failed
// compartment).
bool NetCallWithRetry(Testbed& bed, const RouteHandle& route,
                      uint64_t* unavailable_errors,
                      FunctionRef<void()> body) {
  constexpr int kNetRetries = 8;
  Image& image = bed.image();
  Clock& clock = bed.machine().clock();
  for (int attempt = 0; attempt < kNetRetries; ++attempt) {
    const Status status = image.TryCall(route, body);
    if (status.ok()) {
      return true;
    }
    ++*unavailable_errors;
    const uint64_t deadline =
        bed.supervisor() != nullptr
            ? bed.supervisor()->NextRestartCycles()
            : fault::CompartmentSupervisor::kNoRestartPending;
    if (deadline == fault::CompartmentSupervisor::kNoRestartPending) {
      bed.scheduler().Yield();
      continue;
    }
    while (clock.cycles() < deadline) {
      const uint64_t before = clock.cycles();
      bed.scheduler().Yield();
      if (clock.cycles() == before) {
        break;  // Zero-cost switches would pin the clock: don't spin.
      }
    }
  }
  return false;
}

// State shared by every connection handler (single vCPU, cooperative
// scheduling: handlers never interleave inside a store operation).
struct RedisSharedState {
  std::unordered_map<std::string, RedisValue> store;
  int handlers_live = 0;
  bool all_accepted = false;
};

void HandleRedisConnection(Testbed& bed, const RedisServerOptions& options,
                           int conn,
                           const std::shared_ptr<RedisSharedState>& state,
                           RedisServerResult* result) {
  Machine& machine = bed.machine();
  Image& image = bed.image();
  AddressSpace& space = image.SpaceOf(kLibApp);
  Allocator& heap = image.AllocatorOf(kLibApp);
  TcpEngine& tcp = bed.stack().tcp();
  const RouteHandle app_to_net = image.Resolve(kLibApp, kLibNet);
  const RouteHandle app_to_libc = image.Resolve(kLibApp, kLibLibc);

  const Gaddr recv_buf = bed.AllocShared(options.recv_buffer_bytes);
  const Gaddr resp_buf = bed.AllocShared(options.resp_buffer_bytes);
  auto& store = state->store;

  auto net_call = [&](FunctionRef<void()> body) -> bool {
    return NetCallWithRetry(bed, app_to_net, &result->unavailable_errors,
                            body);
  };

  std::string acc;
  std::vector<uint8_t> mirror(options.recv_buffer_bytes);
  bool closed = false;

  while (!closed) {
    uint64_t received = 0;
    const bool net_ok = net_call([&] {
      Result<uint64_t> r =
          tcp.Recv(conn, recv_buf, options.recv_buffer_bytes);
      if (!r.ok()) {
        FLEXOS_WARN("redis recv failed: %s", r.status().ToString().c_str());
        result->ok = false;
        closed = true;
        return;
      }
      received = r.value();
    });
    if (!net_ok || closed || received == 0) {
      break;
    }
    // Parse cost: the protocol parser touches every byte (app context).
    machine.ChargeCompute(received);
    machine.ChargeMemOp(received);
    space.ReadUnchecked(recv_buf, mirror.data(), received);
    acc.append(reinterpret_cast<char*>(mirror.data()), received);

    std::string pending_out;
    for (;;) {
      RespCommand command;
      const int64_t consumed = ParseRespCommand(acc, &command);
      if (consumed == 0) {
        break;
      }
      if (consumed < 0) {
        ++result->protocol_errors;
        pending_out += "-ERR protocol error\r\n";
        acc.clear();
        break;
      }
      acc.erase(0, static_cast<size_t>(consumed));
      ++result->commands;

      // Hash-table probe cost.
      machine.ChargeCompute(80);
      machine.ChargeMemOp(48);

      const std::string& op = command.args[0];
      if (op == "SET" && command.args.size() == 3) {
        ++result->sets;
        const std::string& key = command.args[1];
        const std::string& value = command.args[2];
        Result<Gaddr> addr =
            heap.Allocate(std::max<uint64_t>(value.size(), 1));
        if (!addr.ok()) {
          pending_out += "-ERR oom\r\n";
          continue;
        }
        // Store the value bytes: a LibC memcpy into the app heap.
        image.CallLeaf(app_to_libc, [&] {
          if (!value.empty()) {
            space.Write(addr.value(), value.data(), value.size());
          }
        });
        auto old = store.find(key);
        if (old != store.end()) {
          (void)heap.Free(old->second.addr);
          old->second = RedisValue{addr.value(), value.size()};
        } else {
          store.emplace(key, RedisValue{addr.value(), value.size()});
        }
        pending_out += "+OK\r\n";
      } else if (op == "GET" && command.args.size() == 2) {
        ++result->gets;
        auto it = store.find(command.args[1]);
        if (it == store.end()) {
          pending_out += "$-1\r\n";
        } else {
          ++result->hits;
          std::string value(it->second.size, '\0');
          image.CallLeaf(app_to_libc, [&] {
            if (!value.empty()) {
              space.Read(it->second.addr, value.data(), value.size());
            }
          });
          pending_out += StrFormat("$%zu\r\n", value.size());
          pending_out += value;
          pending_out += "\r\n";
        }
      } else if (op == "DEL" && command.args.size() == 2) {
        auto it = store.find(command.args[1]);
        if (it != store.end()) {
          (void)heap.Free(it->second.addr);
          store.erase(it);
          pending_out += ":1\r\n";
        } else {
          pending_out += ":0\r\n";
        }
      } else if (op == "PING") {
        pending_out += "+PONG\r\n";
      } else {
        ++result->protocol_errors;
        pending_out += "-ERR unknown command\r\n";
      }
    }

    // Flush replies: stage into the shared response buffer (a LibC
    // memcpy) and hand it to the stack.
    uint64_t sent = 0;
    while (sent < pending_out.size()) {
      const uint64_t chunk = std::min<uint64_t>(
          pending_out.size() - sent, options.resp_buffer_bytes);
      image.CallLeaf(app_to_libc, [&] {
        space.Write(resp_buf, pending_out.data() + sent, chunk);
      });
      if (!net_call([&] {
            Result<uint64_t> r = tcp.Send(conn, resp_buf, chunk);
            if (!r.ok()) {
              FLEXOS_WARN("redis send failed: %s",
                          r.status().ToString().c_str());
              result->ok = false;
              closed = true;
            }
          })) {
        closed = true;
      }
      if (closed) {
        break;
      }
      sent += chunk;
    }
  }

  // Best-effort close; a quarantined net compartment is not worth waiting
  // out just to drop the connection.
  (void)image.TryCall(app_to_net, [&] { (void)tcp.Close(conn); });

  // Last handler out frees the store.
  --state->handlers_live;
  if (state->handlers_live == 0 && state->all_accepted) {
    for (auto& [key, value] : store) {
      (void)heap.Free(value.addr);
    }
    store.clear();
  }
}

}  // namespace

void SpawnRedisServer(Testbed& bed, const RedisServerOptions& options,
                      RedisServerResult* result) {
  auto state = std::make_shared<RedisSharedState>();
  result->ok = true;

  // Under supervision the app compartment can be heap-reset and restarted
  // behind our back; the store's guest pointers died with the heap, so the
  // init hook drops the map wholesale (no per-value Free — the crashed
  // compartment's metadata cannot be trusted).
  if (bed.supervisor() != nullptr) {
    const int app_comp = bed.image().CompartmentOf(kLibApp);
    bed.supervisor()->RegisterInitHook(app_comp, "redis-store-clear",
                                       [state] {
                                         state->store.clear();
                                         return Status::Ok();
                                       });
  }

  bed.SpawnApp("redis-accept", [&bed, options, result, state] {
    Image& image = bed.image();
    TcpEngine& tcp = bed.stack().tcp();
    const RouteHandle app_to_net = image.Resolve(kLibApp, kLibNet);
    int listener = -1;
    bool net_ok = true;
    const bool listen_ok =
        NetCallWithRetry(bed, app_to_net, &result->unavailable_errors, [&] {
          Result<int> r = tcp.Listen(options.port, options.max_conns + 4);
          if (!r.ok()) {
            FLEXOS_WARN("redis listen failed: %s",
                        r.status().ToString().c_str());
            net_ok = false;
            return;
          }
          listener = r.value();
        });
    if (!listen_ok || !net_ok) {
      result->ok = false;
      return;  // Cannot serve at all without a listener.
    }
    for (int i = 0; i < options.max_conns; ++i) {
      int conn = -1;
      const bool accept_ok = NetCallWithRetry(
          bed, app_to_net, &result->unavailable_errors, [&] {
            Result<int> r = tcp.Accept(listener);
            if (!r.ok()) {
              FLEXOS_WARN("redis accept failed: %s",
                          r.status().ToString().c_str());
              net_ok = false;
              return;
            }
            conn = r.value();
          });
      if (!accept_ok || !net_ok) {
        result->ok = false;
        break;
      }
      ++state->handlers_live;
      Result<Thread*> handler = bed.scheduler().Spawn(
          StrFormat("redis-conn-%d", i), [&bed, options, conn, state,
                                          result] {
            // TryCall so a trap inside the handler is contained by the
            // supervisor (when installed) instead of killing the image;
            // the connection dies, the server survives.
            Image& image = bed.image();
            const Status status =
                image.TryCall(image.Resolve(kLibPlatform, kLibApp), [&] {
                  HandleRedisConnection(bed, options, conn, state, result);
                });
            if (!status.ok()) {
              ++result->contained_faults;
              --state->handlers_live;
              (void)image.TryCall(image.Resolve(kLibPlatform, kLibNet), [&] {
                (void)bed.stack().tcp().Close(conn);
              });
            }
          });
      if (!handler.ok()) {
        FLEXOS_WARN("handler spawn failed: %s",
                    handler.status().ToString().c_str());
        --state->handlers_live;
        result->ok = false;
        break;
      }
    }
    state->all_accepted = true;
    (void)image.TryCall(app_to_net, [&] { (void)tcp.Close(listener); });
  });
}

}  // namespace flexos
