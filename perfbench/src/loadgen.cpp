#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <ctime>
#include <stdexcept>

#include "common.hpp"
#include "runtime/gateway.hpp"

namespace perfbench {

std::size_t LoadResult::failures() const {
  std::size_t bad = stray_lines;
  for (const RequestTiming& r : requests) {
    if (r.accepted_lines != 1 || r.terminal_lines != 1) ++bad;
  }
  return bad;
}

namespace {

/// Owns the generator's sockets.
struct Sockets {
  Sockets() = default;
  Sockets(const Sockets&) = delete;
  Sockets& operator=(const Sockets&) = delete;
  std::vector<int> fds;
  ~Sockets() {
    for (const int fd : fds) ::close(fd);
  }
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error("loadgen: connect() failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const std::string& framed) {
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + offset, framed.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

LoadResult drive_load(std::uint16_t port, const std::vector<ScheduledRequest>& schedule,
                      int connections, double drain_timeout_s) {
  Sockets sockets;
  for (int c = 0; c < connections; ++c) sockets.fds.push_back(connect_loopback(port));
  std::vector<std::string> buffers(sockets.fds.size());
  std::vector<pollfd> pfds(sockets.fds.size());
  for (std::size_t c = 0; c < pfds.size(); ++c) pfds[c] = {sockets.fds[c], POLLIN, 0};

  LoadResult result;
  result.requests.resize(schedule.size());
  // Protocol ids are the schedule's ids; map them back to schedule slots.
  int max_id = 0;
  for (const ScheduledRequest& r : schedule) max_id = std::max(max_id, r.id);
  std::vector<int> slot_of(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    slot_of[static_cast<std::size_t>(schedule[i].id)] = static_cast<int>(i);
    result.requests[i].due_s = schedule[i].due_s;
    result.requests[i].connection = static_cast<int>(i % sockets.fds.size());
  }

  const auto t0 = SteadyClock::now();
  const auto now_s = [&t0] { return seconds_between(t0, SteadyClock::now()); };
  std::size_t next = 0;
  std::size_t outstanding = schedule.size();  // requests without a terminal line
  double last_send_s = 0.0;

  const auto handle_line = [&](std::size_t connection, const std::string& line, double at_s) {
    const auto event = hidp::runtime::jsonl::string_field(line, "event");
    const auto id = hidp::runtime::jsonl::number_field(line, "id");
    if (!event || !id || *id < 0 || *id > max_id || slot_of[static_cast<std::size_t>(*id)] < 0) {
      ++result.stray_lines;
      return;
    }
    const int slot = slot_of[static_cast<std::size_t>(*id)];
    RequestTiming& r = result.requests[static_cast<std::size_t>(slot)];
    if (r.connection != static_cast<int>(connection)) {
      ++result.stray_lines;
      return;
    }
    if (*event == "accepted") {
      if (r.accepted_lines++ == 0) r.accepted_s = at_s;
    } else if (*event == "done" || *event == "error") {
      if (r.terminal_lines++ == 0) {
        r.done_s = at_s;
        r.outcome = hidp::runtime::jsonl::string_field(line, "outcome").value_or("error");
        r.latency_ms = hidp::runtime::jsonl::number_field(line, "latency_ms").value_or(0.0);
        --outstanding;
      }
    } else {
      ++result.stray_lines;
    }
  };

  char chunk[8192];
  while (next < schedule.size() || outstanding > 0) {
    double now = now_s();
    while (next < schedule.size() && schedule[next].due_s <= now) {
      const std::size_t c = next % sockets.fds.size();
      if (!send_all(sockets.fds[c], schedule[next].line + "\n")) {
        throw std::runtime_error("loadgen: send() failed");
      }
      now = now_s();
      result.requests[next].sent_s = now;
      last_send_s = now;
      ++next;
    }
    double wait_s;
    if (next < schedule.size()) {
      wait_s = schedule[next].due_s - now;
    } else {
      wait_s = last_send_s + drain_timeout_s - now;
      if (wait_s <= 0.0) {
        result.timed_out = true;
        break;
      }
    }
    wait_s = std::max(wait_s, 0.0);
    timespec timeout;
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - std::floor(wait_s)) * 1e9);
    const int rc = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    if (rc <= 0) continue;
    for (std::size_t c = 0; c < pfds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(pfds[c].fd, chunk, sizeof(chunk), 0);
      const double at_s = now_s();
      if (n <= 0) throw std::runtime_error("loadgen: gateway closed a connection");
      buffers[c].append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      std::size_t pos;
      while ((pos = buffers[c].find('\n', start)) != std::string::npos) {
        handle_line(c, buffers[c].substr(start, pos - start), at_s);
        start = pos + 1;
      }
      buffers[c].erase(0, start);
    }
  }
  result.elapsed_s = now_s();
  return result;
}

}  // namespace perfbench
