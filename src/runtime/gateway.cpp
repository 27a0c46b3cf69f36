#include "runtime/gateway.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "util/log.hpp"

namespace hidp::runtime {

// ---- flat-JSON field extraction ---------------------------------------------

namespace jsonl {
namespace {
/// Position just past `"key"` followed by ':', or npos.
std::size_t value_start(const std::string& line, const std::string& key) {
  const std::string quoted = "\"" + key + "\"";
  std::size_t pos = 0;
  while ((pos = line.find(quoted, pos)) != std::string::npos) {
    std::size_t after = pos + quoted.size();
    while (after < line.size() && std::isspace(static_cast<unsigned char>(line[after]))) {
      ++after;
    }
    if (after < line.size() && line[after] == ':') {
      ++after;
      while (after < line.size() && std::isspace(static_cast<unsigned char>(line[after]))) {
        ++after;
      }
      return after;
    }
    pos += quoted.size();
  }
  return std::string::npos;
}
}  // namespace

std::optional<std::string> string_field(const std::string& line, const std::string& key) {
  std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') return std::nullopt;
  std::string out;
  for (std::size_t i = at + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out.push_back(line[++i]);  // minimal escapes: the next char literally
      continue;
    }
    if (c == '"') return out;
    out.push_back(c);
  }
  return std::nullopt;  // unterminated string
}

std::optional<double> number_field(const std::string& line, const std::string& key) {
  const std::size_t at = value_start(line, key);
  if (at == std::string::npos || at >= line.size()) return std::nullopt;
  const char* begin = line.c_str() + at;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

}  // namespace jsonl

namespace {

std::optional<QosClass> parse_qos(const std::string& name) {
  for (const QosClass qos :
       {QosClass::kBestEffort, QosClass::kStandard, QosClass::kInteractive}) {
    if (name == qos_class_name(qos)) return qos;
  }
  return std::nullopt;
}

/// Appends `raw` as the body of a JSON string: quotes, backslashes and
/// control characters escaped, so client-controlled text cannot break the
/// response line.
void append_escaped(std::string& out, std::string_view raw) {
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", static_cast<unsigned>(c));
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
}

std::string error_line(long tag, std::string_view message) {
  std::string out = "{\"event\":\"error\",\"id\":";
  out += std::to_string(tag);
  out += ",\"error\":\"";
  append_escaped(out, message);
  out += "\"}";
  return out;
}

std::string done_line(long tag, const RequestRecord& record) {
  // %.3f of any finite double fits: DBL_MAX has 309 integer digits.
  char latency_ms[400];
  std::snprintf(latency_ms, sizeof(latency_ms), "%.3f", record.latency_s() * 1e3);
  std::string out = "{\"event\":\"done\",\"id\":";
  out += std::to_string(tag);
  out += ",\"outcome\":\"";
  out += request_outcome_name(record.outcome);
  out += "\",\"latency_ms\":";
  out += latency_ms;
  out += ",\"model\":\"";
  append_escaped(out, record.model);
  out += "\"}";
  return out;
}

}  // namespace

// ---- Gateway ---------------------------------------------------------------

std::optional<RequestSpec> Gateway::TerminalTap::next(double now_s) {
  (void)now_s;
  return std::nullopt;  // the tap issues nothing; submissions come via admit()
}

void Gateway::TerminalTap::on_complete(const RequestRecord& record, double now_s) {
  (void)now_s;
  gateway->on_terminal(record);
}

Gateway::Gateway(ServiceFleet& fleet, ModelRegistry models, Options options,
                 PlannerPool::StrategyFactory planner_factory)
    : fleet_(&fleet), models_(std::move(models)), options_(options), tap_(this) {
  init(std::move(planner_factory));
}

Gateway::Gateway(InferenceService& service, ModelRegistry models, Options options,
                 PlannerPool::StrategyFactory planner_factory)
    : service_(&service), models_(std::move(models)), options_(options), tap_(this) {
  init(std::move(planner_factory));
}

void Gateway::init(PlannerPool::StrategyFactory planner_factory) {
  if (options_.planner_workers > 0) {
    if (!planner_factory) {
      throw std::invalid_argument("Gateway: planner_workers set without a strategy factory");
    }
    pool_ = std::make_unique<PlannerPool>(options_.planner_workers,
                                          std::move(planner_factory));
    pool_->set_completion_signal([this] { clock_.wake(); });
    if (fleet_ != nullptr) {
      for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
        fleet_->shard(i).set_plan_provider(pool_.get());
      }
    } else {
      service_->set_plan_provider(pool_.get());
    }
  }
  if (fleet_ != nullptr) {
    fleet_->attach(&tap_);
  } else {
    service_->attach(&tap_);
  }
}

Gateway::~Gateway() {
  stop();
  // Detach everything wired into the fleet/service so it outlives the
  // gateway cleanly (and destroy the pool before the services it plans
  // for stop existing).
  if (fleet_ != nullptr) {
    fleet_->attach(nullptr);
    for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
      fleet_->shard(i).set_plan_provider(nullptr);
    }
  } else {
    service_->attach(nullptr);
    service_->set_plan_provider(nullptr);
  }
  pool_.reset();
}

Cluster& Gateway::cluster() {
  return fleet_ != nullptr ? fleet_->cluster() : service_->cluster();
}

const dnn::DnnGraph* Gateway::find_model(const std::string& name) const {
  const auto it = models_.find(name);
  return it != models_.end() ? it->second : nullptr;
}

GatewayStats Gateway::stats() const {
  GatewayStats stats;
  stats.received = received_.load(std::memory_order_relaxed);
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.responded = responded_.load(std::memory_order_relaxed);
  stats.bad_lines = bad_lines_.load(std::memory_order_relaxed);
  stats.repaired_plans = repaired_plans_.load(std::memory_order_relaxed);
  stats.cold_replans = cold_replans_.load(std::memory_order_relaxed);
  stats.partial_repriced_rows = partial_repriced_rows_.load(std::memory_order_relaxed);
  if (pool_) {
    const PlannerDeltaStats pool_stats = pool_->planner_stats();
    stats.repaired_plans += pool_stats.repaired_plans;
    stats.cold_replans += pool_stats.cold_replans;
    stats.partial_repriced_rows += pool_stats.partial_repriced_rows;
  }
  return stats;
}

void Gateway::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  stopping_.store(false, std::memory_order_release);
  listen_tcp();
  driver_ = std::thread([this] { driver_loop(); });
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Gateway::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  clock_.wake();
  // Driver first: it drains every in-flight request to a terminal outcome
  // (still writing responses to open connections) before exiting.
  if (driver_.joinable()) driver_.join();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  // The drain above may have left responses queued behind slow readers:
  // give every open connection a shared, bounded window to take them
  // before the shutdown below discards the rest.
  const auto flush_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (const auto& connection : connections) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(connection->write_mu);
        if (!connection->open.load(std::memory_order_acquire)) break;
        flush_locked(*connection);
        if (connection->outbox.empty()) break;
      }
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          flush_deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) break;
      pollfd pfd{connection->fd, POLLOUT, 0};
      ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    }
  }
  for (const auto& connection : connections) {
    std::lock_guard<std::mutex> lock(connection->write_mu);
    close_locked(*connection);
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
  }
  for (const auto& connection : connections) {
    ::close(connection->fd);
    connection->fd = -1;
  }
  running_.store(false, std::memory_order_release);
}

void Gateway::submit(const GatewayRequest& request,
                     std::function<void(const RequestRecord&)> on_done) {
  if (request.model == nullptr) throw std::invalid_argument("Gateway::submit: null model");
  received_.fetch_add(1, std::memory_order_relaxed);
  submissions_.push(Submission{request, std::move(on_done)});
  // Wake after the push: the driver's next drain sees this submission.
  clock_.wake();
}

void Gateway::driver_loop() {
  sim::Simulator& sim = cluster().simulator();
  sim.set_clock(&clock_);
  sim.set_pump([this] { return pump(); });
  sim.run();
  sim.set_pump(nullptr);
  sim.set_clock(nullptr);  // back to the owned VirtualClock (pure DES)
}

bool Gateway::pump() {
  if (pool_) pool_->pump();
  {
    // Mirror the driver-thread-only planner counters for cross-thread
    // readers (stats() and the TCP stats line).
    const ServiceStats service_stats =
        fleet_ != nullptr ? fleet_->stats() : service_->stats();
    repaired_plans_.store(service_stats.repaired_plans, std::memory_order_relaxed);
    cold_replans_.store(service_stats.cold_replans, std::memory_order_relaxed);
    partial_repriced_rows_.store(service_stats.partial_repriced_rows,
                                 std::memory_order_relaxed);
  }
  std::deque<Submission> batch = submissions_.drain();
  for (Submission& submission : batch) admit(std::move(submission));
  if (stopping_.load(std::memory_order_acquire)) {
    if (!callbacks_.empty() && submissions_.empty() && cluster().simulator().pending() == 0) {
      // Nothing left that could move these requests: requests parked on a
      // dead shard with no repair event coming can only fail. (Requests
      // waiting on planner-pool deliveries are in flight, not pending —
      // the sweep leaves them alone and their deliveries drain above.)
      finalize_stranded();
    }
    return !(callbacks_.empty() && submissions_.empty());
  }
  return true;
}

void Gateway::admit(Submission&& submission) {
  RequestSpec spec;
  spec.id = next_id_++;
  spec.model = submission.request.model;
  spec.qos = submission.request.qos;
  // The wall clock leads the simulator between events; never stamp an
  // arrival before the simulator's current instant.
  const double now_s = std::max(clock_.now(), cluster().simulator().now());
  spec.arrival_s = now_s;
  spec.deadline_s = submission.request.deadline_rel_s > 0.0
                        ? now_s + submission.request.deadline_rel_s
                        : 0.0;
  callbacks_.emplace(spec.id, std::move(submission.on_done));
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (fleet_ != nullptr) {
    fleet_->submit(spec);
  } else {
    service_->submit(spec);
  }
}

void Gateway::on_terminal(const RequestRecord& record) {
  const auto it = callbacks_.find(record.id);
  if (it == callbacks_.end()) return;  // not a gateway request (other sources)
  auto on_done = std::move(it->second);
  callbacks_.erase(it);
  responded_.fetch_add(1, std::memory_order_relaxed);
  if (on_done) on_done(record);
}

void Gateway::finalize_stranded() {
  bool again = true;
  while (again) {
    again = false;
    if (fleet_ != nullptr) {
      for (std::size_t i = 0; i < fleet_->shard_count(); ++i) {
        again = fleet_->shard(i).finalize_stranded() || again;
      }
    } else {
      again = service_->finalize_stranded();
    }
  }
}

// ---- TCP front end ---------------------------------------------------------

void Gateway::listen_tcp() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Gateway: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: bind/listen on 127.0.0.1 failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Gateway: getsockname failed");
  }
  port_ = ntohs(bound.sin_port);
}

void Gateway::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc <= 0) continue;  // timeout (re-check stop) or transient error
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Response lines are small and latency-bound: Nagle would hold each
    // one behind the client's delayed ACK of the previous (~40 ms).
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    {
      std::lock_guard<std::mutex> lock(connections_mu_);
      connections_.push_back(connection);
    }
    connection->reader = std::thread([this, connection] { connection_loop(connection); });
  }
}

void Gateway::connection_loop(const std::shared_ptr<Connection>& connection) {
  std::string buffer;
  char chunk[4096];
  while (connection->open.load(std::memory_order_acquire)) {
    pollfd pfd{connection->fd, POLLIN, 0};
    {
      // Responses the writers could not send without blocking wait here
      // for the socket to drain.
      std::lock_guard<std::mutex> lock(connection->write_mu);
      if (!connection->outbox.empty()) pfd.events |= POLLOUT;
    }
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (rc < 0) break;
    if (rc == 0) continue;  // timeout: re-check open
    if ((pfd.revents & POLLOUT) != 0) {
      std::lock_guard<std::mutex> lock(connection->write_mu);
      flush_locked(*connection);
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF / error; responses for in-flight requests drop
    // Only the new bytes can hold a newline; erase consumed lines once.
    std::size_t scan = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t pos;
    bool too_long = false;
    while ((pos = buffer.find('\n', scan)) != std::string::npos) {
      if (pos - start > kMaxLineBytes) {
        too_long = true;
        break;
      }
      std::size_t end = pos;
      if (end > start && buffer[end - 1] == '\r') --end;
      if (end > start) handle_line(connection, buffer.substr(start, end - start));
      start = scan = pos + 1;
    }
    buffer.erase(0, start);
    if (too_long || buffer.size() > kMaxLineBytes) {
      bad_lines_.fetch_add(1, std::memory_order_relaxed);
      write_line(*connection, error_line(-1, "line too long"));
      std::lock_guard<std::mutex> lock(connection->write_mu);
      close_locked(*connection);
      break;
    }
  }
  // The fd stays open until stop(): a driver-thread response racing a
  // client disconnect must never write into a recycled descriptor.
  connection->open.store(false, std::memory_order_release);
}

void Gateway::handle_line(const std::shared_ptr<Connection>& connection,
                          const std::string& line) {
  const auto tag_field = jsonl::number_field(line, "id");
  const long tag = tag_field ? static_cast<long>(*tag_field) : -1;
  if (const auto cmd = jsonl::string_field(line, "cmd")) {
    if (*cmd == "stats") {
      const GatewayStats s = stats();
      char buffer[320];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"event\":\"stats\",\"id\":%ld,\"received\":%llu,"
                    "\"submitted\":%llu,\"responded\":%llu,\"bad_lines\":%llu,"
                    "\"repaired_plans\":%llu,\"cold_replans\":%llu,"
                    "\"partial_repriced_rows\":%llu}",
                    tag, static_cast<unsigned long long>(s.received),
                    static_cast<unsigned long long>(s.submitted),
                    static_cast<unsigned long long>(s.responded),
                    static_cast<unsigned long long>(s.bad_lines),
                    static_cast<unsigned long long>(s.repaired_plans),
                    static_cast<unsigned long long>(s.cold_replans),
                    static_cast<unsigned long long>(s.partial_repriced_rows));
      write_line(*connection, buffer);
      return;
    }
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "unknown cmd: " + *cmd));
    return;
  }
  const auto model_name = jsonl::string_field(line, "model");
  if (!model_name) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "missing model"));
    return;
  }
  const dnn::DnnGraph* model = find_model(*model_name);
  if (model == nullptr) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    write_line(*connection, error_line(tag, "unknown model: " + *model_name));
    return;
  }
  GatewayRequest request;
  request.model = model;
  if (const auto qos_name = jsonl::string_field(line, "qos")) {
    const auto qos = parse_qos(*qos_name);
    if (!qos) {
      bad_lines_.fetch_add(1, std::memory_order_relaxed);
      write_line(*connection, error_line(tag, "unknown qos: " + *qos_name));
      return;
    }
    request.qos = *qos;
  }
  if (const auto deadline_ms = jsonl::number_field(line, "deadline_ms")) {
    request.deadline_rel_s = *deadline_ms / 1000.0;
  }
  {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer), "{\"event\":\"accepted\",\"id\":%ld}", tag);
    write_line(*connection, buffer);
  }
  submit(request, [this, connection, tag](const RequestRecord& record) {
    write_line(*connection, done_line(tag, record));
  });
}

void Gateway::write_line(Connection& connection, std::string_view line) {
  std::lock_guard<std::mutex> lock(connection.write_mu);
  if (!connection.open.load(std::memory_order_acquire)) return;
  connection.outbox.append(line);
  connection.outbox.push_back('\n');
  flush_locked(connection);
  if (connection.outbox.size() > kMaxOutboxBytes) close_locked(connection);
}

void Gateway::flush_locked(Connection& connection) {
  std::size_t sent = 0;
  while (sent < connection.outbox.size()) {
    const ssize_t n = ::send(connection.fd, connection.outbox.data() + sent,
                             connection.outbox.size() - sent, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;  // socket full
    if (n <= 0) {
      close_locked(connection);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
  connection.outbox.erase(0, sent);
}

void Gateway::close_locked(Connection& connection) {
  connection.open.store(false, std::memory_order_release);
  connection.outbox.clear();
  connection.outbox.shrink_to_fit();
  ::shutdown(connection.fd, SHUT_RDWR);
}

// ---- LineClient ------------------------------------------------------------

LineClient::~LineClient() { close(); }

bool LineClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool LineClient::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t offset = 0;
  while (offset < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + offset, framed.size() - offset, MSG_NOSIGNAL);
    if (n <= 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineClient::read_line(double timeout_s) {
  if (fd_ < 0) return std::nullopt;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  for (;;) {
    const std::size_t pos = buffer_.find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::steady_clock::duration::zero()) return std::nullopt;
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(remaining).count());
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, std::max(timeout_ms, 1));
    if (rc < 0) return std::nullopt;
    if (rc == 0) continue;  // loop re-checks the deadline
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return std::nullopt;  // EOF / error
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

}  // namespace hidp::runtime
