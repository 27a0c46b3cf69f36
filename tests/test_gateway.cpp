// Wall-clock serving runtime: the clock abstraction (VirtualClock DES
// identity, WallClock pacing and wakes), the MPSC submission queue, the
// planner pool (inline bit-identity, epoch staleness, dead-shard
// delivery), and the TCP gateway end to end under real concurrency.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hidp_strategy.hpp"
#include "runtime/fleet.hpp"
#include "runtime/gateway.hpp"
#include "runtime/planner_pool.hpp"
#include "runtime/workload.hpp"
#include "sim/clock.hpp"
#include "util/mpsc.hpp"

namespace hidp::runtime {
namespace {

using dnn::zoo::ModelId;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// ---- Clock -----------------------------------------------------------------

TEST(VirtualClock, JumpsWithoutBlockingAndNeverRewinds) {
  sim::VirtualClock clock;
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_DOUBLE_EQ(clock.now(), 0.0);
  EXPECT_DOUBLE_EQ(clock.advance_to(2.5), 2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  // A past target returns the target (the simulator clamps event times to
  // now itself) but never moves the clock backwards.
  EXPECT_DOUBLE_EQ(clock.advance_to(1.0), 1.0);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  // A drained DES has nothing to wait for; wake is a no-op.
  clock.wake();
  EXPECT_FALSE(clock.wait(10.0));
}

TEST(WallClock, AdvanceBlocksUntilTheTargetPasses) {
  sim::WallClock clock;
  EXPECT_FALSE(clock.is_virtual());
  const auto start = std::chrono::steady_clock::now();
  const double target = clock.now() + 0.05;
  const double reached = clock.advance_to(target);
  EXPECT_GE(reached, target);
  EXPECT_GE(seconds_since(start), 0.04);
}

TEST(WallClock, WakeInterruptsAdvanceEarly) {
  sim::WallClock clock;
  const double target = clock.now() + 30.0;  // far future: must not sleep it out
  std::thread waker([&clock] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    clock.wake();
  });
  const auto start = std::chrono::steady_clock::now();
  const double reached = clock.advance_to(target);
  waker.join();
  EXPECT_LT(reached, target);
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(WallClock, WakeIsLatchedForTheNextWait) {
  sim::WallClock clock;
  // A wake with no waiter must not be lost: the next wait consumes it.
  clock.wake();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(clock.wait(30.0));
  EXPECT_LT(seconds_since(start), 10.0);
  // Consumed: a short second wait times out instead.
  EXPECT_FALSE(clock.wait(0.01));
}

// ---- MpscQueue -------------------------------------------------------------

TEST(MpscQueue, CollectsConcurrentProducersFifoPerProducer) {
  util::MpscQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) queue.push(p * kPerProducer + i);
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(queue.size(), static_cast<std::size_t>(kProducers * kPerProducer));

  const auto batch = queue.drain();
  EXPECT_TRUE(queue.empty());
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  // Per-producer FIFO: each producer's items appear in its push order.
  std::vector<int> last(kProducers, -1);
  for (const int value : batch) {
    const int producer = value / kPerProducer;
    EXPECT_LT(last[producer], value % kPerProducer);
    last[producer] = value % kPerProducer;
  }
}

// ---- Simulator under an explicit clock -------------------------------------

std::vector<RequestRecord> run_paper_service(const std::vector<RequestSpec>& workload,
                                             sim::Clock* clock) {
  Cluster cluster(platform::paper_cluster());
  if (clock != nullptr) cluster.simulator().set_clock(clock);
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  ReplayArrivals arrivals(workload);
  service.attach(&arrivals);
  auto records = service.run();
  cluster.simulator().set_clock(nullptr);
  return records;
}

void expect_bit_identical(const std::vector<RequestRecord>& a,
                          const std::vector<RequestRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].strategy, b[i].strategy);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].nodes_used, b[i].nodes_used);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].dispatch_s, b[i].dispatch_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].finish_s, b[i].finish_s) << "request " << a[i].id;
    EXPECT_EQ(a[i].flops, b[i].flops) << "request " << a[i].id;
  }
}

/// The clock abstraction must not perturb the DES: a simulator with an
/// explicitly installed VirtualClock reproduces the default-clock run bit
/// for bit on the paper workloads.
TEST(SimulatorClock, ExplicitVirtualClockIsBitIdenticalToDefault) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kResNet152), 8, 0.2);
  const auto default_records = run_paper_service(workload, nullptr);
  sim::VirtualClock explicit_clock;
  const auto explicit_records = run_paper_service(workload, &explicit_clock);
  expect_bit_identical(default_records, explicit_records);
}

// ---- PlannerPool -----------------------------------------------------------

PlannerPool::StrategyFactory hidp_factory() {
  return [] { return std::make_unique<core::HidpStrategy>(); };
}

std::size_t terminal_count(const ServiceStats& stats) {
  return stats.completed + stats.rejected + stats.dropped + stats.deadline_misses +
         stats.failed;
}

/// Drives a service whose plans come from a PlannerPool to completion under
/// the VirtualClock: the simulator pump waits for the pool between events,
/// so every plan is delivered at the sim time it was requested.
std::vector<RequestRecord> run_pooled_service(const std::vector<RequestSpec>& workload,
                                              std::size_t workers, ServiceStats* stats) {
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  PlannerPool pool(workers, hidp_factory());
  service.set_plan_provider(&pool);
  ReplayArrivals arrivals(workload);
  service.attach(&arrivals);
  cluster.simulator().set_pump([&] {
    pool.wait_idle();
    pool.pump();
    return terminal_count(service.stats()) < workload.size();
  });
  auto records = service.run();
  cluster.simulator().set_pump(nullptr);
  service.set_plan_provider(nullptr);
  if (stats != nullptr) *stats = service.stats();
  return records;
}

/// A single-worker pool preserves delivery order, so off-thread planning is
/// the same computation as inline planning — records match bit for bit.
TEST(PlannerPool, SingleWorkerIsBitIdenticalToInlinePlanning) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kEfficientNetB0), 8, 0.15);
  const auto inline_records = run_paper_service(workload, nullptr);
  ServiceStats pooled_stats;
  const auto pooled_records = run_pooled_service(workload, 1, &pooled_stats);
  expect_bit_identical(inline_records, pooled_records);
  EXPECT_EQ(pooled_stats.async_plans, workload.size());
  EXPECT_EQ(pooled_stats.stale_plans, 0u);
}

/// Multiple workers may reorder deliveries, but every request still reaches
/// its terminal outcome with one async plan each and no stale discards.
TEST(PlannerPool, MultiWorkerCompletesEveryRequest) {
  ModelSet models;
  const std::vector<RequestSpec> workload =
      periodic_stream(models.graph(ModelId::kResNet152), 10, 0.1);
  ServiceStats stats;
  const auto records = run_pooled_service(workload, 3, &stats);
  ASSERT_EQ(records.size(), workload.size());
  for (const RequestRecord& record : records) {
    EXPECT_EQ(record.outcome, RequestOutcome::kCompleted) << "request " << record.id;
  }
  EXPECT_EQ(stats.completed, workload.size());
  EXPECT_EQ(stats.async_plans, workload.size());
  EXPECT_EQ(stats.stale_plans, 0u);
}

/// A plan computed across a cluster mutation is stale: the epoch check at
/// delivery discards it and replans against the current cluster. Driven
/// deterministically — the sim drains with the job queued, the epoch bumps,
/// then the pool pumps.
TEST(PlannerPool, StalePlanIsDiscardedAndReplanned) {
  ModelSet models;
  Cluster cluster(platform::paper_cluster());
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 1);
  PlannerPool pool(1, hidp_factory());
  service.set_plan_provider(&pool);
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});

  // The arrival fires and requests a plan; the sim drains with it in flight.
  cluster.simulator().run();
  pool.wait_idle();
  EXPECT_EQ(service.stats().async_plans, 1u);
  EXPECT_EQ(pool.planned(), 1u);

  // A DVFS event on a non-leader node bumps the epoch (shard stays live).
  const std::uint64_t before = cluster.membership_epoch();
  cluster.set_dvfs_scale(0, 0.5);
  ASSERT_GT(cluster.membership_epoch(), before);

  // Delivery detects the mismatch, discards and re-requests.
  pool.pump();
  EXPECT_EQ(service.stats().stale_plans, 1u);
  EXPECT_EQ(service.stats().async_plans, 2u);
  EXPECT_EQ(service.stats().completed, 0u);

  // The replacement plan is fresh: delivery dispatches and the run ends.
  pool.wait_idle();
  pool.pump();
  cluster.simulator().run();
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kCompleted);
  EXPECT_EQ(service.stats().completed, 1u);
  EXPECT_EQ(service.stats().stale_plans, 1u);
  service.set_plan_provider(nullptr);
}

/// When the event that staled the plan also killed the shard, the request
/// routes through the standard churn machinery to a terminal failure
/// instead of replanning forever against a dead shard.
TEST(PlannerPool, StalePlanOnDeadShardFailsTerminally) {
  ModelSet models;
  std::vector<platform::NodeModel> nodes;
  nodes.push_back(platform::make_device("Jetson TX2"));
  nodes.push_back(platform::make_device("Jetson TX2"));
  Cluster cluster(std::move(nodes));
  core::HidpStrategy strategy;
  InferenceService service(cluster, strategy, 0);
  PlannerPool pool(1, hidp_factory());
  service.set_plan_provider(&pool);
  service.submit(RequestSpec{0, &models.graph(ModelId::kEfficientNetB0), 0.0});

  cluster.simulator().run();
  pool.wait_idle();
  // Leader death: bumps the epoch AND takes the shard down.
  cluster.set_node_available(0, false);
  pool.pump();
  cluster.simulator().run();

  EXPECT_EQ(service.stats().stale_plans, 1u);
  EXPECT_EQ(service.stats().async_plans, 1u);  // no replan against a dead shard
  EXPECT_EQ(service.stats().failed, 1u);
  const auto records = service.run();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, RequestOutcome::kFailed);
  service.set_plan_provider(nullptr);
}

// ---- Gateway ---------------------------------------------------------------

/// Two (Orin NX, TX2) shards behind HiDP planning, as in the examples.
struct GatewayFixture {
  GatewayFixture()
      : cluster(make_nodes()), routing(), fleet(cluster, make_shards(), routing) {}

  static std::vector<platform::NodeModel> make_nodes() {
    std::vector<platform::NodeModel> nodes;
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(platform::make_device("Jetson Orin NX"));
      nodes.push_back(platform::make_device("Jetson TX2"));
    }
    return nodes;
  }
  std::vector<FleetShard> make_shards() {
    shard_strategies.clear();
    std::vector<FleetShard> shards;
    for (std::size_t s = 0; s < 2; ++s) {
      shard_strategies.push_back(std::make_unique<core::HidpStrategy>());
      FleetShard shard;
      shard.strategy = shard_strategies.back().get();
      shard.nodes = {2 * s, 2 * s + 1};
      shard.leader = 2 * s;
      shards.push_back(std::move(shard));
    }
    return shards;
  }
  Gateway::ModelRegistry registry() {
    Gateway::ModelRegistry models_by_name;
    for (const ModelId id : {ModelId::kEfficientNetB0, ModelId::kResNet152}) {
      models_by_name[dnn::zoo::model_name(id)] = &models.graph(id);
    }
    return models_by_name;
  }

  ModelSet models;
  std::vector<std::unique_ptr<core::HidpStrategy>> shard_strategies;
  Cluster cluster;
  LeastLoadedRouting routing;
  ServiceFleet fleet;
};

/// The acceptance scenario: >= 4 concurrent TCP clients against the
/// WallClock-driven fleet, each receiving its streamed terminal outcome,
/// with balanced gateway and fleet counters afterwards.
TEST(Gateway, ServesConcurrentTcpClientsToTerminalOutcomes) {
  GatewayFixture fixture;
  Gateway::Options options;
  options.planner_workers = 2;
  Gateway gateway(fixture.fleet, fixture.registry(), options,
                  [] { return std::make_unique<core::HidpStrategy>(); });
  gateway.start();
  ASSERT_TRUE(gateway.running());
  ASSERT_GT(gateway.port(), 0);

  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<int> done(kClients, 0);
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client;
      ASSERT_TRUE(client.connect(gateway.port()));
      const char* model = c % 2 == 0 ? "EfficientNetB0" : "ResNet152";
      for (int r = 0; r < kPerClient; ++r) {
        const int id = c * kPerClient + r;
        const std::string line = "{\"id\":" + std::to_string(id) + ",\"model\":\"" +
                                 model + "\",\"qos\":\"standard\"}";
        ASSERT_TRUE(client.send_line(line));
        bool terminal = false;
        while (!terminal) {
          const auto response = client.read_line(30.0);
          ASSERT_TRUE(response.has_value()) << "client " << c << " request " << id;
          const auto event = jsonl::string_field(*response, "event");
          ASSERT_TRUE(event.has_value()) << *response;
          ASSERT_NE(*event, "error") << *response;
          const auto echoed = jsonl::number_field(*response, "id");
          ASSERT_TRUE(echoed.has_value()) << *response;
          EXPECT_EQ(static_cast<int>(*echoed), id) << *response;
          if (*event == "accepted") {
            ++accepted;
          } else if (*event == "done") {
            const auto outcome = jsonl::string_field(*response, "outcome");
            ASSERT_TRUE(outcome.has_value()) << *response;
            EXPECT_FALSE(outcome->empty());
            const auto latency = jsonl::number_field(*response, "latency_ms");
            ASSERT_TRUE(latency.has_value()) << *response;
            EXPECT_GE(*latency, 0.0);
            terminal = true;
          }
        }
        ++done[c];
      }
    });
  }
  for (auto& client : clients) client.join();
  gateway.stop();
  EXPECT_FALSE(gateway.running());

  constexpr std::size_t kTotal = kClients * kPerClient;
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(done[c], kPerClient) << "client " << c;
  EXPECT_EQ(accepted.load(), static_cast<int>(kTotal));
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.received, kTotal);
  EXPECT_EQ(stats.submitted, kTotal);
  EXPECT_EQ(stats.responded, kTotal);
  EXPECT_EQ(stats.bad_lines, 0u);
  // Fleet accounting balances: every admitted request reached exactly one
  // terminal outcome.
  const ServiceStats fleet_stats = fixture.fleet.stats();
  EXPECT_EQ(fleet_stats.submitted, kTotal);
  EXPECT_EQ(terminal_count(fleet_stats), kTotal);
  // All plans came off the driver thread.
  ASSERT_NE(gateway.planner_pool(), nullptr);
  EXPECT_GE(gateway.planner_pool()->planned(), kTotal);
}

/// Malformed lines and unknown models get streamed "error" events (and a
/// bad_lines count) without poisoning the connection for later requests.
TEST(Gateway, RejectsBadLinesAndKeepsTheConnectionUsable) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  ASSERT_TRUE(client.send_line("this is not json"));
  auto response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");

  ASSERT_TRUE(client.send_line("{\"id\":7,\"model\":\"NoSuchNet\"}"));
  response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");
  EXPECT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), 7);

  // The same connection still serves a valid request afterwards.
  ASSERT_TRUE(client.send_line("{\"id\":8,\"model\":\"EfficientNetB0\"}"));
  bool terminal = false;
  while (!terminal) {
    response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value());
    const auto event = jsonl::string_field(*response, "event").value_or("");
    ASSERT_NE(event, "error") << *response;
    terminal = event == "done";
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().bad_lines, 2u);
  EXPECT_EQ(gateway.stats().responded, 1u);
}

/// The {"cmd":"stats"} protocol line answers with the lifecycle counters
/// plus the planner delta counters, readable mid-run from a client thread
/// (the driver mirrors the fleet's driver-thread-only stats into atomics).
TEST(Gateway, StatsLineReportsPlannerCountersOverTcp) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));

  // Drive one request to its terminal first: planning has then built at
  // least one cost model, and the driver has pumped the planner counters
  // into the cross-thread mirror.
  ASSERT_TRUE(client.send_line("{\"id\":1,\"model\":\"EfficientNetB0\"}"));
  bool terminal = false;
  while (!terminal) {
    const auto response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value());
    terminal = jsonl::string_field(*response, "event").value_or("") == "done";
  }

  ASSERT_TRUE(client.send_line("{\"id\":2,\"cmd\":\"stats\"}"));
  auto response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "stats");
  EXPECT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), 2);
  EXPECT_GE(jsonl::number_field(*response, "received").value_or(0.0), 1.0);
  EXPECT_GE(jsonl::number_field(*response, "responded").value_or(0.0), 1.0);
  EXPECT_GE(jsonl::number_field(*response, "cold_replans").value_or(0.0), 1.0);
  ASSERT_TRUE(jsonl::number_field(*response, "repaired_plans").has_value());
  ASSERT_TRUE(jsonl::number_field(*response, "partial_repriced_rows").has_value());

  // Unknown commands are rejected without poisoning the connection.
  ASSERT_TRUE(client.send_line("{\"cmd\":\"bogus\"}"));
  response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "error");

  gateway.stop();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.responded, 1u);
  EXPECT_GE(stats.cold_replans, 1u);
  EXPECT_EQ(stats.bad_lines, 1u);
}

/// Programmatic submission from multiple threads: every on_done callback
/// fires exactly once with a terminal record.
TEST(Gateway, ProgrammaticSubmitFromConcurrentThreads) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2;
  std::vector<std::future<RequestOutcome>> outcomes;
  std::vector<std::thread> submitters;
  std::vector<std::promise<RequestOutcome>> promises(kThreads * kPerThread);
  for (auto& promise : promises) outcomes.push_back(promise.get_future());
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        GatewayRequest request;
        request.model = &fixture.models.graph(ModelId::kEfficientNetB0);
        request.qos = QosClass::kInteractive;
        std::promise<RequestOutcome>& promise = promises[t * kPerThread + i];
        gateway.submit(request, [&promise](const RequestRecord& record) {
          promise.set_value(record.outcome);
        });
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& outcome : outcomes) {
    ASSERT_EQ(outcome.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_EQ(outcome.get(), RequestOutcome::kCompleted);
  }
  gateway.stop();
  EXPECT_EQ(gateway.stats().responded, static_cast<std::uint64_t>(kThreads * kPerThread));
  // A null model is rejected at the submission boundary, not in the driver.
  EXPECT_THROW(gateway.submit(GatewayRequest{}, [](const RequestRecord&) {}),
               std::invalid_argument);
}

/// stop() drains: requests in flight when shutdown begins still reach their
/// terminal outcome and their callbacks fire before stop() returns.
TEST(Gateway, StopDrainsInFlightRequests) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();
  std::atomic<int> delivered{0};
  for (int i = 0; i < 3; ++i) {
    GatewayRequest request;
    request.model = &fixture.models.graph(ModelId::kResNet152);
    gateway.submit(request, [&delivered](const RequestRecord&) { ++delivered; });
  }
  gateway.stop();  // immediate: no waiting for completion first
  EXPECT_EQ(delivered.load(), 3);
  EXPECT_EQ(gateway.stats().responded, 3u);
}

/// Reads protocol lines until `id`'s terminal line, checking that it gets
/// exactly one "accepted" first.
void expect_accepted_then_done(LineClient& client, int id) {
  bool accepted = false;
  for (;;) {
    const auto response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value()) << "request " << id;
    const auto event = jsonl::string_field(*response, "event").value_or("");
    ASSERT_EQ(static_cast<int>(jsonl::number_field(*response, "id").value_or(-1)), id)
        << *response;
    if (event == "accepted") {
      ASSERT_FALSE(accepted) << *response;
      accepted = true;
    } else {
      ASSERT_EQ(event, "done") << *response;
      ASSERT_TRUE(accepted) << "done before accepted: " << *response;
      return;
    }
  }
}

/// Sends `head`, then `cycle` over and over, never blocking. True once the
/// peer has taken no byte for `stall_s`; false on a socket error or after
/// 256 MiB without a stall.
bool send_until_stalled(int fd, const std::string& head, const std::string& cycle,
                        double stall_s) {
  std::string_view pending = head;
  std::size_t total = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (total < (std::size_t{256} << 20)) {
    if (pending.empty()) pending = cycle;
    const ssize_t n = ::send(fd, pending.data(), pending.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      pending.remove_prefix(static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    if (seconds_since(last_progress) >= stall_s) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// A client that stops reading must not stall anyone else: its responses
/// queue in its own outbox (the driver never blocks in send()), and once
/// that passes the cap the gateway closes it. Flooded with "stats" lines
/// (~10x more response than request bytes) plus real requests whose
/// "done" lines the driver must write into the saturated connection.
TEST(Gateway, ClientThatNeverReadsDoesNotStallOthers) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  const int hog = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(hog, 0);
  int rcvbuf = 4096;
  ::setsockopt(hog, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(gateway.port());
  ASSERT_EQ(::connect(hog, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The gateway reads a connection until it closes it, so once the hog's
  // sends stall for good its outbox has passed the cap (after the kernel
  // send buffer filled). The real requests come first; their "done"
  // lines land while the hog is saturated.
  std::string stats_block;
  for (int i = 0; i < 1000; ++i) stats_block += "{\"cmd\":\"stats\"}\n";
  std::string head;
  for (int id = 0; id < 8; ++id) {
    head += "{\"id\":" + std::to_string(id) + ",\"model\":\"EfficientNetB0\"}\n" + stats_block;
  }
  ASSERT_TRUE(send_until_stalled(hog, head, stats_block, 3.0));

  // A second client is served while the first one's responses pile up.
  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  for (int id = 100; id < 104; ++id) {
    ASSERT_TRUE(client.send_line("{\"id\":" + std::to_string(id) +
                                 ",\"model\":\"EfficientNetB0\"}"));
    expect_accepted_then_done(client, id);
  }

  // The hog was closed: what the kernel still held arrives, then EOF, all
  // while the gateway keeps running.
  bool eof = false;
  const auto start = std::chrono::steady_clock::now();
  char chunk[65536];
  while (!eof && seconds_since(start) < 30.0) {
    pollfd pfd{hog, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(hog, chunk, sizeof(chunk), 0);
    eof = n <= 0;
  }
  EXPECT_TRUE(eof) << "the gateway kept a never-reading client open";
  EXPECT_TRUE(gateway.running());
  ::close(hog);

  const auto stop_start = std::chrono::steady_clock::now();
  gateway.stop();
  EXPECT_LT(seconds_since(stop_start), 10.0);
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.received, stats.submitted);
  EXPECT_EQ(stats.submitted, stats.responded);
  EXPECT_GE(stats.responded, 4u);
  EXPECT_EQ(stats.bad_lines, 0u);
}

/// Clients that hang up before their "done" line: one right after sending,
/// one after its "accepted" line. Their requests still run to a terminal
/// outcome whose response has nowhere to go, a second client is served
/// meanwhile, the counters balance and the gateway stops promptly.
TEST(Gateway, ClientThatDisconnectsMidRequestDoesNotDisturbOthers) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  {
    LineClient quitter;
    ASSERT_TRUE(quitter.connect(gateway.port()));
    ASSERT_TRUE(quitter.send_line("{\"id\":1,\"model\":\"ResNet152\"}"));
  }  // closed before any response
  {
    LineClient quitter;
    ASSERT_TRUE(quitter.connect(gateway.port()));
    ASSERT_TRUE(quitter.send_line("{\"id\":2,\"model\":\"ResNet152\"}"));
    const auto response = quitter.read_line(30.0);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(jsonl::string_field(*response, "event").value_or(""), "accepted") << *response;
  }  // closed after "accepted", before "done"

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  ASSERT_TRUE(client.send_line("{\"id\":3,\"model\":\"EfficientNetB0\"}"));
  expect_accepted_then_done(client, 3);

  // The abandoned requests finish too; their done lines are dropped.
  const auto start = std::chrono::steady_clock::now();
  while (gateway.stats().responded < 3 && seconds_since(start) < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(gateway.running());
  const auto stop_start = std::chrono::steady_clock::now();
  gateway.stop();
  EXPECT_LT(seconds_since(stop_start), 10.0);
  EXPECT_FALSE(gateway.running());
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.received, 3u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.responded, 3u);
  EXPECT_EQ(stats.bad_lines, 0u);
  const ServiceStats fleet_stats = fixture.fleet.stats();
  EXPECT_EQ(fleet_stats.submitted, 3u);
  EXPECT_EQ(terminal_count(fleet_stats), 3u);
}

/// A line past the cap (here: one that never ends) gets an error line and
/// its connection closed; other connections are unaffected.
TEST(Gateway, OverlongLineClosesOnlyItsConnection) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient hostile;
  ASSERT_TRUE(hostile.connect(gateway.port()));
  ASSERT_TRUE(hostile.send_line(std::string(Gateway::kMaxLineBytes + 1024, 'x')));
  const auto response = hostile.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "{\"event\":\"error\",\"id\":-1,\"error\":\"line too long\"}");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(hostile.read_line(10.0).has_value());
  EXPECT_LT(seconds_since(start), 5.0) << "expected EOF, not a read timeout";

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  ASSERT_TRUE(client.send_line("{\"id\":1,\"model\":\"EfficientNetB0\"}"));
  expect_accepted_then_done(client, 1);
  gateway.stop();
  EXPECT_EQ(gateway.stats().bad_lines, 1u);
  EXPECT_EQ(gateway.stats().responded, 1u);
}

/// Client-controlled text comes back whole and escaped: no fixed buffer
/// truncates it, and quotes/control characters cannot break the JSON.
TEST(Gateway, LongUnknownModelNameComesBackAsValidJson) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  std::string name(300, 'm');
  name[100] = '"';
  name[200] = '\t';  // raw control byte inside the request's JSON string
  std::string request_name;
  for (const char c : name) {
    if (c == '"') request_name += '\\';
    request_name += c;
  }
  std::string escaped_name = name;
  escaped_name.replace(200, 1, "\\t");
  escaped_name.replace(100, 1, "\\\"");

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  ASSERT_TRUE(client.send_line("{\"id\":9,\"model\":\"" + request_name + "\"}"));
  const auto response = client.read_line(10.0);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "{\"event\":\"error\",\"id\":9,\"error\":\"unknown model: " +
                           escaped_name + "\"}");
  for (const char c : *response) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  gateway.stop();
}

/// Requests pipelined in one write still get, per id, one "accepted"
/// followed by one "done" on their connection.
TEST(Gateway, BackToBackRequestsGetAcceptedBeforeDone) {
  GatewayFixture fixture;
  Gateway gateway(fixture.fleet, fixture.registry());
  gateway.start();

  LineClient client;
  ASSERT_TRUE(client.connect(gateway.port()));
  constexpr int kRequests = 6;
  std::string batch;
  for (int id = 0; id < kRequests; ++id) {
    if (id > 0) batch += '\n';
    batch += "{\"id\":" + std::to_string(id) + ",\"model\":\"" +
             (id % 3 == 2 ? "ResNet152" : "EfficientNetB0") + "\"}";
  }
  ASSERT_TRUE(client.send_line(batch));
  std::vector<int> state(kRequests, 0);  // 0 = none, 1 = accepted, 2 = done
  for (int lines = 0; lines < 2 * kRequests; ++lines) {
    const auto response = client.read_line(30.0);
    ASSERT_TRUE(response.has_value()) << "after " << lines << " lines";
    const auto event = jsonl::string_field(*response, "event").value_or("");
    const int id = static_cast<int>(jsonl::number_field(*response, "id").value_or(-1));
    ASSERT_TRUE(id >= 0 && id < kRequests) << *response;
    if (event == "accepted") {
      EXPECT_EQ(state[id], 0) << *response;
      state[id] = 1;
    } else {
      ASSERT_EQ(event, "done") << *response;
      EXPECT_EQ(state[id], 1) << "done before accepted: " << *response;
      state[id] = 2;
    }
  }
  for (int id = 0; id < kRequests; ++id) EXPECT_EQ(state[id], 2) << "request " << id;
  gateway.stop();
  EXPECT_EQ(gateway.stats().responded, static_cast<std::uint64_t>(kRequests));
}

// ---- Line-protocol JSON helpers --------------------------------------------

TEST(JsonLine, ExtractsStringAndNumberFields) {
  const std::string line =
      "{\"id\":42,\"model\":\"ResNet152\",\"qos\":\"best-effort\",\"deadline_ms\":250.5}";
  EXPECT_EQ(jsonl::string_field(line, "model").value_or(""), "ResNet152");
  EXPECT_EQ(jsonl::string_field(line, "qos").value_or(""), "best-effort");
  EXPECT_DOUBLE_EQ(jsonl::number_field(line, "id").value_or(0), 42.0);
  EXPECT_DOUBLE_EQ(jsonl::number_field(line, "deadline_ms").value_or(0), 250.5);
  EXPECT_FALSE(jsonl::string_field(line, "missing").has_value());
  EXPECT_FALSE(jsonl::number_field(line, "model").has_value());
}

}  // namespace
}  // namespace hidp::runtime
