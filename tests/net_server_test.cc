// NetServer end-to-end tests: request round trips over loopback TCP,
// admission-control busy shedding, protocol-error connection teardown,
// client disconnect mid-request, clean engine drain when clients are
// killed under load, idle reaping, and fd exhaustion (forked children with
// a capped RLIMIT_NOFILE). The engine under the server runs whichever disk
// backend NBLB_IO_BACKEND resolves to; CI exercises both.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/event_ring.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace nblb::net {
namespace {

Schema KvSchema() {
  return Schema({{"id", TypeId::kInt64, 0}, {"payload", TypeId::kChar, 64}});
}

Row KvRow(int64_t id) {
  return {Value::Int64(id), Value::Char("row-" + std::to_string(id))};
}

ShardedEngineOptions EngineOptions(const std::string& tag) {
  ShardedEngineOptions opts;
  opts.num_shards = 2;
  opts.num_workers = 2;
  opts.num_completion_threads = 2;
  opts.path_prefix = ::testing::TempDir() + "nblb_net_" + tag;
  opts.buffer_pool_frames_per_shard = 256;
  opts.schema = KvSchema();
  opts.table_options.key_columns = {0};
  return opts;
}

void Cleanup(const ShardedEngineOptions& opts) {
  for (uint32_t s = 0; s < opts.num_shards; ++s) {
    std::remove(
        (opts.path_prefix + ".shard" + std::to_string(s) + ".db").c_str());
  }
}

std::unique_ptr<NetClient> MustConnect(const NetServer& server) {
  NetClient::Options copts;
  copts.port = server.port();
  auto client = NetClient::Connect(copts);
  EXPECT_OK(client.status());
  return std::move(client).ValueOrDie();
}

// Generous default: under TSan on a loaded single-core CI runner the whole
// process can stall for seconds at a time, and only failing runs pay it.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// Child-process only (it lowers RLIMIT_NOFILE for good): takes every free fd
// below a small cap except `leave_free`, so the next `leave_free` fds the
// process opens succeed and the one after fails with EMFILE.
bool FillFdsLeavingFree(size_t leave_free) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  lim.rlim_cur = std::min<rlim_t>(lim.rlim_cur, 256);
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  std::vector<int> fillers;
  for (int fd; (fd = ::dup(STDERR_FILENO)) >= 0;) fillers.push_back(fd);
  if (errno != EMFILE || fillers.size() < leave_free) return false;
  for (size_t i = 0; i < leave_free; ++i) {
    ::close(fillers.back());
    fillers.pop_back();
  }
  return true;
}

/// Kills and reaps a forked child the test did not get to reap itself, so
/// a failed assertion cannot leave it running.
struct ChildReaper {
  pid_t pid;
  ~ChildReaper() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

double ProcessCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

TEST(NetServerTest, RoundTripAllRequestKinds) {
  ShardedEngineOptions eopts = EngineOptions("roundtrip");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  ASSERT_NE(server->port(), 0);
  auto client = MustConnect(*server);

  // Insert 100 rows over the wire.
  RequestBatch inserts;
  for (int64_t id = 0; id < 100; ++id) {
    inserts.push_back(Request::Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(BatchResult ins, client->Call(inserts));
  ASSERT_EQ(ins.results.size(), 100u);
  EXPECT_TRUE(ins.all_ok());

  // Point lookups, projected lookups, a miss, an update, a delete.
  RequestBatch mixed;
  mixed.push_back(Request::Get(7));
  mixed.push_back(Request::GetProjected(8, {1}));
  mixed.push_back(Request::Get(100));  // miss
  mixed.push_back(Request::Update(9, {Value::Int64(9), Value::Char("nine")}));
  mixed.push_back(Request::Delete(10));
  ASSERT_OK_AND_ASSIGN(BatchResult got, client->Call(mixed));
  ASSERT_EQ(got.results.size(), 5u);
  ASSERT_OK(got.results[0].status);
  ASSERT_EQ(got.results[0].row.size(), 2u);
  EXPECT_EQ(got.results[0].row[0].AsInt(), 7);
  EXPECT_EQ(got.results[0].row[1].AsString(), "row-7");
  ASSERT_OK(got.results[1].status);
  ASSERT_EQ(got.results[1].row.size(), 1u);  // projected: payload only
  EXPECT_EQ(got.results[1].row[0].AsString(), "row-8");
  EXPECT_TRUE(got.results[2].status.IsNotFound());
  ASSERT_OK(got.results[3].status);
  ASSERT_OK(got.results[4].status);

  // The update and delete landed (verified through the wire again).
  ASSERT_OK_AND_ASSIGN(BatchResult check,
                       client->Call({Request::Get(9), Request::Get(10)}));
  ASSERT_OK(check.results[0].status);
  EXPECT_EQ(check.results[0].row[1].AsString(), "nine");
  EXPECT_TRUE(check.results[1].status.IsNotFound());

  const NetStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.frames_in, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.busy_shed, 0u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, PipelinedResponsesPairUpByRequestId) {
  ShardedEngineOptions eopts = EngineOptions("pipeline");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);

  // 32 in flight at once; responses may arrive out of order, the client
  // pairs them back up by id.
  std::vector<uint64_t> ids;
  for (int b = 0; b < 32; ++b) {
    ASSERT_OK_AND_ASSIGN(
        uint64_t id,
        client->Send({Request::Get(b), Request::Get(63 - b)}));
    ids.push_back(id);
  }
  for (size_t b = 0; b < ids.size(); ++b) {
    ASSERT_OK_AND_ASSIGN(BatchResult result, client->Wait(ids[b]));
    ASSERT_EQ(result.results.size(), 2u);
    ASSERT_OK(result.results[0].status);
    EXPECT_EQ(result.results[0].row[0].AsInt(), static_cast<int64_t>(b));
    ASSERT_OK(result.results[1].status);
    EXPECT_EQ(result.results[1].row[0].AsInt(), static_cast<int64_t>(63 - b));
  }
  EXPECT_EQ(client->outstanding(), 0u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// Replies larger than the socket buffers, to a client that is not reading
// yet: the server's gathered sends end part-way through frames and resume on
// write readiness, and every frame must still arrive whole and in order.
TEST(NetServerTest, SlowReaderGetsEveryReplyIntact) {
  ShardedEngineOptions eopts = EngineOptions("slowreader");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  constexpr int64_t kRows = 1000;
  auto payload = [](int64_t id) {
    std::string p = std::to_string(id);
    return p + std::string(64 - p.size(), 'x');
  };
  for (int64_t id = 0; id < kRows; ++id) {
    ASSERT_OK(engine->Insert(id, {Value::Int64(id), Value::Char(payload(id))}));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  const int rcvbuf = 64 * 1024;
  ::setsockopt(client->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  // ~5 MB of replies, past the largest send buffer TCP autotunes to (4 MB
  // by default), queued against a receiver that sleeps first.
  RequestBatch all;
  for (int64_t id = 0; id < kRows; ++id) all.push_back(Request::Get(id));
  std::vector<uint64_t> ids;
  for (int f = 0; f < 60; ++f) {  // under max_inflight_per_conn
    ASSERT_OK_AND_ASSIGN(uint64_t id, client->Send(all));
    ids.push_back(id);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (uint64_t id : ids) {
    ASSERT_OK_AND_ASSIGN(BatchResult r, client->Wait(id));
    ASSERT_EQ(r.results.size(), static_cast<size_t>(kRows));
    for (int64_t k = 0; k < kRows; ++k) {
      ASSERT_OK(r.results[k].status);
      ASSERT_EQ(r.results[k].row[1].AsString(), payload(k));
    }
  }
  EXPECT_EQ(server->stats().responses, ids.size());

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, ConcurrentClientsAllServed) {
  ShardedEngineOptions eopts = EngineOptions("concurrent");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 256; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  constexpr int kClients = 8;
  constexpr int kCallsPerClient = 50;
  std::atomic<uint64_t> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = MustConnect(*server);
      for (int b = 0; b < kCallsPerClient; ++b) {
        RequestBatch batch;
        for (int k = 0; k < 4; ++k) {
          batch.push_back(Request::Get((t * 37 + b * 4 + k) % 256));
        }
        auto result = client->Call(batch);
        ASSERT_OK(result.status());
        for (const RequestResult& r : result->results) {
          ASSERT_OK(r.status);
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), static_cast<uint64_t>(kClients * kCallsPerClient * 4));
  const NetStatsSnapshot stats = server->stats();
  EXPECT_EQ(stats.accepts, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.frames_in,
            static_cast<uint64_t>(kClients * kCallsPerClient));
  EXPECT_EQ(stats.responses, stats.frames_in);

  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, AdmissionControlShedsWithBusyReplies) {
  ShardedEngineOptions eopts = EngineOptions("shed");
  eopts.num_shards = 1;
  eopts.num_workers = 1;
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  NetServerOptions sopts;
  sopts.max_inflight_per_conn = 1;  // second pipelined frame must shed
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));
  auto client = MustConnect(*server);

  // Write a burst of frames in ONE send so they all arrive together: the
  // loop decodes them back-to-back while the first is still in the engine,
  // so later frames are over the per-connection cap and shed.
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    AppendRequestFrame(static_cast<uint64_t>(i + 1),
                       {Request::Get(static_cast<uint64_t>(i % 64))}, &burst);
  }
  ASSERT_OK(client->SendRaw(burst.data(), burst.size()));
  // Register the pending sizes the raw write bypassed.
  int busy = 0, served = 0;
  FrameDecoder decoder;
  std::vector<char> rbuf(64 * 1024);
  Frame frame;
  while (busy + served < kBurst) {
    const ssize_t n = ::recv(client->fd(), rbuf.data(), rbuf.size(), 0);
    ASSERT_GT(n, 0);
    decoder.Append(rbuf.data(), static_cast<size_t>(n));
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      if (frame.type == FrameType::kBusy) {
        ++busy;
      } else {
        ASSERT_EQ(frame.type, FrameType::kResponse);
        ++served;
      }
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(busy, 0) << "64 back-to-back frames with a cap of 1 in flight "
                        "must shed at least one";
  EXPECT_EQ(server->stats().busy_shed, static_cast<uint64_t>(busy));

  // The shed left a flight-recorder trace.
  bool found_shed_event = false;
  for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
    for (const auto& rec : ring) {
      if (rec.code == FlightEvent::kNetShed) found_shed_event = true;
    }
  }
  EXPECT_TRUE(found_shed_event);

  // The connection survives shedding: a fresh call still works.
  ASSERT_OK_AND_ASSIGN(BatchResult after, client->Call({Request::Get(1)}));
  ASSERT_OK(after.results[0].status);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  ShardedEngineOptions eopts = EngineOptions("garbage");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_TRUE(WaitUntil([&] { return server->open_connections() == 1; }));

  std::string garbage(64, '\xee');
  ASSERT_OK(client->SendRaw(garbage.data(), garbage.size()));

  // The server must close the connection: recv drains to EOF.
  char buf[256];
  ssize_t n;
  do {
    n = ::recv(client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  EXPECT_GE(server->stats().decode_errors, 1u);

  // The server keeps serving fresh connections afterwards.
  auto client2 = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult result, client2->Call({Request::Get(1)}));
  EXPECT_TRUE(result.results[0].status.IsNotFound());

  client.reset();
  client2.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, OversizedLengthPrefixClosesTheConnection) {
  ShardedEngineOptions eopts = EngineOptions("oversize");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  NetServerOptions sopts;
  sopts.max_frame_payload = 4096;
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));
  auto client = MustConnect(*server);

  // Valid type byte, absurd length prefix: the server must reject from the
  // header alone instead of buffering toward a 64 MiB payload.
  std::string header(kFrameHeaderBytes, '\0');
  header[2] = '\x00';
  header[3] = '\x04';  // 0x04000000 = 64 MiB
  header[4] = static_cast<char>(FrameType::kRequest);
  ASSERT_OK(client->SendRaw(header.data(), header.size()));

  char buf[64];
  ssize_t n;
  do {
    n = ::recv(client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  EXPECT_GE(server->stats().decode_errors, 1u);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, ClientDisconnectMidRequestDrainsCleanly) {
  ShardedEngineOptions eopts = EngineOptions("disconnect");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  {
    auto client = MustConnect(*server);
    // Fire a pipeline of requests and vanish without reading any response.
    for (int b = 0; b < 16; ++b) {
      RequestBatch batch;
      for (int k = 0; k < 8; ++k) batch.push_back(Request::Get(k));
      ASSERT_OK(client->Send(batch).status());
    }
  }  // ~NetClient closes the socket with responses still in flight

  // Every submitted batch must still complete and decrement the in-flight
  // count — a leaked ticket would leave it non-zero forever.
  EXPECT_TRUE(WaitUntil([&] { return server->inflight() == 0; }));
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));

  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, KillClientsUnderLoadLeavesEngineClean) {
  ShardedEngineOptions eopts = EngineOptions("killload");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 128; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));

  constexpr int kClients = 6;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = MustConnect(*server);
      uint64_t sent = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        RequestBatch batch;
        for (int k = 0; k < 8; ++k) {
          batch.push_back(Request::Get((t * 17 + k + sent) % 128));
        }
        if (!client->Send(batch).ok()) break;
        ++sent;
        // Stay loosely pipelined: drain when a window builds up.
        if (client->outstanding() >= 8) {
          // Ids are sequential per client starting at 1.
          if (!client->Wait(sent - 7).ok()) break;
        }
      }
      // Abrupt exit: the client destructor closes the socket with up to 8
      // responses still in flight.
    });
  }
  // Let load build, then kill every client mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) t.join();

  // Clean drain: no leaked tickets (in-flight returns to zero), every
  // connection reaped, and the engine still serves.
  EXPECT_TRUE(WaitUntil([&] { return server->inflight() == 0; }));
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 0; }));
  const NetStatsSnapshot stats = server->stats();
  EXPECT_GT(stats.frames_in, 0u);
  EXPECT_EQ(stats.accepts, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.closes, static_cast<uint64_t>(kClients));
  server.reset();

  BatchResult after = engine->Execute({Request::Get(1)});
  ASSERT_OK(after.results[0].status);
  EXPECT_EQ(engine->engine_stats().busy_rejections, 0u);
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, MetricsDocumentMergesNetAndEngineLayers) {
  ShardedEngineOptions eopts = EngineOptions("metrics");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  ASSERT_OK_AND_ASSIGN(auto server,
                       NetServer::Start(NetServerOptions{}, engine.get()));
  auto client = MustConnect(*server);
  ASSERT_OK_AND_ASSIGN(BatchResult r,
                       client->Call({Request::Insert(1, KvRow(1))}));
  ASSERT_OK(r.results[0].status);

  const MetricsSnapshot snap = server->MetricsSnapshotNow();
  EXPECT_EQ(snap.counters.at("net.frames_in"), 1u);
  EXPECT_EQ(snap.counters.at("net.responses"), 1u);
  EXPECT_GT(snap.counters.at("net.bytes_in"), 0u);
  EXPECT_GE(snap.counters.at("engine.batches"), 1u);
  EXPECT_EQ(snap.gauges.at("net.open_connections"), 1.0);
  EXPECT_GE(snap.histograms.at("net.reply_latency_us").count(), 1u);
  EXPECT_GE(snap.histograms.at("net.batch_requests").count(), 1u);
  // Per-shard layers came along in the merge.
  EXPECT_NE(snap.counters.find("shard0.disk.reads"), snap.counters.end());

  const std::string json = server->DumpMetrics();
  EXPECT_NE(json.find("\"net.frames_in\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.batches\""), std::string::npos);

  client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

TEST(NetServerTest, IdleConnectionsAreReapedActiveOnesSurvive) {
  ShardedEngineOptions eopts = EngineOptions("idle");
  ASSERT_OK_AND_ASSIGN(auto engine, ShardedEngine::Open(eopts));
  for (int64_t id = 0; id < 16; ++id) {
    ASSERT_OK(engine->Insert(id, KvRow(id)));
  }
  NetServerOptions sopts;
  sopts.idle_timeout_ms = 100;
  ASSERT_OK_AND_ASSIGN(auto server, NetServer::Start(sopts, engine.get()));

  auto idle_client = MustConnect(*server);
  auto active_client = MustConnect(*server);
  ASSERT_TRUE(WaitUntil([&] { return server->open_connections() == 2; }));

  // Keep one connection busy while the other goes quiet: the sweep must
  // reap exactly the quiet one. Activity (any recv/send) resets the clock,
  // so the active connection stays alive across many sweep periods.
  const bool reaped = WaitUntil([&] {
    auto r = active_client->Call({Request::Get(1)});
    EXPECT_OK(r.status());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return server->stats().idle_closed >= 1;
  });
  EXPECT_TRUE(reaped);
  EXPECT_TRUE(WaitUntil([&] { return server->open_connections() == 1; }));

  // The reaped socket drains to EOF on the client side.
  char buf[64];
  ssize_t n;
  do {
    n = ::recv(idle_client->fd(), buf, sizeof(buf), 0);
  } while (n > 0);
  EXPECT_EQ(n, 0);

  // The survivor still round-trips, and the reap left a flight event and
  // the net.idle_closed counter in the merged metrics.
  ASSERT_OK_AND_ASSIGN(BatchResult after, active_client->Call({Request::Get(2)}));
  ASSERT_OK(after.results[0].status);
  bool found_idle_event = false;
  for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
    for (const auto& rec : ring) {
      if (rec.code == FlightEvent::kNetIdleClose) found_idle_event = true;
    }
  }
  EXPECT_TRUE(found_idle_event);
  EXPECT_GE(server->MetricsSnapshotNow().counters.at("net.idle_closed"), 1u);

  idle_client.reset();
  active_client.reset();
  server.reset();
  engine.reset();
  Cleanup(eopts);
}

// With no fd left for the epoll set, Start must fail instead of returning a
// server whose loop never accepts (connects would still succeed through the
// kernel backlog, and every Call would hang).
TEST(NetServerTest, StartFailsWhenEpollSetupFails) {
  ShardedEngineOptions eopts = EngineOptions("nofd");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes: 0 = Start failed, 1 = Start returned OK, 2 = setup.
    auto engine_or = ShardedEngine::Open(eopts);
    if (!engine_or.ok()) _exit(2);
    auto engine = std::move(engine_or).ValueOrDie();
    // Room for the listen socket and the wake eventfd, not the epoll fd.
    if (!FillFdsLeavingFree(2)) _exit(2);
    _exit(NetServer::Start(NetServerOptions{}, engine.get()).ok() ? 1 : 0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "1 = Start returned OK without an epoll fd, 2 = child setup failed";
  Cleanup(eopts);
}

// A server out of fds leaves the next connection in the listen backlog. The
// loop must not spin on the still-readable listen socket meanwhile, and it
// must accept the queued connection once a connection closes.
TEST(NetServerTest, AcceptBacksOffWhileOutOfFds) {
  ShardedEngineOptions eopts = EngineOptions("emfile");
  int to_parent[2];
  int to_child[2];
  ASSERT_EQ(::pipe(to_parent), 0);
  ASSERT_EQ(::pipe(to_child), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Exit codes: 0 = ok, 2 = setup, 3 = queued connection never accepted,
    // 4 = the backoff left no counter or flight event.
    auto engine_or = ShardedEngine::Open(eopts);
    if (!engine_or.ok()) _exit(2);
    auto engine = std::move(engine_or).ValueOrDie();
    auto server_or = NetServer::Start(NetServerOptions{}, engine.get());
    if (!server_or.ok()) _exit(2);
    auto server = std::move(server_or).ValueOrDie();
    // One fd left: the first client is accepted, the others stay queued.
    if (!FillFdsLeavingFree(1)) _exit(2);
    const uint16_t port = server->port();
    if (::write(to_parent[1], &port, sizeof(port)) != sizeof(port)) _exit(2);
    char go = 0;
    if (::read(to_child[0], &go, 1) != 1) _exit(2);  // all clients connected
    if (!WaitUntil([&] { return server->stats().accepts == 1; })) _exit(2);
    // The fd exhaustion is visible: a counter in the merged metrics and a
    // flight-recorder event, not just net.accepts standing still.
    if (!WaitUntil([&] { return server->stats().accept_backoffs >= 1; })) {
      _exit(4);
    }
    if (server->MetricsSnapshotNow().counters.at("net.accept_backoffs") < 1) {
      _exit(4);
    }
    bool found_backoff_event = false;
    for (const auto& ring : FlightRecorder::Instance().SnapshotAll()) {
      for (const auto& rec : ring) {
        if (rec.code == FlightEvent::kNetAcceptBackoff &&
            (rec.arg0 == EMFILE || rec.arg0 == ENFILE)) {
          found_backoff_event = true;
        }
      }
    }
    if (!found_backoff_event) _exit(4);
    const double cpu0 = ProcessCpuSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    const double idle_cpu = ProcessCpuSeconds() - cpu0;
    if (::write(to_parent[1], &idle_cpu, sizeof(idle_cpu)) !=
        sizeof(idle_cpu)) {
      _exit(2);
    }
    // The parent now closes the accepted client, freeing its fd.
    _exit(WaitUntil([&] { return server->stats().accepts == 2; }, 10000) ? 0
                                                                         : 3);
  }
  ChildReaper reaper{child};
  ::close(to_parent[1]);
  ::close(to_child[0]);
  uint16_t port = 0;
  ASSERT_EQ(::read(to_parent[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  std::vector<std::unique_ptr<NetClient>> clients;
  for (int i = 0; i < 3; ++i) {
    NetClient::Options copts;
    copts.port = port;
    ASSERT_OK_AND_ASSIGN(auto client, NetClient::Connect(copts));
    clients.push_back(std::move(client));
  }
  ASSERT_EQ(::write(to_child[1], "g", 1), 1);
  double idle_cpu = -1;
  ASSERT_EQ(::read(to_parent[0], &idle_cpu, sizeof(idle_cpu)),
            static_cast<ssize_t>(sizeof(idle_cpu)));
  EXPECT_LT(idle_cpu, 0.1) << "server CPU seconds over 1 s with a queued "
                              "connection it has no fd for";
  clients.front().reset();  // the one the server accepted
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  reaper.pid = -1;
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0)
      << "3 = queued connection not accepted after a close, 2 = setup, "
         "4 = no accept_backoffs count or kNetAcceptBackoff event";
  clients.clear();
  ::close(to_parent[0]);
  ::close(to_child[1]);
  Cleanup(eopts);
}

}  // namespace
}  // namespace nblb::net
