// NetServer: the network serving front end — a nonblocking event-loop TCP
// server that owns client connections, reassembles the length-prefixed
// binary framing (net/wire.h), feeds decoded RequestBatches into
// ShardedEngine::Submit, and writes responses from completion callbacks
// without ever blocking the loop.
//
// Threading model (see src/net/README.md for the long version):
//
//   loop thread (one)                     completion threads (engine's)
//   ─────────────────                     ────────────────────────────
//   accept / recv / send                  engine ran the batch:
//   decode frames                           encode response frame
//   admission control                       append to conn output queue
//   engine->Submit(batch, cb) ──────────▶   wake loop (eventfd)
//   drain woken conns' output  ◀──────────
//   to their sockets
//
// The loop thread is the only thread that touches sockets; completion
// threads only encode (CPU work off the loop) and append to a per-connection
// output queue under a small mutex. That single-writer discipline is what
// keeps the loop non-blocking and the whole structure TSan-clean.
//
// The loop is level-triggered epoll over nonblocking fds, with EPOLLOUT armed
// only while a connection has queued output. Its epoll_wait timeout doubles
// as the timer for the idle sweep and for the accept back-off below.
//
// Resource exhaustion: Start creates the listen socket, the wake eventfd and
// the epoll set and registers both fds before the loop thread exists, so a
// server that could never accept fails Start instead of starting dead. When
// accept() fails for lack of fds (EMFILE/ENFILE) the loop stops watching the
// listen socket, which would otherwise stay readable and spin the loop, and
// watches it again once a connection closes or after a fixed 100 ms.
//
// Admission control: two in-flight caps — per-connection and global — bound
// how many decoded frames may sit in the engine at once. A frame over
// either cap is shed immediately with a busy reply (FrameType::kBusy): the
// client sees an explicit kBusy instead of unbounded queueing, and the
// engine's own max_queue_depth/busy_fail_fast backstop turns shard-queue
// overflow into per-request kBusy statuses. Pair the server with a
// fail-fast engine: with the blocking backpressure policy a full shard
// queue would block the loop thread inside Submit.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/wire.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "shard/sharded_engine.h"
#include "storage/disk_manager.h"

namespace nblb::net {

/// \brief Server configuration.
struct NetServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Bind address. The default serves loopback only — benches and tests;
  /// bind 0.0.0.0 explicitly to serve real traffic.
  std::string bind_address = "127.0.0.1";
  int listen_backlog = 128;
  /// Frames decoded but not yet answered, per connection. 0 = unlimited.
  size_t max_inflight_per_conn = 64;
  /// Frames decoded but not yet answered, across all connections. 0 derives
  /// a cap from the engine: num_shards * max_queue_depth when the engine
  /// bounds its queues (the shed point then sits exactly where the engine
  /// would start failing batches), else 1024.
  size_t max_inflight_global = 0;
  /// Per-frame payload cap handed to each connection's FrameDecoder.
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// recv() chunk size per readiness event.
  size_t recv_chunk_bytes = 64 * 1024;
  /// Idle-connection reaping: a connection with no socket activity (no
  /// bytes in or out), no in-flight engine batches, and no queued output
  /// for longer than this is closed by a periodic sweep — an abandoned
  /// client cannot pin a connection slot forever. 0 (default) disables the
  /// sweep.
  uint64_t idle_timeout_ms = 0;
};

/// \brief Relaxed-atomic serving counters (same memory-ordering rationale as
/// shard_stats.h), published to the registry under "net.*".
struct NetStatsSnapshot {
  uint64_t accepts = 0;
  uint64_t closes = 0;        ///< connections fully closed
  uint64_t frames_in = 0;     ///< request frames decoded
  uint64_t frames_out = 0;    ///< response + busy frames queued
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t decode_errors = 0; ///< protocol violations (connection closed)
  uint64_t busy_shed = 0;     ///< frames shed by admission control
  uint64_t responses = 0;     ///< engine completions answered
  uint64_t idle_closed = 0;   ///< connections reaped by the idle sweep
  /// accept() failures for want of an fd (EMFILE/ENFILE), each pausing the
  /// listen socket for a backoff; queued clients wait in the kernel backlog.
  uint64_t accept_backoffs = 0;
};

/// \brief Owns the listening socket, the loop thread, and every connection.
class NetServer {
 public:
  /// \brief Binds, listens, sets up the epoll set, and starts the loop
  /// thread. Fails (no thread started) if any fd cannot be created or
  /// registered. The engine must outlive the server.
  static Result<std::unique_ptr<NetServer>> Start(NetServerOptions options,
                                                  ShardedEngine* engine);

  /// \brief Stops accepting, waits for every in-flight engine batch to
  /// complete, then joins the loop thread and closes all sockets.
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// \brief The bound TCP port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// \brief The loop backend: always epoll, reported as kThreads (the
  /// non-uring value).
  IoBackend backend_in_use() const { return IoBackend::kThreads; }

  NetStatsSnapshot stats() const;
  size_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  size_t inflight() const {
    return inflight_global_.load(std::memory_order_relaxed);
  }

  /// \brief One merged snapshot: this server's "net.*" metrics plus the
  /// engine's full document (engine./trace./shard<i>.*) — the whole serving
  /// stack, sockets to device, in one place.
  MetricsSnapshot MetricsSnapshotNow() const;
  std::string DumpMetrics() const { return MetricsSnapshotNow().ToJson(); }

 private:
  /// Per-connection state. Sockets are touched only by the loop thread;
  /// completion threads reach `out_mu`-guarded output state and the atomics.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    FrameDecoder decoder;
    /// Frames submitted to the engine and not yet answered.
    std::atomic<uint32_t> inflight{0};
    /// Set by the loop when the connection dies; completion callbacks then
    /// drop their responses instead of queueing output.
    std::atomic<bool> closed{false};

    std::mutex out_mu;
    std::deque<std::string> outq;  // encoded frames awaiting send
    size_t out_off = 0;            // sent prefix of outq.front()

    // Loop-private state.
    bool want_write = false;   // EPOLLOUT armed
    std::vector<char> rchunk;  // recv buffer
    /// Last socket activity (accept, bytes received, bytes sent). Loop
    /// thread only — the idle sweep runs on the same thread.
    std::chrono::steady_clock::time_point last_activity;

    explicit Conn(size_t max_payload) : decoder(max_payload) {}
  };
  using ConnPtr = std::shared_ptr<Conn>;

  NetServer() = default;

  /// Socket, eventfd and epoll set, with the listen and wake fds
  /// registered; runs inside Start so any failure is Start's.
  Status Setup();
  Status Listen();
  void LoopMain();
  /// epoll_wait timeout: time to the next idle sweep or accept retry, or
  /// -1 (block) when neither is due.
  int WaitTimeoutMs() const;

  void AcceptReady();
  /// Stops (false) or resumes (true) watching the listen socket.
  void WatchListen(bool on);
  void HandleAccepted(int fd);
  void ReadReady(const ConnPtr& conn);
  /// Decodes and dispatches every complete frame buffered on `conn`;
  /// returns false when the connection must be closed (protocol error).
  bool ProcessFrames(const ConnPtr& conn);
  /// Admission + decode + Submit for one request frame; false on a
  /// malformed payload (close the connection).
  bool HandleRequestFrame(const ConnPtr& conn, Frame&& frame);
  /// Loop-thread side: appends an encoded frame and starts sending now.
  void EnqueueLoopSide(const ConnPtr& conn, std::string frame_bytes);
  /// Completion-thread side: appends an encoded frame and wakes the loop.
  void QueueOutput(const ConnPtr& conn, std::string frame_bytes);
  void WakeLoop();
  /// Sends queued output until empty or EAGAIN; arms/disarms EPOLLOUT.
  void FlushConn(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn);
  void CloseConn(const ConnPtr& conn);

  /// Drains the wake eventfd and flushes every connection the completion
  /// threads marked as having fresh output.
  void DrainPendingWrites();

  /// Closes every connection idle longer than idle_timeout_ms (no socket
  /// activity, nothing in flight, nothing queued). Runs on the loop thread
  /// when the epoll_wait timeout says a sweep is due.
  void SweepIdleConns();

  NetServerOptions options_;
  ShardedEngine* engine_ = nullptr;
  size_t global_cap_ = 0;

  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  int epoll_fd_ = -1;
  uint16_t port_ = 0;
  /// Idle sweep (idle_timeout_ms > 0): cadence and next-due stamp. Loop
  /// thread only.
  uint64_t sweep_interval_ms_ = 0;
  std::chrono::steady_clock::time_point next_sweep_{};
  /// Accept back-off after EMFILE/ENFILE: the listen socket is unwatched
  /// until a connection closes or this stamp passes. Loop thread only.
  bool accept_paused_ = false;
  std::chrono::steady_clock::time_point accept_resume_at_{};

  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};

  uint64_t next_conn_id_ = 1;                    // loop-private
  std::unordered_map<uint64_t, ConnPtr> conns_;  // loop-private

  /// Connections with fresh completion output, awaiting a loop flush.
  std::mutex pending_mu_;
  std::vector<ConnPtr> pending_writes_;

  std::atomic<size_t> open_conns_{0};
  std::atomic<size_t> inflight_global_{0};
  std::mutex drain_mu_;              // ~NetServer waits for inflight == 0
  std::condition_variable drain_cv_;

  // net.* counters (relaxed atomics; registry holds pointers only).
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> closes_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> busy_shed_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> accept_backoffs_{0};
  /// Decode-to-response-queued latency of every answered frame.
  LogHistogram reply_latency_us_;
  /// Requests per decoded frame.
  LogHistogram request_batch_size_;
  /// Declared after the counters it points into (destroyed first).
  std::unique_ptr<MetricsRegistry> metrics_;
};

}  // namespace nblb::net
