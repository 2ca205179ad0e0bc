#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/event_ring.h"

namespace nblb::net {

namespace {

// epoll user data of the two singleton fds; connection ids count up from 1.
constexpr uint64_t kListenId = ~uint64_t{0};
constexpr uint64_t kWakeId = ~uint64_t{0} - 1;

// How long the listen socket stays unwatched after accept() ran out of fds,
// unless a connection closes first. Long enough that a server pinned at its
// fd limit stays idle, short enough to pick up fds freed elsewhere.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(100);

// Queued frames gathered into one sendmsg (well under IOV_MAX).
constexpr size_t kMaxSendFrames = 64;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ---- Startup ----------------------------------------------------------------

Result<std::unique_ptr<NetServer>> NetServer::Start(NetServerOptions options,
                                                    ShardedEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("NetServer requires an engine");
  }
  std::unique_ptr<NetServer> s(new NetServer());
  s->options_ = std::move(options);
  s->engine_ = engine;

  Status st = s->Setup();
  if (!st.ok()) return st;

  if (s->options_.idle_timeout_ms > 0) {
    // Sweep a few times per timeout so a connection is reaped within
    // ~1.25x the configured idle window, without a hot polling loop.
    s->sweep_interval_ms_ =
        std::max<uint64_t>(1, s->options_.idle_timeout_ms / 4);
    s->next_sweep_ = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(s->sweep_interval_ms_);
  }

  if (s->options_.max_inflight_global > 0) {
    s->global_cap_ = s->options_.max_inflight_global;
  } else {
    // Place the shed point exactly where the engine itself would start
    // failing batches, when it bounds its queues.
    const auto& eng = engine->options();
    s->global_cap_ = eng.max_queue_depth > 0
                         ? engine->num_shards() * eng.max_queue_depth
                         : 1024;
  }

  s->metrics_ = std::make_unique<MetricsRegistry>();
  MetricsRegistry* reg = s->metrics_.get();
  reg->RegisterCounter("net.accepts", &s->accepts_);
  reg->RegisterCounter("net.closes", &s->closes_);
  reg->RegisterCounter("net.frames_in", &s->frames_in_);
  reg->RegisterCounter("net.frames_out", &s->frames_out_);
  reg->RegisterCounter("net.bytes_in", &s->bytes_in_);
  reg->RegisterCounter("net.bytes_out", &s->bytes_out_);
  reg->RegisterCounter("net.decode_errors", &s->decode_errors_);
  reg->RegisterCounter("net.busy_shed", &s->busy_shed_);
  reg->RegisterCounter("net.responses", &s->responses_);
  reg->RegisterCounter("net.idle_closed", &s->idle_closed_);
  reg->RegisterCounter("net.accept_backoffs", &s->accept_backoffs_);
  NetServer* self = s.get();
  reg->RegisterGauge("net.open_connections", [self] {
    return static_cast<double>(self->open_connections());
  });
  reg->RegisterGauge("net.inflight", [self] {
    return static_cast<double>(self->inflight());
  });
  reg->RegisterHistogram("net.reply_latency_us", &s->reply_latency_us_);
  reg->RegisterHistogram("net.batch_requests", &s->request_batch_size_);

  s->loop_thread_ = std::thread([self] { self->LoopMain(); });
  return s;
}

Status NetServer::Setup() {
  Status st = Listen();
  if (!st.ok()) return st;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }
  return Status::OK();
}

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind " + options_.bind_address + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return Errno("listen");
  }
  struct sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                    &blen) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");
  return Status::OK();
}

// ---- Shutdown ---------------------------------------------------------------

NetServer::~NetServer() {
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop closed every connection on exit, so completion callbacks for
  // still-running batches drop their responses — but every callback still
  // decrements the in-flight count, so waiting here guarantees no ticket
  // outlives the server (and that `this` stays valid for the callbacks).
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] {
      return inflight_global_.load(std::memory_order_acquire) == 0;
    });
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

// ---- Connections ------------------------------------------------------------

void NetServer::HandleAccepted(int fd) {
  SetNoDelay(fd);
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  auto conn = std::make_shared<Conn>(options_.max_frame_payload);
  conn->id = next_conn_id_++;
  conn->fd = fd;
  conn->rchunk.resize(options_.recv_chunk_bytes);
  conn->last_activity = std::chrono::steady_clock::now();
  conns_[conn->id] = conn;
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  accepts_.fetch_add(1, std::memory_order_relaxed);
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) CloseConn(conn);
}

bool NetServer::ProcessFrames(const ConnPtr& conn) {
  Frame frame;
  for (;;) {
    const FrameDecoder::Next next = conn->decoder.Pop(&frame);
    if (next == FrameDecoder::Next::kNeedMore) return true;
    if (next == FrameDecoder::Next::kError) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
      return false;
    }
    if (frame.type != FrameType::kRequest) {
      // Response/busy frames only flow server -> client.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
      return false;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleRequestFrame(conn, std::move(frame))) return false;
  }
}

bool NetServer::HandleRequestFrame(const ConnPtr& conn, Frame&& frame) {
  const uint64_t request_id = frame.request_id;

  const uint32_t per = conn->inflight.load(std::memory_order_relaxed);
  const size_t global = inflight_global_.load(std::memory_order_relaxed);
  if ((options_.max_inflight_per_conn > 0 &&
       per >= options_.max_inflight_per_conn) ||
      (global_cap_ > 0 && global >= global_cap_)) {
    busy_shed_.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kNetShed, conn->id, per);
    std::string busy;
    AppendBusyFrame(request_id, &busy);
    EnqueueLoopSide(conn, std::move(busy));
    return true;  // shed, but the connection stays healthy
  }

  Result<RequestBatch> decoded =
      DecodeRequestPayload(frame.payload.data(), frame.payload.size());
  if (!decoded.ok()) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    RecordFlightEvent(FlightEvent::kNetDecodeError, conn->id);
    return false;
  }
  request_batch_size_.Record(decoded->size());

  conn->inflight.fetch_add(1, std::memory_order_relaxed);
  inflight_global_.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  ConnPtr c = conn;
  engine_->Submit(
      std::move(decoded).ValueOrDie(),
      [this, c, request_id, start](const BatchResult& result) {
        // Completion thread: encode off the loop, enqueue, wake the loop.
        // A dead connection just drops the response — the decrementing
        // below is what matters for drain correctness.
        if (!c->closed.load(std::memory_order_acquire)) {
          std::string out;
          // Encoding can only fail on counts the decoded request already
          // bounded, but if it somehow does, dropping the reply beats
          // writing a desynced frame.
          if (AppendResponseFrame(request_id, result, &out).ok()) {
            // Count before enqueueing: once the client can observe the
            // reply on the wire, stats().responses must already include it.
            responses_.fetch_add(1, std::memory_order_relaxed);
            QueueOutput(c, std::move(out));
          }
        }
        reply_latency_us_.Record(MicrosSince(start));
        c->inflight.fetch_sub(1, std::memory_order_relaxed);
        {
          // The final decrement must happen while holding drain_mu_: the
          // destructor's wait predicate reads inflight_global_ only under
          // the mutex, so it cannot observe zero — and destroy the mutex
          // and condvar — until this callback has released it, by which
          // point the callback no longer touches `this`.
          std::lock_guard<std::mutex> lock(drain_mu_);
          if (inflight_global_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            drain_cv_.notify_all();
          }
        }
      });
  return true;
}

void NetServer::EnqueueLoopSide(const ConnPtr& conn, std::string frame_bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  FlushConn(conn);
}

void NetServer::QueueOutput(const ConnPtr& conn, std::string frame_bytes) {
  // Count before the push: the loop may flush the queue (for an earlier
  // write-readiness event) the moment the frame lands in it.
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->outq.push_back(std::move(frame_bytes));
  }
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_writes_.push_back(conn);
  }
  WakeLoop();
}

void NetServer::WakeLoop() {
  const uint64_t one = 1;
  // EAGAIN (counter saturated) still leaves the eventfd readable; other
  // failures only cost latency until the next wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void NetServer::DrainPendingWrites() {
  std::vector<ConnPtr> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_writes_);
  }
  for (const ConnPtr& conn : pending) FlushConn(conn);
}

void NetServer::SweepIdleConns() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  // Collect first: closing mutates conns_.
  std::vector<ConnPtr> victims;
  for (auto& [id, conn] : conns_) {
    if (conn->closed.load(std::memory_order_relaxed)) continue;
    // "Idle" means truly quiescent: a connection with batches still in the
    // engine, or with output queued/being sent, is working — the activity
    // stamp only tracks socket bytes, so these guards keep a slow-reading
    // but live client from being reaped mid-response.
    if (conn->inflight.load(std::memory_order_relaxed) > 0) continue;
    if (conn->want_write) continue;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      if (!conn->outq.empty()) continue;
    }
    if (now - conn->last_activity >= limit) victims.push_back(conn);
  }
  for (const ConnPtr& conn : victims) {
    const uint64_t idle_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - conn->last_activity)
            .count());
    RecordFlightEvent(FlightEvent::kNetIdleClose, conn->id, idle_ms);
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(conn);
  }
}

// ---- Event loop -------------------------------------------------------------

void NetServer::LoopMain() {
  std::vector<struct epoll_event> events(128);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               WaitTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (sweep_interval_ms_ > 0 && now >= next_sweep_) {
      SweepIdleConns();
      next_sweep_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(sweep_interval_ms_);
    }
    if (accept_paused_ && now >= accept_resume_at_) WatchListen(true);
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t flags = events[i].events;
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        uint64_t v = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &v, sizeof(v));
        DrainPendingWrites();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      ConnPtr conn = it->second;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((flags & EPOLLIN) != 0) ReadReady(conn);
      if ((flags & EPOLLOUT) != 0) FlushConn(conn);
    }
  }

  // Close every connection before the fds go away; completion callbacks
  // still in flight will see closed == true and drop their output.
  std::vector<ConnPtr> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(conn);
  for (const ConnPtr& conn : remaining) CloseConn(conn);
}

int NetServer::WaitTimeoutMs() const {
  using Clock = std::chrono::steady_clock;
  Clock::time_point due = Clock::time_point::max();
  if (sweep_interval_ms_ > 0) due = next_sweep_;
  if (accept_paused_) due = std::min(due, accept_resume_at_);
  if (due == Clock::time_point::max()) return -1;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(due - Clock::now())
          .count();
  // Round up, so the loop wakes at or after the deadline, not just before.
  return static_cast<int>(std::max<int64_t>(0, left + 1));
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (err == EMFILE || err == ENFILE) {
        // The pending connection stays queued and the level-triggered
        // listen fd stays readable: watching it now would spin the loop.
        WatchListen(false);
        accept_resume_at_ = std::chrono::steady_clock::now() + kAcceptBackoff;
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        RecordFlightEvent(FlightEvent::kNetAcceptBackoff,
                          static_cast<uint64_t>(err), open_connections());
      }
      return;
    }
    HandleAccepted(fd);
  }
}

void NetServer::WatchListen(bool on) {
  if (accept_paused_ != on) return;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = on ? static_cast<uint32_t>(EPOLLIN) : 0u;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev) == 0) {
    accept_paused_ = !on;
  }
}

void NetServer::ReadReady(const ConnPtr& conn) {
  for (;;) {
    const ssize_t n =
        ::recv(conn->fd, conn->rchunk.data(), conn->rchunk.size(), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->decoder.Append(conn->rchunk.data(), static_cast<size_t>(n));
      if (!ProcessFrames(conn)) {
        CloseConn(conn);
        return;
      }
      continue;
    }
    if (n == 0) {  // orderly peer shutdown
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

void NetServer::FlushConn(const ConnPtr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  for (;;) {
    // One sendmsg for everything queued: a group commit answers many frames
    // at once. The queued strings stay put while we send, because only the
    // loop thread pops and push_back never moves deque elements.
    struct iovec iov[kMaxSendFrames];
    size_t frames = 0;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      for (const std::string& f : conn->outq) {
        if (frames == kMaxSendFrames) break;
        const size_t skip = frames == 0 ? conn->out_off : 0;
        iov[frames].iov_base = const_cast<char*>(f.data()) + skip;
        iov[frames].iov_len = f.size() - skip;
        ++frames;
      }
    }
    if (frames == 0) {
      if (conn->want_write) {
        conn->want_write = false;
        UpdateInterest(conn);
      }
      return;
    }
    struct msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = frames;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_out_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      conn->last_activity = std::chrono::steady_clock::now();
      // Pop the frames sent whole; keep the offset into a partial one.
      size_t sent = static_cast<size_t>(n);
      std::lock_guard<std::mutex> lock(conn->out_mu);
      while (sent > 0) {
        const size_t rest = conn->outq.front().size() - conn->out_off;
        if (sent < rest) {
          conn->out_off += sent;
          break;
        }
        sent -= rest;
        conn->outq.pop_front();
        conn->out_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        UpdateInterest(conn);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
}

void NetServer::UpdateInterest(const ConnPtr& conn) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events =
      EPOLLIN | (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConn(const ConnPtr& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conn->fd = -1;
  conns_.erase(conn->id);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  closes_.fetch_add(1, std::memory_order_relaxed);
  // The fd just freed may be what a paused accept was waiting for.
  WatchListen(true);
}

// ---- Stats ------------------------------------------------------------------

NetStatsSnapshot NetServer::stats() const {
  NetStatsSnapshot s;
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.closes = closes_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.busy_shed = busy_shed_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  return s;
}

MetricsSnapshot NetServer::MetricsSnapshotNow() const {
  MetricsSnapshot snap = metrics_->Snapshot();
  snap.Merge(engine_->MetricsSnapshotNow(), "");
  return snap;
}

}  // namespace nblb::net
