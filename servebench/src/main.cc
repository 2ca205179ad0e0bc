// servebench: end-to-end serving benchmark of the engine.
//
// One load thread drives one pipelined NetClient connection into a loopback
// NetServer in front of a ShardedEngine (2 shards, 2 workers, completions
// run inline), and checks every answer against rows it generates itself
// (model.h). A run is:
//
//   setup                open engine, load rows, start server, connect,
//                        warm up
//   timed phase          --seconds of pipelined frames (closed loop,
//                        kDepth frames of kBatch ops in flight)
//   write probe          read workloads: kWriteProbeS more with every other
//                        frame an update, for update_p50_ms
//   [--trace 1] ladder   the layer ladder (ladder.h) on the same stream
//   clean close          stored bytes per row
//   crash epilogue       reopen, write a fixed tail of acknowledged update
//                        frames one at a time, SIGKILL the writer, then
//                        recover kRecoveries times and check every row
//   more setups          kSetups - 1 more, timed for setup_s only
//
// Wall-clock metrics are taken over the intervals in which the machine lost
// little CPU to hypervisor steal (kCalmStealS).
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (end-to-end with --trace 0, per-layer with --trace 1) and info
// (host, backends, steal, reference figures).
//
// Usage: servebench --workload get_hot|get_cold|mixed_durable --seed N
//          --seconds S --trace 0|1 --dir SCRATCH [--spans FILE]
//          [--scale full|small]
//        servebench --selftest

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host.h"
#include "ladder.h"
#include "model.h"
#include "net/client.h"
#include "net/server.h"
#include "shard/sharded_engine.h"
#include "workload/wikipedia.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using nblb::RequestBatch;
using nblb::ShardedEngine;

constexpr size_t kBatch = 32;        // ops per frame
constexpr size_t kDepth = 16;        // frames in flight on the connection
constexpr size_t kSetups = 5;        // setups per run (see kCalmStealS)
constexpr int kRecoveries = 5;       // recoveries per run; recover_s median
// Acknowledged update frames before the crash. Each touches a shard at most
// once, so the tail spans at most kTailFrames service groups per shard:
// fewer than any periodic checkpoint interval, so it all replays.
constexpr size_t kTailFrames = 512;
constexpr size_t kTailBatch = 2;     // updates per tail frame
constexpr double kTailTimeoutS = 60; // the writer's report must arrive by then
constexpr double kWindowS = 0.1;     // measurement window
// A measured interval (a window, a block of tail frames, a recovery) is calm
// when the machine lost at most one 10 ms tick to steal in it. Timed metrics
// are taken over the calm intervals, or over the calmest few when fewer are
// calm: 3 setups, 10 windows, 3 recoveries.
constexpr double kCalmStealS = 0.0105;
constexpr size_t kMinCalmSetups = 3;
constexpr size_t kMinCalmWindows = 10;
constexpr size_t kMinCalmRecoveries = 3;
// Read workloads have no update frames in their timed phase. After it they
// run this long with every other frame an update, for update_p50_ms.
constexpr double kWriteProbeS = 2.0;

struct Workload {
  std::string name;
  uint64_t rows;
  size_t frames_per_shard;
  double latest_share;   // share of keys on latest revisions
  bool updates;          // every other frame is an update frame
  uint64_t checkpoint_every_groups;
  uint64_t flusher_interval_us;
  uint64_t warmup_ops;
  size_t ladder_get_batches;
  size_t ladder_update_batches;
};

/// The three workloads; --scale small divides the sizes by 8.
bool FindWorkload(const std::string& name, bool small, Workload* w) {
  // Heap rows are 592 bytes (the fixed-width revision layout): 13 per 8 KiB
  // page, so 64k rows make ~4.9k heap pages and 128k rows ~9.8k.
  const Workload all[] = {
      // Whole table fits the pools: every get is a pool hit.
      {"get_hot", 64000, 4096, 0.999, false, 0, 0, 200000, 1000, 64},
      // Table ~16x the aggregate pool: most heap fetches miss the pool and
      // are read from the file (page cache; see README on O_DIRECT).
      {"get_cold", 128000, 320, 0.0, false, 0, 0, 60000, 300, 32},
      // Same table and pools as get_hot; half the frames write, under WAL
      // group commit, the flusher and periodic checkpoints.
      {"mixed_durable", 64000, 4096, 0.9, true, 1024, 1000, 100000,
       600, 64},
  };
  for (const Workload& cand : all) {
    if (cand.name != name) continue;
    *w = cand;
    if (small) {
      w->rows /= 8;
      w->frames_per_shard = std::max<size_t>(64, w->frames_per_shard / 8);
      w->warmup_ops /= 8;
      w->ladder_get_batches /= 8;
      w->ladder_update_batches /= 8;
    }
    return true;
  }
  return false;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

[[noreturn]] void Die(const std::string& what, const nblb::Status& s) {
  std::fprintf(stderr, "servebench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

const char* BackendName(nblb::IoBackend b) {
  return b == nblb::IoBackend::kUring ? "uring" : "threads";
}

nblb::ShardedEngineOptions EngineOptions(const Workload& w,
                                         const std::string& dir,
                                         bool truncate) {
  nblb::ShardedEngineOptions o;
  o.num_shards = 2;
  o.num_workers = 2;
  o.num_completion_threads = 0;
  o.path_prefix = dir + "/table";
  o.truncate_on_open = truncate;
  o.buffer_pool_frames_per_shard = w.frames_per_shard;
  // Every workload runs durable, so that each can end with a crash and a
  // recovery; the read workloads append no records in their timed phase.
  o.wal_enabled = true;
  o.checkpoint_every_groups = w.checkpoint_every_groups;
  o.flusher_interval_us = w.flusher_interval_us;
  o.schema = nblb::WikipediaSynthesizer::RevisionSchema();
  o.table_options.key_columns = {0};
  return o;
}

/// Engine, server and client of one setup. Torn down client first, so the
/// server sees the connection close before it drains and stops.
struct Stack {
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<nblb::net::NetServer> server;
  std::unique_ptr<nblb::net::NetClient> client;

  void Serve() {
    auto server_or = nblb::net::NetServer::Start({}, engine.get());
    if (!server_or.ok()) Die("server start", server_or.status());
    server = std::move(*server_or);
    nblb::net::NetClient::Options copts;
    copts.port = server->port();
    auto client_or = nblb::net::NetClient::Connect(copts);
    if (!client_or.ok()) Die("connect", client_or.status());
    client = std::move(*client_or);
  }
  void Close() {
    client.reset();
    server.reset();
    engine.reset();
  }
};

std::unique_ptr<ShardedEngine> OpenEngine(const Workload& w,
                                          const std::string& dir,
                                          bool truncate) {
  auto engine_or = ShardedEngine::Open(EngineOptions(w, dir, truncate));
  if (!engine_or.ok()) Die("engine open", engine_or.status());
  return std::move(*engine_or);
}

void Load(ShardedEngine* engine, const Dataset& data, Tally* tally) {
  RequestBatch batch;
  for (uint64_t id = 1; id <= data.rows(); ++id) {
    batch.push_back(nblb::Request::Insert(id, data.MakeRow(id, 0)));
    if (batch.size() == 512 || id == data.rows()) {
      const nblb::BatchResult r = engine->Execute(batch);
      for (const auto& rr : r.results) tally->Op(rr.status.ok());
      batch.clear();
    }
  }
}

/// Figures of one pipelined serving phase.
struct Phase {
  uint64_t ops = 0;
  double start = 0;
  double end = 0;  // last reply
  std::vector<double> get_ms;
  std::vector<double> update_ms;
  std::vector<uint32_t> get_win;     // reply window of each get frame
  std::vector<uint32_t> update_win;
  // Per kWindowS window of the timed phase: operations completed, machine
  // steal, and the CPU time of the process minus the load thread's.
  std::vector<uint64_t> window_ops;
  std::vector<double> window_steal_s;
  std::vector<double> window_cpu_s;
  double cpu_s = 0;                  // process CPU minus the load thread's
  double load_cpu_s = 0;
  double steal_s = 0;
};

/// Drives frames over the connection until `seconds` have passed (when
/// positive) or `max_ops` operations were sent, then drains. Get frames
/// expect the version last submitted before them on the connection.
Phase Drive(const Workload& w, Dataset* data, Rng* rng,
            nblb::net::NetClient* client, double seconds, uint64_t max_ops,
            Tally* tally) {
  struct Inflight {
    uint64_t request_id;
    double sent;
    bool update;
    std::vector<uint64_t> ids;
    std::vector<uint32_t> versions;
  };
  Phase p;
  std::deque<Inflight> inflight;
  uint64_t frames = 0;
  uint64_t sent_ops = 0;
  const double steal0 = StealSeconds();
  const double proc0 = ProcessCpuSeconds();
  const double thread0 = ThreadCpuSeconds();
  p.start = Now();
  const double stop = p.start + seconds;
  if (seconds > 0) {
    p.window_ops.assign(static_cast<size_t>(seconds / kWindowS + 1e-9), 0);
  }
  RequestBatch batch;
  batch.reserve(kBatch);
  double next_mark = p.start + kWindowS;
  double last_steal = steal0;
  double last_cpu = 0;
  auto mark_windows = [&](double now) {
    while (p.window_steal_s.size() < p.window_ops.size() && now >= next_mark) {
      const double st = StealSeconds();
      const double cpu = ProcessCpuSeconds() - proc0 - (ThreadCpuSeconds() - thread0);
      p.window_steal_s.push_back(st - last_steal);
      p.window_cpu_s.push_back(cpu - last_cpu);
      last_steal = st;
      last_cpu = cpu;
      next_mark += kWindowS;
    }
  };

  auto reap = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    auto r = client->Wait(f.request_id);
    const double now = Now();
    p.end = now;
    const size_t win = static_cast<size_t>((now - p.start) / kWindowS);
    (f.update ? p.update_ms : p.get_ms).push_back((now - f.sent) * 1e3);
    (f.update ? p.update_win : p.get_win).push_back(static_cast<uint32_t>(win));
    p.ops += f.ids.size();
    if (win < p.window_ops.size()) p.window_ops[win] += f.ids.size();
    mark_windows(now);
    for (size_t i = 0; i < f.ids.size(); ++i) {
      if (!r.ok()) {
        tally->Op(false);
      } else if (f.update) {
        tally->Op(r->results[i].status.ok());
      } else {
        tally->Answer(*data, f.ids[i], f.versions[i], r->results[i].status,
                      r->results[i].row);
      }
    }
  };

  while (true) {
    const bool more = seconds > 0 ? Now() < stop : sent_ops < max_ops;
    if (!more) break;
    if (inflight.size() >= kDepth) {
      reap();
      continue;
    }
    Inflight f;
    f.update = w.updates && (frames % 2 == 1);
    batch.clear();
    for (size_t k = 0; k < kBatch; ++k) {
      const uint64_t id = data->RevisionKey(rng, w.latest_share);
      f.ids.push_back(id);
      if (f.update) {
        const uint32_t v = data->Bump(id);
        batch.push_back(nblb::Request::Update(id, data->MakeRow(id, v)));
        f.versions.push_back(v);
      } else {
        batch.push_back(nblb::Request::Get(id));
        f.versions.push_back(data->version(id));
      }
    }
    f.sent = Now();
    auto id = client->Send(batch);
    if (!id.ok()) Die("send", id.status());
    f.request_id = *id;
    inflight.push_back(std::move(f));
    ++frames;
    sent_ops += kBatch;
  }
  while (!inflight.empty()) reap();
  const double load_cpu = ThreadCpuSeconds() - thread0;
  p.load_cpu_s = load_cpu;
  p.cpu_s = ProcessCpuSeconds() - proc0 - load_cpu;
  p.steal_s = StealSeconds() - steal0;
  return p;
}

/// Selects the intervals that timed metrics are taken over, given the steal
/// the machine lost in each: the calm ones (kCalmStealS), or the
/// `min_count` calmest when fewer are calm. Ties go to the earlier
/// interval. The result has `size` entries; intervals past the end of
/// `steal_s` were never sampled and are not selected.
std::vector<bool> CalmSelect(const std::vector<double>& steal_s, size_t size,
                             size_t min_count) {
  std::vector<size_t> order(steal_s.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_s[a] < steal_s[b];
  });
  std::vector<bool> calm(size, false);
  for (size_t k = 0; k < order.size(); ++k) {
    if (k >= min_count && steal_s[order[k]] > kCalmStealS) break;
    calm[order[k]] = true;
  }
  return calm;
}

/// The values whose interval `at[i]` is selected.
std::vector<double> SelectedAt(const std::vector<double>& values,
                               const std::vector<uint32_t>& at,
                               const std::vector<bool>& selected) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (at[i] < selected.size() && selected[at[i]]) out.push_back(values[i]);
  }
  return out;
}

/// The values of the selected intervals, one value per interval.
std::vector<double> Selected(const std::vector<double>& values,
                             const std::vector<bool>& selected) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size() && i < selected.size(); ++i) {
    if (selected[i]) out.push_back(values[i]);
  }
  return out;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Makes every file in `dir` durable, so that no earlier run phase leaves
/// dirty page cache for a timed phase to write back.
void SyncFiles(const std::string& dir) {
  for (const auto& f : fs::directory_iterator(dir)) {
    if (!f.is_regular_file()) continue;
    const int fd = open(f.path().c_str(), O_RDONLY);
    if (fd < 0 || fsync(fd) != 0) {
      Die("sync " + f.path().string(), nblb::Status::IOError("fsync"));
    }
    close(fd);
  }
}

uint64_t SumCounter(const nblb::MetricsSnapshot& snap,
                    const std::string& suffix) {
  uint64_t total = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Outcome of the crash epilogue.
struct Epilogue {
  std::vector<double> tail_ms;  // update frames written before the crash
  std::vector<double> recover_s;
  std::vector<double> recover_steal_s;
  uint64_t replayed = 0;        // WAL records re-applied, per recovery
  bool replay_matches = true;
};

/// Reopens the cleanly closed files, writes kTailFrames acknowledged update
/// frames one at a time in a child process, kills it with SIGKILL, then
/// recovers kRecoveries times from copies of the crashed files and checks
/// every row after the last recovery.
Epilogue CrashAndRecover(const Workload& w, Dataset* data,
                         const std::string& dir, Rng* rng, Tally* tally) {
  Epilogue e;
  std::vector<uint64_t> tail;
  for (size_t i = 0; i < kTailFrames * kTailBatch; ++i) {
    tail.push_back(data->RevisionKey(rng, 0.9));
  }
  int fds[2];
  if (pipe(fds) != 0) Die("pipe", nblb::Status::IOError("pipe"));
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) Die("fork", nblb::Status::IOError("fork"));
  if (pid == 0) {
    // Child: the writer that dies. It reports the latency of every
    // acknowledged frame, then waits for the kill; it dies with the parent.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(5);
    close(fds[0]);
    Stack s;
    s.engine = OpenEngine(w, dir, /*truncate=*/false);
    s.Serve();
    std::vector<double> out;
    for (size_t f = 0; f < kTailFrames; ++f) {
      RequestBatch batch;
      for (size_t k = 0; k < kTailBatch; ++k) {
        const uint64_t id = tail[f * kTailBatch + k];
        batch.push_back(nblb::Request::Update(id, data->MakeRow(id, data->Bump(id))));
      }
      const double t0 = Now();
      auto r = s.client->Call(batch);
      out.push_back((Now() - t0) * 1e3);
      if (!r.ok() || !r->all_ok()) _exit(3);
    }
    const ssize_t want = static_cast<ssize_t>(out.size() * sizeof(double));
    if (write(fds[1], out.data(), out.size() * sizeof(double)) != want) _exit(4);
    while (true) pause();
  }
  close(fds[1]);
  e.tail_ms.resize(kTailFrames);
  const size_t bytes = e.tail_ms.size() * sizeof(double);
  size_t got = 0;
  char* dst = reinterpret_cast<char*>(e.tail_ms.data());
  const double deadline = Now() + kTailTimeoutS;
  while (got < bytes) {
    pollfd ready{fds[0], POLLIN, 0};
    const int left_ms = static_cast<int>((deadline - Now()) * 1e3);
    if (left_ms <= 0 || poll(&ready, 1, left_ms) <= 0) break;
    const ssize_t n = read(fds[0], dst + got, bytes - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  const bool acked = got == bytes;
  for (size_t i = 0; i < tail.size(); ++i) tally->Op(acked);
  if (!acked) {
    e.tail_ms.clear();
    e.replay_matches = false;
    return e;
  }
  // The parent's model learns the acknowledged versions.
  for (uint64_t id : tail) data->Bump(id);

  const std::string crashed = dir + "/crashed";
  fs::create_directory(crashed);
  std::vector<std::string> files;
  for (const auto& f : fs::directory_iterator(dir)) {
    if (f.is_regular_file()) files.push_back(f.path().filename().string());
  }
  for (const std::string& f : files) {
    fs::copy_file(dir + "/" + f, crashed + "/" + f);
  }
  for (int k = 0; k < kRecoveries; ++k) {
    if (k > 0) {
      for (const std::string& f : files) {
        fs::copy_file(crashed + "/" + f, dir + "/" + f,
                      fs::copy_options::overwrite_existing);
      }
    }
    SyncFiles(dir);
    const double steal0 = StealSeconds();
    const double t0 = Now();
    std::unique_ptr<ShardedEngine> engine = OpenEngine(w, dir, false);
    e.recover_s.push_back(Now() - t0);
    e.recover_steal_s.push_back(StealSeconds() - steal0);
    uint64_t replayed = 0;
    for (uint32_t s = 0; s < engine->num_shards(); ++s) {
      replayed += engine->shard(s)->replayed_records();
    }
    e.replayed = replayed;
    e.replay_matches = e.replay_matches && replayed == tail.size();
    if (k + 1 == kRecoveries) {
      RequestBatch batch;
      for (uint64_t id = 1; id <= data->rows(); ++id) {
        batch.push_back(nblb::Request::Get(id));
        if (batch.size() == 256 || id == data->rows()) {
          const nblb::BatchResult r = engine->Execute(batch);
          for (size_t i = 0; i < batch.size(); ++i) {
            const uint64_t row_id = batch[i].id;
            tally->Answer(*data, row_id, data->version(row_id),
                          r.results[i].status, r.results[i].row);
          }
          batch.clear();
        }
      }
    }
  }
  fs::remove_all(crashed);
  return e;
}

/// The verifier must catch each kind of wrong answer.
int SelfTest() {
  Dataset data(7, 400);
  const uint64_t id = 123;
  data.Bump(id);
  data.Bump(id);  // current version 2
  int bad = 0;
  auto expect = [&](const char* what, Verdict got, Verdict want) {
    const bool ok = got == want;
    std::printf("selftest %-18s %s\n", what, ok ? "caught" : "MISSED");
    if (!ok) ++bad;
  };
  const nblb::Row good = data.MakeRow(id, 2);
  expect("correct row", Check(data, id, 2, true, good), Verdict::kOk);
  expect("stale version", Check(data, id, 2, true, data.MakeRow(id, 1)),
         Verdict::kStale);
  nblb::Row corrupt = good;
  std::string comment = data.Comment(id) + "x";
  corrupt[kRevComment] = nblb::Value::Varchar(comment);
  expect("corrupted column", Check(data, id, 2, true, corrupt),
         Verdict::kCorrupt);
  nblb::Row torn = good;
  torn[kRevLen] = nblb::Value::Int64(data.Len(id, 1));  // mixed versions
  expect("torn version", Check(data, id, 2, true, torn), Verdict::kCorrupt);
  expect("other row", Check(data, id, 2, true, data.MakeRow(id + 1, 2)),
         Verdict::kCorrupt);
  expect("missing row", Check(data, id, 2, false, nblb::Row()),
         Verdict::kMissing);
  Tally t;
  t.Get(Check(data, id, 2, true, data.MakeRow(id, 1)));
  t.Get(Check(data, id, 2, true, good));
  expect("tally counts wrong", t.failed == 1 && t.wrong == 1 ? Verdict::kOk
                                                              : Verdict::kCorrupt,
         Verdict::kOk);
  return bad == 0 ? 0 : 1;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  std::string spans;
  bool small = false;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--dir") {
      a->dir = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else if (k == "--scale") {
      a->small = v == "small";
    } else {
      return false;
    }
  }
  return true;
}

/// JSON object writer for the result line.
class Json {
 public:
  void Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(k, buf);
  }
  void Str(const std::string& k, const std::string& v) { Raw(k, "\"" + v + "\""); }
  void Raw(const std::string& k, const std::string& v) {
    out_ += (out_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
  }
  std::string Done() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "servebench: bad arguments\n");
    return 2;
  }
  if (args.selftest) return SelfTest();
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "servebench: refusing a debug or sanitizer build\n");
  return 2;
#endif
  Workload w;
  if (!FindWorkload(args.workload, args.small, &w) || args.dir.empty() ||
      args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr, "servebench: unknown workload or bad arguments\n");
    return 2;
  }
  const bool traced = args.trace == 1;
  fs::create_directories(args.dir);

  // Inputs: generated before the engine opens and excluded from setup_s.
  Dataset data(args.seed, w.rows);
  const double rss_before = StatusMiB("VmRSS");
  Tally tally;

  // ---- Setup; the run serves from this one. The other kSetups - 1, for
  // setup_s alone, come at the end, so that peak_rss_mb sees one setup.
  std::vector<double> setup_s;
  std::vector<double> setup_steal_s;
  Stack stack;
  auto set_up = [&](Stack* s, Dataset* d) {
    const double steal0 = StealSeconds();
    const double t0 = Now();
    s->engine = OpenEngine(w, args.dir, /*truncate=*/true);
    Load(s->engine.get(), *d, &tally);
    s->Serve();
    Rng warm(args.seed ^ 0x3a3a3a3aull);
    Drive(w, d, &warm, s->client.get(), 0, w.warmup_ops, &tally);
    setup_s.push_back(Now() - t0);
    setup_steal_s.push_back(StealSeconds() - steal0);
  };
  set_up(&stack, &data);
  ShardedEngine* engine = stack.engine.get();

  // ---- Timed phase ------------------------------------------------------------
  Rng stream(args.seed);
  const nblb::MetricsSnapshot before = stack.server->MetricsSnapshotNow();
  const Phase p = Drive(w, &data, &stream, stack.client.get(), args.seconds, 0,
                        &tally);
  const nblb::MetricsSnapshot served =
      stack.server->MetricsSnapshotNow() - before;
  // Peak memory of setup and serving; the recoveries of the epilogue open
  // further engines and are reported apart, in info.
  const double peak_rss = StatusMiB("VmHWM") - rss_before;

  const double elapsed = p.end - p.start;
  const std::vector<bool> calm =
      CalmSelect(p.window_steal_s, p.window_ops.size(), kMinCalmWindows);
  std::vector<double> calm_rates;
  double calm_ops = 0;
  double calm_cpu_s = 0;
  for (size_t i = 0; i < calm.size(); ++i) {
    if (!calm[i]) continue;
    calm_rates.push_back(p.window_ops[i] / kWindowS);
    calm_ops += static_cast<double>(p.window_ops[i]);
    calm_cpu_s += p.window_cpu_s[i];
  }

  Json info;
  info.Str("workload", w.name);
  info.Num("seed", static_cast<double>(args.seed));
  info.Num("rows", static_cast<double>(w.rows));
  info.Num("pool_frames_per_shard", static_cast<double>(w.frames_per_shard));
  info.Str("disk_backend",
           BackendName(engine->shard(0)->database()->disk()->io_backend_in_use()));
  info.Str("net_backend",
           stack.server->backend_in_use() == nblb::IoBackend::kUring ? "uring"
                                                                     : "epoll");
  info.Raw("direct_io_effective",
           engine->shard(0)->database()->disk()->direct_io() ? "true" : "false");
  info.Num("timed_s", elapsed);
  info.Num("ops", static_cast<double>(p.ops));
  info.Num("steal_s", p.steal_s);
  info.Num("process_cpu_s", p.cpu_s + p.load_cpu_s);
  info.Num("load_thread_cpu_s", p.load_cpu_s);
  info.Num("calm_windows",
           static_cast<double>(std::count(calm.begin(), calm.end(), true)));
  // The same figures over every window, and the tails: for reference.
  info.Num("whole_run_ops_s", Ratio(static_cast<double>(p.ops), elapsed));
  info.Num("all_windows_get_p50_ms", Median(p.get_ms));
  info.Num("all_windows_cpu_us_per_op",
           Ratio(p.cpu_s * 1e6, static_cast<double>(p.ops)));
  info.Num("get_p99_ms", Quantile(p.get_ms, 0.99));
  info.Num("get_frames", static_cast<double>(p.get_ms.size()));

  std::map<std::string, std::pair<double, const char*>> metrics;
  auto put = [&](const std::string& name, double v, const char* unit) {
    metrics[name] = {v, unit};
  };

  if (traced) {
    const uint64_t gets = SumCounter(served, ".shard.gets");
    const uint64_t updates = SumCounter(served, ".shard.updates");
    const uint64_t ops = p.ops;
    const double hits = SumCounter(served, ".buffer_pool.hits");
    const double misses = SumCounter(served, ".buffer_pool.misses");
    put("net.bytes_per_op",
        Ratio(served.counters.at("net.bytes_in") +
                  served.counters.at("net.bytes_out"),
              ops),
        "B/op");
    put("shard.subbatches_per_group",
        Ratio(SumCounter(served, ".shard.sub_batches"),
              SumCounter(served, ".shard.coalesced_groups")),
        "ratio");
    put("pool.hit_rate", Ratio(hits, hits + misses), "ratio");
    put("pool.evictions_per_op",
        Ratio(SumCounter(served, ".buffer_pool.evictions"), ops), "pages/op");
    put("pool.dirty_writebacks_per_op",
        Ratio(SumCounter(served, ".buffer_pool.dirty_writebacks"), ops),
        "pages/op");
    put("pool.flusher_pages_per_update",
        Ratio(SumCounter(served, ".buffer_pool.flusher_pages"), updates),
        "pages/op");
    put("disk.reads_per_get", Ratio(SumCounter(served, ".disk.reads"), gets),
        "pages/op");
    put("disk.pages_per_read_batch",
        Ratio(SumCounter(served, ".disk.async_reads"),
              SumCounter(served, ".disk.async_batches")),
        "pages");
    put("disk.writes_per_update",
        Ratio(SumCounter(served, ".disk.writes"), updates), "pages/op");
    const double commits = SumCounter(served, ".wal.commits");
    put("wal.records_per_commit",
        Ratio(SumCounter(served, ".wal.appends"), commits), "ratio");
    put("wal.commit_us", Ratio(SumCounter(served, ".wal.commit_micros"), commits),
        "us");
    put("wal.bytes_per_update",
        Ratio(SumCounter(served, ".wal.bytes_appended"), updates), "B/op");
    put("wal.checkpoints", SumCounter(served, ".wal.resets"), "count");

    LadderPlan plan;
    plan.get_batches = w.ladder_get_batches;
    plan.update_batches = w.ladder_update_batches;
    plan.batch = kBatch;
    plan.latest_share = w.latest_share;
    std::vector<Span> spans;
    Rng ladder_rng(args.seed ^ 0x1add3e11ull);
    for (const auto& [name, v] : RunLadder(engine, stack.client.get(), &data,
                                           plan, &ladder_rng, &spans, &tally)) {
      put(name, v, name.find("page_fetches") != std::string::npos ? "pages/key"
                                                                  : "us");
    }
    put("catalog.row_bytes",
        static_cast<double>(engine->shard(0)->table()->row_codec().schema()->row_size()),
        "B");
    if (!args.spans.empty()) {
      if (FILE* f = std::fopen(args.spans.c_str(), "w")) {
        std::fprintf(f, "layer,batch,start_us,end_us\n");
        const double t0 = spans.empty() ? 0 : spans.front().start;
        for (const Span& s : spans) {
          std::fprintf(f, "%s,%u,%.3f,%.3f\n", s.layer, s.batch,
                       (s.start - t0) * 1e6, (s.end - t0) * 1e6);
        }
        std::fclose(f);
      }
    }
  }

  // ---- Write probe (read workloads only) ---------------------------------------
  Phase probe;
  if (!w.updates && !traced) {
    Workload with_writes = w;
    with_writes.updates = true;
    Rng probe_rng(args.seed ^ 0x9be59be5ull);
    probe = Drive(with_writes, &data, &probe_rng, stack.client.get(),
                  kWriteProbeS, 0, &tally);
  }
  const Phase& writes = w.updates ? p : probe;

  // ---- Clean close, stored bytes, crash epilogue -----------------------------
  stack.Close();
  const double stored_per_row =
      static_cast<double>(DirBytes(args.dir)) / static_cast<double>(w.rows);
  Rng tail_rng(args.seed ^ 0x7a117a11ull);
  const Epilogue e = CrashAndRecover(w, &data, args.dir, &tail_rng, &tally);
  const std::vector<double> calm_recover_s = Selected(
      e.recover_s,
      CalmSelect(e.recover_steal_s, e.recover_s.size(), kMinCalmRecoveries));
  info.Num("tail_update_p50_ms", Median(e.tail_ms));
  for (size_t k = 0; k < e.recover_s.size(); ++k) {
    info.Num("recover_s_" + std::to_string(k), e.recover_s[k]);
  }
  info.Num("calm_recoveries", static_cast<double>(calm_recover_s.size()));
  info.Num("rss_before_open_mb", rss_before);
  info.Num("peak_rss_with_recovery_mb", StatusMiB("VmHWM") - rss_before);
  info.Num("wal_replayed_records", static_cast<double>(e.replayed));
  info.Num("wrong_answers", static_cast<double>(tally.wrong));

  if (traced) {
    put("wal.replayed_records", static_cast<double>(e.replayed), "count");
  } else {
    put("throughput_ops_s", Quantile(calm_rates, 0.9), "ops/s");
    put("get_p50_ms", Median(SelectedAt(p.get_ms, p.get_win, calm)), "ms");
    put("update_p50_ms",
        Median(SelectedAt(writes.update_ms, writes.update_win,
                          CalmSelect(writes.window_steal_s,
                                     writes.window_ops.size(),
                                     kMinCalmWindows))),
        "ms");
    put("cpu_us_per_op", Ratio(calm_cpu_s * 1e6, calm_ops), "us");
    put("recover_s", Median(calm_recover_s), "s");
    put("stored_bytes_per_row", stored_per_row, "B/row");
    put("peak_rss_mb", peak_rss, "MB");
    info.Num("update_p99_ms", Quantile(writes.update_ms, 0.99));
  }

  for (const auto& f : fs::directory_iterator(args.dir)) fs::remove_all(f);
  if (!traced) {
    for (size_t k = 1; k < kSetups; ++k) {
      Dataset fresh(args.seed, w.rows);
      Stack extra;
      set_up(&extra, &fresh);
      extra.Close();
      for (const auto& f : fs::directory_iterator(args.dir)) fs::remove_all(f);
    }
    put("setup_s",
        Median(Selected(setup_s,
                        CalmSelect(setup_steal_s, kSetups, kMinCalmSetups))),
        "s");
    info.Num("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()));
    info.Num("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()));
  }

  const bool correct = tally.wrong == 0 && e.replay_matches;
  Json m;
  for (const auto& [name, vu] : metrics) {
    Json one;
    one.Num("value", vu.first);
    one.Str("unit", vu.second);
    m.Raw(name, one.Done());
  }
  Json result;
  result.Raw("correct", correct ? "true" : "false");
  result.Num("attempted", static_cast<double>(tally.attempted));
  result.Num("failed", static_cast<double>(tally.failed));
  result.Raw("metrics", m.Done());
  result.Raw("info", info.Done());
  std::printf("%s\n", result.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
