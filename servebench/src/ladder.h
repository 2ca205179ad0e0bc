// The layer ladder of the traced run: the same key batches go through each
// layer's public batch call in turn, from NetClient::Call down to
// DiskManager::ReadPages, so that each layer's marginal cost is one
// subtraction. Each layer gets a whole pass over the batches, so that every
// pass starts from the same steady buffer-pool state.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "model.h"
#include "net/client.h"
#include "shard/sharded_engine.h"

namespace servebench {

/// One timed call into a layer.
struct Span {
  const char* layer;
  uint32_t batch;
  double start;  // steady-clock seconds
  double end;
};

struct LadderPlan {
  size_t get_batches = 0;     // batches per get-layer pass
  size_t update_batches = 0;  // batches per update-layer pass
  size_t batch = 0;           // keys per batch
  double latest_share = 0;    // key stream of the workload
};

/// Runs the ladder on a quiescent engine (no frames in flight) and returns
/// per-layer figures in microseconds per batch, keyed by metric name.
std::map<std::string, double> RunLadder(nblb::ShardedEngine* engine,
                                        nblb::net::NetClient* client,
                                        Dataset* data, const LadderPlan& plan,
                                        Rng* rng, std::vector<Span>* spans,
                                        Tally* tally);

}  // namespace servebench
