#include "ladder.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "exec/table.h"
#include "host.h"
#include "shard/shard.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace servebench {
namespace {

using nblb::Result;
using nblb::Row;
using nblb::Value;

/// Times `fn(b)` for every batch b as one span of `layer` and returns the
/// mean microseconds per batch. `prepare(b)`, when given, runs untimed
/// before each call.
double Pass(const char* layer, size_t batches,
            const std::function<void(size_t)>& fn, std::vector<Span>* spans,
            const std::function<void(size_t)>& prepare = nullptr) {
  double total = 0;
  for (size_t b = 0; b < batches; ++b) {
    if (prepare) prepare(b);
    const double t0 = Now();
    fn(b);
    const double t1 = Now();
    spans->push_back({layer, static_cast<uint32_t>(b), t0, t1});
    total += t1 - t0;
  }
  return batches > 0 ? total * 1e6 / static_cast<double>(batches) : 0;
}

uint64_t PoolFetches(nblb::ShardedEngine* engine) {
  uint64_t n = 0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    const auto snap = engine->shard(s)->database()->metrics()->Snapshot();
    n += snap.counters.at("buffer_pool.hits") +
         snap.counters.at("buffer_pool.misses");
  }
  return n;
}

/// Page buffers aligned for O_DIRECT reads.
struct AlignedPages {
  AlignedPages(size_t n, size_t page_size) {
    for (size_t i = 0; i < n; ++i) {
      bufs.push_back(static_cast<char*>(std::aligned_alloc(4096, page_size)));
    }
  }
  ~AlignedPages() {
    for (char* b : bufs) std::free(b);
  }
  AlignedPages(const AlignedPages&) = delete;
  AlignedPages& operator=(const AlignedPages&) = delete;
  std::vector<char*> bufs;
};

}  // namespace

std::map<std::string, double> RunLadder(nblb::ShardedEngine* engine,
                                        nblb::net::NetClient* client,
                                        Dataset* data, const LadderPlan& plan,
                                        Rng* rng, std::vector<Span>* spans,
                                        Tally* tally) {
  const uint32_t num_shards = engine->num_shards();
  // Batches that each route to a single shard, so that every layer below
  // the engine sees exactly the batch the engine handed to its shard.
  auto draw = [&](size_t count, double latest_share) {
    std::vector<std::vector<uint64_t>> per(num_shards);
    std::vector<std::vector<uint64_t>> out;
    while (out.size() < count) {
      const uint64_t id = data->RevisionKey(rng, latest_share);
      const uint32_t s = *engine->RouteOf(id);
      per[s].push_back(id);
      if (per[s].size() == plan.batch) {
        out.push_back(std::move(per[s]));
        per[s].clear();
      }
    }
    return out;
  };
  auto shard_of = [&](const std::vector<uint64_t>& ids) {
    return engine->shard(*engine->RouteOf(ids.front()));
  };

  std::map<std::string, double> m;
  const auto gets = draw(plan.get_batches, plan.latest_share);
  const size_t G = gets.size();

  // ---- Get ladder ----------------------------------------------------------
  std::vector<nblb::RequestBatch> requests(G);
  for (size_t b = 0; b < G; ++b) {
    for (uint64_t id : gets[b]) requests[b].push_back(nblb::Request::Get(id));
  }
  auto answer = [&](uint64_t id, const nblb::Status& s, const Row& row) {
    tally->Answer(*data, id, data->version(id), s, row);
  };
  // One answer per id from a layer that returns Result<Row>s.
  auto answer_all = [&](const std::vector<uint64_t>& ids, const nblb::Status& s,
                        const std::vector<Result<Row>>& out) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!s.ok()) {
        tally->Op(false);
      } else {
        answer(ids[i], out[i].status(), out[i].ok() ? *out[i] : Row());
      }
    }
  };

  m["net.call_us"] = Pass("net", G, [&](size_t b) {
    auto r = client->Call(requests[b]);
    if (!r.ok()) {
      for (size_t i = 0; i < gets[b].size(); ++i) tally->Op(false);
      return;
    }
    for (size_t i = 0; i < gets[b].size(); ++i) {
      answer(gets[b][i], r->results[i].status, r->results[i].row);
    }
  }, spans);

  m["engine.execute_us"] = Pass("engine", G, [&](size_t b) {
    const nblb::BatchResult r = engine->Execute(requests[b]);
    for (size_t i = 0; i < gets[b].size(); ++i) {
      answer(gets[b][i], r.results[i].status, r.results[i].row);
    }
  }, spans);

  std::vector<Result<Row>> rows;
  m["shard.get_batch_us"] = Pass("shard", G, [&](size_t b) {
    rows.clear();
    answer_all(gets[b], shard_of(gets[b])->GetBatch(gets[b], &rows), rows);
  }, spans);

  std::vector<std::vector<std::vector<Value>>> keys(G);
  for (size_t b = 0; b < G; ++b) {
    for (uint64_t id : gets[b]) {
      keys[b].push_back({Value::Int64(static_cast<int64_t>(id))});
    }
  }
  m["exec.get_batch_us"] = Pass("exec", G, [&](size_t b) {
    rows.clear();
    answer_all(gets[b],
               shard_of(gets[b])->table()->GetBatchByKey(keys[b], &rows), rows);
  }, spans);

  // Below the table the ladder replays what Table::GetBatchByKey does: keys
  // encoded and sorted, one B+Tree batch, one heap batch, one decode each.
  std::vector<std::vector<std::string>> encoded(G);
  std::vector<std::vector<nblb::Slice>> sorted(G);
  for (size_t b = 0; b < G; ++b) {
    const nblb::KeyCodec& codec = shard_of(gets[b])->table()->key_codec();
    for (const auto& k : keys[b]) encoded[b].push_back(*codec.EncodeValues(k));
    std::sort(encoded[b].begin(), encoded[b].end());
    for (const std::string& e : encoded[b]) sorted[b].emplace_back(e);
  }
  std::vector<std::vector<nblb::Rid>> rids(G);
  std::vector<Result<uint64_t>> tids;
  const uint64_t fetches_before = PoolFetches(engine);
  m["index.get_batch_us"] = Pass("index", G, [&](size_t b) {
    tids.clear();
    const nblb::Status s =
        shard_of(gets[b])->table()->index()->GetBatch(sorted[b], &tids);
    rids[b].clear();
    for (size_t i = 0; i < sorted[b].size(); ++i) {
      const bool ok = s.ok() && tids[i].ok();
      tally->Op(ok);
      if (ok) rids[b].push_back(nblb::Rid::FromU64(*tids[i]));
    }
  }, spans);
  m["index.page_fetches_per_key"] =
      static_cast<double>(PoolFetches(engine) - fetches_before) /
      static_cast<double>(G * plan.batch);

  std::vector<std::vector<std::string>> tuples(G);
  std::vector<nblb::Status> statuses;
  m["heap.get_batch_us"] = Pass("heap", G, [&](size_t b) {
    const nblb::Status s =
        shard_of(gets[b])->table()->heap()->GetBatch(rids[b], &tuples[b],
                                                     &statuses);
    for (size_t i = 0; i < rids[b].size(); ++i) {
      tally->Op(s.ok() && statuses[i].ok());
    }
  }, spans);

  std::vector<std::vector<nblb::PageId>> pages(G);
  for (size_t b = 0; b < G; ++b) {
    for (const nblb::Rid& rid : rids[b]) pages[b].push_back(rid.page);
    std::sort(pages[b].begin(), pages[b].end());
    pages[b].erase(std::unique(pages[b].begin(), pages[b].end()),
                   pages[b].end());
  }
  m["pool.fetch_pages_us"] = Pass("pool", G, [&](size_t b) {
    auto guards =
        shard_of(gets[b])->database()->buffer_pool()->FetchPages(pages[b]);
    tally->Op(guards.ok());
  }, spans);

  std::vector<Row> decoded;
  m["catalog.decode_us"] = Pass("catalog", G, [&](size_t b) {
    const nblb::RowCodec& codec = shard_of(gets[b])->table()->row_codec();
    decoded.clear();
    for (const std::string& t : tuples[b]) decoded.push_back(codec.Decode(t.data()));
  }, spans);
  // The decode pass's rows are checked after its timing, by id column.
  for (size_t b = 0; b < G; ++b) {
    const nblb::RowCodec& codec = shard_of(gets[b])->table()->row_codec();
    for (const std::string& t : tuples[b]) {
      const Row row = codec.Decode(t.data());
      const uint64_t id = row.empty() ? 0 : static_cast<uint64_t>(row[0].AsInt());
      const bool known = id >= 1 && id <= data->rows();
      tally->Get(known ? Check(*data, id, data->version(id), true, row)
                       : Verdict::kCorrupt);
    }
  }

  {
    const size_t page_size = engine->options().page_size;
    AlignedPages bufs(plan.batch, page_size);
    m["disk.read_pages_us"] = Pass("disk", G, [&](size_t b) {
      const nblb::Status s =
          shard_of(gets[b])->database()->disk()->ReadPages(
              pages[b].data(), bufs.bufs.data(), pages[b].size());
      tally->Op(s.ok());
    }, spans);
  }

  // Self time of each layer over the one below it; whatever the timed
  // layers do not cover (the table's key encoding, sorting and result
  // assembly) is left unattributed rather than spread over the layers.
  m["net.overhead_us"] = m["net.call_us"] - m["engine.execute_us"];
  m["engine.dispatch_us"] = m["engine.execute_us"] - m["shard.get_batch_us"];
  m["shard.self_us"] = m["shard.get_batch_us"] - m["exec.get_batch_us"];
  m["heap.self_us"] = m["heap.get_batch_us"] - m["pool.fetch_pages_us"];
  m["unattributed_us"] = m["net.call_us"] - m["net.overhead_us"] -
                         m["engine.dispatch_us"] - m["shard.self_us"] -
                         m["index.get_batch_us"] - m["heap.self_us"] -
                         m["pool.fetch_pages_us"] - m["catalog.decode_us"];

  // ---- Update ladder -------------------------------------------------------
  const auto updates = draw(plan.update_batches, 0.9);
  const size_t U = updates.size();
  std::vector<Row> new_rows;
  auto make_rows = [&](size_t b) {
    new_rows.clear();
    for (uint64_t id : updates[b]) {
      new_rows.push_back(data->MakeRow(id, data->Bump(id)));
    }
  };
  auto exec_update = [&](size_t b) {
    nblb::Table* table = shard_of(updates[b])->table();
    for (size_t i = 0; i < updates[b].size(); ++i) {
      const int64_t id = static_cast<int64_t>(updates[b][i]);
      tally->Op(table->UpdateByKey({Value::Int64(id)}, new_rows[i]).ok());
    }
  };
  m["shard.update_us"] = Pass("shard.update", U, [&](size_t b) {
    nblb::Shard* shard = shard_of(updates[b]);
    for (size_t i = 0; i < updates[b].size(); ++i) {
      tally->Op(shard->Update(updates[b][i], new_rows[i]).ok());
    }
    tally->Op(shard->CommitWal().ok());
  }, spans, make_rows);
  m["exec.update_us"] = Pass("exec.update", U, exec_update, spans, make_rows);

  // fsync of a data file that holds one batch of freshly written pages.
  m["disk.fsync_us"] = Pass("disk.fsync", U, [&](size_t b) {
    tally->Op(shard_of(updates[b])->database()->disk()->Sync().ok());
  }, spans, [&](size_t b) {
    make_rows(b);
    exec_update(b);
    tally->Op(shard_of(updates[b])->database()->buffer_pool()->FlushAll().ok());
  });
  return m;
}

}  // namespace servebench
