// gemsd_write: an in-process gemsd (real epoll event loops, real loopback
// sockets) over hllpp keys, driven by closed-loop GemsdClient connections
// sending 90% UPDATE and 10% QUERY with E15's squared-uniform key skew.
//
// Every key is pre-loaded dense in set-up by merging a prebuilt envelope,
// so the timed phase never times the sparse-to-dense switch. The traced
// half follows each client round trip with the same kind of request run
// through the layers in-process on the client thread — protocol codec,
// HandleRequest, Keyspace, ConcurrentAnySketch — each call in its own
// span, so the round trip minus codec and handling is the socket residual.
//
// Correctness: every applied UPDATE (acked round trips and in-process
// layer calls alike) is logged as (key, item seed); a sample of keys is
// rebuilt in an offline Keyspace from those logs, and its checkpoint bytes
// and QUERY answers must equal the daemon's.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/io.h"
#include "core/registry.h"
#include "distributed/concurrent/concurrent_any.h"
#include "report.h"
#include "server/client.h"
#include "server/keyspace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gems::AnySketch;
using gems::ByteSink;
using gems::ByteSpan;
using gems::ConcurrentAnySketch;
using gems::SketchRegistry;
using gems::SplitMix64;
using gems::Status;
using gems::server::GemsdClient;
using gems::server::Keyspace;
using gems::server::KeyspaceOptions;
using gems::server::Opcode;
using gems::server::Request;
using gems::server::Response;
using gems::server::Server;
using gems::server::ServerOptions;

struct Sizes {
  uint64_t keys;
  size_t envelopes;       // Distinct pre-load envelopes, shared round-robin.
  size_t preload_items;   // Items per envelope; enough to make hllpp dense.
  size_t batch;           // Items per UPDATE.
  size_t connections;
  size_t loops;           // Server event-loop threads.
  int setup_reps;
  size_t sampled_keys;    // Keys rebuilt offline by the check.
  size_t layer_pool;      // Standalone sketches for the in-process layers.
  double floor_seconds;   // Budget of the hllpp floor measurement.
  int windows;            // Slices of the timed phase (ReportWindowed).
};

Sizes SizesFor(const Config& config) {
  if (config.tiny) return {300, 4, 4096, 64, 2, 2, 2, 8, 16, 0.02, 2};
  return {20000, 64, 4096, 64, 2, 2, 3, 32, 1024, 0.25, 25};
}

uint64_t Mix(uint64_t a, uint64_t b) {
  return SplitMix64(a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL))
      .Next();
}

std::string KeyName(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%08llu", static_cast<unsigned long long>(i));
  return buf;
}

/// The items of one update are a pure function of its seed, so the check
/// can replay the update from the seed alone.
void FillItems(uint64_t op_seed, std::vector<uint64_t>* items) {
  SplitMix64 rng(op_seed);
  for (uint64_t& item : *items) item = rng.Next();
}

/// UPDATEs per key sent through the daemon before timing.
constexpr int kWarmUpRounds = 8;

AnySketch MakeHllpp() {
  return SketchRegistry::Global().FindByName("hllpp")->make_default();
}

/// One update applied to the daemon's keyspace.
struct Applied {
  uint64_t key_id;
  uint64_t op_seed;
};

/// Members are destroyed in reverse order: clients, then the server, then
/// the keyspace it borrows.
struct Deployment {
  std::vector<std::vector<uint8_t>> envelopes;
  std::unique_ptr<Keyspace> keyspace;
  std::unique_ptr<Server> server;
  std::vector<GemsdClient> clients;
};

Status Preload(Keyspace& keyspace, const Deployment& d, uint64_t key_id) {
  const std::string key = KeyName(key_id);
  if (Status s = keyspace.Create(key, "hllpp"); !s.ok()) return s;
  const std::vector<uint8_t>& env = d.envelopes[key_id % d.envelopes.size()];
  return keyspace.Merge(key, ByteSpan(env.data(), env.size()),
                        /*trusted=*/true);
}

Status Deploy(const Sizes& sizes, uint64_t seed, Deployment* d) {
  std::vector<uint64_t> items(sizes.preload_items);
  for (size_t e = 0; e < sizes.envelopes; ++e) {
    AnySketch sketch = MakeHllpp();
    FillItems(Mix(seed, 1000 + e), &items);
    if (Status s = sketch.UpdateBatch(items); !s.ok()) return s;
    d->envelopes.emplace_back();
    ByteSink sink(&d->envelopes.back());
    sketch.SerializeTo(sink);
  }
  KeyspaceOptions options;
  options.num_shards = 256;
  d->keyspace = std::make_unique<Keyspace>(options);
  for (uint64_t k = 0; k < sizes.keys; ++k) {
    if (Status s = Preload(*d->keyspace, *d, k); !s.ok()) return s;
  }
  ServerOptions server_options;
  server_options.num_threads = sizes.loops;
  d->server = std::make_unique<Server>(d->keyspace.get(), server_options);
  if (Status s = d->server->Start(); !s.ok()) return s;
  for (size_t c = 0; c < sizes.connections; ++c) {
    gems::Result<GemsdClient> client =
        GemsdClient::Connect("127.0.0.1", d->server->port());
    if (!client.ok()) return client.status();
    d->clients.push_back(std::move(client).value());
  }
  return Status::Ok();
}

/// Standalone dense sketches for the ConcurrentAnySketch and AnySketch
/// layer measurements (the keyspace does not expose its sketches).
struct LayerPool {
  std::vector<ConcurrentAnySketch> concurrent;
  std::vector<AnySketch> plain;
};

Status BuildLayerPool(const Sizes& sizes, const Deployment& d,
                      LayerPool* pool) {
  for (size_t i = 0; i < sizes.layer_pool; ++i) {
    const std::vector<uint8_t>& env = d.envelopes[i % d.envelopes.size()];
    gems::Result<AnySketch> dense = SketchRegistry::Global().Deserialize(env);
    if (!dense.ok()) return dense.status();
    gems::Result<ConcurrentAnySketch> live = ConcurrentAnySketch::Make(
        MakeHllpp(), KeyspaceOptions{}.sketch_options);
    if (!live.ok()) return live.status();
    if (Status s = live.value().Merge(dense.value()); !s.ok()) return s;
    pool->concurrent.push_back(std::move(live).value());
    pool->plain.push_back(std::move(dense).value());
  }
  return Status::Ok();
}

struct ConnectionRun {
  std::vector<Sample> samples;
  std::vector<Completion> completions;
  std::vector<Applied> applied;
  uint64_t requests = 0;
  uint64_t failed = 0;
  SpanLog log;
};

/// Buffers the in-process layer calls reuse across requests, as the
/// daemon's connections reuse theirs.
struct LayerScratch {
  std::vector<uint8_t> frame;
  std::vector<uint8_t> response_frame;
  std::vector<uint64_t> items;
  std::vector<uint64_t> timestamps;
  std::vector<uint8_t> arena;
};

/// Runs `request` through codec, dispatch and codec again in-process,
/// each call in its own span. Returns the dispatch's status code.
gems::StatusCode LayerRoundTrip(Keyspace& keyspace, const Request& request,
                                const char* handle_span, uint64_t rid,
                                uint32_t parent, SpanLog* log,
                                LayerScratch* scratch) {
  using gems::server::SplitFrame;
  constexpr uint32_t kMaxFrame = gems::server::kDefaultMaxFrameBytes;
  Request decoded;
  Response response;
  Response decoded_response;
  ByteSpan body;
  size_t consumed = 0;
  scratch->frame.clear();
  scratch->response_frame.clear();
  {
    ScopedSpan s(log, "protocol.encode_request", rid, parent);
    EncodeRequest(request, &scratch->frame);
  }
  {
    ScopedSpan s(log, "protocol.decode_request", rid, parent);
    if (!SplitFrame(ByteSpan(scratch->frame.data(), scratch->frame.size()),
                    kMaxFrame, &body, &consumed)
             .ok() ||
        !DecodeRequest(body, &decoded, &scratch->items, &scratch->timestamps)
             .ok()) {
      return gems::StatusCode::kCorruption;
    }
  }
  {
    ScopedSpan s(log, handle_span, rid, parent);
    HandleRequest(keyspace, decoded, &response, &scratch->arena);
  }
  {
    ScopedSpan s(log, "protocol.encode_response", rid, parent);
    EncodeResponse(response, &scratch->response_frame);
  }
  {
    ScopedSpan s(log, "protocol.decode_response", rid, parent);
    if (!SplitFrame(ByteSpan(scratch->response_frame.data(),
                             scratch->response_frame.size()),
                    kMaxFrame, &body, &consumed)
             .ok() ||
        !DecodeResponse(body, &decoded_response).ok()) {
      return gems::StatusCode::kCorruption;
    }
  }
  return decoded_response.code;
}

/// One closed-loop connection until `deadline`. With a span log, every
/// request is followed by its in-process layer replay.
void Drive(const Sizes& sizes, int update_pct, uint64_t rng_seed,
           uint64_t request_base, Clock::time_point start,
           Clock::time_point deadline,
           GemsdClient& client, Keyspace& keyspace, LayerPool* pool,
           bool traced, ConnectionRun* run) {
  SplitMix64 rng(rng_seed);
  SpanLog* log = traced ? &run->log : nullptr;
  std::vector<uint64_t> items(sizes.batch);
  LayerScratch scratch;
  while (Clock::now() < deadline) {
    const uint64_t rid = request_base + run->requests;
    ++run->requests;
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
    const uint64_t key_id = std::min(
        static_cast<uint64_t>(u * u * static_cast<double>(sizes.keys)),
        sizes.keys - 1);
    const std::string key = KeyName(key_id);
    const bool is_update =
        rng.Next() % 100 < static_cast<uint64_t>(update_pct);
    ScopedSpan root(log, "request", rid);
    if (is_update) {
      const uint64_t op_seed = rng.Next();
      FillItems(op_seed, &items);
      Status s;
      {
        ScopedSpan span(log, "client.update", rid, root.id());
        const Clock::time_point t0 = Clock::now();
        s = client.Update(key, items);
        const Clock::time_point t1 = Clock::now();
        const double end_s = std::chrono::duration<double>(t1 - start).count();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        run->samples.push_back({end_s, us, false});
        run->completions.push_back({end_s, us, s.ok() ? sizes.batch : 0});
      }
      if (s.ok()) {
        run->applied.push_back({key_id, op_seed});
      } else {
        ++run->failed;
        std::fprintf(stderr, "perfbench: UPDATE %s: %s\n", key.c_str(),
                     s.ToString().c_str());
      }
    } else {
      bool ok = false;
      {
        ScopedSpan span(log, "client.query", rid, root.id());
        const Clock::time_point t0 = Clock::now();
        gems::Result<gems::server::QueryResult> r = client.Query(key);
        const Clock::time_point t1 = Clock::now();
        const double end_s = std::chrono::duration<double>(t1 - start).count();
        const double us =
            std::chrono::duration<double, std::micro>(t1 - t0).count();
        run->samples.push_back({end_s, us, true});
        run->completions.push_back({end_s, us, 0});
        ok = r.ok() && r.value().has_estimate && r.value().estimate.value > 0;
      }
      if (!ok) {
        ++run->failed;
        std::fprintf(stderr, "perfbench: QUERY %s failed\n", key.c_str());
      }
    }
    if (!traced) continue;

    // The same kind of request once more, layer by layer, in-process.
    Request request;
    request.id = rid;
    request.key = key;
    ConcurrentAnySketch& sketch =
        pool->concurrent[key_id % pool->concurrent.size()];
    bool ok = true;
    if (is_update) {
      const uint64_t via_handle = rng.Next();
      FillItems(via_handle, &items);
      request.opcode = Opcode::kUpdate;
      request.items = items;
      ok = LayerRoundTrip(keyspace, request, "server.handle_update", rid,
                          root.id(), log, &scratch) == gems::StatusCode::kOk;
      if (ok) run->applied.push_back({key_id, via_handle});
      const uint64_t via_keyspace = rng.Next();
      FillItems(via_keyspace, &items);
      {
        ScopedSpan span(log, "keyspace.update", rid, root.id());
        ok = keyspace.Update(key, items).ok() && ok;
      }
      run->applied.push_back({key_id, via_keyspace});
      {
        ScopedSpan span(log, "concurrent.apply_batch", rid, root.id());
        ok = sketch.ApplyBatch(items).ok() && ok;
      }
    } else {
      request.opcode = Opcode::kQuery;
      ok = LayerRoundTrip(keyspace, request, "server.handle_query", rid,
                          root.id(), log, &scratch) == gems::StatusCode::kOk;
      {
        ScopedSpan span(log, "keyspace.query", rid, root.id());
        ok = keyspace.Query(key, false, 0, 0.95).ok() && ok;
      }
      {
        ScopedSpan span(log, "concurrent.estimate", rid, root.id());
        ok = sketch.EstimateWithBounds(0.95).ok() && ok;
      }
    }
    if (rid % 16 == 0) {
      ScopedSpan span(log, "client.ping", rid, root.id());
      ok = client.Ping().ok() && ok;
    }
    if (!ok) {
      ++run->failed;
      std::fprintf(stderr, "perfbench: in-process layer call on %s failed\n",
                   key.c_str());
    }
  }
}

struct Phase {
  std::vector<ConnectionRun> runs;
};

void RunPhase(const Sizes& sizes, int update_pct, uint64_t seed,
              uint64_t phase_id, double seconds, Deployment& d,
              LayerPool* pool, bool traced, Phase* phase) {
  phase->runs = std::vector<ConnectionRun>(sizes.connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < sizes.connections; ++c) {
    threads.emplace_back([&, c] {
      Drive(sizes, update_pct, Mix(seed, phase_id * 64 + c),
            (phase_id * 64 + c) << 40, start, deadline, d.clients[c],
            *d.keyspace,
            pool, traced, &phase->runs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Sends kWarmUpRounds UPDATEs per key through the daemon before timing,
/// pipelined 64 to a send, each connection taking its share of the keys.
/// Folds on the event-loop threads allocate each key's copy-on-write
/// versions from those threads' heaps; until every key has been written a
/// few times there, memory and throughput still drift.
void WarmUp(const Sizes& sizes, uint64_t seed, Deployment& d, Phase* warm) {
  warm->runs = std::vector<ConnectionRun>(sizes.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < sizes.connections; ++c) {
    threads.emplace_back([&, c] {
      constexpr size_t kWindow = 64;
      ConnectionRun& run = warm->runs[c];
      std::vector<std::vector<uint64_t>> items(
          kWindow, std::vector<uint64_t>(sizes.batch));
      std::vector<Request> requests;
      std::vector<Applied> pending;
      std::vector<Status> statuses;
      const auto flush = [&] {
        if (requests.empty()) return;
        run.requests += requests.size();
        if (!d.clients[c].Pipeline(requests, &statuses).ok()) {
          run.failed += requests.size();
        } else {
          for (size_t i = 0; i < requests.size(); ++i) {
            if (statuses[i].ok()) {
              run.applied.push_back(pending[i]);
            } else {
              ++run.failed;
            }
          }
        }
        requests.clear();
        pending.clear();
      };
      for (int round = 0; round < kWarmUpRounds; ++round) {
        for (uint64_t k = c; k < sizes.keys; k += sizes.connections) {
          const uint64_t op_seed = Mix(seed, (uint64_t{1} << 50) +
                                                 round * sizes.keys + k);
          FillItems(op_seed, &items[requests.size()]);
          Request request;
          request.opcode = Opcode::kUpdate;
          request.key = KeyName(k);
          request.items = items[requests.size()];
          requests.push_back(std::move(request));
          pending.push_back({k, op_seed});
          if (requests.size() == kWindow) flush();
        }
      }
      flush();
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Splits a keyspace checkpoint image into key -> envelope bytes, keeping
/// only the keys in `wanted` (all keys when `wanted` is null). Returns the
/// entry count, or -1 on a malformed image.
int64_t ParseCheckpoint(const std::vector<uint8_t>& image,
                        const std::set<std::string>* wanted,
                        std::map<std::string, std::vector<uint8_t>>* out) {
  gems::ByteReader reader(image);
  uint8_t version = 0;
  uint32_t count = 0;
  if (!reader.GetU8(&version).ok() || !reader.GetU32(&count).ok()) return -1;
  for (uint32_t i = 0; i < count; ++i) {
    std::string key;
    uint32_t size = 0;
    std::span<const uint8_t> envelope;
    if (!reader.GetString(&key).ok() || !reader.GetU32(&size).ok() ||
        !reader.GetRawView(size, &envelope).ok()) {
      return -1;
    }
    if (wanted == nullptr || wanted->count(key) != 0) {
      (*out)[key].assign(envelope.begin(), envelope.end());
    }
  }
  return reader.AtEnd() ? static_cast<int64_t>(count) : -1;
}

/// Rebuilds the sampled keys offline from the update logs and compares
/// checkpoint bytes and QUERY answers with the daemon.
void Check(const Sizes& sizes, uint64_t seed, Deployment& d,
           const std::vector<const Phase*>& phases,
           const std::vector<uint8_t>& live_image, RunResult* result) {
  std::set<uint64_t> sample;
  for (uint64_t k = 0; k < std::min<uint64_t>(8, sizes.keys); ++k) {
    sample.insert(k);
  }
  for (uint64_t i = 0; sample.size() < std::min<uint64_t>(sizes.sampled_keys,
                                                          sizes.keys);
       ++i) {
    sample.insert(Mix(seed, 77 + i) % sizes.keys);
  }
  std::set<std::string> names;
  for (uint64_t k : sample) names.insert(KeyName(k));
  result->attempted += sample.size();

  Keyspace offline;
  for (uint64_t k : sample) {
    if (!Preload(offline, d, k).ok()) {
      result->Fail(1, "offline pre-load of " + KeyName(k));
    }
  }
  std::vector<uint64_t> items(sizes.batch);
  for (const Phase* phase : phases) {
    for (const ConnectionRun& run : phase->runs) {
      for (const Applied& a : run.applied) {
        if (sample.count(a.key_id) == 0) continue;
        FillItems(a.op_seed, &items);
        if (!offline.Update(KeyName(a.key_id), items).ok()) {
          result->Fail(1, "offline replay into " + KeyName(a.key_id));
        }
      }
    }
  }

  std::map<std::string, std::vector<uint8_t>> live;
  const int64_t live_count = ParseCheckpoint(live_image, &names, &live);
  if (live_count != static_cast<int64_t>(sizes.keys)) {
    result->Fail(1, "daemon checkpoint malformed or missing keys");
  }
  std::vector<uint8_t> offline_image;
  ByteSink sink(&offline_image);
  std::map<std::string, std::vector<uint8_t>> expected;
  if (!offline.Checkpoint(sink).ok() ||
      ParseCheckpoint(offline_image, nullptr, &expected) !=
          static_cast<int64_t>(sample.size())) {
    result->Fail(1, "offline checkpoint");
  }
  for (const std::string& key : names) {
    if (live[key] != expected[key] ||
        expected[key].size() <= (size_t{1} << 14)) {
      result->Fail(1, "checkpoint bytes of " + key +
                          " differ from the offline replay (or not dense)");
      continue;
    }
    gems::Result<gems::server::QueryResult> got = d.clients[0].Query(key);
    gems::Result<gems::server::QueryResult> want =
        offline.Query(key, false, 0, 0.95);
    if (!got.ok() || !want.ok() ||
        got.value().estimate.value != want.value().estimate.value ||
        got.value().summary != want.value().summary) {
      result->Fail(1, "QUERY answer of " + key + " differs from offline");
    }
  }
}

double MeanRttUs(const Phase& phase) {
  double sum = 0.0;
  size_t n = 0;
  for (const ConnectionRun& run : phase.runs) {
    for (const Sample& sample : run.samples) sum += sample.us;
    n += run.samples.size();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

void RunGemsdWrite(const Config& config, RunResult* result) {
  constexpr int update_pct = 90;
  const Sizes sizes = SizesFor(config);

  // Set up several times and keep the last deployment; setup_s is the
  // median, so one slow allocation does not decide it.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < sizes.setup_reps; ++rep) {
    deployment.reset();
    deployment = std::make_unique<Deployment>();
    const Clock::time_point start = Clock::now();
    if (Status s = Deploy(sizes, config.seed, deployment.get()); !s.ok()) {
      result->Fail(1, "deploy: " + s.ToString());
      return;
    }
    setup_s.push_back(SecondsSince(start));
  }
  Deployment& d = *deployment;
  Phase warm;
  WarmUp(sizes, config.seed, d, &warm);

  LayerPool pool;
  if (config.trace) {
    if (Status s = BuildLayerPool(sizes, d, &pool); !s.ok()) {
      result->Fail(1, "layer pool: " + s.ToString());
      return;
    }
  }

  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Phase untraced;
  Phase traced;
  RunPhase(sizes, update_pct, config.seed, 0, untraced_s, d, &pool, false,
           &untraced);
  if (config.trace) {
    RunPhase(sizes, update_pct, config.seed, 1, config.seconds / 2, d, &pool,
             true, &traced);
  }
  const double peak_rss_mb = PeakRssMb();

  // End-to-end figures come from the untraced phase only.
  std::vector<Sample> samples;
  std::vector<Completion> completions;
  for (const Phase* phase : {&warm, &untraced, &traced}) {
    for (const ConnectionRun& run : phase->runs) {
      result->attempted += run.requests;
      result->failed += run.failed;
      if (phase != &untraced) continue;
      samples.insert(samples.end(), run.samples.begin(), run.samples.end());
      completions.insert(completions.end(), run.completions.begin(),
                         run.completions.end());
    }
  }
  if (samples.empty()) result->Fail(1, "no requests completed");

  // Checkpoint outside the timed region: it feeds the check and, in the
  // traced run, the checkpoint layer metric.
  SpanLog main_log;
  std::vector<uint8_t> image;
  {
    ScopedSpan span(config.trace ? &main_log : nullptr, "keyspace.checkpoint",
                    0);
    ByteSink sink(&image);
    if (Status s = d.keyspace->Checkpoint(sink); !s.ok()) {
      result->Fail(1, "checkpoint: " + s.ToString());
    }
  }
  Check(sizes, config.seed, d, {&warm, &untraced, &traced}, image, result);

  result->EndToEnd("setup_s", Median(setup_s), "s");
  result->EndToEnd("peak_rss_mb", peak_rss_mb, "MB");
  ReportWindowed(completions, samples, untraced_s, sizes.windows,
                 /*busy_time=*/false, result);
  if (!config.trace) return;

  // The in-process cardinality floor: AnySketch::UpdateBatch on dense keys.
  {
    std::vector<std::vector<uint64_t>> batches(64,
                                               std::vector<uint64_t>(sizes.batch));
    for (size_t b = 0; b < batches.size(); ++b) {
      FillItems(Mix(config.seed, 5000 + b), &batches[b]);
    }
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; SecondsSince(start) < sizes.floor_seconds; ++i) {
      ScopedSpan span(&main_log, "hllpp.update_batch", i);
      if (!pool.plain[i % pool.plain.size()]
               .UpdateBatch(batches[i % batches.size()])
               .ok()) {
        result->Fail(1, "hllpp UpdateBatch");
        break;
      }
    }
  }

  std::vector<const SpanLog*> logs;
  for (const ConnectionRun& run : traced.runs) logs.push_back(&run.log);
  logs.push_back(&main_log);
  SaveSpans(config, logs, result);

  const auto sum_ns = [&](std::initializer_list<const char*> names) {
    double total = 0.0;
    for (const char* name : names) {
      total += static_cast<double>(Total(logs, name).total_ns);
    }
    return total;
  };
  // Round trip minus codec and dispatch, per request: what the sockets,
  // the event loops and the client library add.
  const double round_trips =
      static_cast<double>(Total(logs, "client.update").count +
                          Total(logs, "client.query").count);
  const double traced_rtt_us = MeanRttUs(traced);
  const double layers_us =
      round_trips > 0
          ? sum_ns({"protocol.encode_request", "protocol.decode_request",
                    "protocol.encode_response", "protocol.decode_response",
                    "server.handle_update", "server.handle_query"}) /
                round_trips / 1e3
          : 0.0;

  result->Layer("client.ping_rtt_us", MeanOf(logs, "client.ping", 1e3), "us");
  for (const char* name :
       {"protocol.encode_request", "protocol.decode_request",
        "protocol.encode_response", "protocol.decode_response"}) {
    result->Layer(std::string(name) + "_ns", MeanOf(logs, name, 1.0), "ns");
  }
  result->Layer("server.handle_update_us",
                MeanOf(logs, "server.handle_update", 1e3), "us");
  result->Layer("server.handle_query_us",
                MeanOf(logs, "server.handle_query", 1e3), "us");
  result->Layer("socket.unattributed_us", traced_rtt_us - layers_us, "us");
  result->Layer("keyspace.update_us", MeanOf(logs, "keyspace.update", 1e3),
                "us");
  result->Layer("keyspace.query_us", MeanOf(logs, "keyspace.query", 1e3), "us");
  result->Layer("concurrent.apply_batch_us",
                MeanOf(logs, "concurrent.apply_batch", 1e3), "us");
  result->Layer("concurrent.estimate_ns",
                MeanOf(logs, "concurrent.estimate", 1.0), "ns");
  result->Layer("keyspace.checkpoint_ms",
                MeanOf(logs, "keyspace.checkpoint", 1e6), "ms");
  result->Layer("keyspace.state_bytes", static_cast<double>(image.size()),
                "bytes");
  result->Layer("hllpp.update_batch_ns_per_item",
                MeanOf(logs, "hllpp.update_batch", 1.0) /
                    static_cast<double>(sizes.batch),
                "ns");
  result->Layer("trace.overhead_ratio", traced_rtt_us / MeanRttUs(untraced),
                "ratio");
}

}  // namespace perfbench
