// wire-open: the deployed service path. Scalar DecideRequest frames from
// kClients service::Client connections to an in-process loopback
// service::Server with kWorkers workers, open loop: each connection sends
// on a Poisson schedule at half the offered rate, and every request is
// timed from its intended send time, so a stall shows up as queueing on
// the requests behind it. The key set is decide-hot's.
//
// A run first drives both connections closed loop (each sends its next
// frame when the reply arrives), which gives the end-to-end metrics: the
// decisions per second the two connections sustain and the time of one
// Client::decide call, both from each stream position's fast-end round
// trip (kFastShare), since the wake-ups a round trip waits for are where
// a shared host's interference lands. Then it offers the three fixed rates
// of kLadder, open loop, and reports each rate's latency from the intended
// send time, the generator's lateness and backlog, and max_rate_dps. Those
// open-loop figures are details, not bounded metrics: on a shared virtual
// machine, a host stall delays every request queued behind it, and their
// tails vary by several times from run to run, far more than the
// closed-loop call time does.
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "layers.h"
#include "obs/quantile.h"
#include "service/client.h"
#include "service/server.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWireItems = 1 << 12;
/// Round trips kept per stream position in the closed loop: a position
/// comes round about 250 times in a 25 s run.
constexpr std::size_t kSamplesPerPosition = 64;

/// Offered rates in decisions/s over both connections, fixed when the
/// benchmark was defined at about 1/4, 1/2 and 3/4 of the closed-loop
/// capacity of the two connections measured then (about 100k/s on a 4-vCPU
/// x86-64 virtual machine). They are also the ladder max_rate_dps climbs.
struct Rung {
  const char* name;
  double rate;
  double share;  ///< of the run's seconds
};
constexpr std::array kLadder{
    Rung{"low", 25'000, 0.1},
    Rung{"mid", 50'000, 0.1},
    Rung{"high", 75'000, 0.1},
};
constexpr double kRateMid = kLadder[1].rate;
constexpr double kCapacityShare = 0.7;
/// The p99 limit a rate must meet to count toward max_rate_dps.
constexpr double kP99LimitUs = 200.0;
/// A rate whose generator ran later than this at p99 is unmeasured.
constexpr double kGenLateLimitUs = 25.0;
constexpr std::int64_t kGiveUpPhases = 8;

constexpr std::int64_t kFailedNs = std::numeric_limits<std::int64_t>::max();

constexpr const char* kSpanRequest = "client.request";
constexpr const char* kSpanQueue = "client.queue";
constexpr const char* kSpanRoundTrip = "client.roundtrip";
constexpr const char* kSpanStart = "service.start";
constexpr const char* kSpanConnect = "service.connect";

/// What one connection does: its stream, reference decisions and Poisson
/// gaps of unit mean.
struct Connection {
  std::vector<workload::Item> stream;
  std::vector<DecisionBits> reference;
  std::vector<double> unitGaps;
  std::unique_ptr<service::Client> client;
  std::size_t next = 0;  ///< position in the stream
};

/// One connection's results for one phase.
struct PhaseResult {
  SampleLog roundTrip{1 << 14};  ///< from the actual send
  SampleLog genLate{1 << 14};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string firstFailure;
  std::uint64_t backlogMax = 0;
  std::uint64_t backlogMaxFirstHalf = 0;
  std::uint64_t backlogEnd = 0;  ///< at the last send inside the phase
  std::string fatal;  ///< an exception that ended the connection's phase
  Windows windows;  ///< open loop: latency from the intended send
  RepeatTimes repeats;  ///< closed loop: latency per stream position
};

struct ServiceFixture {
  std::vector<ir::TargetRegion> regions = suiteRegions();
  std::unique_ptr<pad::AttributeDatabase> database;
  std::unique_ptr<service::Server> server;
  std::string socketPath;
};

/// Sends one request and checks the reply; returns false on failure.
bool exchange(Connection& c, const std::string& socketPath,
              PhaseResult& result) {
  const std::size_t at = c.next++ & (c.stream.size() - 1);
  const workload::Item& item = c.stream[at];
  result.attempted += 1;
  try {
    const runtime::Decision decision =
        c.client->decide(item.region, item.bindings);
    const DecisionBits bits = bitsOf(decision);
    if (!decision.valid) {
      result.failed += 1;
      if (result.firstFailure.empty()) result.firstFailure = "invalid decision";
      return false;
    }
    if (bits != c.reference[at]) {
      result.failed += 1;
      result.mismatches += 1;
      if (result.firstFailure.empty()) {
        result.firstFailure = item.region + ": " + describe(bits) +
                              ", reference " + describe(c.reference[at]);
      }
      return false;
    }
    return true;
  } catch (const service::ServiceError& error) {
    result.failed += 1;
    if (result.firstFailure.empty()) result.firstFailure = error.what();
    return false;
  } catch (const std::exception& error) {
    // Codec or socket failures leave the connection unusable.
    result.failed += 1;
    if (result.firstFailure.empty()) result.firstFailure = error.what();
    c.client = std::make_unique<service::Client>(
        service::Client::connect(socketPath));
    return false;
  }
}

/// Closed loop for `seconds`: each connection sends back to back, cycling
/// through its stream; each stream position's round trips are kept apart
/// in `result.repeats`, sized by the caller, a failed one as kFailedNs.
void closedLoop(Connection& c, const std::string& socketPath,
                std::int64_t startNs, double seconds, PhaseResult& result) {
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  waitUntil(startNs);
  for (;;) {
    const std::size_t at = c.next & (c.stream.size() - 1);
    const std::int64_t t0 = nowNs();
    const bool ok = exchange(c, socketPath, result);
    const std::int64_t t1 = nowNs();
    result.repeats.add(at, ok ? t1 - t0 : kFailedNs);
    if (t1 - startNs >= length) break;
  }
}

/// Open loop at `rate` (this connection's share) for `seconds` from
/// `startNs`. Requests due before the end are all sent, however late; only
/// a backlog that outlives the phase by kGiveUpPhases phase lengths is
/// dropped, as failures, so that a run always ends. `result.windows`,
/// made by the caller, covers the phase.
void openLoop(Connection& c, const std::string& socketPath,
              std::int64_t startNs, double rate, double seconds,
              PhaseResult& result, ThreadTrace* trace) {
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t endNs = startNs + length;
  result.windows.start(startNs);
  const std::int64_t giveUpNs = endNs + kGiveUpPhases * length;
  const double meanGapNs = 1e9 / rate;
  std::size_t gapAt = c.next;
  const auto nextGap = [&] {
    return static_cast<std::int64_t>(
        c.unitGaps[gapAt++ & (c.unitGaps.size() - 1)] * meanGapNs);
  };
  // The schedule runs ahead of the sends to measure the backlog: `due` is
  // the next request's intended time, `ahead` the first not yet due.
  std::vector<std::int64_t> pending;  // intended times due but unsent
  std::size_t head = 0;
  std::int64_t aheadNs = startNs + nextGap();
  std::int64_t prevDone = startNs;
  std::uint64_t request = 0;
  for (;;) {
    if (head == pending.size()) {
      if (aheadNs >= endNs) break;
      waitUntil(aheadNs);
      pending.push_back(aheadNs);
      aheadNs += nextGap();
    }
    const std::int64_t sendNs = nowNs();
    while (aheadNs <= sendNs && aheadNs < endNs) {
      pending.push_back(aheadNs);
      aheadNs += nextGap();
    }
    const std::int64_t due = pending[head++];
    const std::uint64_t backlog = pending.size() - head;
    result.backlogMax = std::max(result.backlogMax, backlog);
    if (sendNs < startNs + length / 2) {
      result.backlogMaxFirstHalf =
          std::max(result.backlogMaxFirstHalf, backlog);
    }
    if (sendNs <= endNs) result.backlogEnd = backlog;
    if (sendNs > giveUpNs) {
      // Overloaded past recovery: what is left counts as failed.
      const std::uint64_t dropped = pending.size() - head + 1;
      result.attempted += dropped;
      result.failed += dropped;
      for (std::uint64_t i = 0; i < dropped; ++i) {
        result.windows.add(result.windows.at(endNs), kFailedNs, 0);
      }
      if (result.firstFailure.empty()) result.firstFailure = "backlog dropped";
      head = pending.size();
      break;
    }
    result.genLate.add(sendNs - std::max(due, prevDone));
    request += 1;
    if (trace != nullptr) {
      trace->open(kSpanRequest, request, due);
      trace->leaf(kSpanQueue, request, due, sendNs);
      trace->open(kSpanRoundTrip, request, sendNs);
    }
    const bool ok = exchange(c, socketPath, result);
    const std::int64_t done = nowNs();
    if (trace != nullptr) {
      trace->close(done);
      trace->close(done);
    }
    prevDone = done;
    result.windows.add(result.windows.at(due), ok ? done - due : kFailedNs,
                       ok ? 1 : 0);
    if (ok) result.roundTrip.add(done - sendNs);
  }
}

/// Runs `prepare(connection, result)` for every connection on the calling
/// thread, so the results' buffers come from one allocator arena whatever
/// the threads do, then `body(connection, startNs, result, trace)` on one
/// thread per connection, all starting together; returns the results.
template <class Prepare, class Body>
std::vector<PhaseResult> onEveryConnection(std::vector<Connection>& connections,
                                           Tracer* tracer, Prepare&& prepare,
                                           Body&& body) {
  std::vector<PhaseResult> results(connections.size());
  for (std::size_t i = 0; i < connections.size(); ++i) {
    prepare(connections[i], results[i]);
  }
  std::vector<ThreadTrace*> traces(connections.size(), nullptr);
  if (tracer != nullptr) {
    for (ThreadTrace*& trace : traces) trace = &tracer->thread();
  }
  const std::int64_t startNs = nowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < connections.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        body(connections[i], startNs, results[i], traces[i]);
      } catch (const std::exception& error) {
        results[i].fatal = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const PhaseResult& r : results) {
    if (!r.fatal.empty()) throw std::runtime_error("connection: " + r.fatal);
  }
  return results;
}

/// A rate's results merged over the connections.
struct RateResult {
  SampleLog roundTrip{0};
  SampleLog genLate{0};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlogMax = 0;
  bool backlogGrowing = false;
  double achieved = 0.0;
  Windows windows;
};

RateResult mergeResults(std::vector<PhaseResult>& results, double seconds,
                        Report& report) {
  RateResult merged;
  for (PhaseResult& r : results) {
    merged.windows.merge(r.windows);
    merged.roundTrip.merge(r.roundTrip);
    merged.genLate.merge(r.genLate);
    merged.attempted += r.attempted;
    merged.failed += r.failed;
    merged.backlogMax = std::max(merged.backlogMax, r.backlogMax);
    // Growing: the phase ends with a queue well above anything seen in its
    // first half.
    merged.backlogGrowing =
        merged.backlogGrowing ||
        (r.backlogEnd >= 8 && r.backlogEnd > 2 * r.backlogMaxFirstHalf);
    report.attempt(r.attempted);
    const std::uint64_t plain = r.failed - r.mismatches;
    for (std::uint64_t i = 0; i < plain; ++i) report.failure(r.firstFailure);
    for (std::uint64_t i = 0; i < r.mismatches; ++i) {
      report.mismatch(r.firstFailure);
    }
  }
  merged.achieved =
      static_cast<double>(merged.attempted - merged.failed) / seconds;
  return merged;
}

/// Per-stage histogram state scraped from the Prometheus exposition.
struct StageHistogram {
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;  ///< per bound, then +Inf
  double sum = 0.0;
  double count = 0.0;
};

constexpr std::array<const char*, 5> kStages{"decode", "decide", "encode",
                                             "send", "request"};

std::array<StageHistogram, 5> scrapeStages(service::Client& client) {
  std::array<StageHistogram, 5> stages;
  std::istringstream text(client.stats(service::StatsFormat::Prometheus));
  std::string line;
  while (std::getline(text, line)) {
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      const std::string prefix =
          std::string("osel_service_") + kStages[s] + "_s_";
      if (line.rfind(prefix, 0) != 0) continue;
      const std::string rest = line.substr(prefix.size());
      const double value = std::strtod(rest.substr(rest.rfind(' ') + 1).c_str(),
                                       nullptr);
      if (rest.rfind("bucket{le=\"", 0) == 0) {
        const std::string le = rest.substr(11, rest.find('"', 11) - 11);
        if (le != "+Inf") {
          stages[s].bounds.push_back(std::strtod(le.c_str(), nullptr));
        }
        stages[s].cumulative.push_back(static_cast<std::uint64_t>(value));
      } else if (rest.rfind("sum ", 0) == 0) {
        stages[s].sum = value;
      } else if (rest.rfind("count ", 0) == 0) {
        stages[s].count = value;
      }
    }
  }
  return stages;
}

struct StageDelta {
  double p50Us = 0.0;
  double p99Us = 0.0;
  double meanUs = 0.0;
};

StageDelta stageDelta(const StageHistogram& before,
                      const StageHistogram& after) {
  std::vector<std::uint64_t> counts;
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < after.cumulative.size(); ++i) {
    const std::uint64_t base =
        i < before.cumulative.size() ? before.cumulative[i] : 0;
    const std::uint64_t cumulative = after.cumulative[i] - base;
    counts.push_back(cumulative - previous);
    previous = cumulative;
  }
  StageDelta delta;
  delta.p50Us = obs::quantileFromBuckets(after.bounds, counts, 0.50) * 1e6;
  delta.p99Us = obs::quantileFromBuckets(after.bounds, counts, 0.99) * 1e6;
  const double n = after.count - before.count;
  delta.meanUs = n > 0.0 ? (after.sum - before.sum) / n * 1e6 : 0.0;
  return delta;
}

/// compileAll, server construction, registerRegion, start, the client
/// handshakes and a warm-up decision per key; kSetupReps times. Returns
/// the median seconds and leaves the last set-up in `fixture`.
double setUp(ServiceFixture& fixture, std::vector<Connection>& connections,
             const Options& options, ThreadTrace* trace) {
  std::vector<workload::Item> warm;
  for (const workload::Candidate& candidate : hotCandidates()) {
    for (const symbolic::Bindings& bindings : candidate.bindingChoices) {
      warm.push_back({candidate.region, bindings, 0.0});
    }
  }
  fixture.socketPath =
      options.outDir + "/wire-" + std::to_string(getpid()) + ".sock";
  const auto tearDown = [&] {
    for (Connection& c : connections) c.client.reset();
    fixture.server.reset();  // stops it and unlinks the socket
    fixture.database.reset();
  };
  return medianSetupSeconds(kSetupReps, tearDown, [&](int) {
    Span span(trace, kSpanSetup, 0);
    fixture.database = std::make_unique<pad::AttributeDatabase>(
        compileTraced(fixture.regions, trace));
    service::ServiceOptions serviceOptions;
    serviceOptions.socketPath = fixture.socketPath;
    serviceOptions.workerThreads = kWorkers;
    fixture.server = std::make_unique<service::Server>(
        *fixture.database, platformOptions(), serviceOptions);
    for (const ir::TargetRegion& region : fixture.regions) {
      Span reg(trace, kSpanRegister, 0);
      fixture.server->registerRegion(region);
    }
    {
      Span start(trace, kSpanStart, 0);
      fixture.server->start();
    }
    for (Connection& c : connections) {
      Span connect(trace, kSpanConnect, 0);
      c.client = std::make_unique<service::Client>(
          service::Client::connect(fixture.socketPath));
    }
    for (const workload::Item& item : warm) {
      (void)connections[0].client->decide(item.region, item.bindings);
    }
  });
}

}  // namespace

void runWireOpen(const Options& options, Report& report) {
  std::vector<Connection> connections(kClients);
  ServiceFixture fixture;
  Tracer tracer;
  const double setupSeconds = setUp(fixture, connections, options,
                                    options.trace ? &tracer.thread() : nullptr);
  for (int i = 0; i < kClients; ++i) {
    Connection& c = connections[i];
    const std::uint64_t seed =
        support::SplitMix64(options.seed + static_cast<std::uint64_t>(i))
            .next();
    c.stream = hotStream(seed, kWireItems);
    c.reference =
        referenceDecisions(*fixture.database, fixture.regions, c.stream);
    support::SplitMix64 rng(seed ^ 0x5DEECE66DULL);
    c.unitGaps.resize(kWireItems);
    for (double& gap : c.unitGaps) gap = -std::log(1.0 - rng.nextDouble());
  }
  const std::string& path = fixture.socketPath;

  const auto runRate = [&](double rate, double seconds, Tracer* phaseTracer) {
    std::vector<PhaseResult> results = onEveryConnection(
        connections, phaseTracer,
        [&](Connection&, PhaseResult& r) {
          r.windows = Windows(static_cast<std::int64_t>(seconds * 1e9));
        },
        [&](Connection& c, std::int64_t start, PhaseResult& r, ThreadTrace* t) {
          openLoop(c, path, start, rate / kClients, seconds, r, t);
        });
    return mergeResults(results, seconds, report);
  };

  if (!options.trace) {
    const double capacitySeconds = options.seconds * kCapacityShare;
    std::vector<PhaseResult> capacity = onEveryConnection(
        connections, nullptr,
        [&](Connection& c, PhaseResult& r) {
          r.repeats = RepeatTimes(c.stream.size(), kSamplesPerPosition);
        },
        [&](Connection& c, std::int64_t start, PhaseResult& r, ThreadTrace*) {
          closedLoop(c, path, start, capacitySeconds, r);
        });
    // Each connection's rate is its positions over the sum of their
    // fast-end round trips; the latencies are quantiles over the positions
    // of both.
    double closedRate = 0.0;
    std::vector<double> closedTimes;
    for (PhaseResult& r : capacity) {
      const std::vector<double> fast = r.repeats.fastTimes();
      double sumNs = 0.0;
      for (const double ns : fast) sumNs += ns;
      closedRate += static_cast<double>(fast.size()) / (sumNs * 1e-9);
      closedTimes.insert(closedTimes.end(), fast.begin(), fast.end());
    }
    mergeResults(capacity, capacitySeconds, report);
    SampleLog closedAll(0);
    for (const PhaseResult& r : capacity) r.repeats.pool(closedAll);
    report.detail("lat_p50_us.all", closedAll.quantile(0.50) * 1e-3, "us");
    report.detail("lat_p99_us.all", closedAll.quantile(0.99) * 1e-3, "us");

    double maxRate = 0.0;
    bool ladderOpen = true;
    for (const Rung& rung : kLadder) {
      RateResult r = runRate(rung.rate, options.seconds * rung.share, nullptr);
      const double lateP99Us = r.genLate.quantile(0.99) * 1e-3;
      const bool measured = lateP99Us <= kGenLateLimitUs;
      const double p50Us = r.windows.medianQuantile(0.50) * 1e-3;
      const double p99Us = r.windows.medianQuantile(0.99) * 1e-3;
      const std::string suffix = std::string(".") + rung.name;
      report.detail("offered_dps" + suffix, rung.rate, "1/s");
      report.detail("achieved_dps" + suffix, r.achieved, "1/s");
      if (measured) {
        report.detail("lat_p50_us" + suffix, p50Us, "us");
        report.detail("lat_p99_us" + suffix, p99Us, "us");
      } else {
        report.note("rate" + suffix, "unmeasured: the generator fell behind");
      }
      report.detail("attempted" + suffix, static_cast<double>(r.attempted),
                    "count");
      report.detail("failed" + suffix, static_cast<double>(r.failed), "count");
      report.detail("gen_late_p99_us" + suffix, lateP99Us, "us");
      report.detail("backlog_max" + suffix, static_cast<double>(r.backlogMax),
                    "count");
      if (r.backlogGrowing) report.note("backlog" + suffix, "growing");
      const bool meets = measured && p99Us <= kP99LimitUs && !r.backlogGrowing;
      if (ladderOpen && meets) maxRate = rung.rate;
      ladderOpen = ladderOpen && meets;
    }
    report.detail("max_rate_dps", maxRate, "1/s");
    report.detail("p99_limit_us", kP99LimitUs, "us");
    report.metric("setup_s", setupSeconds, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("decisions_per_s", closedRate, "1/s");
    report.metric("lat_p50_us", quantileOf(closedTimes, 0.50) * 1e-3, "us");
    report.metric("lat_p99_us", quantileOf(closedTimes, 0.99) * 1e-3, "us");
  } else {
    // Traced run: the mid rate untraced, then traced, with the server's
    // stage histograms scraped around the traced half.
    RateResult untraced = runRate(kRateMid, options.seconds / 2, nullptr);
    service::Client& scraper = *connections[0].client;
    const std::array<StageHistogram, 5> before = scrapeStages(scraper);
    const runtime::DecisionCache::Stats cacheBefore =
        cacheStats(fixture.server->runtime(), fixture.regions);
    RateResult traced = runRate(kRateMid, options.seconds / 2, &tracer);
    const std::array<StageHistogram, 5> after = scrapeStages(scraper);

    LayerValues layers;
    setSetupLayers(tracer, layers);
    setCacheLayers(cacheBefore,
                   cacheStats(fixture.server->runtime(), fixture.regions),
                   layers);
    std::array<StageDelta, 5> stages;
    for (std::size_t s = 0; s < kStages.size(); ++s) {
      stages[s] = stageDelta(before[s], after[s]);
      const std::string name = std::string("service.") + kStages[s];
      layers.set(name + "_us_p50", stages[s].p50Us);
      layers.set(name + "_us_p99", stages[s].p99Us);
    }
    const double roundTripP50Us = traced.roundTrip.quantile(0.50) * 1e-3;
    layers.set("service.transport_us_p50", roundTripP50Us - stages[4].p50Us);
    layers.set("service.gen_late_p99_us", traced.genLate.quantile(0.99) * 1e-3);
    layers.set("service.backlog_max", static_cast<double>(traced.backlogMax));
    layers.set("bench.trace_overhead_pct",
               100.0 * (traced.windows.medianQuantile(0.5) /
                            untraced.windows.medianQuantile(0.5) -
                        1.0));

    // Attribution (means): round trip = decode + decide + encode + send +
    // transport, transport being the round trip minus the server's request
    // wall; what the stages leave of that wall is unexplained. Two checks
    // can break: the stages must tile the request wall within 1% of the
    // round trip, and the server's request wall must fit inside the client
    // round trip (transport >= 0).
    const double roundTripUs = traced.roundTrip.mean() * 1e-3;
    const double stageSumUs = stages[0].meanUs + stages[1].meanUs +
                              stages[2].meanUs + stages[3].meanUs;
    const double transportUs = roundTripUs - stages[4].meanUs;
    const double unexplainedUs = stages[4].meanUs - stageSumUs;
    const double unexplainedPct = 100.0 * unexplainedUs / roundTripUs;
    const bool tiled = std::abs(unexplainedPct) <= 1.0;
    const bool inside = transportUs >= 0.0;
    layers.set("bench.unexplained_pct", unexplainedPct);
    layers.set("bench.attribution_breaks", (tiled ? 0.0 : 1.0) +
                                               (inside ? 0.0 : 1.0));
    std::fprintf(stderr,
                 "perfbench: attribution (mean): round trip %.3f us = decode "
                 "%.3f + decide %.3f + encode %.3f + send %.3f + transport "
                 "%.3f + unexplained %.3f (%.2f%%)\n",
                 roundTripUs, stages[0].meanUs, stages[1].meanUs,
                 stages[2].meanUs, stages[3].meanUs, transportUs,
                 unexplainedUs, unexplainedPct);
    report.note("attribution",
                tiled && inside ? "ok"
                : !tiled        ? "server stages leave more than 1% untiled"
                                : "server request wall exceeds the round trip");
    probeLayers(fixture.server->runtime(), *fixture.database, fixture.regions,
                connections[0].stream, layers, report);
    layers.emit(report);
    if (!tracer.write(options.outDir + "/wire-open.spans.csv")) {
      report.note("spans", "could not write the span file");
    }
  }
  for (Connection& c : connections) c.client.reset();
  fixture.server->stop();
}

}  // namespace perfbench
