/**
 * @file
 * Fault injection and board health under the batch path.
 *
 * Admission owns every fault and health hook: stream faults fire at
 * admission, commit faults at commit, retry storms walk the
 * degradation ladder, and a tag flip first flushes the retirements
 * queued ahead of it so its parity scrub lands in retirement order.
 * None of that may produce a single byte of difference against the
 * serial path — including the anomaly stream and the flight-recorder
 * ring — at any batch size, and re-running the same scenario must
 * reproduce it exactly.
 *
 * The ShardFaultTest suite name predates the removal of intra-board
 * sharding; the test ids are kept so their pass history stays
 * continuous.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/faultplan.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "support/board_signature.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

using test::batchLegs;

struct RunResult
{
    test::BoardSignature sig;
    std::uint64_t anomalies = 0;
    fault::HealthState finalHealth = fault::HealthState::Healthy;
    std::uint64_t parityScrubs = 0;
};

std::uint64_t
counterValue(const RunResult &r, const std::string &name)
{
    for (const auto &[n, v] : r.sig.counters) {
        if (n == name)
            return v;
    }
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

/** Tiny pressured board so overflow/health paths actually fire. */
BoardConfig
pressuredConfig(bool health_on)
{
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 24;
    cfg.sdramThroughputPercent = 12;
    if (health_on) {
        cfg.health.enabled = true;
        cfg.health.degradeOccupancyPercent = 60;
        cfg.health.degradeWindow = 16;
        cfg.health.recoverWindow = 256;
        cfg.health.quarantineStorms = 4;
    }
    return cfg;
}

fault::FaultPlan
mixedPlan()
{
    fault::FaultPlan plan;
    auto add = [&plan](fault::FaultKind kind, auto setup) {
        fault::FaultSpec spec;
        spec.kind = kind;
        setup(spec);
        plan.faults.push_back(spec);
    };
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 1;
        s.node = 0;
    });
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.atTenure = 200;
        s.bit = 2;
        s.node = 1;
    });
    add(fault::FaultKind::SlotLoss, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.slots = 12;
        s.cycles = 400;
    });
    add(fault::FaultKind::RetirementStall, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.cycles = 300;
    });
    add(fault::FaultKind::DropReply,
        [](fault::FaultSpec &s) { s.probability = 0.01; });
    add(fault::FaultKind::AddressFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 9;
    });
    return plan;
}

std::vector<bus::BusTransaction>
burstyStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.pBurst = 0.7; // keep the tiny buffer under pressure
    p.maxGap = 4;
    return oracle::StimulusGen(p).generate();
}

/**
 * Calm pacing and a tight working set: nearly every tenure commits
 * and the directories stay warm, so commit-time tag flips land on
 * live lines and later touches scrub them.
 */
std::vector<bus::BusTransaction>
calmLocalStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.footprintLines = 1u << 9;
    p.sharedLines = 1u << 8;
    p.shareFraction = 0.5;
    return oracle::StimulusGen(p).generate();
}

/**
 * One full scenario: faulted, health-monitored run of @p txns.
 * @p batch == 0 means the serial feedCommitted path; otherwise the
 * stream goes through feedBatch in chunks of @p batch.
 */
RunResult
runScenario(const BoardConfig &cfg, const fault::FaultPlan &plan,
            const std::vector<bus::BusTransaction> &txns,
            std::size_t batch, std::uint64_t seed = 7)
{
    MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(1 << 14);
    board.attachFlightRecorder(recorder);
    fault::FaultInjector injector(plan, seed);
    board.attachFaultInjector(injector);

    if (batch == 0) {
        for (const auto &t : txns)
            board.feedCommitted(t);
    } else {
        for (std::size_t at = 0; at < txns.size(); at += batch)
            board.feedBatch(&txns[at],
                            std::min(batch, txns.size() - at));
    }

    RunResult r;
    r.sig = test::signatureOf(board, &recorder);
    for (std::size_t i = 0; i < board.numNodes(); ++i)
        r.parityScrubs += board.node(i).parityScrubs();
    r.anomalies = recorder.anomalies();
    r.finalHealth = board.healthState();
    board.detachFaultInjector();
    return r;
}

void
expectSameRun(const RunResult &serial, const RunResult &batched,
              const std::string &what)
{
    test::expectIdentical(serial.sig, batched.sig, what);
    EXPECT_EQ(serial.anomalies, batched.anomalies) << what;
    EXPECT_EQ(serial.finalHealth, batched.finalHealth) << what;
}

TEST(ShardFaultTest, FaultedRunMatchesSerialAtEveryShardCount)
{
    // Roomy default buffer so commits actually land: tag flips then
    // corrupt live lines and the parity scrubber has work to do.
    const BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = calmLocalStream(101, 6000);
    const RunResult serial = runScenario(cfg, plan, txns, 0);

    // The scenario must actually exercise the hard paths, or this
    // test proves nothing.
    EXPECT_GT(serial.parityScrubs, 0u) << "no tag flip was scrubbed";
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";

    for (std::size_t batch : batchLegs) {
        const RunResult batched = runScenario(cfg, plan, txns, batch);
        expectSameRun(serial, batched,
                      "faulted run, batch " + std::to_string(batch));
    }
}

TEST(ShardFaultTest, FaultedHealthRunMatchesSerialAtEveryShardCount)
{
    // Pressured board with health monitoring on top of the full fault
    // plan: the ugliest interaction the batch path has to reproduce.
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(101, 6000);
    const RunResult serial = runScenario(cfg, plan, txns, 0);
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";

    for (std::size_t batch : batchLegs) {
        const RunResult batched = runScenario(cfg, plan, txns, batch);
        expectSameRun(serial, batched, "faulted health run, batch " +
                                           std::to_string(batch));
    }
}

TEST(ShardFaultTest, RetryStormLadderMatchesSerial)
{
    // No injector needed: the tiny buffer plus bursty traffic drives
    // overflow storms through the health ladder on its own.
    const BoardConfig cfg = pressuredConfig(true);
    const auto txns = burstyStream(211, 8000);
    const RunResult serial =
        runScenario(cfg, fault::FaultPlan{}, txns, 0);
    EXPECT_GT(counterValue(serial, "global.health.transitions"), 0u)
        << "stream never pressured the board";

    for (std::size_t batch : batchLegs) {
        const RunResult batched =
            runScenario(cfg, fault::FaultPlan{}, txns, batch);
        expectSameRun(serial, batched,
                      "retry storm, batch " + std::to_string(batch));
    }
}

TEST(ShardFaultTest, TenureAccountingConserved)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(307, 6000);
    const RunResult r = runScenario(cfg, plan, txns, 64);

    // Every committed tenure is either retired by the SDRAM side,
    // still buffered, or was lost in flight to a commit-time fault.
    const std::uint64_t committed =
        counterValue(r, "global.tenures.committed");
    const std::uint64_t lost =
        counterValue(r, "global.tenures.lost_inflight");
    EXPECT_EQ(committed, r.sig.bufferRetired + r.sig.bufferSize + lost);
}

TEST(ShardFaultTest, RunTwiceIsByteIdentical)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(401, 5000);
    const RunResult first = runScenario(cfg, plan, txns, 64);
    const RunResult second = runScenario(cfg, plan, txns, 64);
    expectSameRun(first, second, "second identical run");
}

TEST(ShardFaultTest, ResyncFromHealthyMatchesSerial)
{
    const BoardConfig cfg = pressuredConfig(true);
    const auto txns = burstyStream(503, 8000);
    const std::size_t half = txns.size() / 2;

    auto run = [&](std::size_t batch) {
        MemoriesBoard board(cfg);
        MemoriesBoard healthy(cfg);
        auto feed = [batch](MemoriesBoard &b,
                            const bus::BusTransaction *t,
                            std::size_t n) {
            if (batch == 0) {
                for (std::size_t i = 0; i < n; ++i)
                    b.feedCommitted(t[i]);
            } else {
                for (std::size_t at = 0; at < n; at += batch)
                    b.feedBatch(t + at, std::min(batch, n - at));
            }
        };
        // Only the victim sees the pressure; the healthy twin idles
        // through a calm prefix so its directories are warm.
        feed(healthy, txns.data(), half / 4);
        feed(board, txns.data(), half);
        if (board.healthState() == fault::HealthState::Quarantined)
            board.resyncFrom(healthy);
        feed(board, txns.data() + half, txns.size() - half);
        return test::signatureOf(board, nullptr);
    };

    const auto serial = run(0);
    for (std::size_t batch : batchLegs)
        test::expectIdentical(serial, run(batch),
                              "resync, batch " + std::to_string(batch));
}

} // namespace
} // namespace memories::ies
