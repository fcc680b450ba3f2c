/**
 * @file
 * Shared fixtures of the byte-equivalence tiers (batch_equiv_test,
 * prof_equiv_test): everything observable about a board after a run,
 * a field-by-field comparison, and the geometry lattice both tiers
 * sweep.
 */

#ifndef MEMORIES_TESTS_SUPPORT_BOARD_SIGNATURE_HH
#define MEMORIES_TESTS_SUPPORT_BOARD_SIGNATURE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::test
{

/** Everything observable about a board after a run. */
struct BoardSignature
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;
    /** traceIds of Retire events, in ring order. */
    std::vector<std::uint32_t> retirementOrder;
    /** Chrome-trace JSON of the full recorder ring. */
    std::string chromeTrace;
};

inline BoardSignature
signatureOf(const ies::MemoriesBoard &board,
            const trace::FlightRecorder *recorder)
{
    BoardSignature sig;
    board.globalCounters().snapshot([&](const CounterSample &s) {
        sig.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            sig.counters.emplace_back(s.name, s.value);
        });
        sig.dirs.push_back(board.node(i).directorySnapshot());
    }
    sig.bufferRetired = board.bufferRetired();
    sig.bufferSize = board.bufferSize();
    sig.bufferHighWater = board.bufferHighWater();
    if (recorder) {
        const auto events = recorder->snapshot();
        for (const auto &ev : events) {
            if (ev.kind == trace::EventKind::Retire)
                sig.retirementOrder.push_back(ev.traceId);
        }
        sig.chromeTrace = trace::chromeTraceToString(events, recorder);
    }
    return sig;
}

inline void
expectIdentical(const BoardSignature &want, const BoardSignature &got,
                const std::string &what)
{
    ASSERT_EQ(want.counters.size(), got.counters.size()) << what;
    for (std::size_t i = 0; i < want.counters.size(); ++i) {
        EXPECT_EQ(want.counters[i].second, got.counters[i].second)
            << what << ": counter " << want.counters[i].first;
    }
    ASSERT_EQ(want.dirs.size(), got.dirs.size()) << what;
    for (std::size_t n = 0; n < want.dirs.size(); ++n)
        EXPECT_EQ(want.dirs[n], got.dirs[n])
            << what << ": node " << n << " directory";
    EXPECT_EQ(want.bufferRetired, got.bufferRetired) << what;
    EXPECT_EQ(want.bufferSize, got.bufferSize) << what;
    EXPECT_EQ(want.bufferHighWater, got.bufferHighWater) << what;
    EXPECT_EQ(want.retirementOrder, got.retirementOrder) << what;
    EXPECT_EQ(want.chromeTrace, got.chromeTrace) << what;
}

/** The batch-size legs the equivalence tiers sweep against serial. */
constexpr std::size_t batchLegs[] = {1, 64, 4096};

inline std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count, unsigned cpus = 8)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = cpus;
    return oracle::StimulusGen(p).generate();
}

inline cache::CacheConfig
cacheCfg(std::uint64_t bytes, unsigned assoc,
         cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU)
{
    return cache::CacheConfig{bytes, assoc, 128, policy};
}

/** One point of the geometry lattice; each stresses a different path. */
struct EquivConfig
{
    std::string name;
    ies::BoardConfig board;
};

inline std::vector<EquivConfig>
equivConfigs()
{
    using ies::makeMultiConfigBoard;
    using ies::makeUniformBoard;
    std::vector<EquivConfig> cfgs;
    cfgs.push_back(
        {"mesi-4node", makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4))});
    cfgs.push_back(
        {"mesi-2node-random",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 4,
                                   cache::ReplacementPolicy::Random))});
    cfgs.push_back(
        {"moesi-2node-fifo",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 2,
                                   cache::ReplacementPolicy::FIFO),
                          "MOESI")});
    // Multi-configuration board: three geometries against the same
    // traffic, multiple target-machine groups per emulation step.
    cfgs.push_back(
        {"multicfg",
         makeMultiConfigBoard({cacheCfg(2 * MiB, 2), cacheCfg(4 * MiB, 4),
                               cacheCfg(8 * MiB, 8)},
                              4)});
    {
        // Set sampling: only the sampled window reaches a directory.
        ies::BoardConfig sampled =
            makeUniformBoard(2, 4, cacheCfg(8 * MiB, 4));
        for (auto &node : sampled.nodes)
            node.setSamplingShift = 2;
        cfgs.push_back({"sampled4", std::move(sampled)});
    }
    {
        // Tiny, slow buffer: pacing, overflow, and drop paths fire.
        ies::BoardConfig tiny =
            makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
        tiny.bufferEntries = 32;
        tiny.sdramThroughputPercent = 10;
        cfgs.push_back({"tinybuf", std::move(tiny)});
    }
    return cfgs;
}

} // namespace memories::test

#endif // MEMORIES_TESTS_SUPPORT_BOARD_SIGNATURE_HH
