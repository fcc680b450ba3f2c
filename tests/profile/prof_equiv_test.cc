/**
 * @file
 * IESPROF non-perturbation tier: attaching a profiler must not change
 * one observable byte of the emulation. "Byte-identical" is taken as
 * literally as in the batch equivalence tier it mirrors: every global
 * and node counter, every node's directorySnapshot(), the retirement
 * order, the buffer statistics, and the chrome-trace JSON rendered
 * from the flight-recorder ring must match between an instrumented
 * run and a bare one — across the serial path and the batch path at
 * every batch-size leg. CI also runs it under TSan (batch-equiv job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ies/board.hh"
#include "profile/profiler.hh"
#include "support/board_signature.hh"
#include "trace/lifecycle.hh"

namespace memories::profile
{
namespace
{

using test::BoardSignature;
using test::cacheCfg;
using test::equivConfigs;
using test::expectIdentical;
using test::signatureOf;
using test::stream;

/** Feed @p txns serially (@p batch == 0) or in feedBatch chunks. */
BoardSignature
run(const ies::BoardConfig &cfg,
    const std::vector<bus::BusTransaction> &txns, std::size_t batch,
    bool profiled, bool record, Profiler *prof_out = nullptr)
{
    ies::MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    Profiler local;
    Profiler &prof = prof_out ? *prof_out : local;
    if (profiled)
        board.attachProfiler(prof);
    if (batch == 0) {
        for (const auto &t : txns)
            board.feedCommitted(t);
    } else {
        for (std::size_t at = 0; at < txns.size(); at += batch) {
            const std::size_t n = std::min(batch, txns.size() - at);
            board.feedBatch(&txns[at], n);
        }
    }
    return signatureOf(board, recorder.get());
}

TEST(ProfEquivTest, AttachedMatchesDetachedAcrossFeedsAndShards)
{
    // Batch 0 is the serial feed; the rest are the batch-size legs.
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(101, 3000);
        for (const std::size_t batch :
             {std::size_t{0}, std::size_t{1}, std::size_t{64},
              std::size_t{4096}}) {
            const auto bare = run(cfg.board, txns, batch, false, true);
            const auto profiled =
                run(cfg.board, txns, batch, true, true);
            expectIdentical(bare, profiled,
                            cfg.name + " batch " + std::to_string(batch));
        }
    }
}

TEST(ProfEquivTest, ProfiledShardedRunActuallyMeasuredSomething)
{
    // Guard against the equivalence passing vacuously because the
    // hooks never fired: the instrumented batch leg must have
    // attributed real time to admission and emulation.
    const auto cfgs = equivConfigs();
    const auto txns = stream(211, 3000);
    Profiler prof;
    run(cfgs.front().board, txns, 512, true, false, &prof);
    const ProfReport report = prof.snapshot();
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.stage(Stage::FeedBatch).estNs(), 0u);
    EXPECT_GT(report.stage(Stage::CreditPacing).calls, 0u);
    EXPECT_EQ(report.stage(Stage::Emulation).calls, report.batches);
}

TEST(ProfEquivTest, MidRunAttachDetachLeavesStateUntouched)
{
    // Attach after the first third, detach after the second: the
    // run's final state must still match a never-profiled run.
    const ies::BoardConfig cfg =
        ies::makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const auto txns = stream(307, 3000);
    const auto bare = run(cfg, txns, 512, false, true);

    ies::MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(1 << 14);
    board.attachFlightRecorder(recorder);
    Profiler prof;
    const std::size_t third = txns.size() / 3;
    auto feed = [&](std::size_t from, std::size_t to) {
        constexpr std::size_t chunk = 512;
        for (std::size_t at = from; at < to; at += chunk) {
            const std::size_t n = std::min(chunk, to - at);
            board.feedBatch(&txns[at], n);
        }
    };
    feed(0, third);
    board.attachProfiler(prof);
    feed(third, 2 * third);
    board.detachProfiler();
    feed(2 * third, txns.size());
    expectIdentical(bare, signatureOf(board, &recorder),
                    "mid-run attach/detach");
    EXPECT_GT(prof.snapshot().batches, 0u);
}

} // namespace
} // namespace memories::profile
