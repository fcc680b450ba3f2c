/**
 * @file
 * The batch equivalence tier: MemoriesBoard::feedBatch at every batch
 * size must be byte-identical to the serial feedCommitted path.
 * "Byte-identical" is taken literally: every global and node counter,
 * every node's directorySnapshot(), the retirement order, the buffer
 * statistics, and the chrome-trace JSON rendered from the
 * flight-recorder ring must match, transaction stream for transaction
 * stream. docs/TESTING.md ("The batch path") lists the invariants.
 *
 * The ShardEquivTest suite name predates the removal of intra-board
 * sharding; the test ids are kept so their pass history stays
 * continuous.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ies/board.hh"
#include "support/board_signature.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

using test::batchLegs;
using test::BoardSignature;
using test::cacheCfg;
using test::equivConfigs;
using test::expectIdentical;
using test::signatureOf;
using test::stream;

/** Serial reference: feedCommitted per element. */
BoardSignature
runSerial(const BoardConfig &cfg,
          const std::vector<bus::BusTransaction> &txns,
          std::vector<bool> *accepted = nullptr, bool record = false)
{
    MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    for (const auto &t : txns) {
        const bool ok = board.feedCommitted(t);
        if (accepted)
            accepted->push_back(ok);
    }
    return signatureOf(board, recorder.get());
}

/** Batched run in chunks of @p batchSize (0: one whole-stream batch). */
BoardSignature
runBatched(const BoardConfig &cfg,
           const std::vector<bus::BusTransaction> &txns,
           std::size_t batchSize, std::vector<bool> *accepted = nullptr,
           bool record = false)
{
    MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    if (batchSize == 0)
        batchSize = txns.size();
    std::vector<std::uint8_t> raw(txns.size(), 0);
    for (std::size_t at = 0; at < txns.size(); at += batchSize) {
        const std::size_t n = std::min(batchSize, txns.size() - at);
        // bool* out array: use a plain buffer, vector<bool> is packed.
        std::vector<char> out(n, 0);
        board.feedBatch(&txns[at], n,
                        reinterpret_cast<bool *>(out.data()));
        for (std::size_t i = 0; i < n; ++i)
            raw[at + i] = static_cast<std::uint8_t>(out[i]);
    }
    if (accepted)
        for (std::size_t i = 0; i < txns.size(); ++i)
            accepted->push_back(raw[i] != 0);
    return signatureOf(board, recorder.get());
}

TEST(ShardEquivTest, BatchPathMatchesSerialWithoutRecorder)
{
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(11, 4000);
        std::vector<bool> serial_ok, batch_ok;
        const auto serial = runSerial(cfg.board, txns, &serial_ok);
        for (std::size_t batch : batchLegs) {
            std::vector<bool> batch_ok;
            const auto batched =
                runBatched(cfg.board, txns, batch, &batch_ok);
            const std::string what =
                cfg.name + " turbo batch " + std::to_string(batch);
            EXPECT_EQ(serial_ok, batch_ok) << what;
            expectIdentical(serial, batched, what);
        }
    }
}

TEST(ShardEquivTest, ShardedMatchesSerialAcrossThreadCounts)
{
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(23, 4000);
        std::vector<bool> serial_ok;
        const auto serial = runSerial(cfg.board, txns, &serial_ok, true);
        for (std::size_t batch : batchLegs) {
            std::vector<bool> batch_ok;
            const auto batched =
                runBatched(cfg.board, txns, batch, &batch_ok, true);
            const std::string what =
                cfg.name + " recorded batch " + std::to_string(batch);
            EXPECT_EQ(serial_ok, batch_ok) << what;
            expectIdentical(serial, batched, what);
        }
    }
}

TEST(ShardEquivTest, ChunkedBatchesMatchOneBigBatch)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(31, 3000);
    const auto serial = runSerial(cfg, txns, nullptr, true);
    for (std::size_t batch : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{64},
                              std::size_t{4096}}) {
        const auto chunked = runBatched(cfg, txns, batch, nullptr, true);
        expectIdentical(serial, chunked,
                        "batch size " + std::to_string(batch));
    }
}

TEST(ShardEquivTest, MixedSerialAndBatchFeedsAgree)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(59, 3000);
    const auto serial = runSerial(cfg, txns, nullptr, true);

    for (std::size_t batch : batchLegs) {
        MemoriesBoard board(cfg);
        trace::FlightRecorder recorder(1 << 14);
        board.attachFlightRecorder(recorder);
        // First third serial, middle third batched, last third serial.
        const std::size_t third = txns.size() / 3;
        for (std::size_t i = 0; i < third; ++i)
            board.feedCommitted(txns[i]);
        for (std::size_t at = third; at < 2 * third; at += batch)
            board.feedBatch(&txns[at], std::min(batch, 2 * third - at));
        for (std::size_t i = 2 * third; i < txns.size(); ++i)
            board.feedCommitted(txns[i]);
        expectIdentical(serial, signatureOf(board, &recorder),
                        "mixed serial/batch feeds, batch " +
                            std::to_string(batch));
    }
}

TEST(ShardEquivTest, DrainAllAfterBatchMatchesSerial)
{
    const BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const auto txns = stream(67, 2000);

    MemoriesBoard serial_board(cfg);
    for (const auto &t : txns)
        serial_board.feedCommitted(t);
    serial_board.drainAll();

    MemoriesBoard batch_board(cfg);
    batch_board.feedBatch(txns);
    batch_board.drainAll();

    expectIdentical(signatureOf(serial_board, nullptr),
                    signatureOf(batch_board, nullptr),
                    "post-drainAll state");
}

} // namespace
} // namespace memories::ies
