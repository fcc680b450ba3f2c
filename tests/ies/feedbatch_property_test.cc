/**
 * @file
 * Property test for the batch feed path: for any generated stream,
 * any board geometry, and any batch size, feedBatch must be
 * byte-identical to feeding the same stream through feedCommitted one
 * transaction at a time — acceptance flags, counters, directories,
 * and buffer statistics alike.
 *
 * A divergence does not just fail: it is handed to the oracle's
 * delta-debugging shrinker (oracle::shrinkStream), so the log carries
 * a minimal reproducing stream instead of a 4000-transaction haystack.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ies/board.hh"
#include "oracle/stimulus.hh"

namespace memories::ies
{
namespace
{

struct FeedOutcome
{
    std::vector<std::uint8_t> accepted;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;

    bool operator==(const FeedOutcome &) const = default;
};

FeedOutcome
outcomeOf(MemoriesBoard &board, std::vector<std::uint8_t> accepted)
{
    FeedOutcome out;
    out.accepted = std::move(accepted);
    board.globalCounters().snapshot([&](const CounterSample &s) {
        out.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            out.counters.emplace_back(s.name, s.value);
        });
        out.dirs.push_back(board.node(i).directorySnapshot());
    }
    out.bufferRetired = board.bufferRetired();
    out.bufferSize = board.bufferSize();
    out.bufferHighWater = board.bufferHighWater();
    return out;
}

FeedOutcome
runSerial(const BoardConfig &cfg,
          const std::vector<bus::BusTransaction> &txns)
{
    MemoriesBoard board(cfg);
    std::vector<std::uint8_t> accepted;
    accepted.reserve(txns.size());
    for (const auto &t : txns)
        accepted.push_back(board.feedCommitted(t) ? 1 : 0);
    return outcomeOf(board, std::move(accepted));
}

FeedOutcome
runBatched(const BoardConfig &cfg,
           const std::vector<bus::BusTransaction> &txns,
           std::size_t batch_size)
{
    MemoriesBoard board(cfg);
    std::vector<std::uint8_t> accepted(txns.size(), 0);
    std::vector<char> flags(batch_size, 0);
    for (std::size_t at = 0; at < txns.size(); at += batch_size) {
        const std::size_t n = std::min(batch_size, txns.size() - at);
        board.feedBatch(&txns[at], n,
                        reinterpret_cast<bool *>(flags.data()));
        for (std::size_t i = 0; i < n; ++i)
            accepted[at + i] = static_cast<std::uint8_t>(flags[i]);
    }
    return outcomeOf(board, std::move(accepted));
}

std::string
firstDifference(const FeedOutcome &serial, const FeedOutcome &batched)
{
    std::ostringstream os;
    for (std::size_t i = 0;
         i < std::min(serial.accepted.size(), batched.accepted.size());
         ++i) {
        if (serial.accepted[i] != batched.accepted[i]) {
            os << "acceptance of txn " << i << ": serial "
               << int{serial.accepted[i]} << " batched "
               << int{batched.accepted[i]};
            return os.str();
        }
    }
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        if (serial.counters[i].second != batched.counters[i].second) {
            os << "counter " << serial.counters[i].first << ": serial "
               << serial.counters[i].second << " batched "
               << batched.counters[i].second;
            return os.str();
        }
    }
    for (std::size_t n = 0; n < serial.dirs.size(); ++n) {
        if (serial.dirs[n] != batched.dirs[n]) {
            os << "node " << n << " directory contents";
            return os.str();
        }
    }
    os << "buffer stats: retired " << serial.bufferRetired << "/"
       << batched.bufferRetired << " size " << serial.bufferSize << "/"
       << batched.bufferSize << " high-water "
       << serial.bufferHighWater << "/" << batched.bufferHighWater;
    return os.str();
}

/** The property; on failure, shrink to a minimal stream and report. */
void
checkEquivalence(const BoardConfig &cfg,
                 const std::vector<bus::BusTransaction> &txns,
                 std::size_t batch_size, const std::string &what)
{
    const FeedOutcome serial = runSerial(cfg, txns);
    const FeedOutcome batched =
        runBatched(cfg, txns, batch_size);
    if (serial == batched)
        return;

    const auto still_fails =
        [&](const std::vector<bus::BusTransaction> &candidate) {
            return runSerial(cfg, candidate) !=
                   runBatched(cfg, candidate, batch_size);
        };
    const auto shrunk = oracle::shrinkStream(txns, still_fails);
    const FeedOutcome s2 = runSerial(cfg, shrunk);
    const FeedOutcome b2 = runBatched(cfg, shrunk, batch_size);
    ADD_FAILURE() << what << ": feedBatch diverged ("
                  << firstDifference(serial, batched)
                  << "); ddmin shrank " << txns.size() << " txns to "
                  << shrunk.size() << " ("
                  << firstDifference(s2, b2) << ")";
}

std::vector<bus::BusTransaction>
propertyStream(std::uint64_t seed)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = 4000;
    p.cpus = 8;
    p.pBurst = 0.4;
    return oracle::StimulusGen(p).generate();
}

TEST(FeedBatchPropertyTest, BatchSizesAreEquivalentToSerial)
{
    const BoardConfig cfg = makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    for (std::uint64_t seed : {3u, 17u, 91u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch,
                             "seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

TEST(FeedBatchPropertyTest, BatchSizesAreEquivalentUnderSharding)
{
    // A multi-config board — three geometries, three target machines,
    // one of them set sampled — so every emulation step walks several
    // machine groups. (The test id predates the removal of intra-board
    // sharding.)
    BoardConfig cfg = makeMultiConfigBoard(
        {cache::CacheConfig{2 * MiB, 2, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{4 * MiB, 4, 128,
                            cache::ReplacementPolicy::TreePLRU},
         cache::CacheConfig{8 * MiB, 8, 128,
                            cache::ReplacementPolicy::Random}},
        8);
    cfg.nodes[2].setSamplingShift = 2;
    const auto txns = propertyStream(7);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, std::size_t{4096}}) {
        checkEquivalence(cfg, txns, batch,
                         "multi-config batch " + std::to_string(batch));
    }
}

TEST(FeedBatchPropertyTest, PacedBufferStaysEquivalent)
{
    // A slow, tiny buffer makes retirement timing and overflow depend
    // on exactly when drainDue runs — the riskiest batching surface.
    BoardConfig cfg = makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.bufferEntries = 32;
    cfg.sdramThroughputPercent = 10;
    for (std::uint64_t seed : {5u, 23u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch :
             {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch,
                             "paced seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

} // namespace
} // namespace memories::ies
