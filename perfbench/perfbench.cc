/**
 * @file
 * Repository benchmark program: runs one named workload from a seed and
 * prints end-to-end metrics (untraced) or per-layer metrics (traced).
 *
 * Usage: perfbench --workload replay|live|sweep|serve --seed N
 *                  --seconds S --trace 0|1 --out DIR
 *
 * A run has three phases:
 *   gen     the benchmark's own input generation and trace capture,
 *           plus the reference emulation the statistics check compares
 *           against (reported as gen_s, never a metric);
 *   rounds  repeated until S seconds have passed (at least three):
 *           set-up (construction, session configuration and a warm-up
 *           prefix that fills the directories), then the timed phase;
 *           every round does identical work, so every round must end
 *           with the same stats_digest as the reference;
 *   report  timings from a composite best round (each request's fastest
 *           time over the rounds), set-up as the median round, printed
 *           as one JSON line last.
 *
 * A workload whose threads take turns (all but sweep) runs each round
 * pinned to one CPU. With --trace 1 the run makes untraced and traced
 * rounds, then times each layer's public functions on standalone
 * objects fed with the workload's own tenure stream. Spans are recorded
 * only around calls made from this file, kept in memory, and written to
 * DIR/spans-<workload>.csv at the end.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include "bus/bus6xx.hh"
#include "cache/tagstore.hh"
#include "checkpoint/io.hh"
#include "common/counters.hh"
#include "common/logging.hh"
#include "host/machine.hh"
#include "ies/board.hh"
#include "ies/console.hh"
#include "ies/fanout.hh"
#include "ies/txnbuffer.hh"
#include "oracle/stimulus.hh"
#include "protocol/table.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/stream.hh"
#include "service/wire.hh"
#include "trace/record.hh"
#include "trace/tracefile.hh"
#include "workload/dss.hh"
#include "workload/oltp.hh"

namespace
{

using namespace memories;
using Txns = std::vector<bus::BusTransaction>;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** CPUs the process may run on, lowest first. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    return cpus;
}

/** Pin the calling thread, and the threads it starts later, to @p cpu. */
void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0)
        fatal("cannot pin to cpu ", cpu);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < pct <= 100). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** One timed call from this file into a layer. */
struct Span
{
    const char *name;
    std::uint64_t start;
    std::uint64_t end;
    std::int32_t parent;
    /** Calls this span stands for (sampled spans: the sample period). */
    std::uint32_t weight;
};

/**
 * In-memory span recorder. Off (the untraced run) it records nothing
 * and every ScopedSpan costs one branch.
 */
class Tracer
{
  public:
    bool on = false;

    std::int32_t
    open(const char *name, std::uint32_t weight)
    {
        if (!on)
            return -1;
        const auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(
            Span{name, nowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                 weight});
        stack_.push_back(id);
        return id;
    }

    void
    close(std::int32_t id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = nowNs();
        stack_.pop_back();
    }

    /** Index the next span will get (marks the start of a phase). */
    std::size_t mark() const { return spans_.size(); }

    /**
     * Scaled self time per span name over spans [from, end): each
     * span's duration minus its children's, times the product of the
     * weights on its ancestor chain.
     */
    std::map<std::string, double>
    selfNs(std::size_t from) const
    {
        // A span reads innerNs_ of clock overhead as its own time, and
        // costs its parent outerNs_; both are taken out here.
        std::vector<double> childNs(spans_.size(), 0);
        std::vector<double> scale(spans_.size(), 1);
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const bool nested = s.parent >= static_cast<std::int32_t>(from);
            scale[i] = (nested ? scale[static_cast<std::size_t>(s.parent)]
                               : 1) *
                       s.weight;
            if (nested)
                childNs[static_cast<std::size_t>(s.parent)] +=
                    duration(s) * s.weight + outerNs_;
        }
        std::map<std::string, double> self;
        for (std::size_t i = from; i < spans_.size(); ++i)
            self[spans_[i].name] +=
                (duration(spans_[i]) - childNs[i]) * scale[i];
        return self;
    }

    /**
     * Share of the "run" span opened at @p from that no layer span
     * below it accounts for, with the tracing overhead taken out.
     */
    double
    residualShare(std::size_t from) const
    {
        const auto self = selfNs(from);
        double layers = 0;
        for (const auto &[name, ns] : self)
            if (name != "run")
                layers += ns;
        const double overhead =
            static_cast<double>(spans_.size() - from - 1) * outerNs_;
        return 1.0 - layers / (duration(spans_[from]) - overhead);
    }

    /**
     * Measure the clock overhead of a span: innerNs_, what an empty
     * span reads as its duration, and outerNs_, what it adds to the
     * span around it. Leaves no spans behind.
     */
    void
    calibrate()
    {
        constexpr int n = 200000;
        const bool was = on;
        on = true;
        const std::size_t mark = spans_.size();
        const std::int32_t outer = open("calibrate", 1);
        for (int i = 0; i < n; ++i)
            close(open("empty", 1));
        close(outer);
        double inner = 0;
        for (std::size_t i = mark + 1; i < spans_.size(); ++i)
            inner += static_cast<double>(spans_[i].end - spans_[i].start);
        innerNs_ = inner / n;
        outerNs_ = static_cast<double>(spans_[mark].end -
                                       spans_[mark].start) /
                   n;
        spans_.resize(mark);
        on = was;
    }

    double innerNs() const { return innerNs_; }
    double outerNs() const { return outerNs_; }

    /** Scaled total (not self) time of spans named @p name. */
    double
    totalNs(std::size_t from, const std::string &name) const
    {
        double t = 0;
        for (std::size_t i = from; i < spans_.size(); ++i)
            if (name == spans_[i].name)
                t += static_cast<double>(spans_[i].end - spans_[i].start) *
                     spans_[i].weight;
        return t;
    }

    void
    write(const std::string &path, std::uint64_t run_id) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot write span file ", path);
        std::fprintf(f, "run,id,name,start_ns,end_ns,parent,weight\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f, "%016" PRIx64 ",%zu,%s,%" PRIu64 ",%" PRIu64
                            ",%d,%u\n",
                         run_id, i, s.name, s.start, s.end, s.parent,
                         s.weight);
        }
        std::fclose(f);
    }

  private:
    double
    duration(const Span &s) const
    {
        return static_cast<double>(s.end - s.start) - innerNs_;
    }

    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    double innerNs_ = 0;
    double outerNs_ = 0;
};

Tracer tracer;

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, std::uint32_t weight = 1)
        : id_(tracer.open(name, weight))
    {
    }
    ~ScopedSpan() { tracer.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int32_t id_;
};

/** Keeps results of otherwise pure probe loops observable. */
volatile std::uint64_t sink_ = 0;

/** Sample period of per-call spans (one call in N is timed). */
constexpr std::uint32_t callSample = 16;

// ---------------------------------------------------------------------
// Statistics digest
// ---------------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ (v & 0xff)) * 0x100000001b3ull;
            v >>= 8;
        }
    }

    void
    mix(const std::string &s)
    {
        for (unsigned char c : s)
            h = (h ^ c) * 0x100000001b3ull;
        mix(s.size());
    }
};

/** Every counter, every directory line, and the retirement count. */
void
digestBoard(const ies::MemoriesBoard &b, Fnv &d)
{
    const auto emit = [&d](const CounterSample &s) {
        d.mix(std::string(s.name));
        d.mix(s.value);
    };
    b.globalCounters().snapshot(emit);
    d.mix(b.bufferRetired());
    d.mix(b.bufferSize());
    for (std::size_t n = 0; n < b.numNodes(); ++n) {
        b.node(n).counters().snapshot(emit);
        b.node(n).exportDirectory([&d](Addr a, cache::LineStateRaw s) {
            d.mix(a ^ (std::uint64_t{s} << 56));
        });
    }
}

/** Sum of every counter value: counter bumps since construction. */
std::uint64_t
counterBumps(const ies::MemoriesBoard &b)
{
    std::uint64_t sum = 0;
    const auto add = [&sum](const CounterSample &s) { sum += s.value; };
    b.globalCounters().snapshot(add);
    for (std::size_t n = 0; n < b.numNodes(); ++n)
        b.node(n).counters().snapshot(add);
    return sum;
}

std::uint64_t
globalValue(const ies::MemoriesBoard &b, const char *name)
{
    return b.globalCounters().valueByName(name);
}

/** Refs offered but not emulated by @p b (drops of every kind). */
std::uint64_t
notEmulated(const ies::MemoriesBoard &b)
{
    return globalValue(b, "global.tenures.lost_inflight") +
           globalValue(b, "global.tenures.fault_dropped") +
           globalValue(b, "global.tenures.sampled_out") +
           globalValue(b, "global.tenures.shed") +
           globalValue(b, "global.tenures.quarantined");
}

/**
 * Conservation on a replay-fed board: every offered tenure was
 * filtered, committed, refused at the full buffer, or dropped; every
 * commit retired once the buffer drained.
 */
bool
conserved(const ies::MemoriesBoard &b, std::uint64_t offered)
{
    const std::uint64_t filtered = globalValue(b, "global.tenures.filtered");
    const std::uint64_t memory = globalValue(b, "global.tenures.memory");
    const std::uint64_t committed =
        globalValue(b, "global.tenures.committed");
    return filtered + memory == offered &&
           committed + b.retriesPosted() +
                   globalValue(b, "global.tenures.dropped_retry") +
                   notEmulated(b) ==
               memory &&
           b.bufferSize() == 0 && b.bufferRetired() == committed;
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

cache::CacheConfig
geom(std::uint64_t mib, unsigned assoc)
{
    return cache::CacheConfig{mib * MiB, assoc, 128,
                              cache::ReplacementPolicy::LRU};
}

/** The four geometries of the live board and the cache probe. */
const std::vector<std::pair<const char *, cache::CacheConfig>> &
probeGeoms()
{
    static const std::vector<std::pair<const char *, cache::CacheConfig>>
        g = {{"16m4", geom(16, 4)},
             {"64m4", geom(64, 4)},
             {"256m8", geom(256, 8)},
             {"1g8", geom(1024, 8)}};
    return g;
}

std::vector<cache::CacheConfig>
liveGeoms()
{
    std::vector<cache::CacheConfig> v;
    for (const auto &[name, c] : probeGeoms())
        v.push_back(c);
    return v;
}

std::vector<cache::CacheConfig>
sweepGeoms()
{
    return {geom(16, 4),  geom(32, 4),  geom(64, 4),
            geom(128, 8), geom(256, 8), geom(1024, 8)};
}

/** replay and serve: two nodes partition the eight CPUs. */
ies::BoardConfig
pairBoard()
{
    return ies::makeUniformBoard(2, 4, geom(64, 4));
}

/** The serve session's console configuration of pairBoard(). */
const std::vector<std::string> &
pairBoardLines()
{
    static const std::vector<std::string> lines = {
        "node 0 cache 64MB 4 128B LRU", "node 0 cpus 0,1,2,3",
        "node 1 cache 64MB 4 128B LRU", "node 1 cpus 4,5,6,7", "init"};
    return lines;
}

oracle::StimulusParams
stimulusParams(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    // 8 x 32 MiB private pools + 2 MiB shared: four times the 64 MiB
    // directory, so capacity misses and castouts stay frequent.
    p.footprintLines = std::uint64_t{1} << 18;
    p.sharedLines = std::uint64_t{1} << 14;
    return p;
}

/**
 * Stimulus stream of @p count tenures generated in 1M-tenure segments
 * (bounded memory) with cycles rebased so the stream stays monotone.
 */
void
forEachStimulusSegment(std::uint64_t seed, std::uint64_t count,
                       const std::function<void(Txns &)> &fn)
{
    constexpr std::uint64_t segment = 1u << 20;
    Cycle base = 0;
    std::uint32_t traceId = 0;
    for (std::uint64_t k = 0, done = 0; done < count; ++k) {
        const std::uint64_t n = std::min(segment, count - done);
        Txns txns = oracle::StimulusGen(
                        stimulusParams(seed * 1000003 + k, n))
                        .generate();
        for (auto &t : txns) {
            t.cycle += base;
            t.traceId = ++traceId;
        }
        base = txns.back().cycle;
        fn(txns);
        done += n;
    }
}

workload::OltpParams
oltpParams(std::uint64_t seed)
{
    workload::OltpParams p;
    p.threads = 8;
    p.dbBytes = 512 * MiB;
    p.seed = seed;
    return p;
}

workload::DssParams
dssParams(std::uint64_t seed)
{
    workload::DssParams p;
    p.threads = 8;
    p.seed = seed;
    return p;
}

// ---------------------------------------------------------------------
// Forwarding wrappers (traced runs only)
// ---------------------------------------------------------------------

/** Workload that times one next() call in callSample. */
class TimedWorkload : public workload::Workload
{
  public:
    explicit TimedWorkload(workload::Workload &inner) : inner_(inner) {}

    workload::MemRef
    next(unsigned tid) override
    {
        if (++calls_ % callSample == 0) {
            ScopedSpan s("workload.next", callSample);
            return inner_.next(tid);
        }
        return inner_.next(tid);
    }
    unsigned threads() const override { return inner_.threads(); }
    std::uint64_t footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    const std::string &name() const override { return inner_.name(); }
    double refsPerInstruction() const override
    {
        return inner_.refsPerInstruction();
    }
  private:
    workload::Workload &inner_;
    std::uint64_t calls_ = 0;
};

/** Plugs a board into a bus and times one snoop/observe in callSample. */
class TimedBoardTap : public bus::BusSnooper, public bus::BusObserver
{
  public:
    TimedBoardTap(ies::MemoriesBoard &board, std::uint32_t period)
        : board_(board), period_(period)
    {
    }

    void
    plugInto(bus::Bus6xx &bus)
    {
        bus.attach(this);
        bus.attachObserver(this);
    }

    bus::SnoopResponse
    snoop(const bus::BusTransaction &txn) override
    {
        sampled_ = ++calls_ % period_ == 0;
        if (sampled_) {
            ScopedSpan s("ies.snoop", period_);
            return board_.snoop(txn);
        }
        return board_.snoop(txn);
    }
    std::string snooperName() const override
    {
        return board_.snooperName();
    }
    void
    observeResult(const bus::BusTransaction &txn,
                  bus::SnoopResponse combined) override
    {
        if (sampled_) {
            ScopedSpan s("ies.snoop", period_);
            board_.observeResult(txn, combined);
            return;
        }
        board_.observeResult(txn, combined);
    }

  private:
    ies::MemoriesBoard &board_;
    std::uint32_t period_;
    std::uint64_t calls_ = 0;
    bool sampled_ = false;
};

/** Records every tenure a bus completes (no snooper ever retries). */
class TenureCapture : public bus::BusObserver
{
  public:
    void
    observeResult(const bus::BusTransaction &txn,
                  bus::SnoopResponse combined) override
    {
        if (combined == bus::SnoopResponse::Retry)
            fatal("capture saw a retried tenure");
        if (writer)
            writer->append(txn);
        else
            txns.push_back(txn);
    }
    trace::TraceWriter *writer = nullptr;
    Txns txns;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** What one round measured. */
struct Round
{
    double setupS = 0;
    double timedS = 0;
    double cpuS = 0;
    /** Tenures retired x configurations emulating them (timed phase). */
    double refs = 0;
    /** Refs offered in the round (warm-up + timed), and not emulated. */
    std::uint64_t offered = 0;
    std::uint64_t failed = 0;
    bool conserved = true;
    std::uint64_t digest = 0;
    /** Per-request latencies of the timed phase, in microseconds. */
    std::vector<double> latUs;
    /** Process CPU seconds of each request (empty: not measured). */
    std::vector<double> latCpuS;
    std::map<std::string, double> layer; //!< traced-round layer figures
};

struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string out;
    bool traced = false;
};

/** One workload: inputs from the seed, a reference, repeatable rounds. */
class Bench
{
  public:
    virtual ~Bench() = default;
    /** Generate inputs and compute the reference digest. */
    virtual void generate(const Context &ctx) = 0;
    virtual Round round() = 0;
    /** Digest every round must reproduce. */
    std::uint64_t expected = 0;
    /** Up to @p max tenures of this workload's stream (probes). */
    virtual Txns sample(std::size_t max) const = 0;
    /** Board configuration the probes emulate. */
    virtual std::vector<ies::BoardConfig> configs() const = 0;
    /** Host workload the host/workload probes run (nullptr: OLTP). */
    virtual std::unique_ptr<workload::Workload> hostWorkload() const
    {
        return std::make_unique<workload::OltpWorkload>(oltpParams(seed));
    }
    /** True when threads of the workload run at the same time. */
    virtual bool parallel() const { return false; }
    std::uint64_t seed = 1;
};

Txns
readTraceHead(const std::string &path, std::size_t max)
{
    trace::TraceReader reader(path);
    Txns v;
    bus::BusTransaction t;
    while (v.size() < max && reader.next(t))
        v.push_back(t);
    return v;
}

/** Read @p n records from @p reader into @p buf; fatal if short. */
void
readChunk(trace::TraceReader &reader, std::size_t n, Txns &buf)
{
    ScopedSpan s("trace.next");
    buf.clear();
    bus::BusTransaction t;
    for (std::size_t i = 0; i < n; ++i) {
        if (!reader.next(t))
            fatal("trace ended early");
        buf.push_back(t);
    }
}

// --- replay ----------------------------------------------------------

class ReplayBench : public Bench
{
  public:
    static constexpr std::uint64_t warm = 2'000'000;
    static constexpr std::uint64_t timed = 6'000'000;
    static constexpr std::size_t chunk = 4096;

    void
    generate(const Context &ctx) override
    {
        seed = ctx.seed;
        path_ = ctx.out + "/replay.trace";
        {
            trace::TraceWriter writer(path_);
            forEachStimulusSegment(ctx.seed, warm + timed, [&](Txns &v) {
                for (const auto &t : v)
                    writer.append(t);
            });
        }
        // Reference: the same records, per-element feedCommitted.
        auto ref = ies::MemoriesBoard::make(pairBoard());
        trace::TraceReader reader(path_);
        bus::BusTransaction t;
        while (reader.next(t))
            ref->feedCommitted(t);
        ref->drainAll();
        Fnv d;
        digestBoard(*ref, d);
        expected = d.h;
    }

    Round
    round() override
    {
        Round r;
        std::uint64_t t0 = nowNs();
        auto board = ies::MemoriesBoard::make(pairBoard());
        trace::TraceReader reader(path_);
        Txns buf;
        buf.reserve(chunk);
        for (std::uint64_t done = 0; done < warm; done += chunk) {
            readChunk(reader, std::min<std::uint64_t>(chunk, warm - done),
                      buf);
            board->feedBatch(buf);
        }
        r.setupS = secondsSince(t0);

        const std::uint64_t committed0 =
            globalValue(*board, "global.tenures.committed");
        const std::size_t mark = tracer.mark();
        const double cpu0 = cpuSeconds();
        t0 = nowNs();
        {
            ScopedSpan root("run");
            for (std::uint64_t done = 0; done < timed; done += chunk) {
                const double k0 = cpuSeconds();
                const std::uint64_t c0 = nowNs();
                readChunk(reader,
                          std::min<std::uint64_t>(chunk, timed - done), buf);
                {
                    ScopedSpan s("ies.feed_batch");
                    board->feedBatch(buf);
                }
                r.latUs.push_back(static_cast<double>(nowNs() - c0) * 1e-3);
                r.latCpuS.push_back(cpuSeconds() - k0);
            }
            ScopedSpan s("ies.feed_batch");
            board->drainAll();
        }
        r.timedS = secondsSince(t0);
        r.cpuS = cpuSeconds() - cpu0;
        r.refs = static_cast<double>(
            globalValue(*board, "global.tenures.committed") - committed0);
        r.offered = warm + timed;
        r.failed = board->retriesPosted() + notEmulated(*board);
        r.conserved = conserved(*board, r.offered);
        Fnv d;
        digestBoard(*board, d);
        r.digest = d.h;
        if (tracer.on) {
            r.layer["residual_share"] = tracer.residualShare(mark);
            const auto self = tracer.selfNs(mark);
            r.layer["trace.next_ns"] =
                self.at("trace.next") / static_cast<double>(timed);
            r.layer["ies.feed_batch_ns"] =
                self.at("ies.feed_batch") / static_cast<double>(timed);
        }
        return r;
    }

    Txns sample(std::size_t max) const override
    {
        return readTraceHead(path_, max);
    }
    std::vector<ies::BoardConfig> configs() const override
    {
        return {pairBoard()};
    }

  private:
    std::string path_;
};

// --- live ------------------------------------------------------------

class LiveBench : public Bench
{
  public:
    static constexpr std::uint64_t warm = 1'000'000;
    static constexpr std::uint64_t timed = 3'000'000;
    static constexpr std::uint64_t chunk = 2048;

    static ies::BoardConfig
    boardConfig()
    {
        return ies::makeMultiConfigBoard(liveGeoms(), 8);
    }

    void
    generate(const Context &ctx) override
    {
        seed = ctx.seed;
        // Capture the host's tenures without a board on the bus. The
        // board never retries at these bus rates, so it is passive and
        // the captured stream is exactly what the live board snoops.
        workload::OltpWorkload wl(oltpParams(seed));
        host::HostMachine machine(host::s7aConfig(), wl);
        machine.bus().attachObserver(&capture_);
        machine.run(warm + timed);
        auto ref = ies::MemoriesBoard::make(boardConfig());
        ref->feedBatch(capture_.txns);
        ref->drainAll();
        Fnv d;
        digestBoard(*ref, d);
        expected = d.h;
    }

    Round
    round() override
    {
        Round r;
        std::uint64_t t0 = nowNs();
        workload::OltpWorkload inner(oltpParams(seed));
        TimedWorkload timedWl(inner);
        workload::Workload &wl =
            tracer.on ? static_cast<workload::Workload &>(timedWl) : inner;
        host::HostMachine machine(host::s7aConfig(), wl);
        auto board = ies::MemoriesBoard::make(boardConfig());
        TimedBoardTap tap(*board, callSample);
        if (tracer.on)
            tap.plugInto(machine.bus());
        else
            board->plugInto(machine.bus());
        machine.run(warm);
        r.setupS = secondsSince(t0);

        const std::uint64_t committed0 =
            globalValue(*board, "global.tenures.committed");
        const std::uint64_t tenures0 = machine.bus().stats().tenures;
        const std::size_t mark = tracer.mark();
        const double cpu0 = cpuSeconds();
        t0 = nowNs();
        {
            ScopedSpan root("run");
            for (std::uint64_t done = 0; done < timed; done += chunk) {
                const double k0 = cpuSeconds();
                const std::uint64_t c0 = nowNs();
                {
                    ScopedSpan s("host.run");
                    machine.run(std::min(chunk, timed - done));
                }
                r.latUs.push_back(static_cast<double>(nowNs() - c0) * 1e-3);
                r.latCpuS.push_back(cpuSeconds() - k0);
            }
            ScopedSpan s("ies.feed_batch");
            board->drainAll();
        }
        r.timedS = secondsSince(t0);
        r.cpuS = cpuSeconds() - cpu0;
        const double configsEmulated = static_cast<double>(board->numNodes());
        r.refs = configsEmulated *
                 static_cast<double>(
                     globalValue(*board, "global.tenures.committed") -
                     committed0);
        const std::uint64_t busTenures = machine.bus().stats().tenures;
        r.offered = busTenures;
        // Retries the board posts are replayed by the host, so only
        // drops count as refs not emulated.
        r.failed = notEmulated(*board) +
                   globalValue(*board, "global.tenures.dropped_retry");
        const std::uint64_t retried = machine.bus().stats().retries;
        r.conserved = conserved(*board, busTenures) &&
                      retried == board->retriesPosted();
        Fnv d;
        digestBoard(*board, d);
        r.digest = d.h;
        if (tracer.on) {
            r.layer["residual_share"] = tracer.residualShare(mark);
            const auto self = tracer.selfNs(mark);
            const double tenures =
                static_cast<double>(busTenures - tenures0);
            r.layer["workload.next_ns"] =
                self.at("workload.next") / static_cast<double>(timed);
            r.layer["host.self_ns"] =
                self.at("host.run") / static_cast<double>(timed);
            r.layer["host.tenures_per_ref"] =
                tenures / static_cast<double>(timed);
            r.layer["ies.snoop_ns"] = self.at("ies.snoop") / tenures;
            r.layer["ies.retry_ratio"] =
                static_cast<double>(board->retriesPosted()) /
                static_cast<double>(busTenures);
        }
        return r;
    }

    Txns sample(std::size_t max) const override
    {
        return Txns(capture_.txns.begin(),
                    capture_.txns.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min(max, capture_.txns.size())));
    }
    std::vector<ies::BoardConfig> configs() const override
    {
        return {boardConfig()};
    }

  private:
    TenureCapture capture_;
};

// --- sweep -----------------------------------------------------------

class SweepBench : public Bench
{
  public:
    static constexpr std::uint64_t warmHostRefs = 1'000'000;
    static constexpr std::uint64_t timedHostRefs = 3'000'000;
    static constexpr std::size_t workers = 3;
    static constexpr std::size_t chunk = 4096;

    bool parallel() const override { return true; }

    void
    generate(const Context &ctx) override
    {
        seed = ctx.seed;
        path_ = ctx.out + "/sweep.trace";
        {
            trace::TraceWriter writer(path_);
            TenureCapture capture;
            capture.writer = &writer;
            workload::DssWorkload wl(dssParams(seed));
            host::HostMachine machine(host::s7aConfig(), wl);
            machine.bus().attachObserver(&capture);
            machine.run(warmHostRefs);
            warm_ = writer.count();
            machine.run(timedHostRefs);
            timed_ = writer.count() - warm_;
        }
        // Reference: each configuration on its own board, fed by
        // feedBatch instead of the fleet's per-event feedCommitted.
        Fnv d;
        for (const auto &g : sweepGeoms()) {
            auto ref = ies::MemoriesBoard::make(
                ies::makeUniformBoard(1, 8, g));
            trace::TraceReader reader(path_);
            Txns buf;
            readChunk(reader, warm_, buf);
            ref->feedBatch(buf);
            ref->drainAll();
            readChunk(reader, timed_, buf);
            ref->feedBatch(buf);
            ref->drainAll();
            digestBoard(*ref, d);
        }
        expected = d.h;
    }

    void
    addBoards(ies::ExperimentFleet &fleet) const
    {
        for (const auto &g : sweepGeoms())
            fleet.addExperiment(ies::makeUniformBoard(1, 8, g), 1,
                                g.describe());
    }

    Round
    round() override
    {
        Round r;
        std::uint64_t t0 = nowNs();
        ies::ExperimentFleet fleet;
        addBoards(fleet);
        trace::TraceReader reader(path_);
        Txns buf;
        buf.reserve(chunk);
        fleet.start(workers);
        for (std::uint64_t done = 0; done < warm_; done += chunk) {
            readChunk(reader, std::min<std::uint64_t>(chunk, warm_ - done),
                      buf);
            for (const auto &t : buf)
                fleet.publish(t);
        }
        fleet.finish();
        r.setupS = secondsSince(t0);

        // start() resets the fleet's drop counters, so the warm-up's
        // drops are read here and added to the timed phase's below.
        std::uint64_t committed0 = 0, warmDrops = 0;
        for (std::size_t i = 0; i < fleet.numExperiments(); ++i) {
            committed0 +=
                globalValue(fleet.board(i), "global.tenures.committed");
            warmDrops += fleet.overflowDrops(i);
        }
        const std::size_t mark = tracer.mark();
        const double cpu0 = cpuSeconds();
        t0 = nowNs();
        double tailNs = 0;
        {
            ScopedSpan root("run");
            fleet.start(workers);
            for (std::uint64_t done = 0; done < timed_; done += chunk) {
                const double k0 = cpuSeconds();
                const std::uint64_t c0 = nowNs();
                readChunk(reader,
                          std::min<std::uint64_t>(chunk, timed_ - done), buf);
                {
                    ScopedSpan s("fanout.publish");
                    for (const auto &t : buf)
                        fleet.publish(t);
                }
                r.latUs.push_back(static_cast<double>(nowNs() - c0) * 1e-3);
                r.latCpuS.push_back(cpuSeconds() - k0);
            }
            const std::uint64_t f0 = nowNs();
            {
                ScopedSpan s("fanout.finish");
                fleet.finish();
            }
            tailNs = static_cast<double>(nowNs() - f0);
        }
        r.timedS = secondsSince(t0);
        r.cpuS = cpuSeconds() - cpu0;
        std::uint64_t committed = 0, drops = 0, stalls = 0;
        Fnv d;
        for (std::size_t i = 0; i < fleet.numExperiments(); ++i) {
            const ies::MemoriesBoard &b = fleet.board(i);
            committed += globalValue(b, "global.tenures.committed");
            drops += fleet.overflowDrops(i);
            stalls += fleet.backpressureStalls(i);
            r.failed += notEmulated(b);
            r.conserved = r.conserved && conserved(b, warm_ + timed_);
            digestBoard(b, d);
        }
        r.refs = static_cast<double>(committed - committed0);
        r.offered = (warm_ + timed_) * fleet.numExperiments();
        r.failed += warmDrops + drops;
        r.digest = d.h;
        if (tracer.on) {
            r.layer["residual_share"] = tracer.residualShare(mark);
            const auto self = tracer.selfNs(mark);
            r.layer["trace.next_ns"] =
                self.at("trace.next") / static_cast<double>(timed_);
            r.layer["fanout.publish_ns"] =
                self.at("fanout.publish") / static_cast<double>(timed_);
            r.layer["fanout.producer_stalls"] = static_cast<double>(stalls);
            r.layer["fanout.tail_s"] = tailNs * 1e-9;
            r.layer["fanout.overflow_drops"] =
                static_cast<double>(drops);
        }
        return r;
    }

    Txns sample(std::size_t max) const override
    {
        return readTraceHead(path_, max);
    }
    std::vector<ies::BoardConfig> configs() const override
    {
        std::vector<ies::BoardConfig> v;
        for (const auto &g : sweepGeoms())
            v.push_back(ies::makeUniformBoard(1, 8, g));
        return v;
    }
    std::unique_ptr<workload::Workload> hostWorkload() const override
    {
        return std::make_unique<workload::DssWorkload>(dssParams(seed));
    }

  private:
    std::string path_;
    std::uint64_t warm_ = 0;
    std::uint64_t timed_ = 0;
};

// --- serve -----------------------------------------------------------

/** Counters as the console prints them, plus a checkpoint's bytes. */
std::uint64_t
digestText(const std::string &counters, const std::string &ckpt_path)
{
    Fnv d;
    d.mix(counters);
    const auto bytes = ckpt::readFileBytes(ckpt_path, "checkpoint");
    for (std::uint8_t b : bytes)
        d.h = (d.h ^ b) * 0x100000001b3ull;
    return d.h;
}

std::string
countersText(const ies::MemoriesBoard &board)
{
    std::ostringstream os;
    const auto emit = [&os](const CounterSample &s) {
        os << s.name << " " << s.value << "\n";
    };
    board.globalCounters().snapshot(emit);
    for (std::size_t i = 0; i < board.numNodes(); ++i)
        board.node(i).counters().snapshot(emit);
    return os.str();
}

/** Value of counter @p name in a "counters" reply (0 when absent). */
std::uint64_t
counterIn(const std::string &text, const std::string &name)
{
    std::istringstream is(text);
    std::string key;
    std::uint64_t value = 0;
    while (is >> key >> value)
        if (key == name)
            return value;
    return 0;
}

class ServeBench : public Bench
{
  public:
    static constexpr std::uint64_t warm = 100'000;
    static constexpr std::uint64_t timed = 300'000;
    /** Feed batch: twice the session board's 512-entry buffer. */
    static constexpr std::size_t batch = 1024;
    /** Records per feedAll call: eight full lines. */
    static constexpr std::size_t piece = 8 * batch;

    void
    generate(const Context &ctx) override
    {
        seed = ctx.seed;
        out_ = ctx.out;
        forEachStimulusSegment(ctx.seed, warm + timed, [&](Txns &v) {
            stream_.insert(stream_.end(), v.begin(), v.end());
        });
        // Reference: the whole stream through one in-process feedBatch.
        ies::MemoriesBoard ref(pairBoard());
        ref.feedBatch(stream_);
        ref.drainAll();
        const std::string ckpt = out_ + "/serve-ref.ckpt";
        ref.saveState(ckpt);
        expected = digestText(countersText(ref), ckpt);
        refOffered_ = stream_.size();
        for (std::size_t i = warm; i < stream_.size(); i += piece)
            pieces_.emplace_back(
                stream_.begin() + static_cast<std::ptrdiff_t>(i),
                stream_.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(i + piece, stream_.size())));
    }

    Round
    round() override
    {
        Round r;
        const Txns warmTxns(stream_.begin(), stream_.begin() + warm);

        std::uint64_t t0 = nowNs();
        service::DaemonOptions opts;
        opts.socketPath = out_ + "/serve.sock";
        opts.stateDir = out_ + "/serve-state";
        opts.maxSessions = 2;
        opts.maxBatch = batch;
        service::Daemon daemon(opts);
        daemon.start();
        service::ServiceClient client;
        if (!client.connect(opts.socketPath, 5000))
            fatal("serve: cannot connect to ", opts.socketPath);
        for (const auto &line : pairBoardLines())
            if (!client.exec(line).ok)
                fatal("serve: session rejected '", line, "'");
        const service::FeedTotals w = client.feedAll(warmTxns, batch);
        r.setupS = secondsSince(t0);

        const std::size_t mark = tracer.mark();
        const double cpu0 = cpuSeconds();
        t0 = nowNs();
        service::FeedTotals f;
        {
            ScopedSpan root("run");
            // One feedAll per piece of the stream, so that each piece's
            // process CPU time (client and daemon threads) can be taken,
            // and the span tree shows where the wire time goes.
            for (const Txns &part : pieces_) {
                const double k0 = cpuSeconds();
                service::FeedTotals p;
                {
                    ScopedSpan s("service.feed");
                    p = client.feedAll(part, batch, &r.latUs);
                }
                r.latCpuS.push_back(cpuSeconds() - k0);
                f.offered += p.offered;
                f.accepted += p.accepted;
                f.resends += p.resends;
                f.feedLines += p.feedLines;
            }
            ScopedSpan s("service.feed");
            if (!client.exec("drain").ok)
                fatal("serve: drain failed");
        }
        r.timedS = secondsSince(t0);
        r.cpuS = cpuSeconds() - cpu0;

        const service::Reply counters = client.exec("counters");
        const std::string ckpt = out_ + "/serve-wire.ckpt";
        const service::Reply saved = client.exec("save-state " + ckpt);
        if (!counters.ok || !saved.ok)
            fatal("serve: cannot read back the session board");
        std::string text;
        for (const auto &line : counters.lines)
            text += line + "\n";
        client.close();
        daemon.stop();

        r.refs = static_cast<double>(f.accepted);
        r.offered = w.offered + f.offered;
        r.failed = r.offered - (w.accepted + f.accepted);
        // Paced admission never refuses a record it attempts, so every
        // offered record was filtered or committed, and every commit
        // retired at the drain.
        const std::uint64_t committed =
            counterIn(text, "global.tenures.committed");
        r.conserved =
            r.offered == refOffered_ &&
            counterIn(text, "global.tenures.filtered") +
                    counterIn(text, "global.tenures.memory") ==
                r.offered &&
            committed == counterIn(text, "global.tenures.memory");
        r.digest = digestText(text, ckpt);
        if (tracer.on) {
            r.layer["residual_share"] = tracer.residualShare(mark);
            const auto self = tracer.selfNs(mark);
            r.layer["service.lines_per_kref"] =
                1000.0 * static_cast<double>(f.feedLines) /
                static_cast<double>(f.offered);
            r.layer["service.resend_ratio"] =
                static_cast<double>(f.resends) /
                static_cast<double>(f.feedLines);
            double sum = 0;
            for (double v : r.latUs)
                sum += v;
            r.layer["service.round_trip_us"] =
                sum / static_cast<double>(r.latUs.size());
        }
        return r;
    }

    Txns sample(std::size_t max) const override
    {
        return Txns(stream_.begin(),
                    stream_.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(max, stream_.size())));
    }
    std::vector<ies::BoardConfig> configs() const override
    {
        return {pairBoard()};
    }

  private:
    std::string out_;
    Txns stream_;
    std::vector<Txns> pieces_; //!< the timed part of stream_, by piece
    std::uint64_t refOffered_ = 0;
};

// ---------------------------------------------------------------------
// Layer probes (traced runs): standalone objects, this workload's stream
// ---------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/** Time @p fn once under a span; return its scaled self time in ns. */
double
timed(const char *name, const std::function<void()> &fn)
{
    const std::size_t mark = tracer.mark();
    {
        ScopedSpan s(name);
        fn();
    }
    return tracer.totalNs(mark, name);
}

void
probeTrace(const std::string &out, const Txns &s, Metrics &m)
{
    const std::string path = out + "/probe.trace";
    {
        trace::TraceWriter w(path);
        for (const auto &t : s)
            w.append(t);
    }
    trace::TraceReader reader(path);
    bus::BusTransaction t;
    std::uint64_t n = 0;
    const double ns = timed("trace.next", [&] {
        while (reader.next(t))
            ++n;
    });
    m.emplace("trace.next_ns", ns / static_cast<double>(n));
}

void
probeAdmission(const ies::BoardConfig &cfg, const Txns &s, Metrics &m)
{
    auto board = ies::MemoriesBoard::make(cfg);
    const double ns = timed("ies.feed_batch", [&] {
        for (std::size_t i = 0; i < s.size(); i += 16384)
            board->feedBatch(s.data() + i, std::min<std::size_t>(
                                               16384, s.size() - i));
        board->drainAll();
    });
    const double n = static_cast<double>(s.size());
    m.emplace("ies.feed_batch_ns", ns / n);
    m.emplace("ies.filtered_ratio",
              static_cast<double>(
                  globalValue(*board, "global.tenures.filtered")) /
                  n);
    m.emplace("ies.buffer_high_water",
              static_cast<double>(board->bufferHighWater()));
    m.emplace("counters.bumps_per_ref",
              static_cast<double>(counterBumps(*board)) / n);

    // The pacing buffer alone: drain what is due, then push.
    ies::TransactionBuffer buf(cfg.bufferEntries, cfg.sdramThroughputPercent);
    Txns retired;
    retired.reserve(cfg.bufferEntries);
    std::uint64_t pushed = 0;
    const double bufNs = timed("ies.txnbuf", [&] {
        for (const auto &t : s) {
            if (bus::isFilteredOp(t.op))
                continue;
            retired.clear();
            buf.drainInto(t.cycle, retired);
            pushed += buf.push(t);
        }
        while (buf.drainUnpaced())
            ;
    });
    m.emplace("ies.txnbuf_ns", bufNs / n);
    sink_ = sink_ + pushed;
}

/**
 * A standalone bus issuing the stream to a board through the timed tap:
 * bus self time is issue() minus the board's snoop/observe spans.
 */
void
probeBus(const ies::BoardConfig &cfg, const Txns &s, Metrics &m)
{
    auto board = ies::MemoriesBoard::make(cfg);
    bus::Bus6xx bus;
    TimedBoardTap tap(*board, 1);
    tap.plugInto(bus);
    const std::size_t mark = tracer.mark();
    for (const auto &t : s) {
        if (t.cycle > bus.now())
            bus.advanceTo(t.cycle);
        ScopedSpan sp("bus.issue");
        bus.issue(t);
    }
    const auto self = tracer.selfNs(mark);
    const double n = static_cast<double>(s.size());
    m.emplace("bus.issue_self_ns", self.at("bus.issue") / n);
    m.emplace("ies.snoop_ns", self.at("ies.snoop") / n);
    m.emplace("ies.retry_ratio",
              static_cast<double>(board->retriesPosted()) / n);
}

/** Lock-step emulation on standalone node controllers (no board). */
void
probeNodes(const ies::BoardConfig &cfg, const Txns &s, Metrics &m)
{
    std::vector<std::unique_ptr<ies::NodeController>> nodes;
    for (std::size_t i = 0; i < cfg.nodes.size(); ++i)
        nodes.push_back(std::make_unique<ies::NodeController>(
            static_cast<NodeId>(i), cfg.nodes[i]));
    // Machine groups in first-appearance order, as the board keeps them.
    std::vector<std::vector<ies::NodeController *>> groups;
    std::vector<unsigned> groupIds;
    for (auto &node : nodes) {
        const auto it = std::find(groupIds.begin(), groupIds.end(),
                                  node->targetMachine());
        if (it == groupIds.end()) {
            groupIds.push_back(node->targetMachine());
            groups.push_back({node.get()});
        } else {
            groups[static_cast<std::size_t>(it - groupIds.begin())]
                .push_back(node.get());
        }
    }
    std::uint64_t steps = 0;
    const double ns = timed("ies.node", [&] {
        for (const auto &t : s) {
            if (bus::isFilteredOp(t.op))
                continue;
            ++steps;
            for (const auto &group : groups) {
                ies::NodeController *owner = nullptr;
                auto resp = bus::SnoopResponse::None;
                for (ies::NodeController *node : group) {
                    if (node->ownsCpu(t.cpu))
                        owner = node;
                    else
                        resp = bus::combineSnoop(resp, node->snoopRemote(t));
                }
                if (owner)
                    owner->processLocal(t, resp);
            }
        }
    });
    m.emplace("ies.node_ns", ns / static_cast<double>(steps));
}

void
probeCacheProtocolCounters(const Txns &s, Metrics &m)
{
    std::vector<std::pair<bus::BusOp, protocol::LineState>> steps;
    for (const auto &[name, g] : probeGeoms()) {
        cache::TagStore store(g);
        std::uint64_t refs = 0, hits = 0, castouts = 0;
        for (const auto &t : s) {
            if (bus::isFilteredOp(t.op))
                continue;
            ++refs;
            const cache::LookupResult lr = store.lookup(t.addr);
            if (lr.hit)
                ++hits;
            else
                castouts += store.allocate(t.addr, 1).valid;
            if (std::string(name) == "64m4")
                steps.emplace_back(
                    t.op, lr.hit && lr.state < protocol::numLineStates
                              ? static_cast<protocol::LineState>(lr.state)
                              : protocol::LineState::Invalid);
        }
        // Lookups alone, over the store the pass above warmed.
        std::uint64_t sink = 0;
        const std::string span = std::string("cache.lookup.") + name;
        const double ns = timed(span.c_str(), [&] {
            for (const auto &t : s)
                sink += store.lookup(t.addr).way;
        });
        const double n = static_cast<double>(refs);
        m.emplace(std::string("cache.lookup_ns.") + name,
                  ns / static_cast<double>(s.size()));
        sink_ = sink_ + sink;
        m.emplace(std::string("cache.hit_ratio.") + name,
                  static_cast<double>(hits) / n);
        m.emplace(std::string("cache.castouts_per_kref.") + name,
                  1000.0 * static_cast<double>(castouts) / n);
    }

    const protocol::ProtocolTable table = protocol::makeMesiTable();
    std::uint64_t sink = 0;
    const double pns = timed("protocol.step", [&] {
        for (const auto &[op, state] : steps) {
            sink += static_cast<unsigned>(
                table.requester(op, state, protocol::SnoopSummary::None)
                    .next);
            sink += static_cast<unsigned>(table.snooper(op, state).next);
        }
    });
    m.emplace("protocol.step_ns",
              pns / static_cast<double>(steps.size()));
    sink_ = sink_ + sink;

    CounterBank bank;
    std::vector<CounterBank::Handle> handles;
    for (std::size_t op = 0; op < bus::numBusOps; ++op)
        handles.push_back(bank.add("op" + std::to_string(op)));
    const double cns = timed("counters.bump", [&] {
        for (const auto &t : s)
            bank.bump(handles[static_cast<std::size_t>(t.op)]);
    });
    m.emplace("counters.bump_ns", cns / static_cast<double>(s.size()));
}

/** The host, alone: run minus the workload's sampled next() spans. */
void
probeHost(const Bench &bench, Metrics &m)
{
    constexpr std::uint64_t refs = 1'000'000;
    auto inner = bench.hostWorkload();
    TimedWorkload wl(*inner);
    host::HostMachine machine(host::s7aConfig(), wl);
    const std::size_t mark = tracer.mark();
    {
        ScopedSpan s("host.run");
        machine.run(refs);
    }
    const auto self = tracer.selfNs(mark);
    const double n = static_cast<double>(refs);
    m.emplace("workload.next_ns", self.at("workload.next") / n);
    m.emplace("host.self_ns", self.at("host.run") / n);
    m.emplace("host.tenures_per_ref",
              static_cast<double>(machine.bus().stats().tenures) / n);
}

/** Fan the stream out to one board per configuration on a fleet. */
void
probeFanout(const std::vector<ies::BoardConfig> &cfgs, const Txns &s,
            Metrics &m)
{
    const std::size_t workers = std::min<std::size_t>(3, cfgs.size());
    ies::ExperimentFleet fleet;
    for (const auto &c : cfgs)
        fleet.addExperiment(c);
    fleet.start(workers);
    const double pubNs = timed("fanout.publish", [&] {
        for (const auto &t : s)
            fleet.publish(t);
    });
    const double tailNs = timed("fanout.finish", [&] { fleet.finish(); });
    std::uint64_t stalls = 0, drops = 0;
    for (std::size_t i = 0; i < fleet.numExperiments(); ++i) {
        stalls += fleet.backpressureStalls(i);
        drops += fleet.overflowDrops(i);
    }
    m.emplace("fanout.publish_ns", pubNs / static_cast<double>(s.size()));
    m.emplace("fanout.producer_stalls", static_cast<double>(stalls));
    m.emplace("fanout.tail_s", tailNs * 1e-9);
    m.emplace("fanout.overflow_drops", static_cast<double>(drops));

    // Each board fed alone via feedCommitted; a worker owns boards
    // w, w + workers, ... exactly as the fleet assigns them.
    std::vector<double> perWorker(workers, 0);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        auto board = ies::MemoriesBoard::make(cfgs[i]);
        perWorker[i % workers] += timed("fanout.board", [&] {
            for (const auto &t : s)
                board->feedCommitted(t);
        });
    }
    double sum = 0, mx = 0;
    for (double w : perWorker) {
        sum += w;
        mx = std::max(mx, w);
    }
    m.emplace("fanout.imbalance",
              mx / (sum / static_cast<double>(workers)));
}

/**
 * The service layer without a socket: hex coding, and the same paced
 * feed lines through an in-process Console with StreamIngest.
 */
void
probeService(const Txns &s, Metrics &m, double round_trip_us)
{
    std::vector<std::string> hex;
    hex.reserve(s.size());
    Cycle prev = 0;
    const double encNs = timed("service.encode", [&] {
        for (const auto &t : s) {
            hex.push_back(service::encodeRecordHex(
                trace::BusRecord::pack(t, prev).raw));
            prev = t.cycle;
        }
    });
    std::uint64_t sink = 0;
    const double decNs = timed("service.decode", [&] {
        for (const auto &h : hex)
            sink += service::decodeRecordHex(h).value_or(0);
    });
    const double n = static_cast<double>(s.size());
    m.emplace("service.encode_ns", encNs / n);
    m.emplace("service.decode_ns", decNs / n);
    sink_ = sink_ + sink;

    bus::Bus6xx bus;
    ies::Console console(bus);
    service::StreamIngest ingest(ServeBench::batch);
    ingest.registerCommands(console);
    for (const auto &line : pairBoardLines())
        if (console.execute(line).rfind("error", 0) == 0)
            fatal("in-process session rejected '", line, "'");
    std::uint64_t lines = 0, resends = 0;
    double execNs = 0;
    for (std::size_t next = 0; next < hex.size();) {
        const std::size_t k = std::min(ServeBench::batch, hex.size() - next);
        std::string line = "feed";
        for (std::size_t i = 0; i < k; ++i)
            line += ' ' + hex[next + i];
        std::string reply;
        execNs += timed("service.exec", [&] { reply = console.execute(line); });
        ++lines;
        unsigned long long fed = 0;
        if (std::sscanf(reply.c_str(), "fed %llu", &fed) != 1)
            fatal("in-process feed failed: ", reply);
        if (fed == 0)
            ++resends;
        next += fed;
    }
    const double execUs = execNs * 1e-3 / static_cast<double>(lines);
    m.emplace("service.exec_us", execUs);
    m.emplace("service.lines_per_kref",
              1000.0 * static_cast<double>(lines) / n);
    m.emplace("service.resend_ratio",
              static_cast<double>(resends) / static_cast<double>(lines));
    m.emplace("service.transport_us", round_trip_us - execUs);
}

/** Mean wire round trip of feed lines of @p s (a short session). */
double
wireRoundTripUs(const std::string &out, const Txns &s)
{
    service::DaemonOptions opts;
    opts.socketPath = out + "/probe.sock";
    opts.stateDir = out + "/probe-state";
    opts.maxSessions = 2;
    opts.maxBatch = ServeBench::batch;
    service::Daemon daemon(opts);
    daemon.start();
    service::ServiceClient client;
    if (!client.connect(opts.socketPath, 5000))
        fatal("probe: cannot connect to ", opts.socketPath);
    for (const auto &line : pairBoardLines())
        if (!client.exec(line).ok)
            fatal("probe: session rejected '", line, "'");
    std::vector<double> lat;
    client.feedAll(s, ServeBench::batch, &lat);
    client.close();
    daemon.stop();
    double sum = 0;
    for (double v : lat)
        sum += v;
    return sum / static_cast<double>(lat.size());
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

std::unique_ptr<Bench>
makeBench(const std::string &name)
{
    if (name == "replay")
        return std::make_unique<ReplayBench>();
    if (name == "live")
        return std::make_unique<LiveBench>();
    if (name == "sweep")
        return std::make_unique<SweepBench>();
    if (name == "serve")
        return std::make_unique<ServeBench>();
    return nullptr;
}

struct Args
{
    Context ctx;
    double seconds = 10;
    bool ok = true;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    a.ctx.out = ".bench_out";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.ctx.workload = v;
        else if (k == "--seed")
            a.ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.ctx.traced = v == "1";
        else if (k == "--out")
            a.ctx.out = v;
        else
            a.ok = false;
    }
    if (argc % 2 == 0 || a.seconds <= 0)
        a.ok = false;
    return a;
}

void
printMetric(std::string &json, const std::string &name, double value,
            const char *unit)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", name.c_str(), value, unit);
    json += buf;
}

/** Every per-layer metric a traced run prints, with its unit. */
std::vector<std::pair<std::string, const char *>>
layerMetrics()
{
    std::vector<std::pair<std::string, const char *>> v = {
        {"trace.next_ns", "ns"},
        {"ies.feed_batch_ns", "ns"},
        {"ies.txnbuf_ns", "ns"},
        {"ies.filtered_ratio", "ratio"},
        {"ies.buffer_high_water", "count"},
        {"ies.snoop_ns", "ns"},
        {"ies.retry_ratio", "ratio"},
        {"ies.node_ns", "ns"},
        {"protocol.step_ns", "ns"},
        {"counters.bump_ns", "ns"},
        {"counters.bumps_per_ref", "1/ref"},
        {"workload.next_ns", "ns"},
        {"host.self_ns", "ns"},
        {"host.tenures_per_ref", "1/ref"},
        {"bus.issue_self_ns", "ns"},
        {"fanout.publish_ns", "ns"},
        {"fanout.producer_stalls", "count"},
        {"fanout.tail_s", "s"},
        {"fanout.imbalance", "ratio"},
        {"fanout.overflow_drops", "count"},
        {"service.encode_ns", "ns"},
        {"service.decode_ns", "ns"},
        {"service.exec_us", "us"},
        {"service.transport_us", "us"},
        {"service.lines_per_kref", "1/kref"},
        {"service.resend_ratio", "ratio"},
        {"residual_share", "ratio"},
        {"trace_overhead", "ratio"},
    };
    for (const auto &[g, c] : probeGeoms()) {
        v.emplace_back(std::string("cache.lookup_ns.") + g, "ns");
        v.emplace_back(std::string("cache.hit_ratio.") + g, "ratio");
        v.emplace_back(std::string("cache.castouts_per_kref.") + g, "1/kref");
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Bench> bench = makeBench(args.ctx.workload);
    if (!args.ok || !bench) {
        std::fprintf(stderr,
                     "usage: perfbench --workload replay|live|sweep|serve "
                     "--seed N --seconds S --trace 0|1 [--out DIR]\n");
        return 2;
    }
    ckpt::ensureDir(args.ctx.out);
    // Threads that only take turns gain nothing from a second CPU, and
    // on a shared virtual machine every migration or cross-CPU wake-up
    // (the serve client and daemon hand each request back and forth)
    // adds the host's scheduling delay to the measurement. So each
    // round runs on one CPU. Timed rounds rotate over the CPUs, so that
    // a CPU the host keeps busy for a while slows only some of the
    // rounds the composite best round is taken from.
    const std::vector<int> cpus =
        bench->parallel() ? std::vector<int>{} : allowedCpus();
    if (!cpus.empty()) {
        pinTo(cpus.back());
        std::printf("one cpu per round, of %zu\n", cpus.size());
    }

    const std::uint64_t g0 = nowNs();
    bench->generate(args.ctx);
    const double genS = secondsSince(g0);
    std::printf("gen_s %.3f (input generation, trace capture and the "
                "reference emulation; not a metric)\n", genS);
    std::printf("expected_digest %016" PRIx64 "\n", bench->expected);

    std::vector<Round> rounds;
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    const auto check = [&](const Round &r, const char *tag) {
        attempted += r.offered;
        const bool ok = r.conserved && r.digest == bench->expected;
        failed += ok ? r.failed : r.offered;
        correct = correct && ok;
        std::printf("%s round: setup %.4fs timed %.4fs cpu %.4fs refs %.0f "
                    "stats_digest %016" PRIx64 "%s%s\n",
                    tag, r.setupS, r.timedS, r.cpuS, r.refs, r.digest,
                    r.conserved ? "" : " CONSERVATION-BROKEN",
                    r.digest == bench->expected ? "" : " DIGEST-MISMATCH");
        std::fflush(stdout);
    };

    std::string json = "{";
    if (!args.ctx.traced) {
        const std::uint64_t t0 = nowNs();
        // Peak memory is taken after the first round: the inputs plus one
        // emulation, which is what a user's run holds. Later rounds start
        // new threads, and which allocator arenas those land in varies
        // from run to run, so the peak over all rounds does not repeat.
        double peakRss = 0;
        while (rounds.size() < 3 || secondsSince(t0) < args.seconds) {
            if (!cpus.empty())
                pinTo(cpus[rounds.size() % cpus.size()]);
            rounds.push_back(bench->round());
            check(rounds.back(), "timed");
            if (rounds.size() == 1)
                peakRss = peakRssMiB();
        }
        // Other tenants of the machine only ever slow the program down,
        // and they come and go over milliseconds to seconds. Every round
        // does identical work in identical requests, so each request's
        // fastest time over the rounds (plus the fastest remainder of
        // the timed phase) estimates the program's own speed far more
        // steadily than any one round. Set-up is the median round.
        const auto best = [&](auto part, auto total) {
            std::vector<double> per;
            double rest = 0;
            for (std::size_t k = 0; k < rounds.size(); ++k) {
                const std::vector<double> &v = part(rounds[k]);
                double sum = 0;
                for (std::size_t i = 0; i < v.size(); ++i) {
                    sum += v[i];
                    if (k == 0)
                        per.push_back(v[i]);
                    else if (i < per.size())
                        per[i] = std::min(per[i], v[i]);
                }
                const double r = total(rounds[k]) - sum;
                rest = k == 0 ? r : std::min(rest, r);
            }
            return std::make_pair(per, rest);
        };
        const auto [latUs, restUs] = best(
            [](const Round &r) -> const std::vector<double> & {
                return r.latUs;
            },
            [](const Round &r) { return r.timedS * 1e6; });
        const auto [latCpu, restCpu] = best(
            [](const Round &r) -> const std::vector<double> & {
                return r.latCpuS;
            },
            [](const Round &r) { return r.cpuS; });
        double wallS = restUs * 1e-6, cpuS = restCpu;
        for (double v : latUs)
            wallS += v * 1e-6;
        for (double v : latCpu)
            cpuS += v;
        std::vector<double> setup;
        for (const Round &r : rounds)
            setup.push_back(r.setupS);
        const double refs = rounds.front().refs;
        const double rps = refs / wallS;
        const double cpu = cpuS / (refs * 1e-6);
        const double p50 = percentile(latUs, 50);
        const double p95 = percentile(latUs, 95);
        const std::size_t samples = latUs.size();
        const double emulated =
            1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
        printMetric(json, "refs_per_s", rps, "refs/s");
        printMetric(json, "cpu_s_per_mref", cpu, "s");
        printMetric(json, "setup_s", median(setup), "s");
        printMetric(json, "peak_rss_mib", peakRss, "MiB");
        printMetric(json, "req_p50_us", p50, "us");
        printMetric(json, "req_p95_us", p95, "us");
        printMetric(json, "emulated_ratio", emulated, "ratio");
        std::printf("rounds %zu, request samples %zu per round, "
                    "fail_ratio %.6g\n",
                    rounds.size(), samples, 1.0 - emulated);
    } else {
        // The first round of a process runs cold (allocator, page
        // cache), so it is not compared. Then untraced and traced rounds
        // alternate, and the best of each gives the tracing overhead.
        check(bench->round(), "untraced");
        tracer.calibrate();
        std::printf("span overhead: %.1f ns inside, %.1f ns outside\n",
                    tracer.innerNs(), tracer.outerNs());
        double plainRps = 0, tracedRps = 0;
        Round traced;
        for (int k = 0; k < 3; ++k) {
            const Round plain = bench->round();
            check(plain, "untraced");
            plainRps = std::max(plainRps, plain.refs / plain.timedS);
            tracer.on = true;
            traced = bench->round();
            tracer.on = false;
            check(traced, "traced");
            tracedRps = std::max(tracedRps, traced.refs / traced.timedS);
        }
        tracer.on = true;
        Metrics m = traced.layer;
        m["trace_overhead"] = plainRps / tracedRps - 1.0;

        constexpr std::size_t probeRefs = 400'000;
        const Txns s = bench->sample(probeRefs);
        const ies::BoardConfig primary = bench->configs().front();
        const std::uint64_t p0 = nowNs();
        probeTrace(args.ctx.out, s, m);
        probeAdmission(primary, s, m);
        // The per-call bus probe and the wire probes use a shorter head.
        const Txns head(s.begin(), s.begin() + std::min<std::ptrdiff_t>(
                                                   100'000, s.size()));
        probeBus(primary, head, m);
        probeNodes(primary, s, m);
        probeCacheProtocolCounters(s, m);
        probeHost(*bench, m);
        probeFanout(bench->configs(), s, m);
        const double rt = m.count("service.round_trip_us")
                              ? m.at("service.round_trip_us")
                              : wireRoundTripUs(args.ctx.out, head);
        m.erase("service.round_trip_us");
        probeService(head, m, rt);
        std::printf("probes took %.3fs over %zu tenures\n", secondsSince(p0),
                    s.size());
        for (const auto &[name, unit] : layerMetrics()) {
            if (!m.count(name))
                fatal("per-layer metric ", name, " was not measured");
            printMetric(json, name, m.at(name), unit);
        }
        const std::string spans =
            args.ctx.out + "/spans-" + args.ctx.workload + ".csv";
        tracer.write(spans, args.ctx.seed ^ g0);
        std::printf("spans written to %s\n", spans.c_str());
    }
    json += "}";
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed, json.c_str());
    return correct ? 0 : 1;
}
