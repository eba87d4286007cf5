/**
 * @file
 * Cycle-accurate reference simulator.
 *
 * Plays the role of the paper's proprietary cycle-accurate SPARC
 * simulator: an independent, *timed* out-of-order pipeline used to
 * (a) validate the timing-free epoch model (Table 3 compares the MLP
 * both report) and (b) measure CPI, CPI_perf and Overlap_CM for the
 * performance model (Tables 1 and 4).
 *
 * The pipeline: in-order fetch (blocking on instruction misses and on
 * unresolved mispredicted branches) into a fetch buffer, in-order
 * dispatch into an issue window + ROB, out-of-order issue respecting
 * the Table 2 constraints for configurations A-C (like the paper's
 * simulator, out-of-order branch issue is not supported), per-class
 * execution latencies with load latency chosen by where the access
 * hits (from the shared annotations), and in-order commit. Serializing
 * instructions drain the pipeline. MLP(t) is sampled every cycle as
 * the number of useful off-chip accesses outstanding; average MLP is
 * its mean over the cycles where it is non-zero (paper Section 2.1).
 *
 * Implementation notes (DESIGN.md section 14). The scheduler is
 * event-driven, mirroring the epoch engine's PR 4 overhaul: in-flight
 * instructions live in a power-of-two ring buffer indexed by sequence
 * number, each entry carries an intrusive consumer list so it is
 * re-examined only when one of its at most four producers completes
 * (O(dependence edges) instead of an O(window) rescan every cycle),
 * and the Table 2 issue constraints are tracked incrementally —
 * in-order FIFOs for config-A memory ops and for branches, an
 * intrusive unresolved-store list for config B — whose head advances
 * wake exactly the instructions those policies were blocking. Ready
 * instructions drain in ascending sequence order, which reproduces
 * the old oldest-first scan's issue order, and therefore every
 * CycleSimResult bit, exactly.
 *
 * No priority queue is needed for time. Every execution latency is a
 * constant of the run and `now` never decreases, so completions pushed
 * with one latency arrive in completion order: one FIFO per distinct
 * latency (at most five) is exactly sorted, and so is the single FIFO
 * of off-chip completion cycles. The next event is the earliest FIFO
 * head or the fetch-resume cycle. Draining the due completions FIFO
 * by FIFO rather than in global seq order cannot change a result: the
 * ready pool pops its minimum seq whatever the push order, kInCand
 * drops duplicate pushes, and the oldest unresolved store wakes its
 * parked loads whenever it resolves (DESIGN.md section 14).
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/chunk_window.hh"
#include "core/mlp_config.hh"
#include "core/workload_context.hh"
#include "util/seq_containers.hh"
#include "util/status.hh"

namespace mlpsim::cyclesim {

/** Timed-pipeline configuration. */
struct CycleSimConfig
{
    core::IssueConfig issue = core::IssueConfig::C;

    unsigned fetchWidth = 3;
    unsigned dispatchWidth = 3;
    unsigned issueWidth = 3;
    unsigned commitWidth = 3;

    unsigned fetchBufferSize = 32;
    unsigned issueWindowSize = 64;
    unsigned robSize = 64;

    unsigned aluLatency = 1;
    unsigned l1Latency = 3;
    unsigned l2Latency = 15;
    unsigned offChipLatency = 200;   //!< the paper's MissPenalty
    unsigned branchRedirectPenalty = 10;

    /** Model a perfect L2: off-chip accesses become L2 hits. Used to
     *  measure CPI_perf. */
    bool perfectL2 = false;

    uint64_t warmupInsts = 0;

    /**
     * Width/size/latency sanity, mirroring MlpConfig::validate().
     * Execution latencies must be >= 1: the event-driven scheduler
     * delivers a value no earlier than the cycle after issue, so a
     * zero-latency producer would be consumable a cycle late. The
     * CycleSim constructor asserts this; bench setup surfaces it as a
     * Status before any sweep starts.
     */
    Status validate() const;

    /** Metric-path segment, e.g. "cyc64C-mp200" or "...+perfL2". */
    std::string metricLabel() const;
};

/** Measurements over the post-warm-up region. */
struct CycleSimResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t offChipAccesses = 0;
    uint64_t mlpCycles = 0;        //!< cycles with >=1 access outstanding
    double mlpSum = 0.0;           //!< sum of MLP(t) over those cycles

    double
    cpi() const
    {
        return instructions ? double(cycles) / double(instructions) : 0.0;
    }

    double
    mlp() const
    {
        return mlpCycles ? mlpSum / double(mlpCycles) : 0.0;
    }

    double
    missRatePer100() const
    {
        return instructions
                   ? 100.0 * double(offChipAccesses) / double(instructions)
                   : 0.0;
    }
};

/** The timed out-of-order pipeline. */
class CycleSim
{
  public:
    CycleSim(const CycleSimConfig &config,
             const core::WorkloadContext &workload);

    /** Simulate the whole trace and return measurements. */
    CycleSimResult run();

  private:
    /** Maximum producers per instruction: 3 registers + 1 memory. */
    static constexpr unsigned maxProds = 4;

    /** Sequence number: trace index + 1 (0 = null link). The 30-bit
     *  budget comes from the packed consumer links below. */
    using Seq = util::Seq;

    /** Consumer link: (consumer seq << 2) | producer slot; 0 = none. */
    using Link = uint32_t;

    // --- RobEntry::flags bits ---
    static constexpr uint16_t kIssued = 1 << 0;
    static constexpr uint16_t kMemOp = 1 << 1;    //!< memory ordering
    static constexpr uint16_t kPrefetch = 1 << 2; //!< non-binding hint
    static constexpr uint16_t kLoadLike = 1 << 3; //!< load/prefetch/atomic
    static constexpr uint16_t kStore = 1 << 4;
    static constexpr uint16_t kBranch = 1 << 5;
    static constexpr uint16_t kSerializing = 1 << 6;
    static constexpr uint16_t kDMiss = 1 << 7;    //!< data goes off-chip
    static constexpr uint16_t kDL2 = 1 << 8;      //!< data hits in L2
    static constexpr uint16_t kUsefulPmiss = 1 << 9;
    static constexpr uint16_t kInCand = 1 << 10;  //!< in the ready pool
    static constexpr uint16_t kBlockedStore = 1 << 11; //!< config-B wait

    /**
     * One in-flight instruction: exactly one cache line. Producer seqs
     * are not stored — registration converts them into consumer-list
     * membership and the two pending counters; dstReg is cached so
     * commit never touches the trace.
     */
    struct alignas(64) RobEntry
    {
        Seq seq = 0;
        Link consumerHead = 0;         //!< newest-first waiter chain
        uint64_t completeCycle = 0;    //!< valid once issued
        Link nextConsumer[maxProds] = {}; //!< chain tail per input slot
        Seq usPrev = 0, usNext = 0;    //!< unresolved-store list (B)
        uint64_t storeKey = 0;         //!< store-map key + 1 (stores)
        uint8_t pendingProds = 0;      //!< producers not yet complete
        uint8_t pendingAddrProds = 0;  //!< ... among the address inputs
        uint8_t numAddrProds = 0;      //!< inputs 0..n) form the address
        uint8_t dstReg = 0;            //!< destination (noReg if none)
        uint16_t flags = 0;

        bool is(uint16_t f) const { return (flags & f) != 0; }
    };

    static_assert(sizeof(RobEntry) == 64,
                  "RobEntry must stay one cache line; see the "
                  "packed-layout notes in DESIGN.md section 14");

    /** An issued instruction whose value is delivered at `cycle`. */
    struct Completion
    {
        uint64_t cycle = 0;
        Seq seq = 0;
    };

    /** What sets an issued instruction's execution latency. */
    enum LatencyKind : uint8_t { Alu, Prefetch, L1Hit, L2Hit, DataMiss,
                                 numLatencyKinds };

    // --- pipeline stages (each returns whether it made progress) ---
    bool commitStage();
    bool issueStage();
    bool dispatchStage();
    bool fetchStage();
    uint64_t nextEventCycle() const;

    // --- event-driven scheduler helpers ---
    void makeEntry(uint64_t idx);
    void issueEntry(RobEntry &entry);
    void drainCompletions();
    void notifyConsumers(RobEntry &producer);
    void resolveStore(RobEntry &store);
    void wakeBlockedOnStore();
    void growRing();
    void linkUnresolvedStoreTail(RobEntry &entry);
    void pushCandidate(RobEntry &entry);
    Seq popCandidate();

    bool
    candidatesEmpty() const
    {
        return candRunCursor == candRun.size() && candHeap.empty();
    }

    uint64_t robOccupancy() const { return tailSeq - headSeq; }
    RobEntry &entryRef(Seq seq) { return ring[seq & ringMask]; }

    LatencyKind latencyKind(const RobEntry &entry) const;
    void recordOffChip(uint64_t idx, uint64_t complete_cycle);
    void accumulateMlp(uint64_t from_cycle, uint64_t to_cycle);

    // --- configuration and inputs ---
    const CycleSimConfig cfg;
    // Held by value (it is five non-owning pointers): callers routinely
    // pass a context materialised in the constructor call itself, and a
    // reference member would dangle by the time run() executes.
    const core::WorkloadContext wl;
    core::ChunkWindow window;      //!< buffer- or stream-backed chunks
    core::InstCursor dispatchCur;  //!< makeEntry's trailing cursor
    core::InstCursor fetchCur;     //!< fetch's leading cursor

    // --- machine state ---
    uint64_t now = 0;
    std::vector<RobEntry> ring;        //!< power-of-two ring, seq & mask
    uint32_t ringMask = 0;
    uint64_t headSeq = 1;              //!< oldest in-flight seq
    uint64_t tailSeq = 1;              //!< next seq to allocate
    unsigned iwOccupancy = 0;          //!< dispatched, not yet issued
    std::array<Seq, trace::numArchRegs> regProducer{};
    util::StoreMap storeProducer;      //!< newest in-flight store per line
    util::SeqFifo memFifo;             //!< config-A in-order memory ops
    util::SeqFifo branchFifo;          //!< in-order branches (A/B/C)
    Seq usHead = 0;                    //!< unresolved stores (config B)
    Seq usTail = 0;

    // Ready-candidate pool, popped in ascending seq order: an ascending
    // run consumed by cursor plus an overflow min-heap for the rare
    // out-of-order push (see the epoch engine's identical pool).
    std::vector<Seq> candRun;
    size_t candRunCursor = 0;
    std::vector<Seq> candHeap;
    std::vector<Seq> blockedOnStore;   //!< config-B entries to re-wake

    uint64_t nextFetchIdx = 0;
    uint64_t nextDispatchIdx = 0;
    uint64_t fetchResumeCycle = 0;   //!< instruction-miss stall
    bool imissHandled = false;
    uint64_t mispredBlockSeq = 0;    //!< 0 = not blocked
    uint64_t serializeBlockSeq = 0;  //!< 0 = not blocked

    /** Completion cycles of outstanding useful off-chip accesses;
     *  each is `now + offChipLatency`, so pushes arrive sorted. */
    util::RingFifo<uint64_t> outstanding;

    /** Issued-instruction completions awaiting delivery, one FIFO per
     *  distinct latency (kinds whose latencies coincide share one),
     *  drained at the top of every simulated cycle. */
    std::array<util::RingFifo<Completion>, numLatencyKinds> completions;
    std::array<unsigned, numLatencyKinds> fifoLatency{};
    unsigned numFifos = 0;
    std::array<uint8_t, numLatencyKinds> kindFifo{}; //!< kind -> FIFO
    uint64_t nextDue = ~0ULL; //!< earliest completion cycle queued

    bool measuring = false;
    uint64_t committed = 0;
    uint64_t measureStartCycle = 0;
    CycleSimResult result;
};

} // namespace mlpsim::cyclesim
