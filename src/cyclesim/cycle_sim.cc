#include "cycle_sim.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "metrics/registry.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

namespace mlpsim::cyclesim {

using core::IssueConfig;
using trace::InstClass;
using trace::noReg;

Status
CycleSimConfig::validate() const
{
    if (issue != IssueConfig::A && issue != IssueConfig::B &&
        issue != IssueConfig::C) {
        return Status::invalidArgument(
            "the cycle simulator supports issue configs A-C only "
            "(like the paper's reference simulator)");
    }
    if (fetchWidth == 0 || dispatchWidth == 0 || issueWidth == 0 ||
        commitWidth == 0) {
        return Status::invalidArgument(
            "pipeline widths must be >= 1 (fetch ", fetchWidth,
            ", dispatch ", dispatchWidth, ", issue ", issueWidth,
            ", commit ", commitWidth, ")");
    }
    if (fetchBufferSize == 0 || issueWindowSize == 0 || robSize == 0) {
        return Status::invalidArgument(
            "window structures must be non-empty (fetch buffer ",
            fetchBufferSize, ", issue window ", issueWindowSize,
            ", ROB ", robSize, ")");
    }
    if (aluLatency == 0 || l1Latency == 0 || l2Latency == 0 ||
        offChipLatency == 0) {
        return Status::invalidArgument(
            "execution latencies must be >= 1 so a value is never "
            "consumed in the cycle that produces it (alu ", aluLatency,
            ", l1 ", l1Latency, ", l2 ", l2Latency, ", off-chip ",
            offChipLatency, ")");
    }
    return Status::okStatus();
}

std::string
CycleSimConfig::metricLabel() const
{
    std::string out = "cyc" + std::to_string(issueWindowSize) +
                      core::issueConfigName(issue);
    if (robSize != issueWindowSize)
        out += "-rob" + std::to_string(robSize);
    out += "-mp" + std::to_string(offChipLatency);
    if (perfectL2)
        out += "+perfL2";
    return out;
}

CycleSim::CycleSim(const CycleSimConfig &config,
                   const core::WorkloadContext &workload)
    : cfg(config), wl(workload), window(wl), dispatchCur(window),
      fetchCur(window)
{
    MLPSIM_ASSERT(wl.hasTrace() && wl.misses && wl.branches,
                  "workload context incomplete");
    const Status valid = cfg.validate();
    MLPSIM_ASSERT(valid.ok(), valid.message());
    // Consumer links pack a sequence number into 30 bits (DESIGN.md
    // section 14); same hard input limit as the epoch engine.
    MLPSIM_ASSERT(wl.size() < (uint64_t(1) << 30),
                  "trace too large for packed sequence links");

    // The ring only needs to cover the architectural ROB; cap the
    // up-front allocation so huge configured windows start small and
    // growRing() picks the rest up on demand.
    const uint64_t init_cap = std::bit_ceil(
        std::min<uint64_t>(std::max<uint64_t>(cfg.robSize, 16), 8192));
    ring.assign(size_t(init_cap), RobEntry{});
    ringMask = uint32_t(init_cap - 1);
    storeProducer.reset(size_t(std::min<uint64_t>(2 * cfg.robSize, 16384)));
    memFifo.reset(256);
    branchFifo.reset(256);
    candRun.reserve(256);
    candHeap.reserve(64);

    // One completion FIFO per distinct execution latency.
    const unsigned latency[numLatencyKinds] = {
        cfg.aluLatency, 1, cfg.l1Latency, cfg.l2Latency,
        cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency};
    for (unsigned k = 0; k < numLatencyKinds; ++k) {
        unsigned f = 0;
        while (f < numFifos && fifoLatency[f] != latency[k])
            ++f;
        if (f == numFifos) {
            fifoLatency[f] = latency[k];
            completions[f].reset(64);
            ++numFifos;
        }
        kindFifo[k] = uint8_t(f);
    }
    outstanding.reset(64);
}

void
CycleSim::growRing()
{
    std::vector<RobEntry> next(ring.size() * 2);
    const uint32_t new_mask = uint32_t(next.size() - 1);
    for (uint64_t s = headSeq; s < tailSeq; ++s)
        next[size_t(s) & new_mask] = ring[size_t(s) & ringMask];
    ring.swap(next);
    ringMask = new_mask;
}

void
CycleSim::linkUnresolvedStoreTail(RobEntry &entry)
{
    const Seq seq = entry.seq;
    entry.usPrev = usTail;
    entry.usNext = 0;
    if (usTail != 0)
        entryRef(usTail).usNext = seq;
    else
        usHead = seq;
    usTail = seq;
}

void
CycleSim::pushCandidate(RobEntry &entry)
{
    if (entry.is(kInCand) || entry.is(kIssued))
        return;
    entry.flags |= kInCand;
    const Seq seq = entry.seq;
    if (candRun.empty() || seq > candRun.back())
        candRun.push_back(seq);
    else {
        candHeap.push_back(seq);
        std::push_heap(candHeap.begin(), candHeap.end(),
                       std::greater<>());
    }
}

CycleSim::Seq
CycleSim::popCandidate()
{
    // The run past its cursor is ascending and each seq is pooled at
    // most once (kInCand), so the global minimum is the smaller of the
    // two lane heads.
    const bool run_has = candRunCursor != candRun.size();
    if (!candHeap.empty() &&
        (!run_has || candHeap.front() < candRun[candRunCursor])) {
        std::pop_heap(candHeap.begin(), candHeap.end(),
                      std::greater<>());
        const Seq seq = candHeap.back();
        candHeap.pop_back();
        return seq;
    }
    const Seq seq = candRun[candRunCursor++];
    if (candRunCursor == candRun.size()) {
        candRun.clear();
        candRunCursor = 0;
    }
    return seq;
}

CycleSim::LatencyKind
CycleSim::latencyKind(const RobEntry &entry) const
{
    if (entry.is(kPrefetch))
        return Prefetch; // prefetches are fire-and-forget
    if (!entry.is(kLoadLike))
        return Alu;
    if (entry.is(kDMiss))
        return DataMiss;
    return entry.is(kDL2) ? L2Hit : L1Hit;
}

void
CycleSim::makeEntry(uint64_t idx)
{
    // Field reads straight from the chunk columns: dispatch never
    // needs pc or payload, so skip get()'s full record reassembly.
    const trace::TraceChunk &ck = dispatchCur.at(idx);
    const uint32_t ci = uint32_t(idx - ck.base);
    const uint8_t dstReg = ck.dst[ci];
    const uint8_t src0 = ck.src0[ci];
    const uint8_t src1 = ck.src1[ci];
    const uint8_t src2 = ck.src2[ci];
    const uint64_t effAddr = ck.effAddr[ci];
    const Seq seq = Seq(idx + 1);
    RobEntry &entry = entryRef(seq);
    entry = RobEntry{};
    entry.seq = seq;

    // Class-determined flag bits come from a table; only the atomic
    // memory case (Serializing with an effective address, an isMem()
    // instruction per trace/instruction.hh) needs a data-dependent
    // adjustment.
    static constexpr uint16_t classFlags[8] = {
        /* Alu         */ 0,
        /* Load        */ kMemOp | kLoadLike,
        /* Store       */ kMemOp | kStore,
        /* Branch      */ kBranch,
        /* Prefetch    */ kMemOp | kPrefetch | kLoadLike,
        /* Serializing */ kSerializing,
        0, 0,
    };
    const InstClass cls = ck.cls(ci);
    const bool atomic_mem =
        cls == InstClass::Serializing && effAddr != 0;
    const bool is_prefetch = cls == InstClass::Prefetch;
    uint16_t flags = classFlags[size_t(cls) & 7];
    if (atomic_mem)
        flags |= kMemOp | kLoadLike;
    if (wl.misses->dataMiss(idx))
        flags |= kDMiss;
    if (wl.misses->usefulPrefetch(idx))
        flags |= kUsefulPmiss;
    if (wl.misses->dataL2Hit(idx))
        flags |= kDL2;
    entry.flags = flags;
    entry.dstReg = dstReg;

    // Register renaming: capture the current in-flight producer of each
    // source, deduplicated (a producer feeding two sources still
    // completes once). For stores, src[0]/src[2] compute the address
    // and src[1] is the data; address producers are recorded first so
    // the config-B "wait for earlier store addresses" check can test
    // them separately. Loads and atomic reads keep one slot in reserve
    // for the memory dependence below, so a tracked store-to-load
    // forwarding edge is never discarded.
    const bool wants_forward = (flags & kLoadLike) != 0 && !is_prefetch;
    const unsigned reg_limit = wants_forward ? maxProds - 1 : maxProds;
    Seq prods[maxProds];
    unsigned num_prods = 0;
    auto capture = [&](uint8_t reg) {
        if (reg == noReg)
            return;
        const Seq prod = regProducer[reg];
        if (prod == 0)
            return;
        for (unsigned p = 0; p < num_prods; ++p) {
            if (prods[p] == prod)
                return;
        }
        MLPSIM_ASSERT(num_prods < reg_limit,
                      "register producer capture overflow");
        prods[num_prods++] = prod;
    };
    if (entry.is(kStore)) {
        capture(src0);
        capture(src2);
        entry.numAddrProds = uint8_t(num_prods);
        capture(src1);
    } else {
        capture(src0);
        capture(src1);
        capture(src2);
        entry.numAddrProds = uint8_t(num_prods);
    }

    // Memory dependence: a load (or atomic read) whose address was
    // written by an in-flight store forwards from that store, so the
    // store's execution is an additional producer.
    const uint64_t mem_key = effAddr >> 3;
    if (wants_forward) {
        const Seq forward = storeProducer.find(mem_key);
        if (forward != 0) {
            bool dup = false;
            for (unsigned p = 0; p < num_prods; ++p)
                dup |= prods[p] == forward;
            if (!dup) {
                MLPSIM_ASSERT(num_prods < maxProds,
                              "no producer slot left for the memory "
                              "dependence");
                prods[num_prods++] = forward;
            }
        }
    }
    if (entry.is(kStore) || atomic_mem) {
        storeProducer.put(mem_key, seq);
        entry.storeKey = mem_key + 1;
    }

    if (dstReg != noReg)
        regProducer[dstReg] = seq;

    // Producer registration: a producer whose value is already
    // available contributes nothing; every other producer gets this
    // entry on its consumer list and bumps the pending counters that
    // stand in for the old per-cycle ready-scan.
    for (unsigned p = 0; p < num_prods; ++p) {
        if (uint64_t(prods[p]) < headSeq)
            continue; // retired, value long since available
        RobEntry &producer = entryRef(prods[p]);
        if (producer.is(kIssued) && producer.completeCycle <= now)
            continue;
        entry.nextConsumer[p] = producer.consumerHead;
        producer.consumerHead = (Link(seq) << 2) | Link(p);
        ++entry.pendingProds;
        if (p < entry.numAddrProds)
            ++entry.pendingAddrProds;
    }

    // Issue-constraint bookkeeping (Table 2): config A keeps *all*
    // memory operations in order — prefetches included, unlike the
    // epoch engine's idealised treatment — and branches issue in order
    // for every supported config.
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp))
        memFifo.push(seq);
    if (entry.is(kBranch))
        branchFifo.push(seq);
    if (cfg.issue == IssueConfig::B && entry.is(kStore) &&
        entry.pendingAddrProds != 0)
        linkUnresolvedStoreTail(entry);
    if (entry.pendingProds == 0)
        pushCandidate(entry);
}

void
CycleSim::recordOffChip(uint64_t idx, uint64_t complete_cycle)
{
    outstanding.push(complete_cycle);
    if (idx >= cfg.warmupInsts)
        ++result.offChipAccesses;
}

void
CycleSim::drainCompletions()
{
    if (nextDue > now)
        return;
    // The FIFO-by-FIFO order is safe: see the file comment.
    uint64_t due = ~0ULL;
    for (unsigned f = 0; f < numFifos; ++f) {
        util::RingFifo<Completion> &fifo = completions[f];
        while (!fifo.empty() && fifo.front().cycle <= now) {
            const Seq seq = fifo.front().seq;
            fifo.pop();
            RobEntry &entry = entryRef(seq);
            // A completion always fires no later than the cycle its
            // entry could first retire, so the slot cannot have been
            // recycled.
            MLPSIM_ASSERT(entry.seq == seq,
                          "completion for a recycled slot");
            notifyConsumers(entry);
        }
        if (!fifo.empty())
            due = std::min(due, fifo.front().cycle);
    }
    nextDue = due;
}

void
CycleSim::notifyConsumers(RobEntry &producer)
{
    Link link = producer.consumerHead;
    producer.consumerHead = 0;
    while (link != 0) {
        RobEntry &consumer = entryRef(Seq(link >> 2));
        const unsigned slot = link & 3;
        link = consumer.nextConsumer[slot];
        consumer.nextConsumer[slot] = 0;
        --consumer.pendingProds;
        if (slot < consumer.numAddrProds &&
            --consumer.pendingAddrProds == 0 && consumer.is(kStore) &&
            cfg.issue == IssueConfig::B)
            resolveStore(consumer);
        if (consumer.pendingProds == 0)
            pushCandidate(consumer);
    }
}

void
CycleSim::resolveStore(RobEntry &store)
{
    const bool was_head = (usHead == store.seq);
    if (store.usPrev != 0)
        entryRef(store.usPrev).usNext = store.usNext;
    else
        usHead = store.usNext;
    if (store.usNext != 0)
        entryRef(store.usNext).usPrev = store.usPrev;
    else
        usTail = store.usPrev;
    store.usPrev = store.usNext = 0;
    // Only the oldest unresolved store gates config-B issue, so only
    // its resolution can unblock anyone.
    if (was_head)
        wakeBlockedOnStore();
}

void
CycleSim::wakeBlockedOnStore()
{
    for (const Seq seq : blockedOnStore) {
        RobEntry &entry = entryRef(seq);
        if (entry.seq != seq)
            continue; // retired, slot since reused
        entry.flags &= ~kBlockedStore;
        pushCandidate(entry);
    }
    blockedOnStore.clear();
}

bool
CycleSim::commitStage()
{
    bool any = false;
    for (unsigned n = 0; n < cfg.commitWidth && headSeq != tailSeq; ++n) {
        RobEntry &head = entryRef(Seq(headSeq));
        if (!head.is(kIssued) || head.completeCycle > now)
            break;
        if (head.dstReg != noReg && regProducer[head.dstReg] == head.seq)
            regProducer[head.dstReg] = 0;
        if (head.storeKey != 0)
            storeProducer.eraseMatching(head.storeKey - 1, head.seq);
        if (serializeBlockSeq == head.seq)
            serializeBlockSeq = 0;
        ++headSeq;
        ++committed;
        any = true;
        if (!measuring && committed >= cfg.warmupInsts) {
            measuring = true;
            measureStartCycle = now;
        }
    }
    return any;
}

void
CycleSim::issueEntry(RobEntry &entry)
{
    entry.flags |= kIssued;
    MLPSIM_ASSERT(iwOccupancy > 0, "issue window underflow");
    --iwOccupancy;

    const unsigned fifo = kindFifo[latencyKind(entry)];
    entry.completeCycle = now + fifoLatency[fifo];
    completions[fifo].push({entry.completeCycle, entry.seq});
    nextDue = std::min(nextDue, entry.completeCycle);

    const uint64_t idx = uint64_t(entry.seq) - 1;
    if (!cfg.perfectL2 && (entry.is(kDMiss) || entry.is(kUsefulPmiss)))
        recordOffChip(idx, now + cfg.offChipLatency);

    if (mispredBlockSeq == entry.seq) {
        // The blocking mispredicted branch now has a known resolution
        // time; convert the stall into a timed redirect.
        fetchResumeCycle =
            std::max(fetchResumeCycle,
                     entry.completeCycle + cfg.branchRedirectPenalty);
        mispredBlockSeq = 0;
    }

    // Advancing an in-order queue is itself a wake event: the next
    // queue head may have been dropped from the pool waiting for it.
    if (cfg.issue == IssueConfig::A && entry.is(kMemOp)) {
        memFifo.pop();
        if (!memFifo.empty())
            pushCandidate(entryRef(memFifo.front()));
    }
    if (entry.is(kBranch)) {
        branchFifo.pop();
        if (!branchFifo.empty())
            pushCandidate(entryRef(branchFifo.front()));
    }
}

bool
CycleSim::issueStage()
{
    // Drain ready candidates oldest-first. Each pop either issues
    // (counted against the issue width) or parks the entry on the wake
    // event that can next change its eligibility: operand completion,
    // an in-order FIFO advance, or the oldest unresolved store
    // resolving. Width exhaustion leaves the rest pooled for the next
    // cycle, which the old scan expressed by re-walking them. The
    // constraint predicates below reproduce the scan's "seen earlier
    // unissued/unresolved" flags: a flag was raised exactly when an
    // older entry of the guarded class had not issued by this cycle.
    bool any = false;
    unsigned issued_now = 0;
    while (issued_now < cfg.issueWidth && !candidatesEmpty()) {
        RobEntry &entry = entryRef(popCandidate());
        entry.flags &= ~kInCand;
        if (entry.is(kIssued))
            continue;
        if (entry.pendingProds != 0)
            continue; // woken by a queue advance ahead of its operands
        if (cfg.issue == IssueConfig::A && entry.is(kMemOp) &&
            memFifo.front() != entry.seq)
            continue; // an older memory op has not issued
        if (entry.is(kBranch) && branchFifo.front() != entry.seq)
            continue; // an older branch has not issued
        if (cfg.issue == IssueConfig::B && entry.is(kLoadLike) &&
            usHead != 0 && uint64_t(usHead) < entry.seq) {
            entry.flags |= kBlockedStore;
            blockedOnStore.push_back(entry.seq);
            continue; // an older store's address is unresolved
        }
        issueEntry(entry);
        ++issued_now;
        any = true;
    }
    return any;
}

bool
CycleSim::dispatchStage()
{
    bool any = false;
    for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
        if (nextDispatchIdx >= nextFetchIdx)
            break;
        if (serializeBlockSeq != 0)
            break; // draining behind a serializing instruction
        if (robOccupancy() >= cfg.robSize ||
            iwOccupancy >= cfg.issueWindowSize) {
            break;
        }
        const trace::TraceChunk &ck = dispatchCur.at(nextDispatchIdx);
        if (ck.isSerializing(uint32_t(nextDispatchIdx - ck.base))) {
            // Straightforward drain: dispatch only into an empty ROB
            // and block younger dispatch until it commits.
            if (robOccupancy() != 0)
                break;
            if (robOccupancy() == ring.size())
                growRing();
            makeEntry(nextDispatchIdx);
            serializeBlockSeq = tailSeq;
            ++tailSeq;
            ++iwOccupancy;
            ++nextDispatchIdx;
            any = true;
            break;
        }
        if (robOccupancy() == ring.size())
            growRing();
        makeEntry(nextDispatchIdx);
        ++tailSeq;
        ++iwOccupancy;
        ++nextDispatchIdx;
        any = true;
    }
    // Everything below the dispatch point is dead to this pipeline:
    // the stream-backed window may drop those chunks.
    if (any)
        window.releaseBefore(nextDispatchIdx);
    return any;
}

bool
CycleSim::fetchStage()
{
    if (now < fetchResumeCycle || mispredBlockSeq != 0)
        return false;

    bool any = false;
    const uint64_t trace_size = wl.size();
    for (unsigned n = 0; n < cfg.fetchWidth; ++n) {
        if (nextFetchIdx >= trace_size ||
            nextFetchIdx - nextDispatchIdx >= cfg.fetchBufferSize) {
            break;
        }
        const uint64_t idx = nextFetchIdx;
        if (wl.misses->fetchMiss(idx) && !imissHandled) {
            imissHandled = true;
            const unsigned latency =
                cfg.perfectL2 ? cfg.l2Latency : cfg.offChipLatency;
            fetchResumeCycle = now + latency;
            if (!cfg.perfectL2)
                recordOffChip(idx, now + cfg.offChipLatency);
            any = true;
            break;
        }
        imissHandled = false;
        ++nextFetchIdx;
        any = true;

        const trace::TraceChunk &ck = fetchCur.at(idx);
        if (ck.isBranch(uint32_t(idx - ck.base)) &&
            wl.branches->isMispredict(idx)) {
            // Trace-driven wrong path: fetch stalls until the branch
            // resolves (wrong-path work would be useless anyway and
            // must not contribute to MLP).
            mispredBlockSeq = idx + 1;
            break;
        }
    }
    return any;
}

uint64_t
CycleSim::nextEventCycle() const
{
    // Only a completion or the end of a fetch stall can make an idle
    // pipeline busy again; off-chip completions (for prefetches past
    // their one-cycle issue) change nothing but the MLP count, which
    // accumulateMlp() integrates across the skipped span.
    uint64_t next = nextDue;
    if (fetchResumeCycle > now)
        next = std::min(next, fetchResumeCycle);
    return next;
}

void
CycleSim::accumulateMlp(uint64_t from_cycle, uint64_t to_cycle)
{
    while (from_cycle < to_cycle) {
        while (!outstanding.empty() && outstanding.front() <= from_cycle)
            outstanding.pop();
        if (outstanding.empty())
            return;
        const uint64_t seg_end =
            std::min<uint64_t>(to_cycle, outstanding.front());
        if (measuring) {
            result.mlpSum +=
                double(outstanding.size()) * double(seg_end - from_cycle);
            result.mlpCycles += seg_end - from_cycle;
        }
        from_cycle = seg_end;
    }
}

CycleSimResult
CycleSim::run()
{
    const uint64_t trace_size = wl.size();
    result = CycleSimResult{};
    if (cfg.warmupInsts == 0) {
        measuring = true;
        measureStartCycle = 0;
    }

    // Livelock guard: generous upper bound on total simulated cycles,
    // computed with saturating arithmetic so a large --insts x large
    // --mp sweep cannot overflow it into a spurious (or absent) trip.
    uint64_t guard = uint64_t(cfg.offChipLatency) + 64;
    if (__builtin_mul_overflow(guard, trace_size, &guard) ||
        __builtin_add_overflow(guard, uint64_t(10'000'000), &guard))
        guard = ~uint64_t(0);

    // Cancellation poll cadence: every ~64K simulated cycles. Cheap
    // against the per-cycle work in between, frequent enough that a
    // deadline lands within a fraction of a second of wall time.
    uint64_t next_poll = now + 65536;

    while (committed < trace_size) {
        if (now >= next_poll) {
            pollCancellation();
            next_poll = now + 65536;
        }
        // Deliver every value due by this cycle before any stage looks
        // at readiness: a completion always lands no later than the
        // first cycle its entry could retire, so consumer links are
        // walked strictly before their slots can be recycled.
        drainCompletions();

        bool work = false;
        work |= commitStage();
        work |= issueStage();
        work |= dispatchStage();
        work |= fetchStage();

        uint64_t next = now + 1;
        if (!work) {
            const uint64_t event = nextEventCycle();
            if (event == ~0ULL)
                panic("cycle sim deadlock at cycle ", now, ", committed ",
                      committed, " of ", trace_size);
            next = std::max(next, event);
        }

        accumulateMlp(now, next);
        if (guard < next - now)
            panic("cycle sim livelock at cycle ", now);
        guard -= next - now;
        now = next;
    }

    result.cycles = measuring ? now - measureStartCycle : 0;
    // Guarded like epoch_engine.cc / inorder_model.cc: a warm-up at or
    // past the end of the trace measures nothing (instead of wrapping
    // to ~2^64 and poisoning CPI).
    result.instructions =
        committed > cfg.warmupInsts ? committed - cfg.warmupInsts : 0;

    if (metrics::enabled()) {
        auto &m = metrics::cur();
        m.add(metrics::scopedPath("cyclesim/runs"));
        m.add(metrics::scopedPath("cyclesim/cycles"), result.cycles);
        m.add(metrics::scopedPath("cyclesim/instructions"),
              result.instructions);
        m.add(metrics::scopedPath("cyclesim/offchip_accesses"),
              result.offChipAccesses);
        m.add(metrics::scopedPath("cyclesim/mlp_cycles"),
              result.mlpCycles);
        m.set(metrics::scopedPath("cyclesim/cpi"), result.cpi());
        m.set(metrics::scopedPath("cyclesim/mlp"), result.mlp());
    }
    return result;
}

} // namespace mlpsim::cyclesim
