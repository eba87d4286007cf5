/**
 * @file
 * Shared cache of prepared (generated + annotated) workload traces.
 *
 * Trace generation and annotation dominate a cold sweep cell: every
 * config simulated over the same (workload, seed, warmup, budget)
 * tuple replays the *same* annotated trace, and consecutive requests
 * in a duplicate-heavy stream replay it again. The daemon therefore
 * prepares each distinct tuple once and hands out shared_ptrs to an
 * immutable PreparedTrace that concurrent sweep jobs read without
 * locking.
 *
 * One tier: an in-memory LRU of fully prepared traces (buffer +
 * annotations), bounded by a trace count (traces are the daemon's
 * dominant memory consumer; the default of 4 covers the three
 * commercial workloads plus one odd seed). An evicted trace is
 * regenerated from its seed on its next use: every workload is a
 * deterministic function of (workload, seed), and regenerating a
 * trace costs a fraction of writing it to disk and reading it back,
 * so nothing is persisted.
 *
 * Everything is keyed by the canonical trace-key JSON (full string,
 * collision-proof).
 */
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/mlpsim.hh"
#include "core/trace_pipeline.hh"
#include "trace/stream_source.hh"
#include "trace/trace_buffer.hh"
#include "util/status.hh"

namespace mlpsim::service {

/**
 * An immutable prepared trace, shared read-only across sweep jobs, in
 * one of two modes (mirroring bench::PreparedWorkload):
 *
 *  - materialised (default): `buffer` + `annotated`;
 *  - streamed (stream_chunk != 0): `source` regenerates the trace on
 *    demand, `streamed` holds its annotations — the daemon's resident
 *    set stops scaling with the instruction budget, and batch cells
 *    share stream generations (see Daemon::handleBatch).
 */
struct PreparedTrace
{
    // unique_ptrs for address stability: AnnotatedTrace borrows the
    // buffer, and shared_ptr owners may move the struct's container.
    std::unique_ptr<trace::TraceBuffer> buffer;
    std::unique_ptr<core::AnnotatedTrace> annotated;
    std::unique_ptr<trace::GeneratedChunkSource> source;
    std::unique_ptr<core::StreamingTrace> streamed;

    core::WorkloadContext context() const
    {
        return annotated ? annotated->context() : streamed->context();
    }
};

class TraceCache
{
  public:
    /**
     * @param capacity  in-memory LRU entry cap (≥ 1).
     * @param stream_chunk non-zero: prepare traces in streamed mode
     *        with this chunk capacity instead of materialising them.
     */
    explicit TraceCache(size_t capacity = 4, uint32_t stream_chunk = 0);

    /** The preparation identity (what the cache is keyed on). */
    struct Key
    {
        std::string workload;
        uint64_t seed = 0;
        uint64_t warmup = 0;
        uint64_t insts = 0; //!< measured instructions (total = +warmup)

        /** Canonical JSON string form (map key; hash input). */
        std::string canonical() const;
    };

    /**
     * Return the prepared trace for @p key, preparing it on miss.
     * Fails only when the workload cannot be generated or annotated.
     */
    Expected<std::shared_ptr<const PreparedTrace>> get(const Key &key);

    struct Stats
    {
        uint64_t memoryHits = 0;
        uint64_t builds = 0; //!< generated from the workload model
    };

    Stats stats() const;

  private:
    mutable std::mutex mutex;
    size_t capacityLimit;
    uint32_t streamChunk; //!< 0 = materialise

    /** LRU: most recently used at the front. */
    std::list<std::pair<std::string,
                        std::shared_ptr<const PreparedTrace>>> entries;
    std::unordered_map<std::string, decltype(entries)::iterator> index;

    Stats counters;
};

} // namespace mlpsim::service
