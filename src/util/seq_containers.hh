/**
 * @file
 * Sequence-number containers shared by the event-driven simulators.
 *
 * Both the epoch engine (DESIGN.md section 12) and the cycle-accurate
 * reference pipeline (section 14) track in-flight instructions by a
 * 32-bit sequence number (trace index + 1, 0 = null) and need the same
 * two hot-path structures: an in-order FIFO of seqs for the Table 2
 * issue constraints (config-A memory ops, in-order branches) and a
 * map from store line key to the newest in-flight store writing it.
 * They were born inside EpochEngine during the PR 4 overhaul and are
 * hoisted here so CycleSim's scheduler can use the identical,
 * already-golden-tested code instead of a copy.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mlpsim::util {

/** Sequence number: trace index + 1; 0 is the null link. */
using Seq = uint32_t;

/**
 * Power-of-two ring FIFO over a vector; push grows by doubling, so a
 * reset() capacity is a hint, not a limit. The head/tail counters
 * wrap modulo 2^32, which the power-of-two capacity divides.
 */
template <typename T>
class RingFifo
{
  public:
    void
    reset(size_t min_capacity)
    {
        buf.assign(std::bit_ceil(std::max<size_t>(min_capacity, 16)), T{});
        head = tail = 0;
    }

    bool empty() const { return head == tail; }
    size_t size() const { return tail - head; }
    const T &front() const { return buf[head & (buf.size() - 1)]; }
    void pop() { ++head; }

    void
    push(const T &v)
    {
        if (tail - head == buf.size()) {
            std::vector<T> next(buf.size() * 2);
            for (uint32_t i = head; i != tail; ++i)
                next[i & (next.size() - 1)] = buf[i & (buf.size() - 1)];
            buf.swap(next);
        }
        buf[tail & (buf.size() - 1)] = v;
        ++tail;
    }

  private:
    std::vector<T> buf;
    uint32_t head = 0;
    uint32_t tail = 0;
};

/** In-order queue of sequence numbers (config-A memory ops, in-order
 *  branches). */
using SeqFifo = RingFifo<Seq>;

/**
 * Open-addressing map from store line key to the seq of the newest
 * in-flight store to that line (replaces std::unordered_map on the
 * dispatch/retire hot path). Linear probing with backward-shift
 * deletion; clear() is O(1) by bumping the generation stamp, so a
 * stale slot reads as empty without touching memory.
 */
class StoreMap
{
  public:
    void
    reset(size_t min_capacity)
    {
        const size_t cap = std::bit_ceil(std::max<size_t>(min_capacity, 64));
        slots.assign(cap, Slot{});
        mask = cap - 1;
        live = 0;
        gen = 1;
    }

    void clear() { ++gen; live = 0; }

    /** Seq of the newest in-flight store to @p key (0 if none). */
    Seq
    find(uint64_t key) const
    {
        for (size_t i = probe(key); occupied(slots[i]);
             i = (i + 1) & mask) {
            if (slots[i].key == key)
                return slots[i].seq;
        }
        return 0;
    }

    /** Insert, or overwrite the previous store to the same key. */
    void
    put(uint64_t key, Seq seq)
    {
        // Keep the load factor under 1/2 so probe chains stay short and
        // the scans below always hit an empty slot.
        if ((live + 1) * 2 > slots.size())
            grow();
        size_t i = probe(key);
        while (occupied(slots[i])) {
            if (slots[i].key == key) {
                slots[i].seq = seq;
                return;
            }
            i = (i + 1) & mask;
        }
        slots[i] = Slot{key, seq, gen};
        ++live;
    }

    /** Erase @p key only if it still maps to @p seq. */
    void
    eraseMatching(uint64_t key, Seq seq)
    {
        size_t i = probe(key);
        while (occupied(slots[i])) {
            if (slots[i].key == key) {
                if (slots[i].seq != seq)
                    return;
                // Backward-shift deletion: pull every displaced entry
                // of the probe chain one hole closer to its home slot,
                // so a later find() never stops early at the hole.
                size_t hole = i;
                size_t j = i;
                while (true) {
                    j = (j + 1) & mask;
                    if (!occupied(slots[j]))
                        break;
                    const size_t home = probe(slots[j].key);
                    if (((j - home) & mask) >= ((j - hole) & mask)) {
                        slots[hole] = slots[j];
                        hole = j;
                    }
                }
                slots[hole] = Slot{};
                --live;
                return;
            }
            i = (i + 1) & mask;
        }
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        Seq seq = 0;   //!< 0 = empty
        uint32_t gen = 0;
    };

    bool occupied(const Slot &s) const
    {
        return s.seq != 0 && s.gen == gen;
    }

    size_t probe(uint64_t key) const
    {
        // Multiply-shift (Fibonacci) hash; low bits after the mix.
        return size_t(key * 0x9E3779B97F4A7C15ull >> 32) & mask;
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots);
        const uint32_t old_gen = gen;
        slots.assign(std::max<size_t>(old.size() * 2, 64), Slot{});
        mask = slots.size() - 1;
        live = 0;
        gen = 1;
        for (const Slot &s : old) {
            if (s.seq != 0 && s.gen == old_gen)
                put(s.key, s.seq);
        }
    }

    std::vector<Slot> slots;
    size_t mask = 0;
    size_t live = 0;
    uint32_t gen = 1;
};

} // namespace mlpsim::util
