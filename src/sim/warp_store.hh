#ifndef RM_SIM_WARP_STORE_HH
#define RM_SIM_WARP_STORE_HH

/**
 * @file
 * Structure-of-arrays arena for the per-warp state the scheduler and
 * scoreboard touch every cycle. The earlier engine kept everything in
 * an array of SimWarp structs, each owning a heap `std::vector` of
 * register values and a heap-backed scoreboard Bitmask — so the per-
 * cycle candidate scan chased two pointers per warp. Here the hot
 * fields live in flat parallel arrays indexed by slot:
 *
 *   - state / pc / pendingMem: one contiguous array each, so
 *     per-slot walks touch cache lines, not objects;
 *   - the scoreboard: one u64 word per slot (the engine admits at most
 *     kEngineWordBits registers per thread, sim/config.hh), so a test
 *     is one load + mask, no Bitmask bounds machinery;
 *   - architected registers: one flat slab, slot-major with stride =
 *     program register count, handed to executeStep() as a raw pointer;
 *   - ready / issue-clean slot sets: one word each (at most
 *     kEngineWordBits slots), maintained incrementally by every
 *     mutator so the scheduler iterates set bits instead of sweeping.
 *
 * Cold identity and policy fields (CTA coordinates, SRP section, RFV
 * mapping mask, ...) stay in SimWarp (sim/warp.hh); the store owns
 * that array too so one object threads through the allocator and
 * sanitizer seams.
 */

#include <cstdint>
#include <vector>

#include "common/bitmask.hh"
#include "sim/warp.hh"

namespace rm {

/**
 * Per-instruction operand metadata for the O(1) issue check: the union
 * of destination and source scoreboard bits, and whether the opcode is
 * a global-memory access (subject to the per-warp pending-memory
 * limit). Built once per program by the Sm; indexed by pc.
 */
struct IssueCheckMeta
{
    std::uint64_t opMask = 0;  ///< dst + src scoreboard bits
    bool globalMem = false;    ///< latClass(op) == GlobalMem
};

class WarpStore
{
  public:
    /**
     * Size for @p slots warp slots (<= kEngineWordBits) of @p num_regs
     * registers each (<= kEngineWordBits), dropping all previous
     * contents. @p meta (indexed by pc, @p count entries) drives the
     * issue-clean mask and must outlive the store's current geometry;
     * @p max_pending is the per-warp global-memory limit.
     */
    void reset(int slots, int num_regs, const IssueCheckMeta *meta,
               std::size_t count, int max_pending);

    int numSlots() const { return numSlots_; }
    int regCount() const { return regCount_; }

    // --- Cold / policy fields ---
    SimWarp &warp(int slot) { return cold_[asIdx(slot)]; }
    const SimWarp &warp(int slot) const { return cold_[asIdx(slot)]; }

    // --- Scheduler-visible state ---
    WarpState state(int slot) const
    {
        return static_cast<WarpState>(state_[asIdx(slot)]);
    }
    void setState(int slot, WarpState s)
    {
        state_[asIdx(slot)] = static_cast<std::uint8_t>(s);
        const std::uint64_t bit = std::uint64_t{1} << slot;
        readyMask_ = s == WarpState::Ready ? (readyMask_ | bit)
                                           : (readyMask_ & ~bit);
    }
    bool resident(int slot) const
    {
        const WarpState s = state(slot);
        return s != WarpState::Unused && s != WarpState::Finished;
    }

    int pc(int slot) const { return pc_[asIdx(slot)]; }
    void setPc(int slot, int pc)
    {
        pc_[asIdx(slot)] = pc;
        recomputeClean(slot);
    }

    int pendingMem(int slot) const { return pendingMem_[asIdx(slot)]; }
    void setPendingMem(int slot, int n)
    {
        pendingMem_[asIdx(slot)] = n;
        recomputeClean(slot);
    }
    void addPendingMem(int slot, int delta)
    {
        pendingMem_[asIdx(slot)] += delta;
        recomputeClean(slot);
    }

    // --- Architected register slab ---
    std::int64_t *regs(int slot)
    {
        return regSlab_.data() + asIdx(slot) * regStride_;
    }
    const std::int64_t *regs(int slot) const
    {
        return regSlab_.data() + asIdx(slot) * regStride_;
    }
    void clearRegs(int slot)
    {
        std::int64_t *r = regs(slot);
        for (int i = 0; i < regCount_; ++i)
            r[i] = 0;
    }

    // --- Scoreboard (in-flight register writes) ---
    bool sbTest(int slot, RegId reg) const
    {
        return (sb_[asIdx(slot)] >> reg) & 1;
    }
    void sbSet(int slot, RegId reg)
    {
        sb_[asIdx(slot)] |= std::uint64_t{1} << reg;
        recomputeClean(slot);
    }
    void sbClear(int slot, RegId reg)
    {
        sb_[asIdx(slot)] &= ~(std::uint64_t{1} << reg);
        recomputeClean(slot);
    }
    void sbReset(int slot)
    {
        sb_[asIdx(slot)] = 0;
        recomputeClean(slot);
    }
    /** The slot's scoreboard as one word (bit r = register r has a
     *  write in flight); the issue check ANDs it against a
     *  per-instruction operand mask. */
    std::uint64_t sbWord(int slot) const { return sb_[asIdx(slot)]; }

    int sbCount(int slot) const
    {
        return __builtin_popcountll(sb_[asIdx(slot)]);
    }

    /** Scoreboard as a Bitmask (snapshot codec; never the hot path). */
    Bitmask sbToBitmask(int slot) const;
    void sbFromBitmask(int slot, const Bitmask &mask);

    // --- Incremental scheduler masks ---
    /** Slots in WarpState::Ready. */
    std::uint64_t readyMask() const { return readyMask_; }
    /** Slots passing the scoreboard + mem-structural issue checks at
     *  their current pc. */
    std::uint64_t issueCleanMask() const { return cleanMask_; }

  private:
    /** Re-derive slot's issue-clean bit from (pc, scoreboard,
     *  pendingMem) — the pure function the mask caches. */
    void recomputeClean(int slot)
    {
        const std::uint64_t bit = std::uint64_t{1} << slot;
        // Negative or past-the-end pc (an exited warp's resting state)
        // maps to "not clean"; such slots are never Ready anyway.
        const std::size_t pc = static_cast<std::size_t>(
            static_cast<std::uint32_t>(pc_[asIdx(slot)]));
        bool clean = pc < metaCount_;
        if (clean) {
            const IssueCheckMeta &m = meta_[pc];
            clean = (sb_[asIdx(slot)] & m.opMask) == 0 &&
                    !(m.globalMem &&
                      pendingMem_[asIdx(slot)] >= maxPendingMem_);
        }
        cleanMask_ = clean ? (cleanMask_ | bit) : (cleanMask_ & ~bit);
    }

    std::size_t asIdx(int slot) const
    {
        return static_cast<std::size_t>(slot);
    }

    int numSlots_ = 0;
    int regCount_ = 0;
    std::size_t regStride_ = 0;

    const IssueCheckMeta *meta_ = nullptr;
    std::size_t metaCount_ = 0;
    int maxPendingMem_ = 0;
    std::uint64_t readyMask_ = 0;
    std::uint64_t cleanMask_ = 0;

    std::vector<SimWarp> cold_;
    std::vector<std::uint8_t> state_;
    std::vector<std::int32_t> pc_;
    std::vector<std::int32_t> pendingMem_;
    std::vector<std::uint64_t> sb_;
    std::vector<std::int64_t> regSlab_;
};

} // namespace rm

#endif // RM_SIM_WARP_STORE_HH
