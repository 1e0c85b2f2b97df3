#include "sim/warp_store.hh"

#include "common/errors.hh"

namespace rm {

void
WarpStore::reset(int slots, int num_regs, const IssueCheckMeta *meta,
                 std::size_t count, int max_pending)
{
    fatalIf(slots <= 0, "WarpStore: ", slots, " warp slots");
    fatalIf(num_regs < 0, "WarpStore: ", num_regs, " registers");
    numSlots_ = slots;
    regCount_ = num_regs;
    regStride_ = static_cast<std::size_t>(num_regs);

    cold_.assign(static_cast<std::size_t>(slots), SimWarp());
    for (int slot = 0; slot < slots; ++slot)
        cold_[asIdx(slot)].slot = slot;
    state_.assign(static_cast<std::size_t>(slots),
                  static_cast<std::uint8_t>(WarpState::Unused));
    pc_.assign(static_cast<std::size_t>(slots), 0);
    pendingMem_.assign(static_cast<std::size_t>(slots), 0);
    sb_.assign(static_cast<std::size_t>(slots), 0);
    regSlab_.assign(static_cast<std::size_t>(slots) * regStride_, 0);

    meta_ = meta;
    metaCount_ = count;
    maxPendingMem_ = max_pending;
    readyMask_ = 0;
    cleanMask_ = 0;
    for (int slot = 0; slot < numSlots_; ++slot)
        recomputeClean(slot);
}

Bitmask
WarpStore::sbToBitmask(int slot) const
{
    Bitmask mask(static_cast<std::size_t>(regCount_));
    for (int reg = 0; reg < regCount_; ++reg) {
        if (sbTest(slot, static_cast<RegId>(reg)))
            mask.set(static_cast<std::size_t>(reg));
    }
    return mask;
}

void
WarpStore::sbFromBitmask(int slot, const Bitmask &mask)
{
    sbReset(slot);
    const std::size_t limit =
        mask.size() < static_cast<std::size_t>(regCount_)
            ? mask.size()
            : static_cast<std::size_t>(regCount_);
    for (std::size_t reg = 0; reg < limit; ++reg) {
        if (mask.test(reg))
            sbSet(slot, static_cast<RegId>(reg));
    }
}

} // namespace rm
