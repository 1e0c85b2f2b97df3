#include "regmutex/allocator.hh"

#include <algorithm>
#include <sstream>

#include "common/errors.hh"
#include "sim/occupancy.hh"
#include "sim/snapshot.hh"
#include "sim/warp_store.hh"

namespace rm {

namespace {

void
flipBitZero(Bitmask &mask)
{
    if (mask.test(0))
        mask.unset(0);
    else
        mask.set(0);
}

} // namespace

void
RegMutexAllocator::prepare(const GpuConfig &config, const Program &program)
{
    enabled = program.regmutex.enabled();
    totalPacks = config.registersPerSm / config.warpSize;
    freed = false;
    shrunk = 0;
    pendingShrink = 0;

    if (!enabled) {
        // Zero-sized extended set: behave exactly like the baseline.
        fallbackCoeff = roundRegs(config, program.info.numRegs);
        const Occupancy occ = computeOccupancy(
            config, fallbackCoeff, program.info.ctaThreads,
            program.info.sharedBytesPerCta);
        maxCtas = occ.ctasPerSm;
        bs = fallbackCoeff;
        es = 0;
        sections = 0;
        return;
    }

    bs = program.regmutex.baseRegs;
    es = program.regmutex.extRegs;

    // Occupancy with the base set only, then carve the SRP out of the
    // remaining registers, keeping at least one section (deadlock rule).
    Occupancy occ = computeOccupancy(config, bs, program.info.ctaThreads,
                                     program.info.sharedBytesPerCta);
    int ctas = occ.ctasPerSm;
    const int warps_per_cta = config.warpsPerCta(program.info.ctaThreads);
    sections = 0;
    while (ctas > 0) {
        const int base_used = ctas * program.info.ctaThreads * bs;
        sections = std::min(config.maxWarpsPerSm,
                            (config.registersPerSm - base_used) /
                                (es * config.warpSize));
        if (sections >= 1)
            break;
        --ctas;
    }
    fatalIf(ctas <= 0,
            "RegMutexAllocator: kernel '", program.info.name,
            "' cannot fit one CTA plus one SRP section");
    maxCtas = ctas;
    residentWarpCap = ctas * warps_per_cta;
    srpOffsetPacks = residentWarpCap * bs;

    // Hardware structures (paper Fig. 4): SRP bitmask bits that do not
    // correspond to an SRP section are pre-set and stay set.
    srp = Bitmask(config.maxWarpsPerSm);
    for (int s = sections; s < config.maxWarpsPerSm; ++s)
        srp.set(s);
    warpStatus = Bitmask(config.maxWarpsPerSm);
    lut.assign(config.maxWarpsPerSm, -1);
}

AcquireOutcome
RegMutexAllocator::acquire(SimWarp &warp)
{
    if (!enabled)
        return AcquireOutcome::NotNeeded;
    if (warp.holdsExt)
        return AcquireOutcome::AlreadyHeld;

    // FFZ over the SRP bitmask (paper Fig. 5a).
    const auto section = srp.ffz();
    if (!section)
        return AcquireOutcome::Blocked;

    srp.set(*section);
    warpStatus.set(warp.slot);
    lut[warp.slot] = static_cast<int>(*section);
    warp.holdsExt = true;
    warp.srpSection = static_cast<int>(*section);
    return AcquireOutcome::Acquired;
}

void
RegMutexAllocator::release(SimWarp &warp)
{
    if (!enabled || !warp.holdsExt)
        return;  // redundant release: no effect (paper Sec. III)
    const std::size_t section = static_cast<std::size_t>(lut[warp.slot]);
    srp.unset(section);
    warpStatus.unset(warp.slot);
    lut[warp.slot] = -1;
    warp.holdsExt = false;
    warp.srpSection = -1;
    if (pendingShrink > 0) {
        // A deferred fault-injected revocation claims the section the
        // moment it frees: nothing is released to waiters.
        srp.set(section);
        --pendingShrink;
        ++shrunk;
        return;
    }
    freed = true;
}

int
RegMutexAllocator::faultShrinkCapacity(int amount)
{
    if (!enabled || amount <= 0)
        return 0;
    const int revocable = sections - shrunk - pendingShrink;
    const int target = std::min(amount, revocable);
    int reserved = 0;
    // Free sections are revoked on the spot (their bitmask bit is
    // pre-set like the beyond-capacity bits)...
    for (int s = sections - 1; s >= 0 && reserved < target; --s) {
        const std::size_t bit = static_cast<std::size_t>(s);
        if (!srp.test(bit)) {
            srp.set(bit);
            ++shrunk;
            ++reserved;
        }
    }
    // ...held sections are revoked as their holders release.
    pendingShrink += target - reserved;
    return target;
}

void
RegMutexAllocator::onWarpExit(SimWarp &warp)
{
    release(warp);
}

bool
RegMutexAllocator::consumeFreedFlag()
{
    const bool f = freed;
    freed = false;
    return f;
}

RegisterMapper
RegMutexAllocator::makeMapper() const
{
    if (!enabled)
        return RegisterMapper::baseline(totalPacks, fallbackCoeff);
    return RegisterMapper::regmutex(totalPacks, bs, es, srpOffsetPacks,
                                    sections);
}

int
RegMutexAllocator::lutEntry(int slot) const
{
    panicIf(slot < 0 || slot >= static_cast<int>(lut.size()),
            "RegMutexAllocator::lutEntry: slot out of range");
    return lut[slot];
}

bool
RegMutexAllocator::faultCorruptState()
{
    if (!enabled || sections <= 0)
        return false;
    flipBitZero(srp);
    return true;
}

void
RegMutexAllocator::saveState(SnapshotWriter &w) const
{
    // Static configuration (enabled/bs/es/sections/...) is recomputed
    // by prepare() on restore; only mutable state is serialized.
    w.bitmask(srp);
    w.bitmask(warpStatus);
    w.u32(static_cast<std::uint32_t>(lut.size()));
    for (const int entry : lut)
        w.i32(entry);
    w.boolean(freed);
    w.i32(shrunk);
    w.i32(pendingShrink);
}

void
RegMutexAllocator::restoreState(SnapshotReader &r)
{
    // prepare() fixed the structure sizes and the section count; saved
    // state that disagrees is damage. Sections index the operand
    // mapping, so every saved one is range-checked before use.
    const auto require = [](bool ok, const char *what) {
        if (!ok)
            throw SnapshotError(std::string("snapshot: regmutex ") + what);
    };
    const std::size_t slots = lut.size();
    srp = r.bitmask();
    warpStatus = r.bitmask();
    require(srp.size() == slots && warpStatus.size() == slots,
            "bitmask size mismatch");
    for (std::size_t s = static_cast<std::size_t>(sections); s < slots; ++s)
        require(srp.test(s), "beyond-capacity SRP bit is clear");
    require(r.u32() == slots, "LUT size mismatch");
    for (int &section : lut) {
        section = r.i32();
        require(section >= -1 && section < sections,
                "LUT section out of range");
    }
    freed = r.boolean();
    shrunk = r.i32();
    pendingShrink = r.i32();
    require(shrunk >= 0 && pendingShrink >= 0 &&
                shrunk + pendingShrink <= sections,
            "revoked-section counts out of range");
}

void
RegMutexAllocator::auditInvariants(const WarpStore &warps,
                                   bool faults_active,
                                   std::vector<std::string> &violations) const
{
    if (!enabled)
        return;

    const auto fail = [&](const std::string &line) {
        violations.push_back("regmutex: " + line);
    };

    // Bits beyond the section count are hardware-pre-set and must stay.
    for (std::size_t s = static_cast<std::size_t>(sections);
         s < srp.size(); ++s) {
        if (!srp.test(s)) {
            fail("beyond-capacity SRP bit " + std::to_string(s) +
                 " is clear");
        }
    }

    // Per-warp ownership vs. the hardware structures (Fig. 4): the
    // warp-status bit, the LUT entry and the SRP bit must agree, and
    // no SRP section may appear in two LUT entries.
    std::vector<int> section_owner(static_cast<std::size_t>(sections), -1);
    int held_warps = 0;
    for (int i = 0; i < warps.numSlots(); ++i) {
        const SimWarp &warp = warps.warp(i);
        const std::size_t slot = static_cast<std::size_t>(i);
        if (slot >= lut.size())
            continue;
        if (warps.resident(i) && warp.holdsExt) {
            ++held_warps;
            const int section = lut[slot];
            if (!warpStatus.test(slot)) {
                fail("warp " + std::to_string(i) +
                     " holds an extended set but its status bit is clear");
            }
            if (section < 0 || section >= sections) {
                fail("warp " + std::to_string(i) +
                     " holds an extended set but LUT entry is " +
                     std::to_string(section));
                continue;
            }
            if (warp.srpSection != section) {
                fail("warp " + std::to_string(i) +
                     " srpSection " + std::to_string(warp.srpSection) +
                     " disagrees with LUT entry " + std::to_string(section));
            }
            if (!srp.test(static_cast<std::size_t>(section))) {
                fail("section " + std::to_string(section) + " held by warp " +
                     std::to_string(i) + " but its SRP bit is clear");
            }
            const int other = section_owner[static_cast<std::size_t>(section)];
            if (other >= 0) {
                fail("section " + std::to_string(section) +
                     " has two holders: warps " + std::to_string(other) +
                     " and " + std::to_string(i));
            }
            section_owner[static_cast<std::size_t>(section)] = i;
        } else {
            if (warpStatus.test(slot)) {
                fail("warp " + std::to_string(i) +
                     " holds no extended set but its status bit is set");
            }
            if (lut[slot] != -1) {
                fail("warp " + std::to_string(i) +
                     " holds no extended set but LUT entry is " +
                     std::to_string(lut[slot]));
            }
        }
    }

    // Conservation: every busy SRP bit is either held by exactly one
    // warp or permanently revoked by a shrink fault. Never gated on
    // faults — an injected corruption must be caught here.
    int busy = 0;
    for (int s = 0; s < sections; ++s) {
        if (srp.test(static_cast<std::size_t>(s)))
            ++busy;
    }
    if (static_cast<int>(warpStatus.count()) != held_warps) {
        fail("warp-status population " + std::to_string(warpStatus.count()) +
             " != warps holding extended sets " + std::to_string(held_warps));
    }
    if (busy != held_warps + shrunk) {
        std::ostringstream os;
        os << "SRP conservation: " << busy << " busy sections != "
           << held_warps << " held + " << shrunk << " revoked (capacity "
           << sections << ", pending revocations " << pendingShrink << ")";
        fail(os.str());
    }
    if (shrunk < 0 || pendingShrink < 0 || shrunk + pendingShrink > sections)
        fail("shrink accounting out of range");

    // Liveness: a warp parked in WaitAcquire while a section sits free
    // is a missed wake-up. Fault plans may legitimately strand waiters
    // (revoked capacity), so this one is gated.
    if (!faults_active) {
        const int free_sections = sections - held_warps - shrunk;
        if (free_sections > 0) {
            for (int i = 0; i < warps.numSlots(); ++i) {
                if (warps.resident(i) &&
                    warps.state(i) == WarpState::WaitAcquire) {
                    fail("warp " + std::to_string(i) +
                         " waits on acquire while " +
                         std::to_string(free_sections) +
                         " sections are free");
                }
            }
        }
    }
}

void
PairedRegMutexAllocator::prepare(const GpuConfig &config,
                                 const Program &program)
{
    enabled = program.regmutex.enabled();
    totalPacks = config.registersPerSm / config.warpSize;
    freed = false;

    if (!enabled) {
        fallbackCoeff = roundRegs(config, program.info.numRegs);
        const Occupancy occ = computeOccupancy(
            config, fallbackCoeff, program.info.ctaThreads,
            program.info.sharedBytesPerCta);
        maxCtas = occ.ctasPerSm;
        bs = fallbackCoeff;
        es = 0;
        return;
    }

    bs = program.regmutex.baseRegs;
    es = program.regmutex.extRegs;

    // Each pair of warps owns 2|Bs| + |Es| per-thread registers.
    const int warps_per_cta = config.warpsPerCta(program.info.ctaThreads);
    const Occupancy other = computeOccupancy(
        config, 0, program.info.ctaThreads,
        program.info.sharedBytesPerCta);
    int ctas = other.ctasPerSm;
    while (ctas > 0) {
        const int warps = ctas * warps_per_cta;
        const int used_pairs = (warps + 1) / 2;
        const int regs = (warps * bs + used_pairs * es) * config.warpSize;
        if (regs <= config.registersPerSm)
            break;
        --ctas;
    }
    fatalIf(ctas <= 0,
            "PairedRegMutexAllocator: kernel '", program.info.name,
            "' cannot fit one CTA");
    maxCtas = ctas;
    residentWarpCap = ctas * warps_per_cta;
    pairs = (residentWarpCap + 1) / 2;
    srpOffsetPacks = residentWarpCap * bs;
    pairHeld = Bitmask(config.maxWarpsPerSm / 2);
}

AcquireOutcome
PairedRegMutexAllocator::acquire(SimWarp &warp)
{
    if (!enabled)
        return AcquireOutcome::NotNeeded;
    if (warp.holdsExt)
        return AcquireOutcome::AlreadyHeld;

    const std::size_t pair = static_cast<std::size_t>(warp.slot) / 2;
    if (pairHeld.test(pair))
        return AcquireOutcome::Blocked;  // the partner holds the set

    pairHeld.set(pair);
    warp.holdsExt = true;
    warp.srpSection = static_cast<int>(pair);
    return AcquireOutcome::Acquired;
}

void
PairedRegMutexAllocator::release(SimWarp &warp)
{
    if (!enabled || !warp.holdsExt)
        return;
    pairHeld.unset(static_cast<std::size_t>(warp.slot) / 2);
    warp.holdsExt = false;
    warp.srpSection = -1;
    freed = true;
}

void
PairedRegMutexAllocator::onWarpExit(SimWarp &warp)
{
    release(warp);
}

bool
PairedRegMutexAllocator::consumeFreedFlag()
{
    const bool f = freed;
    freed = false;
    return f;
}

RegisterMapper
PairedRegMutexAllocator::makeMapper() const
{
    if (!enabled)
        return RegisterMapper::baseline(totalPacks, fallbackCoeff);
    return RegisterMapper::regmutex(totalPacks, bs, es, srpOffsetPacks,
                                    pairs);
}

bool
PairedRegMutexAllocator::faultCorruptState()
{
    if (!enabled || pairHeld.size() == 0)
        return false;
    flipBitZero(pairHeld);
    return true;
}

void
PairedRegMutexAllocator::saveState(SnapshotWriter &w) const
{
    w.bitmask(pairHeld);
    w.boolean(freed);
}

void
PairedRegMutexAllocator::restoreState(SnapshotReader &r)
{
    const std::size_t pairs_mask = pairHeld.size();
    pairHeld = r.bitmask();
    if (pairHeld.size() != pairs_mask)
        throw SnapshotError("snapshot: regmutex-paired mask size mismatch");
    freed = r.boolean();
}

void
PairedRegMutexAllocator::auditInvariants(
    const WarpStore &warps, bool faults_active,
    std::vector<std::string> &violations) const
{
    if (!enabled)
        return;

    const auto fail = [&](const std::string &line) {
        violations.push_back("regmutex-paired: " + line);
    };

    // Exactly one holder per held pair bit; holders agree with the mask.
    std::vector<int> pair_owner(pairHeld.size(), -1);
    int held_warps = 0;
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        const SimWarp &warp = warps.warp(slot);
        if (!warps.resident(slot) || !warp.holdsExt)
            continue;
        ++held_warps;
        const std::size_t pair = static_cast<std::size_t>(slot) / 2;
        if (pair >= pairHeld.size()) {
            fail("warp " + std::to_string(slot) +
                 " holds a set beyond the pair mask");
            continue;
        }
        if (warp.srpSection != static_cast<int>(pair)) {
            fail("warp " + std::to_string(slot) + " srpSection " +
                 std::to_string(warp.srpSection) + " != its pair " +
                 std::to_string(pair));
        }
        if (!pairHeld.test(pair)) {
            fail("warp " + std::to_string(slot) +
                 " holds pair " + std::to_string(pair) +
                 " but its bit is clear");
        }
        if (pair_owner[pair] >= 0) {
            fail("pair " + std::to_string(pair) + " has two holders: warps " +
                 std::to_string(pair_owner[pair]) + " and " +
                 std::to_string(slot));
        }
        pair_owner[pair] = slot;
    }

    // Conservation: the held-pair population must equal the number of
    // warps that believe they hold a set (never fault-gated).
    if (static_cast<int>(pairHeld.count()) != held_warps) {
        fail("pair-mask population " + std::to_string(pairHeld.count()) +
             " != warps holding extended sets " + std::to_string(held_warps));
    }

    // Liveness: a paired waiter is only legitimate while its partner
    // holds the shared set.
    if (!faults_active) {
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            if (!warps.resident(slot) ||
                warps.state(slot) != WarpState::WaitAcquire)
                continue;
            const std::size_t pair = static_cast<std::size_t>(slot) / 2;
            if (pair < pairHeld.size() && !pairHeld.test(pair)) {
                fail("warp " + std::to_string(slot) +
                     " waits on pair " + std::to_string(pair) +
                     " which nobody holds");
            }
        }
    }
}

} // namespace rm
