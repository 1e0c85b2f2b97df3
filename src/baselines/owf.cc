#include "baselines/owf.hh"

#include "common/errors.hh"
#include "sim/occupancy.hh"
#include "sim/snapshot.hh"
#include "sim/warp_store.hh"

namespace rm {

void
OwfAllocator::prepare(const GpuConfig &config, const Program &program)
{
    enabled = program.regmutex.enabled();
    freed = false;
    locksTaken = 0;
    emergencies = 0;
    halfWarps = config.maxWarpsPerSm / 2;
    holder.assign(halfWarps, -1);
    spillPenalty = config.globalLatency;

    if (!enabled) {
        // No shared layout: behave like the baseline.
        const Occupancy occ = computeOccupancy(
            config, roundRegs(config, program.info.numRegs),
            program.info.ctaThreads, program.info.sharedBytesPerCta);
        maxCtas = occ.ctasPerSm;
        thresh = program.info.numRegs;
        return;
    }

    for (const auto &inst : program.code) {
        fatalIf(inst.op == Opcode::RegAcquire ||
                inst.op == Opcode::RegRelease,
                "OwfAllocator: strip RegMutex directives before "
                "running OWF");
    }

    thresh = program.regmutex.baseRegs;
    const int total = program.info.numRegs;  // |Bs| + |Es| (padded)

    // Cross-half pairing keeps partners in different CTAs only while
    // a CTA cannot span both slot halves.
    fatalIf(config.warpsPerCta(program.info.ctaThreads) > halfWarps,
            "OwfAllocator: CTAs of more than ", halfWarps,
            " warps would pair a CTA with itself");

    // Each pair of warps reserves 2*T + (total - T) registers per
    // thread-pair: private lower sets plus one shared upper set.
    const int warps_per_cta = config.warpsPerCta(program.info.ctaThreads);
    const Occupancy other = computeOccupancy(
        config, 0, program.info.ctaThreads,
        program.info.sharedBytesPerCta);
    int ctas = other.ctasPerSm;
    while (ctas > 0) {
        const int warps = ctas * warps_per_cta;
        const int used_pairs = (warps + 1) / 2;
        const int regs =
            (warps * thresh + used_pairs * (total - thresh)) *
            config.warpSize;
        if (regs <= config.registersPerSm)
            break;
        --ctas;
    }
    fatalIf(ctas <= 0, "OwfAllocator: kernel '", program.info.name,
            "' cannot fit one CTA");

    // Sharing exists to admit extra thread blocks (Jatala Sec. 3): if
    // the pair footprint does not fit meaningfully more warps than the
    // baseline's full allocation (>= 25% here), no pairs are formed
    // and warps run with exclusive registers.
    const Occupancy baseline = computeOccupancy(
        config, roundRegs(config, total), program.info.ctaThreads,
        program.info.sharedBytesPerCta);
    if (4 * ctas < 5 * baseline.ctasPerSm) {
        enabled = false;
        maxCtas = baseline.ctasPerSm;
        thresh = total;
        return;
    }
    maxCtas = ctas;
}

bool
OwfAllocator::referencesShared(const Instruction &inst) const
{
    if (inst.hasDst() && inst.dst >= thresh)
        return true;
    for (int s = 0; s < inst.numSrcs; ++s) {
        if (inst.srcs[s] >= thresh)
            return true;
    }
    return false;
}

bool
OwfAllocator::canIssue(const SimWarp &warp, const Instruction &inst) const
{
    if (!enabled || warp.ownsLock || !referencesShared(inst))
        return true;
    const int owner = holder[pairOf(warp.slot)];
    return owner < 0 || owner == warp.slot;
}

void
OwfAllocator::onIssued(SimWarp &warp, const Instruction &inst, int pc)
{
    (void)pc;
    if (!enabled || warp.ownsLock || !referencesShared(inst))
        return;
    // First shared-register access acquires the pair lock for the
    // warp's whole lifetime (one-time acquire, no in-kernel release).
    const int pair = pairOf(warp.slot);
    panicIf(holder[pair] >= 0 && holder[pair] != warp.slot,
            "OwfAllocator: issue slipped past a held pair lock");
    holder[pair] = warp.slot;
    warp.ownsLock = true;
    ++locksTaken;
}

void
OwfAllocator::onWarpExit(SimWarp &warp)
{
    if (!enabled || !warp.ownsLock)
        return;
    const int pair = pairOf(warp.slot);
    if (holder[pair] == warp.slot)
        holder[pair] = -1;
    warp.ownsLock = false;
    freed = true;  // the partner may proceed
}

bool
OwfAllocator::consumeFreedFlag()
{
    const bool f = freed;
    freed = false;
    return f;
}

int
OwfAllocator::schedPriority(const SimWarp &warp) const
{
    // Owner-Warp-First: lock owners run first so they finish and free
    // the shared registers sooner.
    return (enabled && warp.ownsLock) ? 1 : 0;
}

int
OwfAllocator::forceProgress(SimWarp &warp, int pc)
{
    (void)pc;
    // Wedge breaker for cross-CTA lock/barrier cycles: co-grant the
    // shared set, modeling a spill of the holder's shared registers.
    ++emergencies;
    warp.ownsLock = true;
    return spillPenalty;
}

bool
OwfAllocator::faultCorruptState()
{
    if (!enabled || holder.empty())
        return false;
    holder[0] = holder[0] < 0 ? 0 : -1;
    return true;
}

void
OwfAllocator::saveState(SnapshotWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(holder.size()));
    for (const int slot : holder)
        w.i32(slot);
    w.boolean(freed);
    w.u64(locksTaken);
    w.u64(emergencies);
}

void
OwfAllocator::restoreState(SnapshotReader &r)
{
    // prepare() sized the holder table; every entry is a warp slot.
    if (r.u32() != holder.size())
        throw SnapshotError("snapshot: owf holder table size mismatch");
    for (int &slot : holder) {
        slot = r.i32();
        if (slot < -1 || slot >= 2 * halfWarps)
            throw SnapshotError("snapshot: owf holder slot out of range");
    }
    freed = r.boolean();
    locksTaken = r.u64();
    emergencies = r.u64();
}

void
OwfAllocator::auditInvariants(const WarpStore &warps,
                              bool faults_active,
                              std::vector<std::string> &violations) const
{
    if (!enabled)
        return;

    const auto fail = [&](const std::string &line) {
        violations.push_back("owf: " + line);
    };

    // Every recorded holder must be a resident lock-owning warp of the
    // right pair (never fault-gated: corruption must surface here).
    for (int pair = 0; pair < static_cast<int>(holder.size()); ++pair) {
        const int slot = holder[pair];
        if (slot < 0)
            continue;
        if (slot >= warps.numSlots() || !warps.resident(slot)) {
            fail("pair " + std::to_string(pair) + " holder slot " +
                 std::to_string(slot) + " is not resident");
            continue;
        }
        if (pairOf(slot) != pair) {
            fail("pair " + std::to_string(pair) + " holder slot " +
                 std::to_string(slot) + " belongs to pair " +
                 std::to_string(pairOf(slot)));
        }
        if (!warps.warp(slot).ownsLock) {
            fail("pair " + std::to_string(pair) + " holder warp " +
                 std::to_string(slot) + " does not own the lock");
        }
    }

    // The reverse direction only holds while no emergency co-grant has
    // handed a lock out without recording a holder.
    if (emergencies == 0) {
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            if (!warps.resident(slot) || !warps.warp(slot).ownsLock)
                continue;
            const int pair = pairOf(slot);
            if (pair >= 0 && pair < static_cast<int>(holder.size()) &&
                holder[pair] != slot) {
                fail("warp " + std::to_string(slot) +
                     " owns the pair-" + std::to_string(pair) +
                     " lock but the holder entry is " +
                     std::to_string(holder[pair]));
            }
        }
    }

    // Liveness: a warp parked on the pair lock while nobody holds it is
    // a missed wake-up.
    if (!faults_active) {
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            if (!warps.resident(slot) ||
                warps.state(slot) != WarpState::WaitResource)
                continue;
            const int pair = pairOf(slot);
            if (pair >= 0 && pair < static_cast<int>(holder.size()) &&
                holder[pair] < 0) {
                fail("warp " + std::to_string(slot) +
                     " waits on pair " + std::to_string(pair) +
                     " which nobody holds");
            }
        }
    }
}

} // namespace rm
