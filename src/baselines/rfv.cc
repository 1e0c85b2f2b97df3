#include "baselines/rfv.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "common/errors.hh"
#include "sim/occupancy.hh"
#include "sim/snapshot.hh"
#include "sim/warp_store.hh"

namespace rm {

void
RfvAllocator::prepare(const GpuConfig &config, const Program &program)
{
    freed = false;
    spills = 0;
    prog = &program;
    spillPenalty = config.globalLatency;
    totalPacks = config.registersPerSm / config.warpSize;
    physFree = totalPacks;
    drained = 0;

    // Per-pc word masks (Gpu::run admits at most kEngineWordBits
    // registers, so every id has a bit): the distinct operands and
    // their count, and the compiler-side dead-register information — a
    // register referenced at pc and absent from live-out dies when pc
    // issues.
    const Cfg cfg = Cfg::build(program);
    const Liveness liveness = Liveness::compute(program, cfg);
    opMaskByPc.assign(program.code.size(), 0);
    opCountByPc.assign(program.code.size(), 0);
    deathMaskByPc.assign(program.code.size(), 0);
    for (std::size_t i = 0; i < program.code.size(); ++i) {
        const Instruction &inst = program.code[i];
        const int pc = static_cast<int>(i);
        std::uint64_t ops = 0;
        std::uint64_t dead = 0;
        const auto add = [&](RegId r) {
            ops |= std::uint64_t{1} << r;
            if (!liveness.isLiveOut(pc, r))
                dead |= std::uint64_t{1} << r;
        };
        if (inst.hasDst())
            add(inst.dst);
        for (int s = 0; s < inst.numSrcs; ++s)
            add(inst.srcs[s]);
        opMaskByPc[i] = ops;
        opCountByPc[i] =
            static_cast<std::uint8_t>(__builtin_popcountll(ops));
        deathMaskByPc[i] = dead;
    }

    // Provision occupancy between the static-average and peak live
    // counts: most registers are dead most of the time (paper Sec. II),
    // so more CTAs fit than the static allocation admits.
    const std::vector<int> counts = liveness.liveCounts();
    double avg = 0.0;
    int peak = 1;
    for (int c : counts) {
        avg += c;
        peak = std::max(peak, c);
    }
    avg = counts.empty() ? 1.0 : avg / static_cast<double>(counts.size());
    estDemand = std::max(
        2, static_cast<int>(std::ceil(avg + provisioning * (peak - avg))));

    const Occupancy occ =
        computeOccupancy(config, estDemand, program.info.ctaThreads,
                         program.info.sharedBytesPerCta);
    maxCtas = occ.ctasPerSm;
    fatalIf(maxCtas <= 0, "RfvAllocator: kernel '", program.info.name,
            "' does not fit under the provisioned demand");
}

void
RfvAllocator::onWarpLaunch(SimWarp &warp)
{
    warp.physMapped.clearAll();
}

bool
RfvAllocator::canIssue(const SimWarp &warp, const Instruction &inst) const
{
    // Called once per Ready candidate per scheduler cycle. The engine
    // always passes &prog->code[pc], so the pc — and with it the
    // precomputed operand mask — is recoverable from the instruction's
    // address.
    const auto pc = static_cast<std::size_t>(&inst - prog->code.data());
    panicIf(pc >= opMaskByPc.size(),
            "RfvAllocator::canIssue: instruction outside the prepared "
            "program");
    // need never exceeds the distinct operand count, so a pool with
    // that much headroom admits without loading the warp's (cold)
    // mapping word.
    if (physFree >= opCountByPc[pc])
        return true;
    const int need =
        __builtin_popcountll(opMaskByPc[pc] & ~warp.physMapped.word(0));
    // need == 0 must always pass: an emergency overdraft can leave the
    // pool negative while fully mapped warps keep running.
    return need == 0 || need <= physFree;
}

std::uint64_t
RfvAllocator::mapOperands(SimWarp &warp, int pc)
{
    const std::uint64_t added =
        opMaskByPc[static_cast<std::size_t>(pc)] & ~warp.physMapped.word(0);
    if (added != 0) {
        warp.physMapped.setWordBits(0, added);
        physFree -= __builtin_popcountll(added);
    }
    return added;
}

void
RfvAllocator::onIssued(SimWarp &warp, const Instruction &, int pc)
{
    // Map every unmapped operand, then release the registers whose live
    // range ends here (renaming-table entries freed by the
    // dead-register information) — only those actually mapped.
    const std::uint64_t mapped = warp.physMapped.word(0);
    const std::uint64_t added = mapOperands(warp, pc);
    const std::uint64_t dead =
        deathMaskByPc[static_cast<std::size_t>(pc)] & (mapped | added);
    if (dead != 0) {
        warp.physMapped.clearWordBits(0, dead);
        physFree += __builtin_popcountll(dead);
        freed = true;
    }
}

void
RfvAllocator::onWarpExit(SimWarp &warp)
{
    const int held = static_cast<int>(warp.physMapped.count());
    if (held > 0) {
        physFree += held;
        warp.physMapped.clearAll();
        freed = true;
    }
}

bool
RfvAllocator::consumeFreedFlag()
{
    const bool f = freed;
    freed = false;
    return f;
}

int
RfvAllocator::forceProgress(SimWarp &warp, int pc)
{
    // Emergency spill: grant the stalled instruction's operands by
    // overdrafting the pool — the displaced values are modeled as
    // spilled to memory — and charge a global-memory round trip. The
    // pool may go negative until register deaths repay the overdraft.
    panicIf(prog == nullptr, "RfvAllocator::forceProgress before prepare");
    ++spills;
    mapOperands(warp, pc);
    return spillPenalty;
}

bool
RfvAllocator::faultCorruptState()
{
    if (prog == nullptr)
        return false;
    // Inflate the free pool without a matching unmap: breaks the
    // physFree + mapped + drained == totalPacks conservation law.
    physFree += 7;
    return true;
}

void
RfvAllocator::saveState(SnapshotWriter &w) const
{
    // The per-pc masks, estDemand and maxCtas are pure functions of the
    // program and config, recomputed by prepare(); only pool state is
    // serialized.
    w.i32(physFree);
    w.i32(drained);
    w.boolean(freed);
    w.u64(spills);
}

void
RfvAllocator::restoreState(SnapshotReader &r)
{
    physFree = r.i32();
    drained = r.i32();
    freed = r.boolean();
    spills = r.u64();
}

void
RfvAllocator::auditInvariants(const WarpStore &warps,
                              bool faults_active,
                              std::vector<std::string> &violations) const
{
    if (prog == nullptr)
        return;

    const auto fail = [&](const std::string &line) {
        violations.push_back("rfv: " + line);
    };

    // Conservation: free + mapped + fault-drained packs always sum to
    // the pool capacity. Emergency overdrafts keep the sum exact (the
    // pool goes negative by precisely the packs granted), so this holds
    // under faults and spills alike — never gated.
    int mapped = 0;
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        if (warps.resident(slot))
            mapped +=
                static_cast<int>(warps.warp(slot).physMapped.count());
    }
    if (physFree + mapped + drained != totalPacks) {
        std::ostringstream os;
        os << "pool conservation: " << physFree << " free + " << mapped
           << " mapped + " << drained << " drained != capacity "
           << totalPacks;
        fail(os.str());
    }

    // Liveness: a warp parked on the pool must actually be unable to
    // issue its current instruction.
    if (!faults_active) {
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            if (!warps.resident(slot) ||
                warps.state(slot) != WarpState::WaitResource)
                continue;
            const int pc = warps.pc(slot);
            if (pc < 0 || pc >= static_cast<int>(prog->code.size()))
                continue;
            if (canIssue(warps.warp(slot), prog->code[pc])) {
                fail("warp " + std::to_string(slot) +
                     " waits on the pool but its instruction at pc " +
                     std::to_string(pc) + " can issue");
            }
        }
    }
}

} // namespace rm
