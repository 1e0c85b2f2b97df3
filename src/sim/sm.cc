#include "sim/sm.hh"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/errors.hh"
#include "isa/disasm.hh"
#include "sim/occupancy.hh"
#include "sim/sanitizer.hh"

namespace rm {

namespace {

/** Process-wide skip-ahead switch (see Sm::setSkipAhead). */
std::atomic<bool> s_skip_ahead{true};

/** Sample cycle of an SM with no sampler (or a zero interval). */
constexpr std::uint64_t kNoSample = std::numeric_limits<std::uint64_t>::max();

} // namespace

void
Sm::setSkipAhead(bool enabled)
{
    s_skip_ahead.store(enabled, std::memory_order_relaxed);
}

bool
Sm::skipAheadEnabled()
{
    return s_skip_ahead.load(std::memory_order_relaxed);
}

Sm::Sm(const GpuConfig &gpu_config, const Program &kernel,
       RegisterAllocator &alloc, int ctas_to_run, GlobalMemory &global_mem,
       std::optional<RegisterMapper> reg_mapper, IssueTrace *issue_trace,
       MetricsRegistry *registry, Sampler *interval_sampler, int sm_id,
       FaultPlan fault_plan)
    : config(gpu_config),
      program(kernel),
      allocator(alloc),
      gmem(global_mem),
      mapper(std::move(reg_mapper)),
      trace(issue_trace),
      metrics(registry),
      sampler(interval_sampler),
      ctasToRun(ctas_to_run),
      warpsPerCta(kernel.info.ctaThreads / gpu_config.warpSize),
      smId(sm_id),
      fault(fault_plan),
      events(static_cast<std::uint64_t>(gpu_config.globalLatency) * 4 + 64)
{
    if (metrics) {
        acquireWait = &metrics->histogram("srp.acquire_wait_cycles");
        snapshots = &metrics->counter("sim.snapshots");
        restores = &metrics->counter("sim.restores");
    }
    nextSampleCycle = sampleCycleAfterNow();
    fatalIf(warpsPerCta <= 0 || warpsPerCta > config.maxWarpsPerSm,
            "Sm: CTA of ", warpsPerCta, " warps cannot fit the SM");
    ctas.resize(config.maxCtasPerSm);
    schedLastIssued.assign(config.numSchedulers, -1);
    events.reset(0);
    computeResidentCap();

    allocGatesIssue = allocator.gatesIssue();
    allocBiasesPriority = allocator.biasesPriority();
    // Gpu::run admits only kernels whose registers fit one scoreboard
    // word, so every operand has a bit in its pc's mask.
    issueMeta.reserve(program.code.size());
    for (const Instruction &inst : program.code) {
        IssueCheckMeta meta;
        meta.globalMem = latClass(inst.op) == LatClass::GlobalMem;
        if (inst.hasDst())
            meta.opMask |= std::uint64_t{1} << inst.dst;
        for (int s = 0; s < inst.numSrcs; ++s)
            meta.opMask |= std::uint64_t{1} << inst.srcs[s];
        issueMeta.push_back(meta);
    }
    // The warp store maintains the scheduler's incremental
    // ready/issue-clean masks from this table.
    warps.reset(config.maxWarpsPerSm, program.info.numRegs,
                issueMeta.data(), issueMeta.size(),
                config.maxPendingMemPerWarp);
    schedSlotMask.assign(config.numSchedulers, 0);
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot)
        schedSlotMask[slot % config.numSchedulers] |=
            std::uint64_t{1} << slot;

    // Precompute the RegMutex operand verification (see sm.hh). Any
    // statically out-of-range operand keeps the per-access slow path,
    // so malformed programs still panic at the same issue.
    if (mapper && mapper->extendedMode() && !config.modelBankConflicts &&
        mapper->baseFitsSlots(config.maxWarpsPerSm)) {
        const int limit = mapper->baseCount() + mapper->extCount();
        bool in_range = true;
        extOpsByPc.reserve(program.code.size());
        for (const Instruction &inst : program.code) {
            int ext = 0;
            if (inst.hasDst()) {
                in_range = in_range && inst.dst < limit;
                ext += mapper->isExtended(inst.dst) ? 1 : 0;
            }
            for (int s = 0; s < inst.numSrcs; ++s) {
                in_range = in_range && inst.srcs[s] < limit;
                ext += mapper->isExtended(inst.srcs[s]) ? 1 : 0;
            }
            extOpsByPc.push_back(static_cast<std::uint16_t>(ext));
        }
        fastVerify = in_range;
        if (!fastVerify)
            extOpsByPc.clear();
    }
}

void
Sm::computeResidentCap()
{
    // Non-register constraints.
    const Occupancy other = computeOccupancy(
        config, 0, program.info.ctaThreads, program.info.sharedBytesPerCta);
    const int by_regs = allocator.maxCtasByRegisters();
    residentCap = std::min(other.ctasPerSm, by_regs);

    stats.kernelName = program.info.name;
    stats.allocatorName = allocator.name();
    stats.theoreticalCtas = residentCap;
    stats.theoreticalWarps = residentCap * warpsPerCta;
    stats.theoreticalOccupancy =
        static_cast<double>(stats.theoreticalWarps) / config.maxWarpsPerSm;
}

void
Sm::launchCtas()
{
    while (nextCtaId < ctasToRun && residentCtas < residentCap) {
        // Find a free CTA slot.
        int cta_slot = -1;
        for (int s = 0; s < static_cast<int>(ctas.size()); ++s) {
            if (!ctas[s].active) {
                cta_slot = s;
                break;
            }
        }
        panicIf(cta_slot < 0, "Sm: residentCap exceeds CTA slots");

        // Find warpsPerCta free warp slots (lowest first). Finished
        // warps stay bound to their CTA until it retires.
        std::vector<int> slots;
        for (int slot = 0;
             slot < config.maxWarpsPerSm &&
             static_cast<int>(slots.size()) < warpsPerCta;
             ++slot) {
            if (warps.state(slot) == WarpState::Unused)
                slots.push_back(slot);
        }
        panicIf(static_cast<int>(slots.size()) < warpsPerCta,
                "Sm: no free warp slots despite free CTA slot");

        ResidentCta &cta = ctas[cta_slot];
        cta.ctaId = nextCtaId;
        cta.warpSlots = slots;
        cta.smem = SharedMemory(program.info.sharedBytesPerCta);
        cta.warpsAlive = warpsPerCta;
        cta.barrierArrived = 0;
        cta.active = true;

        for (int w = 0; w < warpsPerCta; ++w) {
            const int slot = slots[w];
            SimWarp &warp = warps.warp(slot);
            warp.ctaSlot = cta_slot;
            warp.ctaId = nextCtaId;
            warp.warpInCta = w;
            warp.launchOrder = launchCounter++;
            warps.setState(slot, WarpState::Ready);
            warps.setPc(slot, 0);
            warps.clearRegs(slot);
            warp.sregs = SpecialRegs::forWarp(program.info, nextCtaId, w,
                                              config.warpSize);
            warps.sbReset(slot);
            warps.setPendingMem(slot, 0);
            warp.holdsExt = false;
            warp.srpSection = -1;
            warp.acquireWaitSince = 0;
            warp.physMapped = Bitmask(program.info.numRegs);
            warp.ownsLock = false;
            allocator.onWarpLaunch(warp);
            ++aliveWarps;
        }
        if (trace) {
            trace->record(TraceEvent{cycle, slots.front(), nextCtaId,
                                     -1, TraceKind::CtaLaunch});
        }
        ++residentCtas;
        ++nextCtaId;
    }
}

void
Sm::retireCta(int cta_slot)
{
    ResidentCta &cta = ctas[cta_slot];
    for (int slot : cta.warpSlots) {
        warps.setState(slot, WarpState::Unused);
        warps.warp(slot).ctaSlot = -1;
    }
    if (trace) {
        trace->record(TraceEvent{cycle, cta.warpSlots.front(),
                                 cta.ctaId, -1, TraceKind::CtaRetire});
    }
    cta.active = false;
    cta.ctaId = -1;
    --residentCtas;
    ++stats.ctasCompleted;
    launchCtas();
}

void
Sm::processEvents()
{
    events.popDue(cycle, [&](const SimEvent &event) {
        // Stale event: the warp it was created for exited and the slot
        // was relaunched. The new occupant's scoreboard and memory
        // accounting start clean; letting an old completion through
        // would corrupt them (e.g. drive pendingMem negative).
        if (event.launchOrder != warps.warp(event.warpSlot).launchOrder)
            return;
        if (event.reg != kNoReg)
            warps.sbClear(event.warpSlot, event.reg);
        if (event.memCompletion)
            warps.addPendingMem(event.warpSlot, -1);
        if (event.spillWake &&
            warps.state(event.warpSlot) == WarpState::WaitSpill) {
            warps.setState(event.warpSlot, WarpState::Ready);
        }
        // Only completions are progress. A bare wake (poll-model
        // acquire retry, conflict penalty, delayed release) re-arms a
        // warp without moving it; counting it would let a warp whose
        // acquire can never succeed re-poll forever unseen by the
        // watchdog.
        if (event.reg != kNoReg || event.memCompletion)
            lastProgressCycle = cycle;
    });
}

void
Sm::dispatchMemQueue()
{
    // Fault injection: a memory-latency spike multiplies the latency of
    // requests dispatched inside the window.
    const int latency = fault.memLatencyAt(cycle, config.globalLatency);
    if (latency != config.globalLatency && !memQueue.empty())
        ++stats.faultEvents;
    for (int i = 0; i < config.memIssuePerCycle && !memQueue.empty(); ++i) {
        const MemRequest req = memQueue.front();
        memQueue.pop();
        events.push(SimEvent{cycle + latency, req.warpSlot,
                             req.reg, true, false, req.launchOrder});
    }
}

void
Sm::verifyOperands(const SimWarp &warp, const Instruction &inst, int pc)
{
    pendingConflictPenalty = 0;
    if (!mapper)
        return;
    // The baseline affine mapping with bank-conflict modeling off has
    // no statistical effect — the walk below would only re-check the
    // per-warp allocation bound. RegMutex-mode mappings always verify
    // (extended-access invariants + the extRegAccesses count).
    if (!config.modelBankConflicts && !mapper->extendedMode())
        return;
    if (fastVerify) {
        // Precomputed form of the walk below: the static bounds were
        // proven at construction, leaving the held-section invariant —
        // the hardware guarantee RegMutex's compiler relies on — and
        // the extended-access count.
        const int ext = extOpsByPc[static_cast<std::size_t>(pc)];
        if (ext != 0) {
            panicIf(warp.srpSection < 0,
                    "RegisterMapper: extended-set access by warp ",
                    warp.slot, " without a held SRP section — compiler "
                    "invariant violated");
            panicIf(warp.srpSection >= mapper->sectionCount(),
                    "RegisterMapper: SRP section ", warp.srpSection,
                    " out of range (", mapper->sectionCount(),
                    " sections)");
            stats.extRegAccesses += static_cast<std::uint64_t>(ext);
        }
        return;
    }
    auto check = [&](RegId reg) {
        const int phys = mapper->map(warp.slot, reg, warp.srpSection);
        if (mapper->isExtended(reg))
            ++stats.extRegAccesses;
        return phys;
    };
    if (inst.hasDst())
        check(inst.dst);
    // Source operands fetch through the banked register file; two
    // distinct sources hitting the same bank collide (paper Fig. 6's
    // Operand Collector; optional model).
    int banks[3] = {-1, -1, -1};
    int packs[3] = {-1, -1, -1};
    int conflicts = 0;
    for (int s = 0; s < inst.numSrcs; ++s) {
        const int phys = check(inst.srcs[s]);
        banks[s] = phys % config.rfBanks;
        packs[s] = phys;
        for (int t = 0; t < s; ++t) {
            if (banks[t] == banks[s] && packs[t] != packs[s])
                ++conflicts;
        }
    }
    if (config.modelBankConflicts && conflicts > 0) {
        stats.bankConflicts += conflicts;
        pendingConflictPenalty = conflicts;
    }
}

void
Sm::wakeParked()
{
    if (!allocator.consumeFreedFlag())
        return;
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        const WarpState state = warps.state(slot);
        if (state == WarpState::WaitAcquire ||
            state == WarpState::WaitResource) {
            warps.setState(slot, WarpState::Ready);
        }
    }
}

void
Sm::releaseBarrier(ResidentCta &cta)
{
    cta.barrierArrived = 0;
    for (int slot : cta.warpSlots) {
        if (warps.state(slot) == WarpState::WaitBarrier)
            warps.setState(slot, WarpState::Ready);
    }
}

void
Sm::issue(int slot)
{
    SimWarp &warp = warps.warp(slot);
    const int pc = warps.pc(slot);
    const Instruction &inst = program.code[pc];
    const LatClass lat = latClass(inst.op);
    ResidentCta &cta = ctas[warp.ctaSlot];

    // RegMutex directives are handled at the issue stage (paper Sec.
    // III-B1) before any functional execution.
    if (lat == LatClass::AcqRel) {
        if (inst.op == Opcode::RegAcquire) {
            // Fault injection: a denied acquire behaves exactly like a
            // Blocked outcome without consulting the policy.
            AcquireOutcome outcome;
            if (fault.deniesAcquire(cycle, slot)) {
                ++stats.faultEvents;
                outcome = AcquireOutcome::Blocked;
            } else {
                outcome = allocator.acquire(warp);
            }
            if (outcome != AcquireOutcome::AlreadyHeld)
                ++stats.acquireAttempts;
            if (trace) {
                trace->record(TraceEvent{
                    cycle, slot, warp.ctaId, pc,
                    outcome == AcquireOutcome::Blocked
                        ? TraceKind::AcquireBlocked
                        : TraceKind::AcquireOk});
            }
            switch (outcome) {
              case AcquireOutcome::Blocked:
                if (warp.acquireWaitSince == 0)
                    warp.acquireWaitSince = cycle;
                if (config.wakeOnRelease) {
                    park(slot, WarpState::WaitAcquire);
                } else {
                    // Poll model (ablation): the warp retries after a
                    // fixed back-off instead of sleeping until a
                    // release, burning extra acquire attempts.
                    park(slot, WarpState::WaitSpill);
                    events.push(SimEvent{cycle + 20, slot, kNoReg,
                                         false, true, warp.launchOrder});
                }
                // PC unchanged: the warp will retry the acquire.
                return;
              case AcquireOutcome::Acquired:
                ++stats.acquireSuccesses;
                if (acquireWait) {
                    acquireWait->observe(warp.acquireWaitSince == 0
                                             ? 0
                                             : cycle - warp.acquireWaitSince);
                }
                warp.acquireWaitSince = 0;
                break;
              case AcquireOutcome::AlreadyHeld:
                ++stats.acquireAlreadyHeld;
                break;
              case AcquireOutcome::NotNeeded:
                ++stats.acquireSuccesses;
                break;
            }
        } else {
            // Fault injection: a delayed release parks the warp (PC
            // unchanged, section still held) and retries the directive
            // once the delay elapses. A delay beyond the watchdog
            // budget leaves only a far-future event — the mechanism
            // tests use to make the watchdog itself expire.
            if (fault.delaysRelease(cycle)) {
                ++stats.faultEvents;
                park(slot, WarpState::WaitSpill);
                events.push(SimEvent{cycle + fault.releaseDelayCycles,
                                     slot, kNoReg, false, true,
                                     warp.launchOrder});
                return;
            }
            allocator.release(warp);
            ++stats.releases;
            if (trace) {
                trace->record(TraceEvent{cycle, slot, warp.ctaId,
                                         pc, TraceKind::Release});
            }
        }
        warps.setPc(slot, pc + 1);
        ++warp.instructions;
        ++stats.instructions;
        ++stats.issuedSlots;
        lastProgressCycle = cycle;
        return;
    }

    verifyOperands(warp, inst, pc);

    if (lat == LatClass::Barrier) {
        if (trace) {
            trace->record(TraceEvent{cycle, slot, warp.ctaId, pc,
                                     TraceKind::BarrierWait});
        }
        ++cta.barrierArrived;
        park(slot, WarpState::WaitBarrier);
        warps.setPc(slot, pc + 1);
        ++warp.instructions;
        ++stats.instructions;
        ++stats.issuedSlots;
        lastProgressCycle = cycle;
        if (cta.barrierArrived >= cta.warpsAlive)
            releaseBarrier(cta);
        return;
    }

    // Functional execution at issue.
    if (trace) {
        trace->record(TraceEvent{cycle, slot, warp.ctaId, pc,
                                 TraceKind::Issue});
    }
    StepResult step = executeStep(program, pc, warps.regs(slot),
                                  warp.sregs, gmem, cta.smem);
    allocator.onIssued(warp, inst, pc);
    ++warp.instructions;
    ++stats.instructions;
    ++stats.issuedSlots;
    lastProgressCycle = cycle;
    warps.setPc(slot, step.nextPc);

    if (step.exited) {
        if (trace) {
            trace->record(TraceEvent{cycle, slot, warp.ctaId, pc,
                                     TraceKind::WarpExit});
        }
        warps.setState(slot, WarpState::Finished);
        allocator.onWarpExit(warp);
        --aliveWarps;
        --cta.warpsAlive;
        // A barrier can complete once an exited warp stops counting.
        if (cta.warpsAlive > 0 &&
            cta.barrierArrived >= cta.warpsAlive &&
            cta.barrierArrived > 0) {
            releaseBarrier(cta);
        }
        if (cta.warpsAlive == 0)
            retireCta(warp.ctaSlot);
        return;
    }

    // Latency modeling.
    switch (lat) {
      case LatClass::Alu:
        if (inst.hasDst()) {
            warps.sbSet(slot, inst.dst);
            events.push(SimEvent{cycle + config.aluLatency, slot,
                                 inst.dst, false, false,
                                 warp.launchOrder});
        }
        break;
      case LatClass::Sfu:
        warps.sbSet(slot, inst.dst);
        events.push(SimEvent{cycle + config.sfuLatency, slot, inst.dst,
                             false, false, warp.launchOrder});
        break;
      case LatClass::SharedMem:
        if (inst.hasDst()) {
            warps.sbSet(slot, inst.dst);
            events.push(SimEvent{cycle + config.sharedLatency, slot,
                                 inst.dst, false, false,
                                 warp.launchOrder});
        }
        break;
      case LatClass::GlobalMem:
        warps.addPendingMem(slot, 1);
        if (inst.hasDst())
            warps.sbSet(slot, inst.dst);
        memQueue.push(MemRequest{slot,
                                 inst.hasDst() ? inst.dst : kNoReg,
                                 warp.launchOrder});
        break;
      case LatClass::Control:
      case LatClass::NopClass:
        break;
      default:
        panic("Sm::issue: unexpected latency class");
    }

    // Operand-collector bank conflicts delay the warp's next issue by
    // one collection cycle per conflict (the wake event at C+1 would
    // allow an issue at C+1, i.e. no delay — hence the extra +1).
    if (pendingConflictPenalty > 0) {
        if (warps.state(slot) == WarpState::Ready) {
            park(slot, WarpState::WaitSpill);
            events.push(SimEvent{cycle + 1 + pendingConflictPenalty,
                                 slot, kNoReg, false, true,
                                 warp.launchOrder});
        }
        pendingConflictPenalty = 0;
    }
}

void
Sm::park(int slot, WarpState wait_state)
{
    warps.setState(slot, wait_state);
    warps.warp(slot).waitSince = cycle;
}

void
Sm::schedule(int scheduler)
{
    // Greedy: stick with the last issued warp while it can issue. Ready
    // warps always have a CTA, and the clean bit caches the scoreboard
    // + mem-limit verdict.
    const int last = schedLastIssued[scheduler];
    if (config.schedPolicy == SchedPolicy::Gto && last >= 0 &&
        ((warps.readyMask() & warps.issueCleanMask()) >> last & 1) != 0 &&
        (!allocGatesIssue ||
         allocator.canIssue(warps.warp(last),
                            program.code[warps.pc(last)]))) {
        issue(last);
        if (warps.state(last) != WarpState::Ready)
            schedLastIssued[scheduler] = -1;
        return;
    }

    // Then-oldest with policy priority (owner-warp-first for OWF).
    int best = -1;
    int best_priority = 0;
    std::uint64_t best_key = 0;
    BlockReason sample_reason = BlockReason::None;
    const bool gto = config.schedPolicy == SchedPolicy::Gto;
    const int num_slots = config.maxWarpsPerSm;
    // GTO breaks ties by age; LRR rotates from the last issued slot.
    const auto key = [&](int slot) -> std::uint64_t {
        if (gto)
            return warps.warp(slot).launchOrder;
        return static_cast<std::uint64_t>(
            (slot - last - 1 + 2 * num_slots) % num_slots);
    };
    // Candidates are this scheduler's slots (slot % numSchedulers),
    // visited in ascending order through the set bits of the
    // incrementally maintained ready and issue-clean masks.
    const std::uint64_t ready = warps.readyMask() & schedSlotMask[scheduler];
    const std::uint64_t clean = warps.issueCleanMask();
    const std::uint64_t hard_blocked = ready & ~clean;
    int first_resource = num_slots;
    for (std::uint64_t m = ready & clean; m != 0; m &= m - 1) {
        const int slot = __builtin_ctzll(m);
        if (allocGatesIssue &&
            !allocator.canIssue(warps.warp(slot),
                                program.code[warps.pc(slot)])) {
            if (first_resource == num_slots)
                first_resource = slot;
            // Park policy-blocked warps until resources free up.
            if (config.wakeOnRelease)
                park(slot, WarpState::WaitResource);
            continue;
        }
        const int priority =
            allocBiasesPriority ? allocator.schedPriority(warps.warp(slot))
                                : 0;
        const std::uint64_t slot_key = key(slot);
        if (best < 0 || priority > best_priority ||
            (priority == best_priority && slot_key < best_key)) {
            best = slot;
            best_priority = priority;
            best_key = slot_key;
        }
    }
    // The stall sample is the verdict of the lowest blocked slot.
    if (hard_blocked != 0) {
        const int slot = __builtin_ctzll(hard_blocked);
        if (slot < first_resource) {
            const IssueCheckMeta &meta = issueMeta[warps.pc(slot)];
            sample_reason = (warps.sbWord(slot) & meta.opMask) != 0
                                ? BlockReason::Scoreboard
                                : BlockReason::MemStructural;
        } else {
            sample_reason = BlockReason::Resource;
        }
    } else if (first_resource < num_slots) {
        sample_reason = BlockReason::Resource;
    }

    if (best >= 0) {
        issue(best);
        schedLastIssued[scheduler] =
            warps.state(best) == WarpState::Ready ? best : -1;
        return;
    }

    // Nothing issued: account the stall.
    schedLastIssued[scheduler] = -1;
    chargeIdle(scheduler, sample_reason, 1);
}

void
Sm::chargeIdle(int scheduler, BlockReason sample, std::uint64_t n)
{
    stats.idleSchedulerSlots += n;
    switch (sample) {
      case BlockReason::Scoreboard:
        stats.scoreboardStalls += n;
        return;
      case BlockReason::MemStructural:
        stats.memStructuralStalls += n;
        return;
      case BlockReason::Resource:
        stats.resourceStalls += n;
        return;
      case BlockReason::None:
        break;
    }
    // No blocked Ready warp: classify by what the scheduler's first
    // waiting warp waits on (finished warps match no wait class).
    bool any = false;
    for (int slot = scheduler; slot < config.maxWarpsPerSm;
         slot += config.numSchedulers) {
        if (warps.warp(slot).ctaSlot < 0)
            continue;
        any = true;
        switch (warps.state(slot)) {
          case WarpState::WaitBarrier:
            stats.barrierStalls += n;
            return;
          case WarpState::WaitAcquire:
            stats.acquireStalls += n;
            return;
          case WarpState::WaitResource:
          case WarpState::WaitSpill:
            stats.resourceStalls += n;
            return;
          default:
            break;
        }
    }
    if (!any)
        stats.noWarpStalls += n;
}

Sm::Starvation
Sm::handleStarvation()
{
    // Events or memory traffic still pending: the SM is quiet but not
    // provably wedged. The caller must NOT treat this as progress —
    // under normal latencies (<= globalLatency) the next completion
    // resets the watchdog clock anyway, and under a fault-injected
    // far-future event (delayed release) the watchdog must be able to
    // expire.
    if (!events.empty() || !memQueue.empty())
        return Starvation::Waiting;

    int others = 0;
    int oldest_resource = -1;
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        if (warps.warp(slot).ctaSlot < 0 || !warps.resident(slot))
            continue;
        switch (warps.state(slot)) {
          case WarpState::WaitResource:
            if (oldest_resource < 0 ||
                warps.warp(slot).launchOrder <
                    warps.warp(oldest_resource).launchOrder) {
                oldest_resource = slot;
            }
            break;
          case WarpState::WaitAcquire:
          case WarpState::WaitBarrier:
            // Acquire and barrier waiters cannot make progress on
            // their own; with no events pending they are the wedge.
            break;
          default:
            ++others;  // Ready / WaitSpill: progress is still possible
            break;
        }
    }

    if (others > 0)
        return Starvation::Runnable;

    if (oldest_resource >= 0) {
        SimWarp &oldest = warps.warp(oldest_resource);
        const int penalty =
            allocator.forceProgress(oldest, warps.pc(oldest_resource));
        if (penalty >= 0) {
            park(oldest_resource, WarpState::WaitSpill);
            events.push(SimEvent{cycle + penalty, oldest_resource,
                                 kNoReg, false, true,
                                 oldest.launchOrder});
            ++stats.emergencySpills;
            return Starvation::BreakerFired;
        }
    }

    // No runnable warp, no pending event, and the breaker could not
    // help (or nothing was resource-blocked): the SM is deadlocked.
    // Record the forensics snapshot with the root-cause classification.
    stats.deadlocked = true;
    stats.deadlockCause = classifyWedge();
    stats.hang = captureDiagnosis(stats.deadlockCause, false);
    return Starvation::Deadlocked;
}

DeadlockCause
Sm::classifyWedge() const
{
    int acquire = 0;
    int resource = 0;
    int barrier = 0;
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        if (warps.warp(slot).ctaSlot < 0)
            continue;
        const WarpState state = warps.state(slot);
        if (state == WarpState::WaitAcquire)
            ++acquire;
        else if (state == WarpState::WaitResource)
            ++resource;
        else if (state == WarpState::WaitBarrier)
            ++barrier;
    }
    // Precedence, not majority: one warp parked on an acquire that
    // will never be granted is the root cause even when every other
    // warp piles up behind a barrier waiting for it.
    if (acquire > 0)
        return DeadlockCause::Acquire;
    if (resource > 0)
        return DeadlockCause::Resource;
    if (barrier > 0)
        return DeadlockCause::Barrier;
    return DeadlockCause::None;
}

std::shared_ptr<const HangDiagnosis>
Sm::captureDiagnosis(DeadlockCause cause, bool watchdog_expired) const
{
    auto diag = std::make_shared<HangDiagnosis>();
    diag->kernel = program.info.name;
    diag->policy = allocator.name();
    diag->smId = smId;
    diag->cycle = cycle;
    diag->watchdogExpired = watchdog_expired;
    diag->cause = cause;
    diag->eventQueueDepth = events.size();
    diag->memQueueDepth = memQueue.size();
    diag->nextEventCycle = events.empty() ? 0 : events.nextCycle();
    diag->schedLastIssued = schedLastIssued;
    diag->srpSections = allocator.srpSectionCount();

    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        const SimWarp &warp = warps.warp(slot);
        const WarpState state = warps.state(slot);
        if (state == WarpState::Unused || warp.ctaSlot < 0)
            continue;
        WarpSnapshot snap;
        snap.slot = slot;
        snap.ctaId = warp.ctaId;
        snap.warpInCta = warp.warpInCta;
        snap.pc = warps.pc(slot);
        if (snap.pc >= 0 &&
            snap.pc < static_cast<int>(program.code.size())) {
            snap.instruction = disassemble(program.code[snap.pc]);
        }
        snap.state = state;
        snap.srpSection = warp.srpSection;
        snap.holdsExt = warp.holdsExt;
        snap.pendingMem = warps.pendingMem(slot);
        snap.pendingWrites = warps.sbCount(slot);
        snap.instructionsExecuted = warp.instructions;
        if (state != WarpState::Ready && state != WarpState::Finished)
            snap.waitAge = cycle - warp.waitSince;  // a Wait* state
        switch (state) {
          case WarpState::WaitAcquire:
            ++diag->blockedAcquire;
            diag->srpWaiters.push_back(slot);
            break;
          case WarpState::WaitResource:
            ++diag->blockedResource;
            break;
          case WarpState::WaitBarrier:
            ++diag->blockedBarrier;
            break;
          default:
            ++diag->otherWaiters;
            break;
        }
        if (warp.holdsExt)
            diag->srpHolders.push_back(slot);
        diag->warps.push_back(std::move(snap));
    }
    return diag;
}

SmRunOutcome
Sm::runControlled(const RunControl &control)
{
    if (!launched) {
        launched = true;
        launchCtas();
    }
    const bool epoch_work = control.epochWork();
    const bool skip_ok = skipAheadEnabled();

    while (stats.ctasCompleted < static_cast<std::uint64_t>(ctasToRun)) {
        // The cycle budget is checked every cycle so a snapshot can be
        // captured at an exact point; the wall deadline and the
        // sanitizer only run at epoch boundaries.
        if (control.maxCycles > 0 && cycle >= control.maxCycles) {
            finishStats();
            return SmRunOutcome{true, PreemptReason::CycleLimit};
        }
        if (epoch_work && cycle > 0 && cycle % control.epochCycles == 0) {
            if (control.hasWallDeadline &&
                std::chrono::steady_clock::now() >= control.wallDeadline) {
                finishStats();
                return SmRunOutcome{true, PreemptReason::WallDeadline};
            }
            if (control.sanitize)
                auditEpoch();
        }

        ++cycle;
        ++stepped;
        // Fault injection: one-shot capacity shrink once its cycle is
        // reached (the policy revokes what it can immediately and
        // defers the rest to release time).
        if (!shrinkApplied && fault.shrinkDue(cycle)) {
            shrinkApplied = true;
            stats.faultEvents += static_cast<std::uint64_t>(
                allocator.faultShrinkCapacity(fault.shrinkSrpSections));
        }
        // Fault injection: one-shot accounting corruption — the run
        // keeps going on the corrupt books; only the sanitizer notices.
        if (!corruptApplied && fault.corruptDue(cycle)) {
            corruptApplied = true;
            if (allocator.faultCorruptState())
                ++stats.faultEvents;
        }
        processEvents();
        dispatchMemQueue();
        wakeParked();
        const std::uint64_t issued_before = stats.issuedSlots;
        for (int s = 0; s < config.numSchedulers; ++s)
            schedule(s);
        wakeParked();
        residentIntegral += aliveWarps;
        if (cycle == nextSampleCycle)
            takeSample();

        if (stats.issuedSlots == issued_before) {
            // No instruction issued: check for a wedged SM.
            bool declared_deadlock = false;
            if (cycle - lastProgressCycle >
                static_cast<std::uint64_t>(config.globalLatency) * 4) {
                switch (handleStarvation()) {
                  case Starvation::BreakerFired:
                    // The breaker scheduled progress: that counts.
                    lastProgressCycle = cycle;
                    break;
                  case Starvation::Runnable:
                  case Starvation::Waiting:
                    // Quiet but not provably wedged. Deliberately do
                    // NOT reset the progress clock: a warp that never
                    // issues again (or an event parked in the far
                    // future by a fault) must eventually trip the
                    // watchdog below.
                    break;
                  case Starvation::Deadlocked:
                    declared_deadlock = true;
                    break;
                }
            }
            if (declared_deadlock)
                break;
            if (cycle - lastProgressCycle >
                static_cast<std::uint64_t>(config.watchdogCycles)) {
                const auto diag = captureDiagnosis(
                    classifyWedge(), true);
                throw SimulationError(diag->summary(), diag);
            }
            // Idle cycle with nothing in flight but wheel events: jump
            // the clock instead of ticking empty cycles one by one.
            if (skip_ok && memQueue.empty() && !events.empty())
                skipAhead(control, epoch_work);
        }
    }

    finishStats();
    return SmRunOutcome{false, PreemptReason::None};
}

void
Sm::skipAhead(const RunControl &control, bool epoch_work)
{
    // The loop-top checks for the just-executed cycle value are still
    // pending; never jump over one that would fire.
    if (control.maxCycles > 0 && cycle >= control.maxCycles)
        return;
    if (epoch_work && cycle > 0 && cycle % control.epochCycles == 0)
        return;

    // Defensive re-verification: an idle cycle implies every Ready warp
    // is blocked, and with the memory queue empty and the allocator
    // untouched, blocked reasons cannot change until the next event.
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        if (warps.state(slot) == WarpState::Ready &&
            warps.warp(slot).ctaSlot >= 0 &&
            issueBlocked(slot) == BlockReason::None) {
            return;
        }
    }

    // Jump to just before the earliest cycle where anything observable
    // can happen. Each cap re-creates a loop-top or fault check exactly
    // where the per-cycle engine would have run it.
    std::uint64_t stop = events.nextCycle() - 1;
    if (control.maxCycles > 0)
        stop = std::min(stop, control.maxCycles);
    if (epoch_work) {
        stop = std::min(stop, (cycle / control.epochCycles + 1) *
                                  control.epochCycles);
    }
    if (!shrinkApplied && fault.shrinkSrpAtCycle > 0 &&
        fault.shrinkSrpSections > 0) {
        stop = std::min(stop, fault.shrinkSrpAtCycle - 1);
    }
    if (!corruptApplied && fault.corruptStateAtCycle > 0)
        stop = std::min(stop, fault.corruptStateAtCycle - 1);
    // A sample is taken at the end of its own cycle, so run that cycle.
    stop = std::min(stop, nextSampleCycle - 1);
    stop = std::min(stop, lastProgressCycle +
                              static_cast<std::uint64_t>(
                                  config.watchdogCycles));
    if (stop <= cycle)
        return;

    const std::uint64_t n = stop - cycle;
    accountIdleCycles(n);
    residentIntegral += n * static_cast<std::uint64_t>(aliveWarps);
    cycle = stop;
}

void
Sm::accountIdleCycles(std::uint64_t n)
{
    // Closed-form replay of schedule()'s nothing-issued path for n
    // cycles of frozen machine state (schedLastIssued is already -1
    // for every scheduler after an executed idle cycle): the first
    // Ready warp in slot order decides the sample.
    for (int scheduler = 0; scheduler < config.numSchedulers;
         ++scheduler) {
        BlockReason sample = BlockReason::None;
        for (int slot = scheduler; slot < config.maxWarpsPerSm;
             slot += config.numSchedulers) {
            if (warps.state(slot) == WarpState::Ready &&
                warps.warp(slot).ctaSlot >= 0) {
                sample = issueBlocked(slot);
                break;
            }
        }
        chargeIdle(scheduler, sample, n);
    }
}

void
Sm::finishStats()
{
    stats.cycles = cycle;
    stats.avgResidentWarps =
        cycle == 0 ? 0.0
                   : static_cast<double>(residentIntegral) / cycle;
    stats.lockAcquisitions = allocator.lockCount();
    if (metrics)
        publishMetrics();
}

void
Sm::publishMetrics() const
{
    MetricsRegistry &m = *metrics;
    m.counter("issue.slots_issued").set(stats.issuedSlots);
    m.counter("issue.idle_slots").set(stats.idleSchedulerSlots);
    m.counter("issue.instructions").set(stats.instructions);
    m.counter("stall.scoreboard").set(stats.scoreboardStalls);
    m.counter("stall.mem_structural").set(stats.memStructuralStalls);
    m.counter("stall.barrier").set(stats.barrierStalls);
    m.counter("stall.acquire").set(stats.acquireStalls);
    m.counter("stall.resource").set(stats.resourceStalls);
    m.counter("stall.no_warp").set(stats.noWarpStalls);
    m.counter("srp.acquire_attempts").set(stats.acquireAttempts);
    m.counter("srp.acquire_successes").set(stats.acquireSuccesses);
    // Every attempt that did not succeed was a Blocked outcome.
    m.counter("srp.acquire_blocked")
        .set(stats.acquireAttempts - stats.acquireSuccesses);
    m.counter("srp.releases").set(stats.releases);
    m.counter("sim.emergency_spills").set(stats.emergencySpills);

    int holders = 0;
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        if (warps.resident(slot) && warps.warp(slot).holdsExt)
            ++holders;
    }
    m.gauge("srp.holders").set(holders);
    m.gauge("warps.resident").set(aliveWarps);
    m.gauge("ctas.resident").set(residentCtas);
}

void
Sm::takeSample()
{
    if (metrics)
        publishMetrics();
    sampler->snapshot(cycle);
    nextSampleCycle = sampleCycleAfterNow();
}

std::uint64_t
Sm::sampleCycleAfterNow() const
{
    if (sampler == nullptr || sampler->interval() == 0)
        return kNoSample;
    return (cycle / sampler->interval() + 1) * sampler->interval();
}

void
Sm::auditStructure(std::vector<std::string> &violations) const
{
    const auto fail = [&](const std::string &line) {
        violations.push_back("sm: " + line);
    };

    // Per-warp ownership: an unused slot belongs to no CTA; any other
    // slot (finished warps stay bound until their CTA retires) belongs
    // to an active CTA that lists it.
    int resident_warps = 0;
    for (int slot = 0; slot < config.maxWarpsPerSm; ++slot) {
        const SimWarp &warp = warps.warp(slot);
        const WarpState state = warps.state(slot);
        const std::string who = "warp " + std::to_string(slot);
        if (state == WarpState::Unused) {
            if (warp.ctaSlot != -1) {
                fail(who + " is unused but bound to CTA slot " +
                     std::to_string(warp.ctaSlot));
            }
            continue;
        }
        if (warp.ctaSlot < 0 ||
            warp.ctaSlot >= static_cast<int>(ctas.size()) ||
            !ctas[warp.ctaSlot].active) {
            fail(who + " is bound to no active CTA slot");
            continue;
        }
        const ResidentCta &cta = ctas[warp.ctaSlot];
        if (cta.ctaId != warp.ctaId) {
            fail(who + " claims CTA " + std::to_string(warp.ctaId) +
                 " but its slot runs CTA " + std::to_string(cta.ctaId));
        }
        if (std::find(cta.warpSlots.begin(), cta.warpSlots.end(), slot) ==
            cta.warpSlots.end()) {
            fail(who + " is missing from CTA " + std::to_string(cta.ctaId) +
                 "'s warp list");
        }
        if (state == WarpState::Finished)
            continue;
        ++resident_warps;
        if (warps.pc(slot) < 0 ||
            warps.pc(slot) >= static_cast<int>(program.code.size())) {
            fail(who + " has pc " + std::to_string(warps.pc(slot)) +
                 " outside the " + std::to_string(program.code.size()) +
                 "-instruction program");
        }
        // Stale completion events from a slot's previous occupant are
        // dropped by their generation tag (SimEvent::launchOrder), so
        // outstanding-request accounting is a hard invariant now.
        const int pending = warps.pendingMem(slot);
        if (pending < 0 || pending > config.maxPendingMemPerWarp) {
            fail(who + " has " + std::to_string(pending) +
                 " outstanding memory requests (limit " +
                 std::to_string(config.maxPendingMemPerWarp) + ")");
        }
    }
    if (resident_warps != aliveWarps) {
        fail("aliveWarps " + std::to_string(aliveWarps) + " != " +
             std::to_string(resident_warps) + " resident warps");
    }

    int active_ctas = 0;
    for (std::size_t i = 0; i < ctas.size(); ++i) {
        const ResidentCta &cta = ctas[i];
        if (!cta.active)
            continue;
        ++active_ctas;
        const std::string who = "CTA " + std::to_string(cta.ctaId);
        if (static_cast<int>(cta.warpSlots.size()) != warpsPerCta) {
            fail(who + " lists " + std::to_string(cta.warpSlots.size()) +
                 " warps, not " + std::to_string(warpsPerCta));
        }
        int alive = 0;
        int at_barrier = 0;
        for (const int slot : cta.warpSlots) {
            if (warps.warp(slot).ctaSlot != static_cast<int>(i)) {
                fail(who + " lists warp " + std::to_string(slot) +
                     " bound to another CTA slot");
                continue;
            }
            if (warps.resident(slot))
                ++alive;
            if (warps.state(slot) == WarpState::WaitBarrier)
                ++at_barrier;
        }
        if (alive != cta.warpsAlive) {
            fail(who + " warpsAlive " + std::to_string(cta.warpsAlive) +
                 " != " + std::to_string(alive) + " live warps");
        }
        if (at_barrier != cta.barrierArrived) {
            fail(who + " barrierArrived " +
                 std::to_string(cta.barrierArrived) + " != " +
                 std::to_string(at_barrier) + " warps at the barrier");
        }
    }
    if (active_ctas != residentCtas) {
        fail("residentCtas " + std::to_string(residentCtas) + " != " +
             std::to_string(active_ctas) + " active CTA slots");
    }
    if (nextCtaId > ctasToRun ||
        static_cast<std::uint64_t>(nextCtaId) !=
            stats.ctasCompleted + static_cast<std::uint64_t>(residentCtas)) {
        fail("CTA conservation: launched " + std::to_string(nextCtaId) +
             " of " + std::to_string(ctasToRun) + " != completed " +
             std::to_string(stats.ctasCompleted) + " + resident " +
             std::to_string(residentCtas));
    }
}

void
Sm::auditEpoch()
{
    std::vector<std::string> violations;
    auditStructure(violations);

    // Policy-level register accounting.
    allocator.auditInvariants(warps, fault.active(), violations);

    if (violations.empty())
        return;
    SanitizerReport report;
    report.kernel = program.info.name;
    report.policy = allocator.name();
    report.smId = smId;
    report.cycle = cycle;
    report.violations = std::move(violations);
    throw SanitizerError(std::move(report),
                         captureDiagnosis(classifyWedge(), false));
}

namespace {

/** Identity header so a snapshot cannot restore into the wrong run. */
constexpr std::uint32_t kSmStateTag = 0x534d5354U;  // "SMST"

constexpr std::uint8_t kFree = 1;  ///< no SRP section held
constexpr std::uint8_t kHeld = 2;  ///< an SRP section held

/**
 * The hold states (kFree | kHeld) a warp can be in before each
 * instruction: forward propagation from the entry, where an executed
 * acquire holds a section and a release frees it. 0 marks an
 * unreachable pc. (analysis/acquire_state.hh solves the same lattice
 * per basic block, but src/analysis links against this library.)
 */
std::vector<std::uint8_t>
holdStatesByPc(const Program &program)
{
    const int size = static_cast<int>(program.code.size());
    std::vector<std::uint8_t> states(program.code.size(), 0);
    std::vector<int> work{0};
    states[0] = kFree;
    while (!work.empty()) {
        const int pc = work.back();
        work.pop_back();
        const Instruction &inst = program.code[static_cast<std::size_t>(pc)];
        const std::uint8_t out = inst.op == Opcode::RegAcquire   ? kHeld
                                 : inst.op == Opcode::RegRelease ? kFree
                                                                 : states[pc];
        const auto flow = [&](int next) {
            std::uint8_t &in = states[static_cast<std::size_t>(next)];
            if ((in | out) != in) {
                in |= out;
                work.push_back(next);
            }
        };
        if (inst.isBranch())
            flow(inst.target);
        if (!inst.isTerminator() && pc + 1 < size)
            flow(pc + 1);
    }
    return states;
}

} // namespace

void
Sm::saveState(SnapshotWriter &w) const
{
    w.u32(kSmStateTag);
    w.str(program.info.name);
    w.str(allocator.name());
    w.i32(smId);
    w.i32(ctasToRun);
    w.i32(config.maxWarpsPerSm);

    w.u64(cycle);
    w.u64(launchCounter);
    w.u64(residentIntegral);
    w.u64(lastProgressCycle);
    w.boolean(launched);
    w.boolean(shrinkApplied);
    w.boolean(corruptApplied);
    w.i32(nextCtaId);
    w.i32(residentCtas);
    w.i32(aliveWarps);
    w.i32(pendingConflictPenalty);
    saveStats(w, stats);

    w.u32(static_cast<std::uint32_t>(warps.numSlots()));
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        const SimWarp &warp = warps.warp(slot);
        w.i32(warp.slot);
        w.i32(warp.ctaSlot);
        w.i32(warp.ctaId);
        w.i32(warp.warpInCta);
        w.u64(warp.launchOrder);
        w.u8(static_cast<std::uint8_t>(warps.state(slot)));
        w.i32(warps.pc(slot));
        // Register images only for resident slots. A finished (or
        // never-launched) slot's slab span is never read before the
        // relaunch zero-fill, so nothing is lost dropping it here.
        const std::uint32_t num_regs =
            warps.resident(slot)
                ? static_cast<std::uint32_t>(warps.regCount())
                : 0;
        w.u32(num_regs);
        const std::int64_t *regs = warps.regs(slot);
        for (std::uint32_t i = 0; i < num_regs; ++i)
            w.i64(regs[i]);
        constexpr int kNumSregs =
            static_cast<int>(SpecialReg::NumSpecialRegs);
        w.u32(static_cast<std::uint32_t>(kNumSregs));
        for (int i = 0; i < kNumSregs; ++i)
            w.i64(warp.sregs.values[i]);
        w.bitmask(warps.sbToBitmask(slot));
        w.i32(warps.pendingMem(slot));
        w.u64(0);  // retired wake-cycle field, kept for the format
        w.u64(warp.waitSince);
        w.boolean(warp.holdsExt);
        w.i32(warp.srpSection);
        w.u64(warp.acquireWaitSince);
        w.bitmask(warp.physMapped);
        w.boolean(warp.ownsLock);
        w.u64(warp.instructions);
    }

    w.u32(static_cast<std::uint32_t>(ctas.size()));
    for (const ResidentCta &cta : ctas) {
        w.i32(cta.ctaId);
        w.u32(static_cast<std::uint32_t>(cta.warpSlots.size()));
        for (const int slot : cta.warpSlots)
            w.i32(slot);
        w.i32(cta.warpsAlive);
        w.i32(cta.barrierArrived);
        w.boolean(cta.active);
        // Shared memory as a diff against its all-zero initial state.
        w.u64(static_cast<std::uint64_t>(cta.smem.sizeWords()));
        std::uint32_t nonzero = 0;
        for (std::size_t i = 0; i < cta.smem.sizeWords(); ++i) {
            if (cta.smem.word(i) != 0)
                ++nonzero;
        }
        w.u32(nonzero);
        for (std::size_t i = 0; i < cta.smem.sizeWords(); ++i) {
            if (cta.smem.word(i) != 0) {
                w.u64(static_cast<std::uint64_t>(i));
                w.i64(cta.smem.word(i));
            }
        }
    }

    // Pending scoreboard/memory events in (cycle, push order) — a pure
    // function of simulation history.
    const std::vector<SimEvent> pending = events.drainSorted();
    w.u32(static_cast<std::uint32_t>(pending.size()));
    for (const SimEvent &event : pending) {
        w.u64(event.cycle);
        w.i32(event.warpSlot);
        w.u32(event.reg);
        w.boolean(event.memCompletion);
        w.boolean(event.spillWake);
        w.u64(event.launchOrder);
    }

    w.u32(static_cast<std::uint32_t>(memQueue.size()));
    for (const MemRequest &req : memQueue) {
        w.i32(req.warpSlot);
        w.u32(req.reg);
        w.u64(req.launchOrder);
    }

    w.u32(static_cast<std::uint32_t>(schedLastIssued.size()));
    for (const int slot : schedLastIssued)
        w.i32(slot);

    // Global memory as construction parameters + a store diff.
    w.i32(gmem.log2Words());
    w.u64(gmem.seed());
    const std::vector<GlobalMemory::Word> changed = gmem.changedWords();
    w.u32(static_cast<std::uint32_t>(changed.size()));
    for (const GlobalMemory::Word &word : changed) {
        w.u64(word.index);
        w.i64(word.value);
    }

    // Policy state as a framed blob: a policy serialization bug shows
    // up as a framing error, not as silent misalignment of what follows.
    SnapshotWriter policy_state;
    allocator.saveState(policy_state);
    w.bytes(policy_state.take());

    if (trace) {
        trace->record(TraceEvent{cycle, -1, -1, -1, TraceKind::Snapshot});
    }
    if (snapshots)
        snapshots->add();
}

void
Sm::restoreState(SnapshotReader &r)
{
    if (r.u32() != kSmStateTag)
        throw SnapshotError("snapshot: bad SM state tag");
    const std::string kernel = r.str();
    const std::string policy = r.str();
    const int saved_sm = r.i32();
    const int saved_ctas = r.i32();
    const int saved_slots = r.i32();
    if (kernel != program.info.name || policy != allocator.name() ||
        saved_sm != smId || saved_ctas != ctasToRun ||
        saved_slots != config.maxWarpsPerSm) {
        throw SnapshotError(
            "snapshot: SM state for kernel '" + kernel + "' policy '" +
            policy + "' SM " + std::to_string(saved_sm) +
            " does not match this run (kernel '" + program.info.name +
            "' policy '" + allocator.name() + "' SM " +
            std::to_string(smId) + ")");
    }

    // Every index below is range-checked before the engine can use it:
    // a damaged image that still decodes must fail here, typed, rather
    // than inside the resumed cycle loop.
    const auto require = [](bool ok, const char *what) {
        if (!ok)
            throw SnapshotError(std::string("snapshot: ") + what);
    };
    const auto is_slot = [&](int slot) {
        return slot >= 0 && slot < config.maxWarpsPerSm;
    };
    const auto is_reg = [&](std::uint32_t reg) {
        return reg == kNoReg ||
               reg < static_cast<std::uint32_t>(warps.regCount());
    };

    cycle = r.u64();
    launchCounter = r.u64();
    residentIntegral = r.u64();
    lastProgressCycle = r.u64();
    require(lastProgressCycle <= cycle, "progress clock ahead of the cycle");
    launched = r.boolean();
    shrinkApplied = r.boolean();
    corruptApplied = r.boolean();
    nextCtaId = r.i32();
    residentCtas = r.i32();
    aliveWarps = r.i32();
    pendingConflictPenalty = r.i32();
    stats = loadStats(r);

    const std::uint32_t num_warps = r.u32();
    if (num_warps != static_cast<std::uint32_t>(warps.numSlots()))
        throw SnapshotError("snapshot: warp slot count mismatch");
    for (int slot = 0; slot < warps.numSlots(); ++slot) {
        SimWarp &warp = warps.warp(slot);
        warp.slot = r.i32();
        require(warp.slot == slot, "warp record for the wrong slot");
        warp.ctaSlot = r.i32();
        warp.ctaId = r.i32();
        warp.warpInCta = r.i32();
        warp.launchOrder = r.u64();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(WarpState::Finished))
            throw SnapshotError("snapshot: invalid warp state");
        warps.setState(slot, static_cast<WarpState>(state));
        warps.setPc(slot, r.i32());
        // Resident slots carry their whole register image, others none.
        const std::uint32_t num_regs = r.u32();
        require(num_regs == (warps.resident(slot)
                                 ? static_cast<std::uint32_t>(
                                       warps.regCount())
                                 : 0u),
                "register count mismatch");
        warps.clearRegs(slot);
        std::int64_t *regs = warps.regs(slot);
        for (std::uint32_t i = 0; i < num_regs; ++i)
            regs[i] = r.i64();
        const std::uint32_t num_sregs = r.u32();
        if (num_sregs != static_cast<std::uint32_t>(
                             SpecialReg::NumSpecialRegs)) {
            throw SnapshotError("snapshot: special-register count "
                                "mismatch");
        }
        for (std::uint32_t i = 0; i < num_sregs; ++i)
            warp.sregs.values[i] = r.i64();
        warps.sbFromBitmask(slot, r.bitmask());
        warps.setPendingMem(slot, r.i32());
        r.u64();  // retired wake-cycle field
        warp.waitSince = r.u64();
        warp.holdsExt = r.boolean();
        warp.srpSection = r.i32();
        // A held section indexes the operand mapping; none is -1.
        require(warp.holdsExt
                    ? warp.srpSection >= 0 &&
                          warp.srpSection < config.maxWarpsPerSm &&
                          (!mapper ||
                           warp.srpSection < mapper->sectionCount())
                    : warp.srpSection == -1,
                "warp SRP section out of range");
        warp.acquireWaitSince = r.u64();
        warp.physMapped = r.bitmask();
        require(!warps.resident(slot) ||
                    warp.physMapped.size() ==
                        static_cast<std::size_t>(program.info.numRegs),
                "warp register-mapping mask has the wrong size");
        warp.ownsLock = r.boolean();
        warp.instructions = r.u64();
    }

    const std::uint32_t num_ctas = r.u32();
    if (num_ctas != ctas.size())
        throw SnapshotError("snapshot: CTA slot count mismatch");
    for (ResidentCta &cta : ctas) {
        cta.ctaId = r.i32();
        const std::uint32_t num_slots = r.u32();
        require(num_slots <= static_cast<std::uint32_t>(config.maxWarpsPerSm),
                "CTA warp list longer than the SM");
        cta.warpSlots.assign(num_slots, -1);
        for (std::uint32_t i = 0; i < num_slots; ++i) {
            cta.warpSlots[i] = r.i32();
            require(is_slot(cta.warpSlots[i]), "CTA warp slot out of range");
        }
        cta.warpsAlive = r.i32();
        cta.barrierArrived = r.i32();
        cta.active = r.boolean();
        const std::uint64_t smem_words = r.u64();
        // A slot that has hosted a CTA carries kernel-sized shared
        // memory; one that never launched still has the default
        // allocation. Rebuild whichever shape was saved.
        cta.smem = SharedMemory(program.info.sharedBytesPerCta);
        if (smem_words != cta.smem.sizeWords()) {
            cta.smem = SharedMemory();
            if (smem_words != cta.smem.sizeWords())
                throw SnapshotError(
                    "snapshot: shared-memory size mismatch");
        }
        const std::uint32_t nonzero = r.u32();
        for (std::uint32_t i = 0; i < nonzero; ++i) {
            const std::uint64_t index = r.u64();
            if (index >= smem_words)
                throw SnapshotError("snapshot: shared-memory index out "
                                    "of range");
            cta.smem.setWord(static_cast<std::size_t>(index), r.i64());
        }
    }
    std::vector<std::string> violations;
    auditStructure(violations);
    if (!violations.empty()) {
        throw SnapshotError("snapshot: inconsistent SM state (" +
                            violations.front() + ")");
    }
    // With extended-register checking on, a warp's held section must
    // fit where its pc sits between the directives, or its next
    // extended access would trip the issue-stage held-section check.
    if (mapper && mapper->extendedMode()) {
        const std::vector<std::uint8_t> holds = holdStatesByPc(program);
        for (int slot = 0; slot < warps.numSlots(); ++slot) {
            require(!warps.resident(slot) ||
                        (holds[static_cast<std::size_t>(warps.pc(slot))] &
                         (warps.warp(slot).holdsExt ? kHeld : kFree)) != 0,
                    "warp pc unreachable with its held section");
        }
    }

    events.reset(cycle);
    const std::uint32_t num_events = r.u32();
    for (std::uint32_t i = 0; i < num_events; ++i) {
        SimEvent event{};
        event.cycle = r.u64();
        event.warpSlot = r.i32();
        const std::uint32_t reg = r.u32();
        require(is_slot(event.warpSlot) && is_reg(reg),
                "event operand out of range");
        event.reg = static_cast<RegId>(reg);
        event.memCompletion = r.boolean();
        event.spillWake = r.boolean();
        event.launchOrder = r.u64();
        events.push(event);
    }

    memQueue.clear();
    const std::uint32_t num_reqs = r.u32();
    for (std::uint32_t i = 0; i < num_reqs; ++i) {
        MemRequest req{};
        req.warpSlot = r.i32();
        const std::uint32_t reg = r.u32();
        require(is_slot(req.warpSlot) && is_reg(reg),
                "memory request operand out of range");
        req.reg = static_cast<RegId>(reg);
        req.launchOrder = r.u64();
        memQueue.push(req);
    }

    const std::uint32_t num_scheds = r.u32();
    if (num_scheds != schedLastIssued.size())
        throw SnapshotError("snapshot: scheduler count mismatch");
    for (std::uint32_t i = 0; i < num_scheds; ++i) {
        const int slot = r.i32();
        require(slot == -1 ||
                    (is_slot(slot) && slot % config.numSchedulers ==
                                          static_cast<int>(i)),
                "scheduler's last-issued warp is not its own");
        schedLastIssued[i] = slot;
    }

    const int mem_log2 = r.i32();
    const std::uint64_t mem_seed = r.u64();
    if (mem_log2 != gmem.log2Words() || mem_seed != gmem.seed()) {
        throw SnapshotError("snapshot: global-memory geometry or seed "
                            "mismatch");
    }
    // Reset to pristine contents, then replay the recorded stores.
    gmem.reset();
    const std::uint32_t dirty = r.u32();
    for (std::uint32_t i = 0; i < dirty; ++i) {
        const std::uint64_t index = r.u64();
        if (index >= gmem.sizeWords())
            throw SnapshotError("snapshot: global-memory index out of "
                                "range");
        gmem.store(index, r.i64());
    }

    const std::string policy_state = r.bytes();
    SnapshotReader policy_reader(policy_state);
    allocator.restoreState(policy_reader);
    if (!policy_reader.atEnd()) {
        throw SnapshotError("snapshot: trailing bytes in '" +
                            allocator.name() + "' policy state");
    }

    if (trace) {
        trace->record(TraceEvent{cycle, -1, -1, -1, TraceKind::Restore});
    }
    if (restores)
        restores->add();
    nextSampleCycle = sampleCycleAfterNow();
}

} // namespace rm
