#ifndef RM_BASELINES_RFV_HH
#define RM_BASELINES_RFV_HH

/**
 * @file
 * Register File Virtualization (Jeon et al., MICRO 2015) — the paper's
 * second comparison baseline. A renaming table maps architected to
 * physical registers on demand: a physical register is allocated at a
 * register's (re)definition and released at its last use, using
 * compiler-provided dead-register information (here: the liveness
 * dataflow). Occupancy is provisioned above the static peak since most
 * registers are dead most of the time; if the physical pool runs dry
 * the issuing warp stalls, and a full wedge is broken by an emergency
 * spill (GPU-Shrink models register spilling similarly).
 */

#include <cstdint>
#include <vector>

#include "sim/allocator.hh"

namespace rm {

/** Renaming-table allocation policy. */
class RfvAllocator : public RegisterAllocator
{
  public:
    /**
     * @param provisioning occupancy provisioning estimate in
     *        [0, 1]: 0 provisions by the static average live count,
     *        1 by the peak; default midway.
     */
    explicit RfvAllocator(double provisioning = 0.25)
        : provisioning(provisioning)
    {}

    std::string name() const override { return "rfv"; }

    void prepare(const GpuConfig &config, const Program &program) override;
    int maxCtasByRegisters() const override { return maxCtas; }

    void onWarpLaunch(SimWarp &warp) override;
    /** @p inst must be an instruction of the prepared program (the
     *  engine passes &program.code[pc]); its pc selects the masks. */
    bool canIssue(const SimWarp &warp,
                  const Instruction &inst) const override;
    // canIssue gates on the physical pool (keep the default hint), but
    // RFV never biases scheduler priority.
    bool biasesPriority() const override { return false; }
    void onIssued(SimWarp &warp, const Instruction &inst, int pc) override;
    void onWarpExit(SimWarp &warp) override;
    bool consumeFreedFlag() override;
    int forceProgress(SimWarp &warp, int pc) override;
    std::uint64_t emergencyCount() const override { return spills; }

    /**
     * Fault injection: permanently drain @p amount physical packs from
     * the pool. The pool may go negative (the overdraft rules already
     * tolerate that), starving issue and driving the emergency-spill
     * breaker.
     */
    int faultShrinkCapacity(int amount) override
    {
        if (amount <= 0)
            return 0;
        physFree -= amount;
        drained += amount;
        return amount;
    }

    bool faultCorruptState() override;
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;
    void auditInvariants(const WarpStore &warps,
                         bool faults_active,
                         std::vector<std::string> &violations) const override;

    /** Free physical register packs right now (for tests). */
    int freePacks() const { return physFree; }
    int estimatedDemand() const { return estDemand; }

  private:
    double provisioning;
    const Program *prog = nullptr;
    int maxCtas = 0;
    int estDemand = 0;
    int physFree = 0;
    int totalPacks = 0;
    /** Packs permanently drained by fault injection (conservation). */
    int drained = 0;
    int spillPenalty = 0;
    bool freed = false;
    std::uint64_t spills = 0;
    /**
     * Per-pc word masks built by prepare(): the distinct operands and
     * their count, and the registers whose last use is at that pc
     * (dead after issue). canIssue() admits without touching the
     * warp's mapping when the pool already covers the distinct operand
     * count (need can never exceed it); onIssued() maps and releases
     * with two word ops.
     */
    std::vector<std::uint64_t> opMaskByPc;
    std::vector<std::uint8_t> opCountByPc;
    std::vector<std::uint64_t> deathMaskByPc;

    /** Map pc's unmapped operands; returns the newly mapped bits. */
    std::uint64_t mapOperands(SimWarp &warp, int pc);
};

} // namespace rm

#endif // RM_BASELINES_RFV_HH
