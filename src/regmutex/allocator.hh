#ifndef RM_REGMUTEX_ALLOCATOR_HH
#define RM_REGMUTEX_ALLOCATOR_HH

/**
 * @file
 * The RegMutex register allocation policy (paper Sec. III-B): base
 * sets statically allocated per warp, extended sets acquired from the
 * Shared Register Pool at the issue stage via Find-First-Zero over the
 * SRP bitmask, with a warp-status bitmask and a warp-to-section lookup
 * table (Fig. 4/5). Includes the paired-warps specialization (Sec.
 * III-C) that shares one extended set between each pair of warps and
 * needs only an Nw/2-bit mask.
 */

#include <vector>

#include "common/bitmask.hh"
#include "sim/allocator.hh"
#include "sim/register_map.hh"

namespace rm {

/** Default (pooled) RegMutex allocator. */
class RegMutexAllocator : public RegisterAllocator
{
  public:
    std::string name() const override { return "regmutex"; }

    void prepare(const GpuConfig &config, const Program &program) override;
    int maxCtasByRegisters() const override { return maxCtas; }

    AcquireOutcome acquire(SimWarp &warp) override;
    void release(SimWarp &warp) override;
    void onWarpExit(SimWarp &warp) override;
    bool consumeFreedFlag() override;
    // The SRP handshake happens at the acquire directive (issue-stage
    // side effect), never as a per-instruction gate or priority bias.
    bool gatesIssue() const override { return false; }
    bool biasesPriority() const override { return false; }
    int srpSectionCount() const override { return sections - shrunk; }
    int faultShrinkCapacity(int amount) override;
    bool faultCorruptState() override;
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;
    void auditInvariants(const WarpStore &warps,
                         bool faults_active,
                         std::vector<std::string> &violations) const override;

    /** Operand-collector mapping for this launch (paper Fig. 6b). */
    RegisterMapper makeMapper() const;

    int srpSections() const { return sections; }
    int baseRegs() const { return bs; }
    int extRegs() const { return es; }

    /** SRP bitmask (bits beyond the section count are pre-set). */
    const Bitmask &srpBitmask() const { return srp; }
    const Bitmask &warpStatusBitmask() const { return warpStatus; }
    /** LUT entry (acquired section) of a warp slot; -1 when none. */
    int lutEntry(int slot) const;

  private:
    bool enabled = false;
    int bs = 0;
    int es = 0;
    int maxCtas = 0;
    int sections = 0;
    int totalPacks = 0;
    int srpOffsetPacks = 0;
    int residentWarpCap = 0;
    int fallbackCoeff = 0;  ///< baseline coefficient when disabled
    Bitmask srp;
    Bitmask warpStatus;
    std::vector<int> lut;
    bool freed = false;
    // Fault injection (faultShrinkCapacity): sections already revoked
    // and revocations still waiting for a holder's release.
    int shrunk = 0;
    int pendingShrink = 0;
};

/** Paired-warps specialization (Sec. III-C). */
class PairedRegMutexAllocator : public RegisterAllocator
{
  public:
    std::string name() const override { return "regmutex-paired"; }

    void prepare(const GpuConfig &config, const Program &program) override;
    int maxCtasByRegisters() const override { return maxCtas; }

    AcquireOutcome acquire(SimWarp &warp) override;
    void release(SimWarp &warp) override;
    void onWarpExit(SimWarp &warp) override;
    bool consumeFreedFlag() override;
    // Pair-granularity SRP handshake: same acquire-directive contract
    // as RegMutexAllocator, so no per-instruction gate either.
    bool gatesIssue() const override { return false; }
    bool biasesPriority() const override { return false; }
    int srpSectionCount() const override { return pairs; }
    bool faultCorruptState() override;
    void saveState(SnapshotWriter &w) const override;
    void restoreState(SnapshotReader &r) override;
    void auditInvariants(const WarpStore &warps,
                         bool faults_active,
                         std::vector<std::string> &violations) const override;

    /** Pair section mapping: each pair owns a fixed SRP slice. */
    RegisterMapper makeMapper() const;

    int baseRegs() const { return bs; }
    int extRegs() const { return es; }

  private:
    bool enabled = false;
    int bs = 0;
    int es = 0;
    int maxCtas = 0;
    int pairs = 0;
    int totalPacks = 0;
    int srpOffsetPacks = 0;
    int residentWarpCap = 0;
    int fallbackCoeff = 0;
    Bitmask pairHeld;  ///< Nw/2 bits: extended set of pair p in use
    bool freed = false;
};

} // namespace rm

#endif // RM_REGMUTEX_ALLOCATOR_HH
