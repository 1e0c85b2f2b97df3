#ifndef RM_SIM_CONFIG_HH
#define RM_SIM_CONFIG_HH

/**
 * @file
 * GPU configuration: the per-SM resource model and the timing-model
 * latencies. The default factory reproduces the GeForce GTX480 (Fermi)
 * configuration GPGPU-Sim v3.2.2 ships and the paper evaluates on:
 * 15 SMs, 128 KB register file per SM (32K 32-bit registers), 48
 * resident warps, 8 CTAs, 48 KB shared memory, 2 warp schedulers with
 * greedy-then-oldest scheduling.
 */

namespace rm {

/**
 * The cycle engine's envelope: at most this many warp slots per SM and
 * this many registers per thread. Both fit one 64-bit word, so the
 * scheduler's ready/issue-clean slot sets and each warp's scoreboard
 * are single words. Every shipped configuration has 48 or 64 slots and
 * the Table I kernels peak at 44 registers; Gpu::run rejects anything
 * wider with a FatalError.
 */
inline constexpr int kEngineWordBits = 64;

/** Warp scheduler policy. */
enum class SchedPolicy {
    Gto,  ///< greedy-then-oldest (GPGPU-Sim default, used by the paper)
    Lrr,  ///< loose round-robin (ablation)
};

/** Hardware and timing parameters. All sizes are per SM. */
struct GpuConfig
{
    // --- Resources (GTX480 defaults) ---
    int numSms = 15;
    int maxWarpsPerSm = 48;
    int maxCtasPerSm = 8;
    int maxThreadsPerSm = 1536;
    int registersPerSm = 32768;     ///< 32-bit registers
    int sharedMemPerSm = 49152;     ///< bytes
    int warpSize = 32;
    int numSchedulers = 2;
    /** Baseline static allocation rounds regs/thread up to this. */
    int regAllocGranularity = 4;

    // --- Timing ---
    int aluLatency = 8;
    int sfuLatency = 20;
    int sharedLatency = 28;
    int globalLatency = 400;
    /** Global-memory requests the SM can dispatch per cycle. */
    int memIssuePerCycle = 2;
    /** Outstanding global-memory requests allowed per warp. */
    int maxPendingMemPerWarp = 6;

    // --- Operand collector (paper Fig. 6) ---
    /** Register-file banks feeding the operand collector. */
    int rfBanks = 4;
    /**
     * Model bank conflicts between an instruction's source operands:
     * each conflict costs one extra collection cycle (ablation; off by
     * default to match the paper's evaluation, which does not model
     * them). Requires a policy with a register mapping (baseline or
     * RegMutex).
     */
    bool modelBankConflicts = false;

    // --- Control ---
    SchedPolicy schedPolicy = SchedPolicy::Gto;
    /**
     * When true (paper model), a failed extended-set acquire parks the
     * warp until some warp releases; when false the warp retries every
     * time it is scheduled (ablation).
     */
    bool wakeOnRelease = true;
    /** Cycles without progress before the simulation aborts. */
    long long watchdogCycles = 4'000'000;

    /** Warps per CTA for a kernel with @p cta_threads threads. */
    int warpsPerCta(int cta_threads) const { return cta_threads / warpSize; }
};

/** The paper's baseline: GTX480 as configured in GPGPU-Sim v3.2.2. */
GpuConfig gtx480Config();

/** Same architecture with half the register file (paper Sec. IV-B). */
GpuConfig halfRegisterFile(GpuConfig config);

/**
 * Post-Fermi resource models (paper Sec. IV: register files doubled
 * but so did resident-warp limits, so any kernel above 32 registers
 * per thread still cannot reach full occupancy — RegMutex generalizes).
 * Timing parameters are kept at the Fermi-class defaults; only the
 * occupancy-relevant resources change.
 */
GpuConfig keplerConfig();   ///< 64K regs, 64 warps, 16 CTAs, 2048 threads
GpuConfig maxwellConfig();  ///< 64K regs, 64 warps, 32 CTAs, 2048 threads
GpuConfig voltaConfig();    ///< 64K regs, 64 warps, 32 CTAs, 96KB shared

} // namespace rm

#endif // RM_SIM_CONFIG_HH
