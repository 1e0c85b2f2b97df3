#ifndef RM_WORKLOADS_SUITE_HH
#define RM_WORKLOADS_SUITE_HH

/**
 * @file
 * The 16-workload suite of the paper (Table I): synthetic analogues of
 * the Rodinia / Parboil / CUDA-SDK kernels, tuned so that (a) each
 * kernel's architected register demand equals the Table I count, (b)
 * the eight occupancy-limited kernels are register-limited on the
 * GTX480 baseline (Fig. 7 set) while the other eight only become
 * register-limited when the register file is halved (Fig. 8 set), and
 * (c) the |Es| heuristic reproduces the Table I base-set sizes.
 */

#include <string>
#include <vector>

#include "workloads/generator.hh"

namespace rm {

/** One suite entry: the generator spec plus the paper's Table I row. */
struct WorkloadEntry
{
    KernelSpec spec;
    /** Table I registers per thread (raw). */
    int paperRegs = 0;
    /** Table I |Bs|. */
    int paperBs = 0;
    /**
     * True for the Fig. 7 set (register-limited on the full-size
     * register file); false for the Fig. 8 set (register-limited only
     * on the halved register file, where Table I's |Bs| applies).
     */
    bool occupancyLimited = false;
};

/** All 16 workloads in Table I order. */
const std::vector<WorkloadEntry> &paperSuite();

/** Lookup by name; throws FatalError when unknown. */
const WorkloadEntry &workload(const std::string &name);

/** Build the kernel program of a suite workload. */
Program buildWorkload(const std::string &name);

/**
 * Load the kernel a command-line target names: a path ending in
 * ".asm" is parsed as assembly, "-" reads assembly from stdin, and any
 * other target is a suite workload name. Throws FatalError on an
 * unknown name, an unreadable file or malformed assembly.
 */
Program loadKernel(const std::string &target);

/** Names of the 8 occupancy-limited workloads (Fig. 7 / 9a / 10-13). */
std::vector<std::string> occupancyLimitedSet();

/** Names of the 8 register-file-size-study workloads (Fig. 8 / 9b). */
std::vector<std::string> halfRfSet();

} // namespace rm

#endif // RM_WORKLOADS_SUITE_HH
