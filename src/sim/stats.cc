#include "sim/stats.hh"

#include "common/errors.hh"

namespace rm {

const char *
deadlockCauseName(DeadlockCause cause)
{
    switch (cause) {
      case DeadlockCause::None:
        return "none";
      case DeadlockCause::Acquire:
        return "acquire";
      case DeadlockCause::Resource:
        return "resource";
      case DeadlockCause::Barrier:
        return "barrier";
    }
    return "none";
}

DeadlockCause
deadlockCauseFromName(const std::string &name)
{
    if (name == "acquire")
        return DeadlockCause::Acquire;
    if (name == "resource")
        return DeadlockCause::Resource;
    if (name == "barrier")
        return DeadlockCause::Barrier;
    return DeadlockCause::None;
}

bool
operator==(const SimStats &a, const SimStats &b)
{
    for (const SummedCounter &row : kSummedCounters) {
        if (a.*row.member != b.*row.member)
            return false;
    }
    return a.kernelName == b.kernelName &&
           a.allocatorName == b.allocatorName && a.cycles == b.cycles &&
           a.instructions == b.instructions &&
           a.ctasCompleted == b.ctasCompleted &&
           a.theoreticalCtas == b.theoreticalCtas &&
           a.theoreticalWarps == b.theoreticalWarps &&
           a.theoreticalOccupancy == b.theoreticalOccupancy &&
           a.avgResidentWarps == b.avgResidentWarps &&
           a.deadlocked == b.deadlocked &&
           a.deadlockCause == b.deadlockCause &&
           (a.hang != nullptr) == (b.hang != nullptr);
}

double
cycleReduction(const SimStats &baseline, const SimStats &technique)
{
    fatalIf(baseline.cycles == 0, "cycleReduction: baseline ran 0 cycles");
    return 1.0 - static_cast<double>(technique.cycles) /
                     static_cast<double>(baseline.cycles);
}

} // namespace rm
