#include "sim/trace.hh"

#include "common/errors.hh"

namespace rm {

IssueTrace::IssueTrace(std::size_t capacity) : ring(capacity)
{
    fatalIf(capacity == 0, "IssueTrace: zero capacity");
}

void
IssueTrace::record(TraceEvent event)
{
    ring[head] = event;
    head = (head + 1) % ring.size();
    if (count < ring.size())
        ++count;
    ++recorded;
}

std::vector<TraceEvent>
IssueTrace::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count);
    const std::size_t start =
        count < ring.size() ? 0 : head;  // oldest entry
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(ring[(start + i) % ring.size()]);
    return out;
}

const char *
IssueTrace::kindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::Issue: return "issue";
      case TraceKind::AcquireOk: return "acquire";
      case TraceKind::AcquireBlocked: return "acq-blocked";
      case TraceKind::Release: return "release";
      case TraceKind::BarrierWait: return "barrier";
      case TraceKind::WarpExit: return "exit";
      case TraceKind::CtaLaunch: return "cta-launch";
      case TraceKind::CtaRetire: return "cta-retire";
      case TraceKind::Snapshot: return "snapshot";
      case TraceKind::Restore: return "restore";
    }
    return "?";
}

} // namespace rm
