#include "obs/export.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "isa/disasm.hh"
#include "isa/program.hh"

namespace rm {

namespace {

/**
 * A kSummedCounters JSON path split at its dot: {"stalls",
 * "scoreboard"} for "stalls.scoreboard", {"", key} for a top-level key.
 */
std::pair<std::string_view, std::string_view>
splitJsonPath(std::string_view path)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos)
        return {std::string_view(), path};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

} // namespace

void
statsToJson(JsonWriter &w, const SimStats &stats)
{
    w.beginObject();
    w.key("kernel").value(stats.kernelName);
    w.key("allocator").value(stats.allocatorName);
    w.key("cycles").value(stats.cycles);
    w.key("instructions").value(stats.instructions);
    w.key("ipc").value(stats.ipc());
    w.key("ctas_completed").value(stats.ctasCompleted);
    w.key("theoretical_ctas").value(stats.theoreticalCtas);
    w.key("theoretical_warps").value(stats.theoreticalWarps);
    w.key("theoretical_occupancy").value(stats.theoreticalOccupancy);
    w.key("avg_resident_warps").value(stats.avgResidentWarps);
    // The counters in table order; consecutive rows that share a
    // parent ("stalls") share one nested object. The derived rate and
    // the deadlock fields keep their places beside two of the rows.
    std::string_view open;
    for (const SummedCounter &row : kSummedCounters) {
        const auto [parent, key] = splitJsonPath(row.jsonPath);
        if (parent != open) {
            if (!open.empty())
                w.endObject();
            if (!parent.empty())
                w.key(parent).beginObject();
            open = parent;
        }
        if (row.member == &SimStats::faultEvents) {
            w.key("deadlocked").value(stats.deadlocked);
            w.key("deadlock_cause")
                .value(deadlockCauseName(stats.deadlockCause));
        }
        w.key(key).value(stats.*row.member);
        if (row.member == &SimStats::acquireAlreadyHeld)
            w.key("acquire_success_rate").value(stats.acquireSuccessRate());
    }
    if (!open.empty())
        w.endObject();
    if (stats.hang) {
        w.key("hang");
        diagnosisToJson(w, *stats.hang);
    }
    w.endObject();
}

std::string
statsToJson(const SimStats &stats)
{
    JsonWriter w;
    statsToJson(w, stats);
    return w.take();
}

namespace {

// Decoders use the typed accessors from obs/json.hh: missing members
// keep their defaults so older documents load, but a wrong-typed
// member throws JsonSchemaError — the sweep checkpoint feeds these
// decoders bytes from disk, and silently default-constructing from
// damaged input would poison the restored cells.

/** Elements of an int array member; wrong-typed member or element throws. */
std::vector<int>
intArrayAt(const JsonValue &obj, std::string_view key)
{
    std::vector<int> out;
    if (const JsonValue *v = jsonArray(obj, key)) {
        for (const JsonValue &item : v->items) {
            if (item.kind != JsonValue::Kind::Number)
                throw JsonSchemaError("json: member '" + std::string(key) +
                                      "' has a non-number element");
            out.push_back(static_cast<int>(item.number));
        }
    }
    return out;
}

} // namespace

SimStats
statsFromJson(const JsonValue &value)
{
    requireJsonObject(value, "stats document");
    SimStats s;
    s.kernelName = jsonString(value, "kernel");
    s.allocatorName = jsonString(value, "allocator");
    s.cycles = jsonU64(value, "cycles");
    s.instructions = jsonU64(value, "instructions");
    s.ctasCompleted = jsonU64(value, "ctas_completed");
    s.theoreticalCtas = jsonInt(value, "theoretical_ctas");
    s.theoreticalWarps = jsonInt(value, "theoretical_warps");
    s.theoreticalOccupancy = jsonNumber(value, "theoretical_occupancy");
    s.avgResidentWarps = jsonNumber(value, "avg_resident_warps");
    for (const SummedCounter &row : kSummedCounters) {
        const auto [parent, key] = splitJsonPath(row.jsonPath);
        const JsonValue *object =
            parent.empty() ? &value : jsonObject(value, parent);
        if (object)
            s.*row.member = jsonU64(*object, key);
    }
    s.deadlocked = jsonBool(value, "deadlocked");
    if (value.has("deadlock_cause"))
        s.deadlockCause =
            deadlockCauseFromName(jsonString(value, "deadlock_cause"));
    if (const JsonValue *v = jsonObject(value, "hang"))
        s.hang = std::make_shared<const HangDiagnosis>(
            diagnosisFromJson(*v));
    return s;
}

void
diagnosisToJson(JsonWriter &w, const HangDiagnosis &diag)
{
    w.beginObject();
    w.key("kernel").value(diag.kernel);
    w.key("policy").value(diag.policy);
    w.key("sm_id").value(diag.smId);
    w.key("cycle").value(diag.cycle);
    w.key("watchdog_expired").value(diag.watchdogExpired);
    w.key("cause").value(deadlockCauseName(diag.cause));
    w.key("blocked_acquire").value(diag.blockedAcquire);
    w.key("blocked_resource").value(diag.blockedResource);
    w.key("blocked_barrier").value(diag.blockedBarrier);
    w.key("other_waiters").value(diag.otherWaiters);
    w.key("event_queue_depth")
        .value(static_cast<std::uint64_t>(diag.eventQueueDepth));
    w.key("mem_queue_depth")
        .value(static_cast<std::uint64_t>(diag.memQueueDepth));
    w.key("next_event_cycle").value(diag.nextEventCycle);
    w.key("sched_last_issued").beginArray();
    for (const int slot : diag.schedLastIssued)
        w.value(slot);
    w.endArray();
    w.key("srp_sections").value(diag.srpSections);
    w.key("srp_holders").beginArray();
    for (const int slot : diag.srpHolders)
        w.value(slot);
    w.endArray();
    w.key("srp_waiters").beginArray();
    for (const int slot : diag.srpWaiters)
        w.value(slot);
    w.endArray();
    w.key("warps").beginArray();
    for (const WarpSnapshot &warp : diag.warps) {
        w.beginObject();
        w.key("slot").value(warp.slot);
        w.key("cta").value(warp.ctaId);
        w.key("warp_in_cta").value(warp.warpInCta);
        w.key("pc").value(warp.pc);
        w.key("instruction").value(warp.instruction);
        w.key("state").value(warpStateName(warp.state));
        w.key("wait_age").value(warp.waitAge);
        w.key("srp_section").value(warp.srpSection);
        w.key("holds_ext").value(warp.holdsExt);
        w.key("pending_mem").value(warp.pendingMem);
        w.key("pending_writes").value(warp.pendingWrites);
        w.key("instructions").value(warp.instructionsExecuted);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
diagnosisToJson(const HangDiagnosis &diag)
{
    JsonWriter w;
    diagnosisToJson(w, diag);
    return w.take();
}

HangDiagnosis
diagnosisFromJson(const JsonValue &value)
{
    requireJsonObject(value, "diagnosis document");
    HangDiagnosis d;
    d.kernel = jsonString(value, "kernel");
    d.policy = jsonString(value, "policy");
    d.smId = jsonInt(value, "sm_id");
    d.cycle = jsonU64(value, "cycle");
    d.watchdogExpired = jsonBool(value, "watchdog_expired");
    if (value.has("cause"))
        d.cause = deadlockCauseFromName(jsonString(value, "cause"));
    d.blockedAcquire = jsonInt(value, "blocked_acquire");
    d.blockedResource = jsonInt(value, "blocked_resource");
    d.blockedBarrier = jsonInt(value, "blocked_barrier");
    d.otherWaiters = jsonInt(value, "other_waiters");
    d.eventQueueDepth =
        static_cast<std::size_t>(jsonU64(value, "event_queue_depth"));
    d.memQueueDepth =
        static_cast<std::size_t>(jsonU64(value, "mem_queue_depth"));
    d.nextEventCycle = jsonU64(value, "next_event_cycle");
    d.schedLastIssued = intArrayAt(value, "sched_last_issued");
    d.srpSections = jsonInt(value, "srp_sections", -1);
    d.srpHolders = intArrayAt(value, "srp_holders");
    d.srpWaiters = intArrayAt(value, "srp_waiters");
    if (const JsonValue *v = jsonArray(value, "warps")) {
        for (const JsonValue &entry : v->items) {
            if (!entry.isObject())
                throw JsonSchemaError(
                    "json: member 'warps' has a non-object element");
            WarpSnapshot warp;
            warp.slot = jsonInt(entry, "slot", -1);
            warp.ctaId = jsonInt(entry, "cta", -1);
            warp.warpInCta = jsonInt(entry, "warp_in_cta", -1);
            warp.pc = jsonInt(entry, "pc", -1);
            warp.instruction = jsonString(entry, "instruction");
            warp.state = warpStateFromName(jsonString(entry, "state"));
            warp.waitAge = jsonU64(entry, "wait_age");
            warp.srpSection = jsonInt(entry, "srp_section", -1);
            warp.holdsExt = jsonBool(entry, "holds_ext");
            warp.pendingMem = jsonInt(entry, "pending_mem");
            warp.pendingWrites = jsonInt(entry, "pending_writes");
            warp.instructionsExecuted = jsonU64(entry, "instructions");
            d.warps.push_back(std::move(warp));
        }
    }
    return d;
}

void
registryToJson(JsonWriter &w, const MetricsRegistry &registry)
{
    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, counter] : registry.counters())
        w.key(name).value(counter.value());
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &[name, gauge] : registry.gauges())
        w.key(name).value(gauge.value());
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[name, hist] : registry.histograms()) {
        w.key(name).beginObject();
        w.key("count").value(hist.count());
        w.key("sum").value(hist.sum());
        w.key("min").value(hist.min());
        w.key("max").value(hist.max());
        w.key("mean").value(hist.mean());
        // Sparse bucket list: only non-empty buckets, upper-bound keyed.
        w.key("buckets").beginArray();
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (hist.bucketCount(i) == 0)
                continue;
            w.beginObject();
            w.key("le").value(Histogram::bucketUpperBound(i));
            w.key("count").value(hist.bucketCount(i));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

std::string
registryToJson(const MetricsRegistry &registry)
{
    JsonWriter w;
    registryToJson(w, registry);
    return w.take();
}

std::string
samplerToCsv(const Sampler &sampler)
{
    std::ostringstream os;
    os << "cycle";
    for (const std::string &column : sampler.columns())
        os << ',' << column;
    os << '\n';
    os.precision(12);
    for (const SamplePoint &point : sampler.samples()) {
        os << point.cycle;
        for (const double v : point.values) {
            os << ',';
            // Counters and gauges are integral; print them as such.
            if (v == static_cast<double>(static_cast<long long>(v)))
                os << static_cast<long long>(v);
            else
                os << v;
        }
        os << '\n';
    }
    return os.str();
}

namespace {

/** Disassembly of the instruction a diagnostic points at, or "". */
std::string
diagDisasm(const Program &program, const Diagnostic &d)
{
    if (d.inst < 0 || d.inst >= static_cast<int>(program.code.size()))
        return std::string();
    return disassemble(program.code[d.inst]);
}

} // namespace

void
lintReportToJson(JsonWriter &w, const Program &program,
                 const LintReport &report)
{
    w.beginObject();
    w.key("kernel").value(program.info.name);
    w.key("clean").value(report.clean());
    w.key("errors").value(report.errorCount());
    w.key("warnings").value(report.warningCount());
    w.key("notes").value(report.noteCount());
    w.key("diagnostics").beginArray();
    for (const Diagnostic &d : report.diagnostics) {
        w.beginObject();
        w.key("check").value(d.checkId);
        w.key("severity").value(lintSeverityName(d.severity));
        w.key("block").value(d.block);
        w.key("inst").value(d.inst);
        w.key("disasm").value(diagDisasm(program, d));
        w.key("message").value(d.message);
        if (!d.note.empty())
            w.key("note").value(d.note);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
lintReportToJson(const Program &program, const LintReport &report)
{
    JsonWriter w;
    lintReportToJson(w, program, report);
    return w.take();
}

std::string
lintReportToSarif(const Program &program, const LintReport &report)
{
    // SARIF "level" has no "note"; SARIF's own "note" level is the
    // closest fit for LintSeverity::Note and maps cleanly back.
    const auto sarifLevel = [](LintSeverity s) {
        switch (s) {
          case LintSeverity::Error: return "error";
          case LintSeverity::Warning: return "warning";
          case LintSeverity::Note: return "note";
        }
        return "none";
    };

    JsonWriter w;
    w.beginObject();
    w.key("$schema").value(
        "https://json.schemastore.org/sarif-2.1.0.json");
    w.key("version").value("2.1.0");
    w.key("runs").beginArray();
    w.beginObject();

    w.key("tool").beginObject();
    w.key("driver").beginObject();
    w.key("name").value("rm-lint");
    w.key("informationUri").value("docs/ANALYSIS.md");
    w.key("rules").beginArray();
    for (const auto &check : lintChecks()) {
        w.beginObject();
        w.key("id").value(check->id());
        w.key("name").value(check->name());
        w.key("shortDescription").beginObject();
        w.key("text").value(check->description());
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();

    w.key("results").beginArray();
    for (const Diagnostic &d : report.diagnostics) {
        w.beginObject();
        w.key("ruleId").value(d.checkId);
        w.key("level").value(sarifLevel(d.severity));
        w.key("message").beginObject();
        std::string text = d.message;
        const std::string disasm = diagDisasm(program, d);
        if (!disasm.empty())
            text += " [" + disasm + "]";
        if (!d.note.empty())
            text += " (" + d.note + ")";
        w.key("text").value(text);
        w.endObject();
        if (d.inst >= 0) {
            w.key("locations").beginArray();
            w.beginObject();
            w.key("physicalLocation").beginObject();
            w.key("artifactLocation").beginObject();
            w.key("uri").value("kernels/" + program.info.name + ".rmasm");
            w.endObject();
            w.key("region").beginObject();
            // Instruction index -> 1-based disassembly line.
            w.key("startLine").value(d.inst + 1);
            w.endObject();
            w.endObject();
            w.endObject();
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();

    w.endObject();
    w.endArray();
    w.endObject();
    return w.take();
}

namespace {

/** Emit the shared fields of one trace_event record. */
void
eventCommon(JsonWriter &w, const char *ph, std::uint64_t ts, int tid,
            const char *cat)
{
    w.key("ph").value(ph);
    w.key("ts").value(ts);
    w.key("pid").value(0);
    w.key("tid").value(tid);
    w.key("cat").value(cat);
}

void
completeEvent(JsonWriter &w, const std::string &name, std::uint64_t start,
              std::uint64_t end, int tid, const char *cat)
{
    w.beginObject();
    w.key("name").value(name);
    eventCommon(w, "X", start, tid, cat);
    w.key("dur").value(end > start ? end - start : std::uint64_t{1});
    w.endObject();
}

void
instantEvent(JsonWriter &w, const std::string &name, std::uint64_t ts,
             int tid, const char *cat)
{
    w.beginObject();
    w.key("name").value(name);
    eventCommon(w, "i", ts, tid, cat);
    w.key("s").value("t");
    w.endObject();
}

} // namespace

std::string
chromeTrace(const IssueTrace &trace, const Program &program)
{
    const std::vector<TraceEvent> events = trace.events();
    const std::uint64_t window_end =
        events.empty() ? 1 : events.back().cycle + 1;

    // Per-warp open spans (cycle they started at, or -1).
    struct WarpSpans
    {
        std::int64_t waitSince = -1;
        std::int64_t heldSince = -1;
    };
    std::map<int, WarpSpans> spans;

    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();

    // Track naming metadata (pid 0 = the simulated SM).
    {
        w.beginObject();
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("name").value("process_name");
        w.key("args").beginObject();
        w.key("name").value("regmutex SM0: " + program.info.name);
        w.endObject();
        w.endObject();
    }
    std::map<int, bool> named;
    auto nameTrack = [&](int tid) {
        if (named[tid])
            return;
        named[tid] = true;
        w.beginObject();
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("tid").value(tid);
        w.key("name").value("thread_name");
        w.key("args").beginObject();
        w.key("name").value("warp " + std::to_string(tid));
        w.endObject();
        w.endObject();
        w.beginObject();
        w.key("ph").value("M");
        w.key("pid").value(0);
        w.key("tid").value(tid);
        w.key("name").value("thread_sort_index");
        w.key("args").beginObject();
        w.key("sort_index").value(tid);
        w.endObject();
        w.endObject();
    };

    auto sliceName = [&](const TraceEvent &event) -> std::string {
        if (event.pc >= 0 &&
            event.pc < static_cast<int>(program.code.size())) {
            return disassemble(program.code[event.pc]);
        }
        return IssueTrace::kindName(event.kind);
    };

    for (const TraceEvent &event : events) {
        const int tid = event.warpSlot;
        nameTrack(tid);
        WarpSpans &span = spans[tid];
        switch (event.kind) {
          case TraceKind::Issue:
            completeEvent(w, sliceName(event), event.cycle,
                          event.cycle + 1, tid, "issue");
            break;
          case TraceKind::AcquireBlocked:
            if (span.waitSince < 0)
                span.waitSince = static_cast<std::int64_t>(event.cycle);
            break;
          case TraceKind::AcquireOk:
            if (span.waitSince >= 0) {
                completeEvent(w, "acquire-wait",
                              static_cast<std::uint64_t>(span.waitSince),
                              event.cycle, tid, "srp");
                span.waitSince = -1;
            }
            if (span.heldSince < 0)
                span.heldSince = static_cast<std::int64_t>(event.cycle);
            break;
          case TraceKind::Release:
            if (span.heldSince >= 0) {
                completeEvent(w, "ext-held",
                              static_cast<std::uint64_t>(span.heldSince),
                              event.cycle, tid, "srp");
                span.heldSince = -1;
            }
            break;
          case TraceKind::BarrierWait:
            instantEvent(w, "barrier", event.cycle, tid, "sync");
            break;
          case TraceKind::WarpExit:
            if (span.heldSince >= 0) {
                completeEvent(w, "ext-held",
                              static_cast<std::uint64_t>(span.heldSince),
                              event.cycle, tid, "srp");
                span.heldSince = -1;
            }
            span.waitSince = -1;
            instantEvent(w, "exit", event.cycle, tid, "lifecycle");
            break;
          case TraceKind::CtaLaunch:
            instantEvent(w,
                         "cta-launch #" + std::to_string(event.ctaId),
                         event.cycle, tid, "lifecycle");
            break;
          case TraceKind::CtaRetire:
            instantEvent(w,
                         "cta-retire #" + std::to_string(event.ctaId),
                         event.cycle, tid, "lifecycle");
            break;
          case TraceKind::Snapshot:
            instantEvent(w, "snapshot", event.cycle, tid, "lifecycle");
            break;
          case TraceKind::Restore:
            instantEvent(w, "restore", event.cycle, tid, "lifecycle");
            break;
        }
    }

    // Close spans that never saw their end inside the retained window.
    for (auto &[tid, span] : spans) {
        if (span.waitSince >= 0) {
            completeEvent(w, "acquire-wait",
                          static_cast<std::uint64_t>(span.waitSince),
                          window_end, tid, "srp");
        }
        if (span.heldSince >= 0) {
            completeEvent(w, "ext-held",
                          static_cast<std::uint64_t>(span.heldSince),
                          window_end, tid, "srp");
        }
    }

    w.endArray();
    w.key("otherData").beginObject();
    w.key("kernel").value(program.info.name);
    w.key("events_retained").value(static_cast<std::uint64_t>(trace.size()));
    w.key("events_recorded").value(trace.totalRecorded());
    w.endObject();
    w.endObject();
    return w.take();
}

} // namespace rm
