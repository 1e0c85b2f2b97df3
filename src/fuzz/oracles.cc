#include "fuzz/oracles.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "core/policy.hh"
#include "isa/asm_parser.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "sim/diagnosis.hh"
#include "sim/sanitizer.hh"

namespace rm {
namespace {

/// Sanitizer audits run at multiples of RunControl::epochCycles
/// (1024); an injected corruption must be detected within the next
/// audit after it lands. Two epochs of slack absorb the landing cycle
/// itself straddling a boundary.
constexpr std::uint64_t kEpoch = 1024;
constexpr std::uint64_t kDetectSlack = 2 * kEpoch;

std::string
runKey(const RunSpec &spec)
{
    std::ostringstream os;
    os << spec.policy << "/t" << spec.threads
       << (spec.sanitize ? "/S" : "") << (spec.stripCorrupt ? "/C" : "")
       << "/m" << spec.maxCycles;
    return os.str();
}

void
report(std::vector<OracleFinding> &findings, std::string oracle,
       std::string signature, std::string message)
{
    findings.push_back(OracleFinding{std::move(oracle), std::move(signature),
                                     std::move(message)});
}

// ---------------------------------------------------------------------
// differential: cross-policy invariants
// ---------------------------------------------------------------------

void
checkStructural(CaseLab &lab, const std::string &policy,
                const RunOutcome &out, std::vector<OracleFinding> &findings)
{
    if (!out.hasStats)
        return;
    const FuzzCase &fc = lab.fuzzCase();
    const SimStats &s = out.stats;
    const auto flag = [&](const std::string &klass,
                          const std::string &detail) {
        report(findings, "differential",
               "differential:" + klass + ":" + policy,
               describeCase(fc) + " [" + policy + "]: " + detail);
    };

    if (s.acquireSuccesses > s.acquireAttempts)
        flag("acquire-overcount",
             "acquireSuccesses " + std::to_string(s.acquireSuccesses) +
                 " > acquireAttempts " + std::to_string(s.acquireAttempts));
    if (s.theoreticalOccupancy <= 0.0 || s.theoreticalOccupancy > 1.0 + 1e-9)
        flag("occupancy-range", "theoreticalOccupancy " +
                                    std::to_string(s.theoreticalOccupancy) +
                                    " outside (0, 1]");
    if (s.avgResidentWarps < 0.0 ||
        s.avgResidentWarps >
            static_cast<double>(fc.config.maxWarpsPerSm) + 1e-9)
        flag("resident-range", "avgResidentWarps " +
                                   std::to_string(s.avgResidentWarps) +
                                   " outside [0, maxWarpsPerSm]");
    if (s.deadlocked != (s.deadlockCause != DeadlockCause::None))
        flag("deadlock-cause",
             std::string("deadlocked=") + (s.deadlocked ? "true" : "false") +
                 " but cause=" + deadlockCauseName(s.deadlockCause));
    if (!fc.fault.active() && s.faultEvents != 0)
        flag("phantom-faults", "faultEvents " +
                                   std::to_string(s.faultEvents) +
                                   " without a fault plan");
    const auto gridCtas =
        static_cast<std::uint64_t>(lab.program().info.gridCtas);
    if (s.ctasCompleted > gridCtas)
        flag("cta-overrun", "ctasCompleted " +
                                std::to_string(s.ctasCompleted) + " > grid " +
                                std::to_string(gridCtas));
    const std::uint64_t slotCap =
        s.cycles * static_cast<std::uint64_t>(fc.config.numSchedulers) *
        static_cast<std::uint64_t>(fc.config.numSms);
    if (s.issuedSlots > slotCap)
        flag("issue-overrun", "issuedSlots " + std::to_string(s.issuedSlots) +
                                  " > cycles*schedulers*sms " +
                                  std::to_string(slotCap));
    if (s.instructions > s.issuedSlots)
        flag("commit-overrun",
             "instructions " + std::to_string(s.instructions) +
                 " > issuedSlots " + std::to_string(s.issuedSlots));

    // Counters a policy's machinery can never touch.
    const bool regmutexFamily = policy == "regmutex" || policy == "paired";
    if (policy == "baseline" &&
        (s.acquireAttempts || s.acquireSuccesses || s.releases ||
         s.emergencySpills || s.lockAcquisitions || s.extRegAccesses))
        flag("foreign-counters", "baseline run shows policy counters");
    if (policy == "rfv" && (s.acquireAttempts || s.lockAcquisitions))
        flag("foreign-counters", "rfv run shows acquire/lock counters");
    if (regmutexFamily && (s.emergencySpills || s.lockAcquisitions))
        flag("foreign-counters", policy + " run shows rfv/owf counters");
    if (policy == "owf" && s.emergencySpills)
        flag("foreign-counters", "owf run shows emergencySpills");
}

void
differentialOracle(CaseLab &lab, std::vector<OracleFinding> &findings)
{
    const FuzzCase &fc = lab.fuzzCase();
    static const char *const kPolicies[] = {"baseline", "regmutex", "paired",
                                            "owf", "rfv"};
    std::map<std::string, const RunOutcome *> outcomes;
    for (const char *policy : kPolicies) {
        const RunOutcome &out = lab.run(RunSpec{policy, 1, false, false, 0});
        outcomes[policy] = &out;

        if (out.kind == RunOutcome::Kind::CompileError ||
            out.kind == RunOutcome::Kind::Error) {
            report(findings, "differential",
                   std::string("differential:run-error:") + policy,
                   describeCase(fc) + " [" + policy + "]: " + out.message);
            continue;
        }
        checkStructural(lab, policy, out, findings);

        // The baseline statically allocates a register file the case is
        // guaranteed to fit; no injected fault touches its allocator, so
        // it must always retire the grid.
        if (std::string(policy) == "baseline" &&
            out.kind != RunOutcome::Kind::Completed)
            report(findings, "differential",
                   std::string("differential:baseline-wedged:") +
                       (out.kind == RunOutcome::Kind::Deadlocked
                            ? deadlockCauseName(out.stats.deadlockCause)
                            : runOutcomeKindName(out.kind)),
                   describeCase(fc) + ": baseline " +
                       runOutcomeKindName(out.kind) + " " + out.message);

        if (out.kind == RunOutcome::Kind::Completed &&
            out.stats.ctasCompleted !=
                static_cast<std::uint64_t>(lab.program().info.gridCtas))
            report(findings, "differential",
                   std::string("differential:cta-loss:") + policy,
                   describeCase(fc) + " [" + policy + "]: completed with " +
                       std::to_string(out.stats.ctasCompleted) + "/" +
                       std::to_string(lab.program().info.gridCtas) +
                       " CTAs");

        // A policy wedging with no fault plan is a real bug: the
        // compile-time deadlock rule and the allocators' progress
        // guarantees are supposed to make healthy cases terminate.
        if (!fc.fault.active() &&
            (out.kind == RunOutcome::Kind::Deadlocked ||
             out.kind == RunOutcome::Kind::Watchdog))
            report(findings, "differential",
                   std::string("differential:unfaulted-wedge:") + policy +
                       ":" +
                       (out.kind == RunOutcome::Kind::Deadlocked
                            ? deadlockCauseName(out.stats.deadlockCause)
                            : "watchdog"),
                   describeCase(fc) + " [" + policy + "]: " +
                       runOutcomeKindName(out.kind) + " without faults");
    }

    // Committed-instruction conservation. All five policies execute the
    // same per-thread control flow (memory contents are seed-determined,
    // so data-dependent branches resolve identically); RFV runs the
    // original program and must commit exactly the baseline's count,
    // while the RegMutex-compiled variants add acquire/release/spill
    // traffic and can only commit at least as much. Faulted runs are
    // exempt: a deadlock cuts execution short wherever it struck.
    const RunOutcome &base = *outcomes["baseline"];
    if (!fc.fault.active() && base.kind == RunOutcome::Kind::Completed) {
        for (const char *policy : {"regmutex", "paired", "owf", "rfv"}) {
            const RunOutcome &out = *outcomes[policy];
            if (out.kind != RunOutcome::Kind::Completed)
                continue;
            const bool conserved =
                std::string(policy) == "rfv"
                    ? out.stats.instructions == base.stats.instructions
                    : out.stats.instructions >= base.stats.instructions;
            if (!conserved)
                report(findings, "differential",
                       std::string("differential:instr-conservation:") +
                           policy,
                       describeCase(fc) + " [" + policy + "]: committed " +
                           std::to_string(out.stats.instructions) +
                           " vs baseline " +
                           std::to_string(base.stats.instructions));
        }
    }
}

// ---------------------------------------------------------------------
// determinism: 1-thread vs 8-thread FullMachine bit-identity
// ---------------------------------------------------------------------

void
determinismOracle(CaseLab &lab, std::vector<OracleFinding> &findings)
{
    const FuzzCase &fc = lab.fuzzCase();
    const RunOutcome &serial =
        lab.run(RunSpec{fc.policy, 1, false, false, 0});
    const RunOutcome &parallel =
        lab.run(RunSpec{fc.policy, 8, false, false, 0});

    if (serial.kind != parallel.kind) {
        report(findings, "determinism",
               std::string("determinism:outcome-mismatch:") +
                   runOutcomeKindName(serial.kind) + "-vs-" +
                   runOutcomeKindName(parallel.kind),
               describeCase(fc) + ": 1 thread " +
                   runOutcomeKindName(serial.kind) + ", 8 threads " +
                   runOutcomeKindName(parallel.kind));
        return;
    }
    // Which SM's exception surfaces first under SM parallelism is a
    // wall-clock race (thread_pool keeps the first thrown, not the
    // lowest SM id), so throwing outcomes compare by class only.
    if (serial.hasStats && parallel.hasStats &&
        serial.stats != parallel.stats)
        report(findings, "determinism", "determinism:stats-mismatch",
               describeCase(fc) +
                   ": SimStats differ between 1 and 8 SM threads (e.g. "
                   "cycles " +
                   std::to_string(serial.stats.cycles) + " vs " +
                   std::to_string(parallel.stats.cycles) + ")");
}

// ---------------------------------------------------------------------
// preempt-resume: snapshot at the fuzzed cycle, resume, bit-compare
// ---------------------------------------------------------------------

void
preemptResumeOracle(CaseLab &lab, std::vector<OracleFinding> &findings)
{
    const FuzzCase &fc = lab.fuzzCase();
    const RunOutcome &whole = lab.run(RunSpec{fc.policy, 1, false, false, 0});
    const RunOutcome &pre =
        lab.run(RunSpec{fc.policy, 1, false, false, fc.snapshotCycle});

    if (pre.kind != RunOutcome::Kind::Preempted) {
        // The run ended (or threw) before the budget: a bounded run
        // that never hits its bound must be indistinguishable from an
        // unbounded one.
        if (pre.kind != whole.kind)
            report(findings, "preempt-resume",
                   std::string("preempt-resume:bounded-diverges:") +
                       runOutcomeKindName(whole.kind) + "-vs-" +
                       runOutcomeKindName(pre.kind),
                   describeCase(fc) + ": maxCycles=" +
                       std::to_string(fc.snapshotCycle) + " turned " +
                       runOutcomeKindName(whole.kind) + " into " +
                       runOutcomeKindName(pre.kind));
        else if (pre.hasStats && whole.hasStats && pre.stats != whole.stats)
            report(findings, "preempt-resume",
                   "preempt-resume:bounded-perturbs",
                   describeCase(fc) +
                       ": unreached cycle budget changed the stats");
        return;
    }
    if (!pre.snapshot) {
        report(findings, "preempt-resume", "preempt-resume:no-snapshot",
               describeCase(fc) + ": preempted without a snapshot");
        return;
    }

    const RunOutcome resumed = lab.resumeRun(fc.policy, pre.snapshot);
    if (resumed.kind != whole.kind) {
        report(findings, "preempt-resume",
               std::string("preempt-resume:outcome-mismatch:") +
                   runOutcomeKindName(whole.kind) + "-vs-" +
                   runOutcomeKindName(resumed.kind),
               describeCase(fc) + ": uninterrupted " +
                   runOutcomeKindName(whole.kind) + ", resumed " +
                   runOutcomeKindName(resumed.kind) + " " + resumed.message);
        return;
    }
    if (whole.hasStats && resumed.hasStats && resumed.stats != whole.stats)
        report(findings, "preempt-resume", "preempt-resume:stats-mismatch",
               describeCase(fc) + ": restore-then-run != uninterrupted (" +
                   std::to_string(resumed.stats.cycles) + " vs " +
                   std::to_string(whole.stats.cycles) + " cycles)");
}

// ---------------------------------------------------------------------
// sanitize: no false positives, no perturbation, corruption caught
// ---------------------------------------------------------------------

void
sanitizeOracle(CaseLab &lab, std::vector<OracleFinding> &findings)
{
    const FuzzCase &fc = lab.fuzzCase();

    // A) On the corruption-free variant of the plan the audit must be
    //    invisible: same outcome, bit-identical stats, no report.
    const RunOutcome &plain = lab.run(RunSpec{fc.policy, 1, false, true, 0});
    const RunOutcome &audited =
        lab.run(RunSpec{fc.policy, 1, true, true, 0});
    if (audited.kind == RunOutcome::Kind::Sanitizer)
        report(findings, "sanitize", "sanitize:false-positive",
               describeCase(fc) + ": " + audited.message);
    else if (audited.kind != plain.kind)
        report(findings, "sanitize",
               std::string("sanitize:outcome-perturbed:") +
                   runOutcomeKindName(plain.kind) + "-vs-" +
                   runOutcomeKindName(audited.kind),
               describeCase(fc) + ": enabling the sanitizer changed the "
                                  "outcome");
    else if (plain.hasStats && audited.hasStats &&
             plain.stats != audited.stats)
        report(findings, "sanitize", "sanitize:stats-perturbed",
               describeCase(fc) + ": enabling the sanitizer changed the "
                                  "stats");

    // B) With the corruption armed the audit must catch it within one
    //    epoch of landing — if it landed and the SM lived long enough
    //    for an audit to run.
    const std::uint64_t corruptAt = fc.fault.corruptStateAtCycle;
    if (corruptAt == 0)
        return;
    const RunOutcome &armed = lab.run(RunSpec{fc.policy, 1, true, false, 0});
    if (armed.kind == RunOutcome::Kind::Sanitizer) {
        if (armed.sanitizerCycle < corruptAt ||
            armed.sanitizerCycle > corruptAt + kDetectSlack)
            report(findings, "sanitize", "sanitize:late-detection",
                   describeCase(fc) + ": corruption at " +
                       std::to_string(corruptAt) + " detected at " +
                       std::to_string(armed.sanitizerCycle));
        return;
    }
    if (!armed.hasStats || armed.perSm.empty())
        return;
    const SimStats &faultedSm = armed.perSm.front();
    const bool landed = faultedSm.faultEvents >= 1;
    const bool auditHadTime = faultedSm.cycles >= corruptAt + kDetectSlack;
    if (landed && auditHadTime)
        report(findings, "sanitize", "sanitize:missed-corruption",
               describeCase(fc) + ": corruption landed at ~" +
                   std::to_string(corruptAt) + ", SM ran " +
                   std::to_string(faultedSm.cycles) +
                   " cycles, no SanitizerError");
}

// ---------------------------------------------------------------------
// codec: every serialization boundary round-trips
// ---------------------------------------------------------------------

void
codecOracle(CaseLab &lab, std::vector<OracleFinding> &findings)
{
    const FuzzCase &fc = lab.fuzzCase();

    // Snapshot bytes: serialize -> deserialize -> serialize must be the
    // identity on the wire image.
    const RunOutcome &pre =
        lab.run(RunSpec{fc.policy, 1, false, false, fc.snapshotCycle});
    if (pre.kind == RunOutcome::Kind::Preempted && pre.snapshot) {
        const std::string bytes = pre.snapshot->serialize();
        try {
            const GpuSnapshot redecoded = GpuSnapshot::deserialize(bytes);
            std::string bytes2 = redecoded.serialize();
            if (lab.planted() == PlantedBug::CodecDamage && !bytes2.empty())
                bytes2[bytes2.size() / 2] ^= 0x01;
            if (bytes2 != bytes)
                report(findings, "codec", "codec:snapshot-roundtrip",
                       describeCase(fc) +
                           ": re-serialized snapshot differs (" +
                           std::to_string(bytes.size()) + " vs " +
                           std::to_string(bytes2.size()) + " bytes)");
        } catch (const SnapshotError &e) {
            report(findings, "codec", "codec:snapshot-reject",
                   describeCase(fc) +
                       ": own snapshot failed to deserialize: " + e.what());
        }
    }

    // Stats JSON: the sweep checkpoint depends on
    // statsFromJson(statsToJson(s)) == s. Hang forensics are
    // deliberately not serialized, so compare without them.
    {
        const RunOutcome &whole =
            lab.run(RunSpec{fc.policy, 1, false, false, 0});
        const RunOutcome &source =
            whole.hasStats ? whole
                           : lab.run(RunSpec{"baseline", 1, false, false, 0});
        if (source.hasStats) {
            SimStats original = source.stats;
            original.hang.reset();
            try {
                const SimStats decoded =
                    statsFromJson(parseJson(statsToJson(original)));
                if (decoded != original)
                    report(findings, "codec", "codec:stats-json",
                           describeCase(fc) +
                               ": SimStats JSON round-trip is lossy");
            } catch (const FatalError &e) {
                report(findings, "codec", "codec:stats-json-reject",
                       describeCase(fc) +
                           ": own stats JSON failed to parse: " + e.what());
            }
        }
    }

    // Asm round-trip, on the generated program and on what the focus
    // policy's compiler actually emits (directives included).
    const auto checkAsm = [&](const Program &program,
                              const std::string &label) {
        try {
            const std::string text = emitProgram(program);
            const std::string text2 = emitProgram(parseProgram(text));
            if (text2 != text)
                report(findings, "codec", "codec:asm-roundtrip:" + label,
                       describeCase(fc) + ": emit->parse->emit differs (" +
                           label + ")");
        } catch (const FatalError &e) {
            report(findings, "codec", "codec:asm-reject:" + label,
                   describeCase(fc) + ": own asm failed to parse (" + label +
                       "): " + e.what());
        }
    };
    checkAsm(lab.program(), "source");
    checkAsm(lab.compiledProgram(fc.policy), "compiled");

    // The repro codec itself: a fuzzer whose repro files don't
    // round-trip can't reproduce its own findings.
    try {
        const FuzzCase decoded = caseFromJson(parseJson(caseToJson(fc)));
        if (caseToJson(decoded) != caseToJson(fc))
            report(findings, "codec", "codec:case-roundtrip",
                   describeCase(fc) + ": FuzzCase JSON round-trip differs");
    } catch (const FatalError &e) {
        report(findings, "codec", "codec:case-reject",
               describeCase(fc) +
                   ": own repro JSON failed to decode: " + e.what());
    }
}

} // namespace

const char *
plantedBugName(PlantedBug bug)
{
    switch (bug) {
    case PlantedBug::None:
        return "none";
    case PlantedBug::StatsDrift:
        return "stats-drift";
    case PlantedBug::ThreadSkew:
        return "thread-skew";
    case PlantedBug::ResumeSkew:
        return "resume-skew";
    case PlantedBug::MissedCorruption:
        return "missed-corruption";
    case PlantedBug::CodecDamage:
        return "codec-damage";
    }
    return "unknown";
}

const char *
runOutcomeKindName(RunOutcome::Kind kind)
{
    switch (kind) {
    case RunOutcome::Kind::Completed:
        return "completed";
    case RunOutcome::Kind::Preempted:
        return "preempted";
    case RunOutcome::Kind::Deadlocked:
        return "deadlocked";
    case RunOutcome::Kind::Watchdog:
        return "watchdog";
    case RunOutcome::Kind::Sanitizer:
        return "sanitizer";
    case RunOutcome::Kind::CompileError:
        return "compile-error";
    case RunOutcome::Kind::Error:
        return "error";
    }
    return "unknown";
}

CaseLab::CaseLab(FuzzCase fuzz_case, PlantedBug planted)
    : theCase(std::move(fuzz_case)), plantedBug(planted)
{}

const Program &
CaseLab::program()
{
    if (!programBuilt) {
        prog = buildCaseProgram(theCase);
        programBuilt = true;
    }
    return prog;
}

const Program &
CaseLab::compiledProgram(const std::string &policy)
{
    auto it = compiled.find(policy);
    if (it == compiled.end()) {
        const PolicySpec &spec = PolicyRegistry::instance().at(policy);
        PolicyCompile result =
            spec.compile(program(), theCase.config, CompileOptions{});
        it = compiled.emplace(policy, std::move(result.program)).first;
    }
    return it->second;
}

const RunOutcome &
CaseLab::run(const RunSpec &spec)
{
    RunSpec normalized = spec;
    // stripCorrupt on a plan without a corruption is the same run;
    // normalize so the memo doesn't simulate it twice.
    if (theCase.fault.corruptStateAtCycle == 0)
        normalized.stripCorrupt = false;
    const std::string key = runKey(normalized);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, execute(normalized, nullptr)).first;
    return it->second;
}

RunOutcome
CaseLab::resumeRun(const std::string &policy,
                   const std::shared_ptr<const GpuSnapshot> &snapshot)
{
    RunSpec spec;
    spec.policy = policy;
    return execute(spec, snapshot);
}

RunOutcome
CaseLab::execute(const RunSpec &spec,
                 const std::shared_ptr<const GpuSnapshot> &resume)
{
    RunOutcome out;
    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.threads = spec.threads;
    options.gpu.memSeed = 1;
    options.gpu.fault = theCase.fault;
    if (spec.stripCorrupt)
        options.gpu.fault.corruptStateAtCycle = 0;
    options.gpu.faultSm = 0;
    options.gpu.control.maxCycles = spec.maxCycles;
    options.gpu.control.sanitize = spec.sanitize;
    // The planted "missed corruption" bug models a sanitizer that
    // silently stopped auditing.
    if (plantedBug == PlantedBug::MissedCorruption)
        options.gpu.control.sanitize = false;
    options.gpu.resume = resume;

    try {
        PolicyRun run = runPolicy(spec.policy, program(), theCase.config,
                                  options);
        out.stats = run.result.aggregate;
        out.perSm = run.result.perSm;
        out.hasStats = true;
        out.snapshot = run.result.snapshot;
        if (run.result.status == GpuResult::Status::Preempted)
            out.kind = RunOutcome::Kind::Preempted;
        else
            out.kind = out.stats.deadlocked ? RunOutcome::Kind::Deadlocked
                                            : RunOutcome::Kind::Completed;
    } catch (const SanitizerError &e) {
        out.kind = RunOutcome::Kind::Sanitizer;
        out.sanitizerCycle = e.report().cycle;
        out.message = e.what();
    } catch (const SimulationError &e) {
        out.kind = RunOutcome::Kind::Watchdog;
        out.message = e.what();
    } catch (const FatalError &e) {
        out.kind = RunOutcome::Kind::Error;
        out.message = e.what();
    }

    // Planted-bug hooks: each models the symptom its oracle exists to
    // catch, at the narrowest matching run.
    if (out.hasStats) {
        if (plantedBug == PlantedBug::StatsDrift && spec.policy == "rfv" &&
            spec.threads == 1 && !spec.sanitize && spec.maxCycles == 0 &&
            !resume)
            out.stats.instructions += 1;
        if (plantedBug == PlantedBug::ThreadSkew && spec.threads == 8)
            out.stats.cycles += 1;
        if (plantedBug == PlantedBug::ResumeSkew && resume)
            out.stats.cycles += 1;
    }
    return out;
}

const std::vector<Oracle> &
fuzzOracles()
{
    static const std::vector<Oracle> oracles = {
        {"differential",
         "cross-policy invariants over all five registered policies",
         differentialOracle},
        {"determinism", "1-thread vs 8-thread FullMachine bit-identity",
         determinismOracle},
        {"preempt-resume",
         "snapshot at the fuzzed cycle, resume, bit-compare",
         preemptResumeOracle},
        {"sanitize",
         "audit is invisible on healthy runs and catches corruption",
         sanitizeOracle},
        {"codec",
         "snapshot/stats/asm/repro codecs round-trip or reject typed",
         codecOracle},
    };
    return oracles;
}

std::vector<OracleFinding>
runOracles(const FuzzCase &fuzz_case, const OracleOptions &options)
{
    for (const std::string &id : options.oracles) {
        const bool known = std::any_of(
            fuzzOracles().begin(), fuzzOracles().end(),
            [&](const Oracle &oracle) { return oracle.id == id; });
        if (!known)
            fatal("unknown fuzz oracle \"", id, "\"");
    }

    CaseLab lab(fuzz_case, options.planted);
    std::vector<OracleFinding> findings;
    for (const Oracle &oracle : fuzzOracles()) {
        if (!options.oracles.empty() &&
            std::find(options.oracles.begin(), options.oracles.end(),
                      oracle.id) == options.oracles.end())
            continue;
        try {
            oracle.run(lab, findings);
        } catch (const std::exception &e) {
            report(findings, oracle.id, oracle.id + ":oracle-exception",
                   describeCase(fuzz_case) + ": oracle threw: " + e.what());
        }
    }
    return findings;
}

const std::vector<PlantedBugInfo> &
plantedBugCatalog()
{
    static const std::vector<PlantedBugInfo> catalog = {
        {PlantedBug::StatsDrift, "stats-drift", "differential"},
        {PlantedBug::ThreadSkew, "thread-skew", "determinism"},
        {PlantedBug::ResumeSkew, "resume-skew", "preempt-resume"},
        {PlantedBug::MissedCorruption, "missed-corruption", "sanitize"},
        {PlantedBug::CodecDamage, "codec-damage", "codec"},
    };
    return catalog;
}

FuzzCase
plantedBugCase(PlantedBug bug)
{
    FuzzCase fc;
    fc.seed = 0x90a57edbULL;  // synthetic provenance marker
    fc.arch = "GTX480";
    fc.config = gtx480Config();
    fc.config.numSms = 2;
    fc.config.watchdogCycles = 150'000;

    KernelSpec &k = fc.kernel;
    k.name = "planted";
    k.regs = 24;
    k.ctaThreads = 64;
    k.gridCtasPerSm = 2;
    k.sharedBytes = 0;
    k.persistent = 3;
    k.scramble = false;
    k.seed = 7;
    PhaseSpec phase;
    phase.trips = 6;
    phase.peak = 16;
    phase.loads = 2;
    phase.memTrips = 2;
    phase.aluPerTemp = 1;
    k.phases = {phase};

    // RFV focus: its corruption fault always lands (the pooled
    // policies decline it on kernels their compiler left untouched).
    fc.policy = "rfv";
    fc.snapshotCycle = 1000;
    if (bug == PlantedBug::MissedCorruption)
        fc.fault.corruptStateAtCycle = 300;
    return fc;
}

} // namespace rm
