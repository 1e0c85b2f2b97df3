/**
 * @file
 * Observability-layer tests: metric instrument semantics, sampler
 * cadence and column management, JSON writer/parser round-trips, the
 * CSV and Chrome-trace exporters, and a golden-file check pinning the
 * SimStats JSON schema (downstream scripts key on those names).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "core/experiment.hh"
#include "obs/export.hh"
#include "sim/diagnosis.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "sim/gpu.hh"
#include "sim/snapshot.hh"
#include "sim/trace.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

// --- Instruments -----------------------------------------------------

TEST(Metrics, CounterAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeMovesBothWays)
{
    Gauge g;
    EXPECT_EQ(g.value(), 0);
    g.set(-3);
    EXPECT_EQ(g.value(), -3);
    g.set(7);
    EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(1023), 10);
    EXPECT_EQ(Histogram::bucketOf(1024), 11);
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
}

TEST(Metrics, HistogramSummaryStats)
{
    Histogram h;
    EXPECT_EQ(h.min(), 0u);   // empty histogram reports 0, not UINT64_MAX
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    h.observe(0);
    h.observe(10);
    h.observe(2);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 12u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.bucketCount(0), 1u);              // the zero
    EXPECT_EQ(h.bucketCount(Histogram::bucketOf(10)), 1u);
}

TEST(Metrics, RegistryReferencesAreStable)
{
    MetricsRegistry registry;
    EXPECT_TRUE(registry.empty());
    Counter &a = registry.counter("a");
    a.add(1);
    // Creating many more instruments must not invalidate `a`.
    for (int i = 0; i < 100; ++i) {
        // Built via insert: "c" + to_string trips a GCC 12
        // -Wrestrict false positive at -O2 (GCC PR 105651).
        std::string name = std::to_string(i);
        name.insert(0, 1, 'c');
        registry.counter(name);
    }
    a.add(1);
    EXPECT_EQ(registry.counter("a").value(), 2u);
    EXPECT_FALSE(registry.empty());
    EXPECT_EQ(registry.counters().size(), 101u);
}

// --- Sampler ---------------------------------------------------------

/** One BFS regmutex run with a registry and an @p interval sampler. */
PolicyRun
sampledRun(MetricsRegistry &registry, Sampler &sampler,
           std::uint64_t max_cycles = 0)
{
    RunOptions options;
    options.gpu.obs.metrics = &registry;
    options.gpu.obs.sampler = &sampler;
    options.gpu.control.maxCycles = max_cycles;
    return runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(),
                     options);
}

TEST(Sampler, SamplesOnExactMultiplesOfInterval)
{
    constexpr std::uint64_t kInterval = 333;
    MetricsRegistry registry;
    Sampler sampler(registry, kInterval);
    const PolicyRun run = sampledRun(registry, sampler);
    ASSERT_TRUE(run.result.completed());
    const std::uint64_t cycles = run.stats().cycles;
    ASSERT_EQ(sampler.samples().size(), cycles / kInterval);
    for (std::size_t i = 0; i < sampler.samples().size(); ++i)
        EXPECT_EQ(sampler.samples()[i].cycle, (i + 1) * kInterval);

    // Values are the SM's counts at the sampled cycle: a run cut at
    // that cycle ends with the same totals.
    MetricsRegistry cut_registry;
    Sampler cut_sampler(cut_registry, kInterval);
    const PolicyRun cut = sampledRun(cut_registry, cut_sampler,
                                     3 * kInterval);
    ASSERT_FALSE(cut.result.completed());
    const SamplePoint &row = sampler.samples()[2];
    const auto column = [&](const std::string &name) {
        const auto &cols = sampler.columns();
        const auto it = std::find(cols.begin(), cols.end(), name);
        EXPECT_NE(it, cols.end()) << name;
        return row.values[static_cast<std::size_t>(it - cols.begin())];
    };
    EXPECT_DOUBLE_EQ(column("issue.instructions"),
                     static_cast<double>(cut.stats().instructions));
    EXPECT_DOUBLE_EQ(column("stall.scoreboard"),
                     static_cast<double>(cut.stats().scoreboardStalls));
    EXPECT_EQ(cut_sampler.samples().size(), 3u);
}

TEST(Sampler, ZeroIntervalDisablesTicks)
{
    MetricsRegistry registry;
    Sampler sampler(registry, 0);
    const PolicyRun run = sampledRun(registry, sampler);
    ASSERT_TRUE(run.result.completed());
    EXPECT_TRUE(sampler.samples().empty());
    // The registry is still published at the end of the run, and an
    // explicit snapshot still works (end-of-run row).
    EXPECT_EQ(registry.counter("issue.instructions").value(),
              run.stats().instructions);
    sampler.snapshot(run.stats().cycles);
    EXPECT_EQ(sampler.samples().size(), 1u);
}

TEST(Sampler, LateMetricOpensBackfilledColumn)
{
    MetricsRegistry registry;
    registry.counter("early").add(1);
    Sampler sampler(registry, 1);
    sampler.snapshot(1);
    registry.counter("late").add(5);
    sampler.snapshot(2);
    ASSERT_EQ(sampler.columns().size(), 2u);
    EXPECT_EQ(sampler.columns()[0], "early");
    EXPECT_EQ(sampler.columns()[1], "late");
    // Row 0 predates "late": backfilled with zero.
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[1], 0.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[1].values[1], 5.0);
}

TEST(Sampler, HistogramsFlattenToThreeColumns)
{
    MetricsRegistry registry;
    registry.histogram("wait").observe(4);
    Sampler sampler(registry, 1);
    sampler.snapshot(1);
    const std::vector<std::string> expected{"wait.count", "wait.sum",
                                            "wait.max"};
    EXPECT_EQ(sampler.columns(), expected);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 1.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[1], 4.0);
    EXPECT_DOUBLE_EQ(sampler.samples()[0].values[2], 4.0);
}

// --- JSON writer / parser --------------------------------------------

TEST(Json, WriterEscapesControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)),
              "\\u0001");
}

TEST(Json, RoundTripNestedDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("bfs \"quoted\"");
    w.key("n").value(std::uint64_t{42});
    w.key("ratio").value(0.5);
    w.key("ok").value(true);
    w.key("missing").null();
    w.key("list").beginArray();
    w.value(1).value(2).value(3);
    w.endArray();
    w.key("nested").beginObject();
    w.key("deep").value(-7);
    w.endObject();
    w.endObject();

    const JsonValue doc = parseJson(w.take());
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").string, "bfs \"quoted\"");
    EXPECT_DOUBLE_EQ(doc.at("n").number, 42.0);
    EXPECT_DOUBLE_EQ(doc.at("ratio").number, 0.5);
    EXPECT_TRUE(doc.at("ok").boolean);
    EXPECT_EQ(doc.at("missing").kind, JsonValue::Kind::Null);
    ASSERT_TRUE(doc.at("list").isArray());
    ASSERT_EQ(doc.at("list").items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("list").items[2].number, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("nested").at("deep").number, -7.0);
    EXPECT_FALSE(doc.has("absent"));
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("{\"a\" 1}"), FatalError);
    EXPECT_THROW(parseJson("tru"), FatalError);
    EXPECT_THROW(parseJson("{} trailing"), FatalError);
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.endArray();
    const JsonValue doc = parseJson(w.take());
    ASSERT_EQ(doc.items.size(), 2u);
    EXPECT_EQ(doc.items[0].kind, JsonValue::Kind::Null);
    EXPECT_EQ(doc.items[1].kind, JsonValue::Kind::Null);
}

// --- Exporters -------------------------------------------------------

TEST(Export, SamplerCsvHasHeaderAndIntegralCells)
{
    MetricsRegistry registry;
    registry.counter("issue.slots").add(7);
    registry.gauge("warps").set(3);
    Sampler sampler(registry, 10);
    sampler.snapshot(10);
    registry.counter("issue.slots").add(5);
    sampler.snapshot(20);

    const std::string csv = samplerToCsv(sampler);
    std::istringstream lines(csv);
    std::string header, row1, row2;
    ASSERT_TRUE(std::getline(lines, header));
    ASSERT_TRUE(std::getline(lines, row1));
    ASSERT_TRUE(std::getline(lines, row2));
    EXPECT_EQ(header, "cycle,issue.slots,warps");
    EXPECT_EQ(row1, "10,7,3");
    EXPECT_EQ(row2, "20,12,3");
}

TEST(Export, RegistryJsonCarriesHistogramBuckets)
{
    MetricsRegistry registry;
    registry.counter("n").add(2);
    registry.gauge("level").set(-4);
    Histogram &h = registry.histogram("wait");
    h.observe(0);
    h.observe(5);

    const JsonValue doc = parseJson(registryToJson(registry));
    EXPECT_DOUBLE_EQ(doc.at("counters").at("n").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("level").number, -4.0);
    const JsonValue &wait = doc.at("histograms").at("wait");
    EXPECT_DOUBLE_EQ(wait.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(wait.at("sum").number, 5.0);
    EXPECT_DOUBLE_EQ(wait.at("mean").number, 2.5);
    // Two non-empty buckets: the zero bucket and [4,8).
    ASSERT_EQ(wait.at("buckets").items.size(), 2u);
    EXPECT_DOUBLE_EQ(wait.at("buckets").items[0].at("le").number, 0.0);
    EXPECT_DOUBLE_EQ(wait.at("buckets").items[1].at("le").number, 7.0);
}

// --- Golden file: SimStats JSON schema -------------------------------

void
collectKeys(const JsonValue &value, const std::string &prefix,
            std::vector<std::string> &out)
{
    for (const auto &[name, member] : value.members) {
        const std::string path =
            prefix.empty() ? name : prefix + "." + name;
        if (member.isObject())
            collectKeys(member, path, out);
        else
            out.push_back(path);
    }
}

TEST(Export, SimStatsJsonKeysMatchGoldenFile)
{
    const Program p = buildWorkload("BFS");
    const SimStats stats = runPolicy("baseline", p, gtx480Config()).stats();
    const JsonValue doc = parseJson(statsToJson(stats));
    std::vector<std::string> keys;
    collectKeys(doc, "", keys);

    const std::string golden_path =
        std::string(RM_TEST_GOLDEN_DIR) + "/simstats_keys.txt";
    std::ifstream golden(golden_path);
    ASSERT_TRUE(golden) << "cannot open " << golden_path;
    std::vector<std::string> expected;
    for (std::string line; std::getline(golden, line);)
        if (!line.empty())
            expected.push_back(line);

    // The schema is an interface: scripts parse these names. Update the
    // golden file deliberately when the schema deliberately changes.
    EXPECT_EQ(keys, expected);
}

// --- statsFromJson forward/backward compatibility --------------------

/** A diagnosis with every field populated, for round-trip checks. */
HangDiagnosis
sampleDiagnosis()
{
    HangDiagnosis d;
    d.kernel = "K";
    d.policy = "regmutex";
    d.smId = 3;
    d.cycle = 4242;
    d.watchdogExpired = true;
    d.cause = DeadlockCause::Acquire;
    d.blockedAcquire = 2;
    d.blockedResource = 1;
    d.blockedBarrier = 4;
    d.otherWaiters = 1;
    d.eventQueueDepth = 7;
    d.memQueueDepth = 3;
    d.nextEventCycle = 4300;
    d.schedLastIssued = {5, -1};
    d.srpSections = 4;
    d.srpHolders = {0, 2};
    d.srpWaiters = {1, 3};
    WarpSnapshot warp;
    warp.slot = 1;
    warp.ctaId = 0;
    warp.warpInCta = 1;
    warp.pc = 17;
    warp.instruction = "acq";
    warp.state = WarpState::WaitAcquire;
    warp.waitAge = 900;
    warp.srpSection = 2;
    warp.holdsExt = true;
    warp.pendingMem = 1;
    warp.pendingWrites = 2;
    warp.instructionsExecuted = 55;
    d.warps.push_back(warp);
    return d;
}

TEST(Export, StatsFromJsonDefaultsMissingKeys)
{
    // A record written by an older producer: most keys absent.
    const SimStats s = statsFromJson(
        parseJson("{\"kernel\": \"K\", \"cycles\": 42}"));
    EXPECT_EQ(s.kernelName, "K");
    EXPECT_EQ(s.cycles, 42u);
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_EQ(s.scoreboardStalls, 0u);
    EXPECT_EQ(s.faultEvents, 0u);
    EXPECT_FALSE(s.deadlocked);
    EXPECT_EQ(s.deadlockCause, DeadlockCause::None);
    EXPECT_EQ(s.hang, nullptr);
}

TEST(Export, StatsFromJsonIgnoresUnknownKeys)
{
    // A record written by a newer producer: extra keys at every level.
    SimStats original;
    original.kernelName = "K";
    original.allocatorName = "regmutex";
    original.cycles = 100;
    original.scoreboardStalls = 7;
    original.deadlocked = true;
    original.deadlockCause = DeadlockCause::Acquire;
    original.hang =
        std::make_shared<const HangDiagnosis>(sampleDiagnosis());

    JsonValue doc = parseJson(statsToJson(original));
    JsonValue extra;
    extra.kind = JsonValue::Kind::Number;
    extra.number = 9;
    doc.members.emplace_back("future_top_level_key", extra);
    for (auto &[key, member] : doc.members) {
        if (key == "stalls" || key == "hang")
            member.members.emplace_back("future_nested_key", extra);
    }

    const SimStats back = statsFromJson(doc);
    EXPECT_EQ(back, original);
    ASSERT_NE(back.hang, nullptr);
    EXPECT_EQ(back.hang->cycle, original.hang->cycle);
}

TEST(Export, HangDiagnosisRoundTripsThroughStatsJson)
{
    SimStats stats;
    stats.kernelName = "K";
    stats.deadlocked = true;
    stats.deadlockCause = DeadlockCause::Acquire;
    stats.hang = std::make_shared<const HangDiagnosis>(sampleDiagnosis());

    const SimStats back = statsFromJson(parseJson(statsToJson(stats)));
    ASSERT_NE(back.hang, nullptr);
    const HangDiagnosis &d = *back.hang;
    const HangDiagnosis &ref = *stats.hang;
    EXPECT_EQ(d.kernel, ref.kernel);
    EXPECT_EQ(d.policy, ref.policy);
    EXPECT_EQ(d.smId, ref.smId);
    EXPECT_EQ(d.cycle, ref.cycle);
    EXPECT_EQ(d.watchdogExpired, ref.watchdogExpired);
    EXPECT_EQ(d.cause, ref.cause);
    EXPECT_EQ(d.blockedAcquire, ref.blockedAcquire);
    EXPECT_EQ(d.blockedResource, ref.blockedResource);
    EXPECT_EQ(d.blockedBarrier, ref.blockedBarrier);
    EXPECT_EQ(d.otherWaiters, ref.otherWaiters);
    EXPECT_EQ(d.eventQueueDepth, ref.eventQueueDepth);
    EXPECT_EQ(d.memQueueDepth, ref.memQueueDepth);
    EXPECT_EQ(d.nextEventCycle, ref.nextEventCycle);
    EXPECT_EQ(d.schedLastIssued, ref.schedLastIssued);
    EXPECT_EQ(d.srpSections, ref.srpSections);
    EXPECT_EQ(d.srpHolders, ref.srpHolders);
    EXPECT_EQ(d.srpWaiters, ref.srpWaiters);
    ASSERT_EQ(d.warps.size(), ref.warps.size());
    const WarpSnapshot &w = d.warps[0];
    const WarpSnapshot &rw = ref.warps[0];
    EXPECT_EQ(w.slot, rw.slot);
    EXPECT_EQ(w.ctaId, rw.ctaId);
    EXPECT_EQ(w.warpInCta, rw.warpInCta);
    EXPECT_EQ(w.pc, rw.pc);
    EXPECT_EQ(w.instruction, rw.instruction);
    EXPECT_EQ(w.state, rw.state);
    EXPECT_EQ(w.waitAge, rw.waitAge);
    EXPECT_EQ(w.srpSection, rw.srpSection);
    EXPECT_EQ(w.holdsExt, rw.holdsExt);
    EXPECT_EQ(w.pendingMem, rw.pendingMem);
    EXPECT_EQ(w.pendingWrites, rw.pendingWrites);
    EXPECT_EQ(w.instructionsExecuted, rw.instructionsExecuted);
}

TEST(Export, StrippedHangObjectDefaultsItsFields)
{
    const SimStats s = statsFromJson(parseJson(
        "{\"kernel\": \"K\", \"deadlocked\": true,"
        " \"hang\": {\"kernel\": \"K\"}}"));
    ASSERT_NE(s.hang, nullptr);
    EXPECT_EQ(s.hang->kernel, "K");
    EXPECT_EQ(s.hang->cause, DeadlockCause::None);
    EXPECT_EQ(s.hang->srpSections, -1);
    EXPECT_FALSE(s.hang->watchdogExpired);
    EXPECT_TRUE(s.hang->warps.empty());
    EXPECT_TRUE(s.hang->srpHolders.empty());
}

// --- kSummedCounters: each codec and the merge walk every row --------

/** Every row at a distinct value and every other field off default. */
SimStats
distinctStats()
{
    SimStats s;
    s.kernelName = "K";
    s.allocatorName = "regmutex";
    s.cycles = 90001;
    s.instructions = 90002;
    s.ctasCompleted = 90003;
    s.theoreticalCtas = 7;
    s.theoreticalWarps = 42;
    s.theoreticalOccupancy = 0.875;
    s.avgResidentWarps = 31.5;
    std::uint64_t value = 1001;
    for (const SummedCounter &row : kSummedCounters)
        s.*row.member = value++;
    s.deadlocked = true;
    s.deadlockCause = DeadlockCause::Barrier;
    s.hang = std::make_shared<const HangDiagnosis>(sampleDiagnosis());
    return s;
}

TEST(SummedCounters, EveryRowSurvivesBothCodecs)
{
    const SimStats s = distinctStats();
    EXPECT_EQ(statsFromJson(parseJson(statsToJson(s))), s);

    // The snapshot does not carry the hang forensics.
    SimStats unhung = s;
    unhung.hang = nullptr;
    SnapshotWriter w;
    saveStats(w, unhung);
    SnapshotReader r(w.buffer());
    EXPECT_EQ(loadStats(r), unhung);
    EXPECT_TRUE(r.atEnd());
}

TEST(SummedCounters, EveryRowSitsAtItsJsonPath)
{
    const SimStats s = distinctStats();
    const JsonValue doc = parseJson(statsToJson(s));
    for (const SummedCounter &row : kSummedCounters) {
        const std::string path = row.jsonPath;
        const std::size_t dot = path.find('.');
        const JsonValue &leaf =
            dot == std::string::npos
                ? doc.at(path)
                : doc.at(path.substr(0, dot)).at(path.substr(dot + 1));
        EXPECT_EQ(leaf.number, static_cast<double>(s.*row.member)) << path;
    }
}

TEST(SummedCounters, MergeDoublesEveryRow)
{
    const SimStats s = distinctStats();
    const SimStats merged = mergeSmStats({s, s});
    for (const SummedCounter &row : kSummedCounters)
        EXPECT_EQ(merged.*row.member, 2 * (s.*row.member)) << row.jsonPath;
}

// --- End to end: a real run through the full stack -------------------

class ObservedRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const Program p = buildWorkload("BFS");
        RunOptions options;
        options.gpu.obs.metrics = &registry;
        options.gpu.obs.sampler = &sampler;
        options.gpu.obs.trace = &trace;
        run = runPolicy("regmutex", p, gtx480Config(), options);
        executed = run.compile.program;
    }

    MetricsRegistry registry;
    Sampler sampler{registry, 500};
    IssueTrace trace{1 << 18};
    PolicyRun run;
    Program executed;
};

TEST_F(ObservedRun, MetricsMirrorSimStats)
{
    EXPECT_EQ(registry.counter("issue.slots_issued").value(),
              run.stats().issuedSlots);
    EXPECT_EQ(registry.counter("srp.acquire_attempts").value(),
              run.stats().acquireAttempts);
    EXPECT_EQ(registry.counter("srp.acquire_successes").value(),
              run.stats().acquireSuccesses);
    EXPECT_EQ(registry.counter("srp.releases").value(),
              run.stats().releases);
    EXPECT_EQ(registry.counter("stall.scoreboard").value(),
              run.stats().scoreboardStalls);
    // Every successful acquire observed a wait (possibly zero cycles).
    EXPECT_EQ(registry.histogram("srp.acquire_wait_cycles").count(),
              run.stats().acquireSuccesses);
    // All SRP sections released by the end of the run.
    EXPECT_EQ(registry.gauge("srp.holders").value(), 0);
}

TEST_F(ObservedRun, SamplerCoversTheRun)
{
    ASSERT_FALSE(sampler.samples().empty());
    EXPECT_EQ(sampler.samples().front().cycle, 500u);
    EXPECT_LE(sampler.samples().back().cycle, run.stats().cycles);
    EXPECT_EQ(sampler.samples().size(), run.stats().cycles / 500);
}

TEST_F(ObservedRun, ChromeTraceIsValidAndBalanced)
{
    const JsonValue doc = parseJson(chromeTrace(trace, executed));
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    ASSERT_FALSE(events.items.empty());
    std::uint64_t slices = 0, instants = 0, metadata = 0;
    for (const JsonValue &event : events.items) {
        const std::string &ph = event.at("ph").string;
        if (ph == "X") {
            ++slices;
            EXPECT_GE(event.at("dur").number, 1.0);
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "M") {
            ++metadata;
        } else {
            ADD_FAILURE() << "unexpected phase " << ph;
        }
    }
    EXPECT_GT(slices, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_GT(metadata, 0u);
    EXPECT_DOUBLE_EQ(doc.at("otherData").at("events_recorded").number,
                     static_cast<double>(trace.totalRecorded()));
}

TEST_F(ObservedRun, DisablingSinksChangesNoCycles)
{
    const Program p = buildWorkload("BFS");
    const PolicyRun plain = runPolicy("regmutex", p, gtx480Config());
    EXPECT_EQ(plain.stats().cycles, run.stats().cycles);
    EXPECT_EQ(plain.stats().instructions, run.stats().instructions);
}

// --- Observing a resumed run -----------------------------------------

/** The SimStats field behind each published counter. */
std::map<std::string, std::uint64_t>
countersFromStats(const SimStats &s)
{
    return {
        {"issue.slots_issued", s.issuedSlots},
        {"issue.idle_slots", s.idleSchedulerSlots},
        {"issue.instructions", s.instructions},
        {"stall.scoreboard", s.scoreboardStalls},
        {"stall.mem_structural", s.memStructuralStalls},
        {"stall.barrier", s.barrierStalls},
        {"stall.acquire", s.acquireStalls},
        {"stall.resource", s.resourceStalls},
        {"stall.no_warp", s.noWarpStalls},
        {"srp.acquire_attempts", s.acquireAttempts},
        {"srp.acquire_successes", s.acquireSuccesses},
        {"srp.acquire_blocked", s.acquireAttempts - s.acquireSuccesses},
        {"srp.releases", s.releases},
        {"sim.emergency_spills", s.emergencySpills},
    };
}

/** Columns that cover the current process only, not the whole run. */
bool
processLocalColumn(const std::string &column)
{
    return column.rfind("srp.acquire_wait_cycles.", 0) == 0 ||
           column == "sim.snapshots" || column == "sim.restores";
}

TEST(ObservedResume, MetricsAreWholeRunTotals)
{
    constexpr std::uint64_t kInterval = 1000;
    const Program program = buildWorkload("SPMV");
    const GpuConfig config = halfRegisterFile(gtx480Config());

    MetricsRegistry whole_registry;
    Sampler whole(whole_registry, kInterval);
    RunOptions whole_options;
    whole_options.gpu.obs = {nullptr, &whole_registry, &whole};
    const PolicyRun ref =
        runPolicy("regmutex", program, config, whole_options);
    ASSERT_TRUE(ref.result.completed());

    RunOptions cut_options;
    cut_options.gpu.control.maxCycles = 25000;
    const PolicyRun cut = runPolicy("regmutex", program, config, cut_options);
    ASSERT_NE(cut.result.snapshot, nullptr);

    // Resume in fresh sinks, as a new process would.
    MetricsRegistry registry;
    Sampler sampler(registry, kInterval);
    RunOptions resume_options;
    resume_options.gpu.obs = {nullptr, &registry, &sampler};
    resume_options.gpu.resume = std::make_shared<const GpuSnapshot>(
        GpuSnapshot::deserialize(cut.result.snapshot->serialize()));
    const PolicyRun resumed =
        runPolicy("regmutex", program, config, resume_options);
    ASSERT_TRUE(resumed.result.completed());
    ASSERT_EQ(resumed.stats(), ref.stats());

    for (const auto &[name, value] : countersFromStats(resumed.stats()))
        EXPECT_EQ(registry.counter(name).value(), value) << name;
    EXPECT_EQ(registry.counter("sim.restores").value(), 1u);

    ASSERT_EQ(sampler.columns(), whole.columns());
    const std::vector<std::string> &cols = sampler.columns();
    const std::size_t holders = static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), "srp.holders") - cols.begin());
    ASSERT_LT(holders, cols.size());
    std::size_t compared = 0;
    for (const SamplePoint &row : sampler.samples()) {
        EXPECT_GE(row.values[holders], 0.0) << "cycle " << row.cycle;
        const std::size_t k = row.cycle / kInterval - 1;
        ASSERT_LT(k, whole.samples().size());
        const SamplePoint &expected = whole.samples()[k];
        ASSERT_EQ(expected.cycle, row.cycle);
        for (std::size_t c = 0; c < cols.size(); ++c) {
            if (processLocalColumn(cols[c]))
                continue;
            EXPECT_EQ(row.values[c], expected.values[c])
                << cols[c] << " at cycle " << row.cycle;
        }
        ++compared;
    }
    EXPECT_EQ(compared, ref.stats().cycles / kInterval - 25);
}

TEST(ObservedResume, RegistryLeavesSnapshotBytesAlone)
{
    const Program program = buildWorkload("LavaMD");
    const GpuConfig config = halfRegisterFile(gtx480Config());
    RunOptions plain;
    plain.gpu.control.maxCycles = 1200;
    const PolicyRun bare = runPolicy("regmutex", program, config, plain);

    MetricsRegistry registry;
    Sampler sampler(registry, 100);
    RunOptions observed = plain;
    observed.gpu.obs = {nullptr, &registry, &sampler};
    const PolicyRun watched = runPolicy("regmutex", program, config, observed);

    ASSERT_NE(bare.result.snapshot, nullptr);
    ASSERT_NE(watched.result.snapshot, nullptr);
    EXPECT_EQ(bare.result.snapshot->serialize(),
              watched.result.snapshot->serialize());
}

// --- Hostile input ---
//
// The sweep checkpoint and the fuzz corpus decode these documents from
// files on disk, so the decoders must fail with a structured error on
// anything malformed or wrong-shaped — never default-construct
// silently, never crash.

TEST(HostileJson, TruncatedDocumentsThrow)
{
    for (const char *text :
         {"{\"cycles\":", "{\"a\":1,", "[1,2", "\"unterminated",
          "{\"stats\":{\"cycles\":12"})
        EXPECT_THROW(parseJson(text), FatalError) << text;
}

TEST(HostileJson, DeeplyNestedDocumentThrows)
{
    std::string deep;
    for (int i = 0; i < 500; ++i)
        deep += '[';
    for (int i = 0; i < 500; ++i)
        deep += ']';
    EXPECT_THROW(parseJson(deep), FatalError);
    // A merely nested document under the limit still parses.
    std::string fine = "1";
    for (int i = 0; i < 50; ++i)
        fine = "[" + fine + "]";
    EXPECT_NO_THROW(parseJson(fine));
    // The caller can tighten the limit for hostile surfaces.
    EXPECT_THROW(parseJson("[[[[1]]]]", 2), FatalError);
}

TEST(HostileJson, HugeNumbersDoNotCrash)
{
    EXPECT_THROW(parseJson(std::string("{\"x\":1e") +
                           std::string(4000, '9') + "}"),
                 FatalError);
}

TEST(HostileJson, WrongTypedStatsFieldsThrowSchemaErrors)
{
    // Present-but-wrong-typed members must not decode as defaults.
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":\"fast\"}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":-5}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"cycles\":1.5}")),
                 JsonSchemaError);
    EXPECT_THROW(
        statsFromJson(parseJson("{\"avg_resident_warps\":[1,2]}")),
        JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"stalls\":7}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"hang\":\"yes\"}")),
                 JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("{\"deadlocked\":\"true\"}")),
                 JsonSchemaError);
    // The whole document must be an object.
    EXPECT_THROW(statsFromJson(parseJson("[1,2,3]")), JsonSchemaError);
    EXPECT_THROW(statsFromJson(parseJson("42")), JsonSchemaError);
    // Missing members still default (forward compatibility).
    EXPECT_NO_THROW(statsFromJson(parseJson("{}")));
}

TEST(HostileJson, IntOverflowThrowsInsteadOfTruncating)
{
    // 2^33 fits a double and an int64 but not an int: jsonInt must
    // throw a key-naming schema error rather than wrap to garbage.
    try {
        jsonInt(parseJson("{\"priority\":8589934592}"), "priority");
        FAIL() << "expected JsonSchemaError";
    } catch (const JsonSchemaError &e) {
        EXPECT_NE(std::string(e.what()).find("priority"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(jsonInt(parseJson("{\"n\":-8589934592}"), "n"),
                 JsonSchemaError);
    // Boundary values still decode exactly.
    EXPECT_EQ(jsonInt(parseJson("{\"n\":2147483647}"), "n"),
              2147483647);
    EXPECT_EQ(jsonInt(parseJson("{\"n\":-2147483648}"), "n"),
              -2147483647 - 1);
}

TEST(HostileJson, WrongTypedDiagnosisFieldsThrowSchemaErrors)
{
    EXPECT_THROW(diagnosisFromJson(parseJson("\"hung\"")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"warps\":{}}")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"warps\":[42]}")),
                 JsonSchemaError);
    EXPECT_THROW(diagnosisFromJson(parseJson("{\"cycle\":\"now\"}")),
                 JsonSchemaError);
    EXPECT_NO_THROW(diagnosisFromJson(parseJson("{}")));
}

TEST(HostileJson, SchemaErrorsNameTheOffendingKey)
{
    try {
        statsFromJson(parseJson("{\"instructions\":false}"));
        FAIL() << "expected JsonSchemaError";
    } catch (const JsonSchemaError &e) {
        EXPECT_NE(std::string(e.what()).find("instructions"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace rm
