#include "fuzz/gen.hh"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/errors.hh"
#include "common/rng.hh"
#include "obs/json.hh"

namespace rm {
namespace {

/// Register budget ceiling: roundUp(56, 8) * 256 threads = 14336
/// registers, which fits one CTA even on the half-RF architecture
/// (16384), so every sampled case admits at least one resident CTA
/// under the baseline's static allocation.
constexpr int kMaxRegs = 56;

/// Sampled watchdog budget: far above any healthy generated kernel
/// (tens of thousands of cycles) yet small enough that a case the
/// faults genuinely wedge fails in milliseconds, not minutes.
constexpr long long kFuzzWatchdog = 150'000;

/// Domain separator so generateCase(0) does not mirror Rng's default
/// stream.
constexpr std::uint64_t kGenSalt = 0x66757a7a2d67656eULL;  // "fuzz-gen"

int
roundUp(int value, int granularity)
{
    return (value + granularity - 1) / granularity * granularity;
}

template <typename T>
T
pickOne(Rng &rng, std::initializer_list<T> options)
{
    const auto idx = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(options.size()) - 1));
    return options.begin()[idx];
}

FaultWindow
sampleWindow(Rng &rng)
{
    FaultWindow w;
    w.from = static_cast<std::uint64_t>(rng.uniformInt(0, 5000));
    w.until = w.from + static_cast<std::uint64_t>(rng.uniformInt(500, 20000));
    return w;
}

std::string
hexU64(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

std::uint64_t
parseHexU64(const std::string &text, std::string_view key)
{
    if (text.size() < 3 || text[0] != '0' || text[1] != 'x')
        throw JsonSchemaError("fuzz repro: member \"" + std::string(key) +
                              "\" is not a 0x-prefixed hex string");
    std::uint64_t value = 0;
    const char *first = text.data() + 2;
    const char *last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, 16);
    if (ec != std::errc() || ptr != last)
        throw JsonSchemaError("fuzz repro: member \"" + std::string(key) +
                              "\" is not a valid hex u64: " + text);
    return value;
}

// --- Strict member accessors -------------------------------------------
//
// The shared jsonU64/jsonInt helpers default missing members (forward
// compatibility for artifact *loaders*); a repro must instead describe
// the exact case, so absence is a schema error here. Wrong-typed
// members already throw through the shared helpers.

[[noreturn]] void
missingMember(std::string_view what, std::string_view key)
{
    throw JsonSchemaError("fuzz repro: " + std::string(what) +
                          " is missing member \"" + std::string(key) + "\"");
}

std::uint64_t
needU64(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonU64(obj, key);
}

std::int64_t
needI64(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonI64(obj, key);
}

int
needInt(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonInt(obj, key);
}

double
needNumber(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonNumber(obj, key);
}

bool
needBool(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonBool(obj, key);
}

std::string
needString(const JsonValue &obj, std::string_view what, std::string_view key)
{
    if (!obj.has(key))
        missingMember(what, key);
    return jsonString(obj, key);
}

std::uint64_t
needHexU64(const JsonValue &obj, std::string_view what, std::string_view key)
{
    return parseHexU64(needString(obj, what, key), key);
}

const JsonValue &
needObject(const JsonValue &obj, std::string_view what, std::string_view key)
{
    const JsonValue *member = jsonObject(obj, key);
    if (!member)
        missingMember(what, key);
    return *member;
}

void
configToJson(JsonWriter &w, const GpuConfig &c)
{
    w.beginObject();
    w.key("num_sms").value(c.numSms);
    w.key("max_warps_per_sm").value(c.maxWarpsPerSm);
    w.key("max_ctas_per_sm").value(c.maxCtasPerSm);
    w.key("max_threads_per_sm").value(c.maxThreadsPerSm);
    w.key("registers_per_sm").value(c.registersPerSm);
    w.key("shared_mem_per_sm").value(c.sharedMemPerSm);
    w.key("warp_size").value(c.warpSize);
    w.key("num_schedulers").value(c.numSchedulers);
    w.key("reg_alloc_granularity").value(c.regAllocGranularity);
    w.key("alu_latency").value(c.aluLatency);
    w.key("sfu_latency").value(c.sfuLatency);
    w.key("shared_latency").value(c.sharedLatency);
    w.key("global_latency").value(c.globalLatency);
    w.key("mem_issue_per_cycle").value(c.memIssuePerCycle);
    w.key("max_pending_mem_per_warp").value(c.maxPendingMemPerWarp);
    w.key("rf_banks").value(c.rfBanks);
    w.key("model_bank_conflicts").value(c.modelBankConflicts);
    w.key("sched_policy")
        .value(c.schedPolicy == SchedPolicy::Lrr ? "lrr" : "gto");
    w.key("wake_on_release").value(c.wakeOnRelease);
    w.key("watchdog_cycles")
        .value(static_cast<std::int64_t>(c.watchdogCycles));
    w.endObject();
}

GpuConfig
configFromJson(const JsonValue &obj)
{
    constexpr std::string_view what = "config";
    requireJsonObject(obj, what);
    GpuConfig c;
    c.numSms = needInt(obj, what, "num_sms");
    c.maxWarpsPerSm = needInt(obj, what, "max_warps_per_sm");
    c.maxCtasPerSm = needInt(obj, what, "max_ctas_per_sm");
    c.maxThreadsPerSm = needInt(obj, what, "max_threads_per_sm");
    c.registersPerSm = needInt(obj, what, "registers_per_sm");
    c.sharedMemPerSm = needInt(obj, what, "shared_mem_per_sm");
    c.warpSize = needInt(obj, what, "warp_size");
    c.numSchedulers = needInt(obj, what, "num_schedulers");
    c.regAllocGranularity = needInt(obj, what, "reg_alloc_granularity");
    c.aluLatency = needInt(obj, what, "alu_latency");
    c.sfuLatency = needInt(obj, what, "sfu_latency");
    c.sharedLatency = needInt(obj, what, "shared_latency");
    c.globalLatency = needInt(obj, what, "global_latency");
    c.memIssuePerCycle = needInt(obj, what, "mem_issue_per_cycle");
    c.maxPendingMemPerWarp = needInt(obj, what, "max_pending_mem_per_warp");
    c.rfBanks = needInt(obj, what, "rf_banks");
    c.modelBankConflicts = needBool(obj, what, "model_bank_conflicts");
    const std::string sched = needString(obj, what, "sched_policy");
    if (sched == "gto")
        c.schedPolicy = SchedPolicy::Gto;
    else if (sched == "lrr")
        c.schedPolicy = SchedPolicy::Lrr;
    else
        throw JsonSchemaError("fuzz repro: unknown sched_policy \"" + sched +
                              "\"");
    c.wakeOnRelease = needBool(obj, what, "wake_on_release");
    c.watchdogCycles = needI64(obj, what, "watchdog_cycles");
    return c;
}

void
kernelToJson(JsonWriter &w, const KernelSpec &k)
{
    w.beginObject();
    w.key("name").value(k.name);
    w.key("regs").value(k.regs);
    w.key("cta_threads").value(k.ctaThreads);
    w.key("grid_ctas_per_sm").value(k.gridCtasPerSm);
    w.key("shared_bytes").value(k.sharedBytes);
    w.key("persistent").value(k.persistent);
    w.key("scramble").value(k.scramble);
    w.key("seed").value(hexU64(k.seed));
    w.key("phases").beginArray();
    for (const PhaseSpec &p : k.phases) {
        w.beginObject();
        w.key("trips").value(p.trips);
        w.key("peak").value(p.peak);
        w.key("loads").value(p.loads);
        w.key("mem_trips").value(p.memTrips);
        w.key("alu_per_temp").value(p.aluPerTemp);
        w.key("use_sfu").value(p.useSfu);
        w.key("divergent").value(p.divergent);
        w.key("barrier_after").value(p.barrierAfter);
        w.key("barrier_live").value(p.barrierLive);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

KernelSpec
kernelFromJson(const JsonValue &obj)
{
    constexpr std::string_view what = "kernel";
    requireJsonObject(obj, what);
    KernelSpec k;
    k.name = needString(obj, what, "name");
    k.regs = needInt(obj, what, "regs");
    k.ctaThreads = needInt(obj, what, "cta_threads");
    k.gridCtasPerSm = needInt(obj, what, "grid_ctas_per_sm");
    k.sharedBytes = needInt(obj, what, "shared_bytes");
    k.persistent = needInt(obj, what, "persistent");
    k.scramble = needBool(obj, what, "scramble");
    k.seed = needHexU64(obj, what, "seed");
    const JsonValue *phases = jsonArray(obj, "phases");
    if (!phases)
        missingMember(what, "phases");
    k.phases.clear();
    for (const JsonValue &item : phases->items) {
        requireJsonObject(item, "kernel phase");
        PhaseSpec p;
        p.trips = needInt(item, "phase", "trips");
        p.peak = needInt(item, "phase", "peak");
        p.loads = needInt(item, "phase", "loads");
        p.memTrips = needInt(item, "phase", "mem_trips");
        p.aluPerTemp = needInt(item, "phase", "alu_per_temp");
        p.useSfu = needBool(item, "phase", "use_sfu");
        p.divergent = needBool(item, "phase", "divergent");
        p.barrierAfter = needBool(item, "phase", "barrier_after");
        p.barrierLive = needInt(item, "phase", "barrier_live");
        k.phases.push_back(p);
    }
    return k;
}

void
faultToJson(JsonWriter &w, const FaultPlan &f)
{
    w.beginObject();
    w.key("seed").value(hexU64(f.seed));
    w.key("deny_from").value(f.denyAcquire.from);
    w.key("deny_until").value(f.denyAcquire.until);
    w.key("deny_chance").value(f.denyAcquireChance);
    w.key("delay_from").value(f.delayRelease.from);
    w.key("delay_until").value(f.delayRelease.until);
    w.key("release_delay").value(f.releaseDelayCycles);
    w.key("shrink_at").value(f.shrinkSrpAtCycle);
    w.key("shrink_sections").value(f.shrinkSrpSections);
    w.key("spike_from").value(f.memSpike.from);
    w.key("spike_until").value(f.memSpike.until);
    w.key("spike_factor").value(f.memSpikeFactor);
    w.key("corrupt_at").value(f.corruptStateAtCycle);
    w.endObject();
}

FaultPlan
faultFromJson(const JsonValue &obj)
{
    constexpr std::string_view what = "fault";
    requireJsonObject(obj, what);
    FaultPlan f;
    f.seed = needHexU64(obj, what, "seed");
    f.denyAcquire.from = needU64(obj, what, "deny_from");
    f.denyAcquire.until = needU64(obj, what, "deny_until");
    f.denyAcquireChance = needNumber(obj, what, "deny_chance");
    f.delayRelease.from = needU64(obj, what, "delay_from");
    f.delayRelease.until = needU64(obj, what, "delay_until");
    f.releaseDelayCycles = needU64(obj, what, "release_delay");
    f.shrinkSrpAtCycle = needU64(obj, what, "shrink_at");
    f.shrinkSrpSections = needInt(obj, what, "shrink_sections");
    f.memSpike.from = needU64(obj, what, "spike_from");
    f.memSpike.until = needU64(obj, what, "spike_until");
    f.memSpikeFactor = needInt(obj, what, "spike_factor");
    f.corruptStateAtCycle = needU64(obj, what, "corrupt_at");
    return f;
}

} // namespace

FuzzCase
generateCase(std::uint64_t seed)
{
    Rng rng(seed ^ kGenSalt);
    FuzzCase fc;
    fc.seed = seed;

    // --- Architecture + config envelope -------------------------------
    switch (rng.uniformInt(0, 4)) {
    case 0:
        fc.arch = "GTX480";
        fc.config = gtx480Config();
        break;
    case 1:
        fc.arch = "half-RF";
        fc.config = halfRegisterFile(gtx480Config());
        break;
    case 2:
        fc.arch = "Kepler";
        fc.config = keplerConfig();
        break;
    case 3:
        fc.arch = "Maxwell";
        fc.config = maxwellConfig();
        break;
    default:
        fc.arch = "Volta";
        fc.config = voltaConfig();
        break;
    }
    fc.config.numSms = static_cast<int>(rng.uniformInt(1, 3));
    fc.config.numSchedulers = pickOne(rng, {1, 2, 4});
    fc.config.schedPolicy =
        rng.chance(0.3) ? SchedPolicy::Lrr : SchedPolicy::Gto;
    fc.config.wakeOnRelease = !rng.chance(0.2);
    fc.config.regAllocGranularity = pickOne(rng, {2, 4, 8});
    fc.config.globalLatency = pickOne(rng, {100, 200, 400, 600});
    fc.config.memIssuePerCycle = pickOne(rng, {1, 2});
    fc.config.maxPendingMemPerWarp = pickOne(rng, {2, 4, 6});
    fc.config.watchdogCycles = kFuzzWatchdog;

    // --- Kernel shape ---------------------------------------------------
    KernelSpec &k = fc.kernel;
    {
        std::ostringstream name;
        name << "fuzz-" << std::hex << std::setw(16) << std::setfill('0')
             << seed;
        k.name = name.str();
    }
    k.persistent = static_cast<int>(rng.uniformInt(2, 5));
    const int bg = 1 + k.persistent;
    k.ctaThreads = 32 << rng.uniformInt(0, 3);
    k.gridCtasPerSm = static_cast<int>(rng.uniformInt(1, 3));
    k.sharedBytes = pickOne(rng, {0, 0, 512, 2048});
    k.scramble = rng.chance(0.5);
    k.seed = rng.next();
    k.phases.clear();
    const int numPhases = static_cast<int>(rng.uniformInt(1, 3));
    int maxPeak = 0;
    int poolFloor = bg + 3;
    for (int i = 0; i < numPhases; ++i) {
        PhaseSpec p;
        p.trips = static_cast<int>(rng.uniformInt(1, 4));
        p.memTrips =
            rng.chance(0.4) ? 0 : static_cast<int>(rng.uniformInt(1, 3));
        p.loads = static_cast<int>(rng.uniformInt(1, 3));
        p.aluPerTemp = static_cast<int>(rng.uniformInt(0, 2));
        p.useSfu = rng.chance(0.25);
        p.divergent = rng.chance(0.3);
        p.barrierAfter = rng.chance(0.3);
        const int directLoads = p.memTrips > 0 ? 0 : p.loads;
        const int minPeak = bg + 2 + directLoads;
        p.peak = std::min(kMaxRegs,
                          minPeak + static_cast<int>(rng.uniformInt(0, 12)));
        maxPeak = std::max(maxPeak, p.peak);
        // Memory-subloop phases allocate the inner counter, an address
        // and the in-flight loads on top of the gathered values — a
        // transient pool demand that peak (which only sizes the temp
        // burst) does not see.  Direct-load phases are covered by the
        // peak >= bg + 1 + loads + 1 floor above.
        if (p.memTrips > 0)
            poolFloor = std::max(poolFloor, bg + p.loads + 3);
        k.phases.push_back(p);
    }
    k.regs = std::min(kMaxRegs, std::max(poolFloor, maxPeak) +
                                    static_cast<int>(rng.uniformInt(0, 8)));
    for (PhaseSpec &p : k.phases) {
        if (!p.barrierAfter || !rng.chance(0.4))
            continue;
        const int floor = bg + (k.sharedBytes > 0 ? 1 : 0);
        const int live = floor + static_cast<int>(rng.uniformInt(0, 4));
        // The generator materializes barrierLive - floor pad registers
        // from the same pool as everything else; keep headroom so the
        // pool cannot run dry mid-phase.
        if (live <= k.regs - 2)
            p.barrierLive = live;
    }

    // --- Fault plan -----------------------------------------------------
    if (rng.chance(0.55)) {
        FaultPlan &f = fc.fault;
        f.seed = rng.next();
        if (rng.chance(0.3)) {
            // Corrupt-only plan: lets the sanitize oracle attribute a
            // SanitizerError (or its absence) to exactly one cause.
            f.corruptStateAtCycle =
                static_cast<std::uint64_t>(rng.uniformInt(100, 6000));
        } else {
            if (rng.chance(0.5)) {
                f.denyAcquire = sampleWindow(rng);
                f.denyAcquireChance = pickOne(rng, {0.25, 0.5, 1.0});
            }
            if (rng.chance(0.35)) {
                f.delayRelease = sampleWindow(rng);
                // Mostly short delays; rarely one past the watchdog
                // budget so watchdog expiry stays on the fuzzed path.
                f.releaseDelayCycles =
                    rng.chance(0.1)
                        ? 400'000
                        : static_cast<std::uint64_t>(
                              rng.uniformInt(50, 4000));
            }
            if (rng.chance(0.3)) {
                f.shrinkSrpAtCycle =
                    static_cast<std::uint64_t>(rng.uniformInt(100, 8000));
                f.shrinkSrpSections = static_cast<int>(rng.uniformInt(1, 2));
            }
            if (rng.chance(0.4)) {
                f.memSpike = sampleWindow(rng);
                f.memSpikeFactor = static_cast<int>(rng.uniformInt(2, 6));
            }
            if (!f.active()) {
                f.denyAcquire = sampleWindow(rng);
                f.denyAcquireChance = 0.5;
            }
        }
    }

    fc.snapshotCycle = static_cast<std::uint64_t>(rng.uniformInt(200, 15000));
    fc.policy = pickOne<const char *>(rng, {"regmutex", "paired", "owf",
                                            "rfv"});
    return fc;
}

bool
validateCase(const FuzzCase &fc, std::string *why)
{
    const auto fail = [&](std::string message) {
        if (why)
            *why = std::move(message);
        return false;
    };
    const GpuConfig &g = fc.config;
    const KernelSpec &k = fc.kernel;

    // Config envelope: wide enough for every factory architecture plus
    // the sampled perturbations, tight enough that a hand-edited repro
    // cannot demand unbounded memory or runtime.
    if (g.numSms < 1 || g.numSms > 8)
        return fail("num_sms outside [1, 8]");
    if (g.warpSize != 32)
        return fail("warp_size must be 32");
    if (g.registersPerSm < 1024 || g.registersPerSm > 262144)
        return fail("registers_per_sm outside [1024, 262144]");
    if (g.maxWarpsPerSm < 1 || g.maxWarpsPerSm > kEngineWordBits)
        return fail("max_warps_per_sm outside [1, " +
                    std::to_string(kEngineWordBits) + "]");
    if (g.maxCtasPerSm < 1 || g.maxCtasPerSm > 64)
        return fail("max_ctas_per_sm outside [1, 64]");
    if (g.maxThreadsPerSm < g.warpSize || g.maxThreadsPerSm > 65536)
        return fail("max_threads_per_sm outside [32, 65536]");
    if (g.sharedMemPerSm < 0 || g.sharedMemPerSm > (1 << 24))
        return fail("shared_mem_per_sm outside [0, 16MiB]");
    if (g.numSchedulers < 1 || g.numSchedulers > 8)
        return fail("num_schedulers outside [1, 8]");
    if (g.regAllocGranularity < 1 || g.regAllocGranularity > 32)
        return fail("reg_alloc_granularity outside [1, 32]");
    if (g.aluLatency < 1 || g.sfuLatency < 1 || g.sharedLatency < 1 ||
        g.globalLatency < 1 || g.aluLatency > 100'000 ||
        g.sfuLatency > 100'000 || g.sharedLatency > 100'000 ||
        g.globalLatency > 100'000)
        return fail("latency outside [1, 100000]");
    if (g.memIssuePerCycle < 1 || g.memIssuePerCycle > 32)
        return fail("mem_issue_per_cycle outside [1, 32]");
    if (g.maxPendingMemPerWarp < 1 || g.maxPendingMemPerWarp > 64)
        return fail("max_pending_mem_per_warp outside [1, 64]");
    if (g.rfBanks < 1 || g.rfBanks > 64)
        return fail("rf_banks outside [1, 64]");
    if (g.watchdogCycles < 10'000 || g.watchdogCycles > 10'000'000)
        return fail("watchdog_cycles outside [10000, 10000000]");

    // Kernel envelope.
    if (k.phases.empty() || k.phases.size() > 16)
        return fail("phase count outside [1, 16]");
    if (k.persistent < 2 || k.persistent > 32)
        return fail("persistent outside [2, 32]");
    const int bg = 1 + k.persistent;
    if (k.regs < bg + 3 || k.regs > kEngineWordBits)
        return fail("regs outside [background + 3, " +
                    std::to_string(kEngineWordBits) + "]");
    // RegMutex compilation pads the count to the allocation granularity.
    if (roundUp(k.regs, g.regAllocGranularity) > kEngineWordBits)
        return fail("regs rounded up to reg_alloc_granularity exceed " +
                    std::to_string(kEngineWordBits));
    if (k.ctaThreads < g.warpSize || k.ctaThreads % g.warpSize != 0)
        return fail("cta_threads not a positive multiple of warp_size");
    if (k.ctaThreads > g.maxThreadsPerSm)
        return fail("cta_threads exceeds max_threads_per_sm");
    if (g.warpsPerCta(k.ctaThreads) > g.maxWarpsPerSm)
        return fail("CTA warps exceed max_warps_per_sm");
    if (k.gridCtasPerSm < 1 || k.gridCtasPerSm > 16)
        return fail("grid_ctas_per_sm outside [1, 16]");
    if (k.sharedBytes < 0 || k.sharedBytes > g.sharedMemPerSm)
        return fail("shared_bytes outside [0, shared_mem_per_sm]");
    if (roundUp(k.regs, g.regAllocGranularity) * k.ctaThreads >
        g.registersPerSm)
        return fail("one CTA does not fit the baseline register file");
    for (const PhaseSpec &p : k.phases) {
        if (p.trips < 1 || p.trips > 64)
            return fail("phase trips outside [1, 64]");
        if (p.memTrips < 0 || p.memTrips > 64)
            return fail("phase mem_trips outside [0, 64]");
        if (p.loads < 1 || p.loads > 32)
            return fail("phase loads outside [1, 32]");
        if (p.aluPerTemp < 0 || p.aluPerTemp > 16)
            return fail("phase alu_per_temp outside [0, 16]");
        const int directLoads = p.memTrips > 0 ? 0 : p.loads;
        if (p.peak < bg + 2 + directLoads)
            return fail("phase peak below background + counter + loads");
        if (p.peak > k.regs)
            return fail("phase peak exceeds the register budget");
        if (p.memTrips > 0 && k.regs < bg + p.loads + 3)
            return fail("regs below the memory-subloop pool demand");
        if (p.barrierLive != 0) {
            if (p.barrierLive < bg + (k.sharedBytes > 0 ? 1 : 0))
                return fail("barrier_live below the background live count");
            if (p.barrierLive > k.regs - 2)
                return fail("barrier_live too close to the register budget");
        }
    }

    // Fault + oracle-parameter envelope.
    const FaultPlan &f = fc.fault;
    if (f.denyAcquireChance < 0.0 || f.denyAcquireChance > 1.0)
        return fail("deny_chance outside [0, 1]");
    if (f.denyAcquire.until < f.denyAcquire.from ||
        f.delayRelease.until < f.delayRelease.from ||
        f.memSpike.until < f.memSpike.from)
        return fail("fault window ends before it starts");
    if (f.releaseDelayCycles > 2'000'000)
        return fail("release_delay above 2000000");
    if (f.shrinkSrpSections < 0 || f.shrinkSrpSections > 64)
        return fail("shrink_sections outside [0, 64]");
    if (f.memSpikeFactor < 1 || f.memSpikeFactor > 64)
        return fail("spike_factor outside [1, 64]");
    if (f.shrinkSrpAtCycle > 10'000'000 || f.corruptStateAtCycle > 10'000'000)
        return fail("fault trigger cycle above 10000000");
    if (fc.snapshotCycle < 1 || fc.snapshotCycle > 10'000'000)
        return fail("snapshot_cycle outside [1, 10000000]");
    if (fc.policy != "baseline" && fc.policy != "regmutex" &&
        fc.policy != "paired" && fc.policy != "owf" && fc.policy != "rfv")
        return fail("unknown focus policy \"" + fc.policy + "\"");

    // Final authority: the generator itself must accept the spec.
    try {
        buildKernel(k, g.numSms);
    } catch (const FatalError &e) {
        return fail(std::string("buildKernel rejects the spec: ") + e.what());
    }
    return true;
}

Program
buildCaseProgram(const FuzzCase &fc)
{
    return buildKernel(fc.kernel, fc.config.numSms);
}

std::string
describeCase(const FuzzCase &fc)
{
    std::ostringstream os;
    os << "seed=" << hexU64(fc.seed) << " arch=" << fc.arch
       << " sms=" << fc.config.numSms << " policy=" << fc.policy
       << " regs=" << fc.kernel.regs << " cta=" << fc.kernel.ctaThreads
       << " phases=" << fc.kernel.phases.size() << " snap@"
       << fc.snapshotCycle;
    if (fc.fault.active())
        os << " fault=[" << fc.fault.describe() << "]";
    return os.str();
}

void
caseToJson(JsonWriter &w, const FuzzCase &fc)
{
    w.beginObject();
    w.key("schema").value(FuzzCase::kSchemaVersion);
    w.key("seed").value(hexU64(fc.seed));
    w.key("arch").value(fc.arch);
    w.key("policy").value(fc.policy);
    w.key("snapshot_cycle").value(fc.snapshotCycle);
    w.key("config");
    configToJson(w, fc.config);
    w.key("kernel");
    kernelToJson(w, fc.kernel);
    w.key("fault");
    faultToJson(w, fc.fault);
    w.endObject();
}

std::string
caseToJson(const FuzzCase &fc)
{
    JsonWriter w;
    caseToJson(w, fc);
    return w.take();
}

FuzzCase
caseFromJson(const JsonValue &value)
{
    constexpr std::string_view what = "case";
    requireJsonObject(value, what);
    const int schema = needInt(value, what, "schema");
    if (schema != FuzzCase::kSchemaVersion)
        throw JsonSchemaError(
            "fuzz repro: unsupported schema version " +
            std::to_string(schema) + " (this build understands " +
            std::to_string(FuzzCase::kSchemaVersion) + ")");
    FuzzCase fc;
    fc.seed = needHexU64(value, what, "seed");
    fc.arch = needString(value, what, "arch");
    fc.policy = needString(value, what, "policy");
    fc.snapshotCycle = needU64(value, what, "snapshot_cycle");
    fc.config = configFromJson(needObject(value, what, "config"));
    fc.kernel = kernelFromJson(needObject(value, what, "kernel"));
    fc.fault = faultFromJson(needObject(value, what, "fault"));
    return fc;
}

} // namespace rm
