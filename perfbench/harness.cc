#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "sim/memory.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail
tailOf(std::vector<double> samples)
{
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    // Nearest rank of percentile p: ceil(p * n / 100), 1-based.
    auto rank = [n](int p) {
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(p) * n + 99) / 100);
    };
    int best = 50;
    for (int p = 99; p > 50; --p) {
        if (n - rank(p) >= 10) {
            best = p;
            break;
        }
    }
    const std::size_t r = std::max<std::size_t>(rank(best), 1);
    tail.percentile = best;
    tail.value = samples[r - 1];
    tail.beyond = n - r;
    return tail;
}

Tail
runTail(const std::vector<double> &in_order)
{
    const std::size_t n = in_order.size();
    const std::size_t blocks = n / kTailBlock;
    if (blocks < 3)
        return tailOf(in_order);
    std::vector<double> values;
    Tail tail;
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(
                                                  b * n / blocks);
        const auto last = in_order.begin() + static_cast<std::ptrdiff_t>(
                                                 (b + 1) * n / blocks);
        tail = tailOf({first, last});
        values.push_back(tail.value);
    }
    tail.value = median(values);
    tail.samples = n;
    tail.blocks = blocks;
    return tail;
}

void
addEndToEnd(RunReport &report, const EndToEnd &e2e,
            const std::string &latency_label)
{
    const double pass = std::max(median(e2e.passSeconds), 1e-9);
    const double rate = static_cast<double>(e2e.opsPerPass) / pass;
    const double p50 = median(e2e.latencies);
    const Tail tail = runTail(e2e.latencies);
    const double pass_rate =
        report.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted);

    report.add("setup_s", e2e.setupSeconds, "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("pass_rate", pass_rate, "fraction");
    report.add("cells_per_s", rate, "1/s");
    report.add("run_p50_s", p50, "s");
    report.add("run_tail_s", tail.value, "s");
    report.add("sim_insts_per_s",
               static_cast<double>(e2e.instsPerPass) / pass, "1/s");
    report.add("verdicts_per_s", rate, "1/s");
    report.add("verdict_p50_ms", p50 * 1e3, "ms");
    report.add("verdict_tail_ms", tail.value * 1e3, "ms");

    std::ostringstream line;
    line << "timed: " << e2e.passSeconds.size() << " passes of "
         << e2e.opsPerPass << " ops, median pass " << pass << " s; "
         << latency_label << " latency p50 " << p50 * 1e3 << " ms, tail p"
         << tail.percentile << " " << tail.value * 1e3 << " ms over "
         << tail.samples << " samples (" << tail.beyond << " beyond it";
    if (tail.blocks > 1)
        line << " in each of " << tail.blocks << " blocks, median reported";
    line << "); fail_rate " << report.failed << "/"
         << report.attempted;
    report.notes.push_back(line.str());
}

bool
closedLoop(const RunContext &ctx, RunReport &report,
           const std::function<PassShape()> &warm_up,
           const std::function<TimedPass()> &pass,
           const std::string &latency_label)
{
    const PassShape shape = warm_up();
    report.setupSeconds =
        secondsSince(ctx.spawnNs > 0 ? ctx.spawnNs : ctx.mainStartNs);
    if (ctx.setupOnly)
        return false;
    if (ctx.trace)
        return true;

    EndToEnd e2e;
    e2e.setupSeconds = report.setupSeconds;
    e2e.opsPerPass = shape.ops;
    e2e.instsPerPass = shape.insts;
    const std::int64_t timed_start = nowNs();
    while (secondsSince(timed_start) < ctx.seconds) {
        const TimedPass p = pass();
        e2e.passSeconds.push_back(p.seconds);
        e2e.latencies.insert(e2e.latencies.end(), p.latencies.begin(),
                             p.latencies.end());
    }
    addEndToEnd(report, e2e, latency_label);
    return false;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

void
addLayers(RunReport &report, const Layers &l)
{
    report.add("workloads.build_ms", l.buildMs, "ms");
    report.add("workloads.static_insts", l.staticInsts, "count");
    report.add("compiler.compile_ms", l.compileMs, "ms");
    report.add("compiler.tv_ms", l.tvMs, "ms");
    report.add("compiler.validate_ms", l.validateMs, "ms");
    report.add("compiler.added_insts", l.addedInsts, "count");
    report.add("compiler.enabled_frac", l.enabledFrac, "fraction");
    report.add("analysis.lint_ms", l.lintMs, "ms");
    report.add("analysis.findings", l.findings, "count");
    report.add("regmutex.prepare_ms", l.regmutexPrepareMs, "ms");
    report.add("baselines.prepare_ms", l.baselinesPrepareMs, "ms");
    report.add("regmutex.acquire_success_rate", l.acquireSuccessRate,
               "fraction");
    report.add("regmutex.ext_accesses_per_inst", l.extAccessesPerInst,
               "1/inst");
    report.add("sim.run_ms", l.runMs, "ms");
    report.add("sim.interp_ms", l.interpMs, "ms");
    report.add("sim.ns_per_inst", l.nsPerInst, "ns");
    for (const char *p : {"baseline", "regmutex", "owf", "rfv"}) {
        const auto it = l.nsPerCycle.find(p);
        report.add(std::string("sim.ns_per_cycle.") + p,
                   it == l.nsPerCycle.end() ? 0.0 : it->second, "ns");
    }
    report.add("sim.ns_per_cycle.idle_hi", l.nsPerCycleIdleHi, "ns");
    report.add("sim.ns_per_cycle.idle_lo", l.nsPerCycleIdleLo, "ns");
    report.add("sim.idle_slot_frac", l.idleSlotFrac, "fraction");
    report.add("sim.gmem_init_ms", l.gmemInitMs, "ms");
    report.add("sim.gmem_digest_ms", l.gmemDigestMs, "ms");
    report.add("sim.controlled_overhead_frac", l.controlledOverheadFrac,
               "fraction");
    report.add("sim.snapshot_capture_ms", l.snapshotCaptureMs, "ms");
    report.add("sim.snapshot_encode_ms", l.snapshotEncodeMs, "ms");
    report.add("sim.snapshot_decode_ms", l.snapshotDecodeMs, "ms");
    report.add("sim.snapshot_mb", l.snapshotMb, "MB");
    report.add("sim.sm_imbalance", l.smImbalance, "x");
    report.add("common.sweep_speedup", l.sweepSpeedup, "x");
    report.add("common.sm_speedup", l.smSpeedup, "x");
    report.add("core.sweep_overhead_ms", l.sweepOverheadMs, "ms");
    report.add("obs.stats_json_us", l.statsJsonUs, "us");
    report.add("obs.sink_overhead_frac", l.sinkOverheadFrac, "fraction");
    report.add("trace.overhead_frac", l.traceOverheadFrac, "fraction");
}

std::pair<double, double>
globalMemoryCosts()
{
    std::vector<double> init_ms, digest_ms;
    std::uint64_t first_digest = 0;
    for (int i = 0; i < 9; ++i) {
        const std::int64_t t0 = nowNs();
        const rm::GlobalMemory memory(20, 1);
        const std::int64_t t1 = nowNs();
        const std::uint64_t digest = memory.digest();
        const std::int64_t t2 = nowNs();
        if (i == 0)
            first_digest = digest;
        else if (digest != first_digest)
            throw std::runtime_error(
                "GlobalMemory contents differ between two constructions");
        init_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        digest_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    }
    return {median(init_ms), median(digest_ms)};
}

// --------------------------------------------------------------------
// Tracing

Tracer::Tracer() : epoch(nowNs()) {}

int
Tracer::begin(const char *name, int parent, int op)
{
    const std::int64_t start = nowNs() - epoch;
    std::lock_guard<std::mutex> lock(mutex);
    Span span;
    span.id = static_cast<int>(recorded.size());
    span.parent = parent;
    span.op = op;
    span.name = name;
    span.start = start;
    span.end = start;
    recorded.push_back(std::move(span));
    return recorded.back().id;
}

void
Tracer::end(int id)
{
    const std::int64_t end = nowNs() - epoch;
    std::lock_guard<std::mutex> lock(mutex);
    recorded.at(static_cast<std::size_t>(id)).end = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recorded;
}

void
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<std::int64_t> self = selfTimes(all);
    rm::JsonWriter w;
    w.beginObject().key("spans").beginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        w.beginObject()
            .key("id").value(s.id)
            .key("parent").value(s.parent)
            .key("op").value(s.op)
            .key("name").value(s.name)
            .key("start_ns").value(static_cast<std::int64_t>(s.start))
            .key("end_ns").value(static_cast<std::int64_t>(s.end))
            .key("self_ns").value(static_cast<std::int64_t>(self[i]))
            .endObject();
    }
    w.endArray().key("self_time_by_name").beginObject();
    for (const auto &[name, t] : totalsByName(all)) {
        w.key(name)
            .beginObject()
            .key("calls").value(static_cast<std::int64_t>(t.calls))
            .key("self_ns").value(static_cast<std::int64_t>(t.selfNs))
            .key("total_ns").value(static_cast<std::int64_t>(t.totalNs))
            .endObject();
    }
    w.endObject().endObject();
    std::ofstream out(path);
    out << w.take() << "\n";
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &parent = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (std::size_t c : children[i]) {
            const std::int64_t lo = std::max(spans[c].start, parent.start);
            const std::int64_t hi = std::min(spans[c].end, parent.end);
            if (hi > lo)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t union_ns = 0;
        std::int64_t run_lo = 0, run_hi = -1;
        for (const auto &[lo, hi] : covered) {
            if (run_hi < lo) {
                if (run_hi > run_lo)
                    union_ns += run_hi - run_lo;
                run_lo = lo;
                run_hi = hi;
            } else {
                run_hi = std::max(run_hi, hi);
            }
        }
        if (run_hi > run_lo)
            union_ns += run_hi - run_lo;
        self[i] = (parent.end - parent.start) - union_ns;
    }
    return self;
}

std::map<std::string, NameTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, NameTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        NameTotals &t = totals[spans[i].name];
        ++t.calls;
        t.selfNs += self[i];
        t.totalNs += spans[i].end - spans[i].start;
    }
    return totals;
}

double
meanSelfMs(const std::map<std::string, NameTotals> &totals,
           const std::string &name)
{
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return static_cast<double>(it->second.selfNs) * 1e-6 /
           static_cast<double>(it->second.calls);
}

// --------------------------------------------------------------------
// Output checks

bool
statsMatch(const rm::SimStats &actual, const rm::SimStats &expected,
           std::string *why)
{
    const std::string exported = rm::statsToJson(actual);
    if (actual != expected) {
        if (why)
            *why = "stats differ from the expected output: got " +
                   exported + ", expected " + rm::statsToJson(expected);
        return false;
    }
    const rm::SimStats reread = rm::statsFromJson(rm::parseJson(exported));
    if (reread != actual) {
        if (why)
            *why = "statsToJson/statsFromJson round trip changed " +
                   exported;
        return false;
    }
    return true;
}

std::map<std::string, rm::SimStats>
loadStatsMap(const std::string &path, const std::string &member)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected outputs " + path);
    std::stringstream text;
    text << in.rdbuf();
    const rm::JsonValue doc = rm::parseJson(text.str());
    const rm::JsonValue *cells = doc.find(member);
    if (cells == nullptr || !cells->isObject())
        throw std::runtime_error(path + ": no '" + member + "' object");
    std::map<std::string, rm::SimStats> out;
    for (const auto &[name, value] : cells->members)
        out.emplace(name, rm::statsFromJson(value));
    return out;
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    rm::Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t role, std::uint64_t index)
{
    // splitmix64 finaliser over a combination of the three inputs.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                      (role + 1) * 0xbf58476d1ce4e5b9ULL ^
                      (index + 1) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace perfbench
