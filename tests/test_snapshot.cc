/**
 * @file
 * Run durability: the snapshot codec round-trips bit-exactly and fails
 * loudly on damage, preempted runs resume to SimStats bit-identical to
 * uninterrupted ones (for every policy, under fault plans, across
 * thread counts), the sanitizer passes clean runs and catches injected
 * state corruption within one epoch, and the sweep runner keeps its
 * JSONL checkpoint as the only durable record of its cells.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <iterator>
#include <string>
#include <vector>

#include "common/bitmask.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/policy.hh"
#include "core/sweep.hh"
#include "isa/builder.hh"
#include "sim/config.hh"
#include "sim/gpu.hh"
#include "sim/sanitizer.hh"
#include "sim/snapshot.hh"
#include "workloads/suite.hh"

namespace rm {
namespace {

const std::vector<std::string> kPolicies = {"baseline", "regmutex",
                                            "paired", "owf", "rfv"};

/** Serialize + deserialize, as a resumed process would see it. */
std::shared_ptr<const GpuSnapshot>
roundTrip(const GpuSnapshot &snap)
{
    return std::make_shared<const GpuSnapshot>(
        GpuSnapshot::deserialize(snap.serialize()));
}

// --- Codec ---

TEST(SnapshotCodec, PrimitivesRoundTripBitExactly)
{
    SnapshotWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeefU);
    w.u64(0x0123456789abcdefULL);
    w.i32(-42);
    w.i64(-1234567890123456789LL);
    w.f64(0.1);           // not exactly representable: bit-cast matters
    w.f64(-0.0);
    w.boolean(true);
    w.str("hello \xE2\x9C\x93 world");
    w.bytes(std::string("\x00\x01\x02", 3));

    SnapshotReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefU);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.i64(), -1234567890123456789LL);
    EXPECT_EQ(r.f64(), 0.1);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.str(), "hello \xE2\x9C\x93 world");
    EXPECT_EQ(r.bytes(), std::string("\x00\x01\x02", 3));
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotCodec, TruncationThrows)
{
    SnapshotWriter w;
    w.u64(7);
    const std::string bytes = w.buffer();
    SnapshotReader r(std::string_view(bytes).substr(0, 5));
    EXPECT_THROW(r.u64(), SnapshotError);
}

TEST(SnapshotCodec, BitmaskRoundTripsSparsely)
{
    Bitmask mask(300);
    mask.set(0);
    mask.set(63);
    mask.set(64);
    mask.set(299);
    SnapshotWriter w;
    w.bitmask(mask);
    // Sparse encoding: size + count + one u64 per set bit, not 300 bits.
    EXPECT_LT(w.buffer().size(), 64u);
    SnapshotReader r(w.buffer());
    const Bitmask back = r.bitmask();
    ASSERT_EQ(back.size(), 300u);
    EXPECT_EQ(back.count(), 4u);
    EXPECT_TRUE(back.test(0));
    EXPECT_TRUE(back.test(63));
    EXPECT_TRUE(back.test(64));
    EXPECT_TRUE(back.test(299));
}

TEST(SnapshotCodec, RngStateRoundTrips)
{
    Rng rng(12345);
    rng.next();
    rng.next();
    std::uint64_t state[4];
    rng.exportState(state);
    const std::uint64_t expect = rng.next();

    Rng resumed(999);  // different seed: restore must win
    resumed.restoreState(state);
    EXPECT_EQ(resumed.next(), expect);
}

TEST(SnapshotCodec, SimStatsRoundTrip)
{
    SimStats stats;
    stats.kernelName = "K";
    stats.allocatorName = "A";
    stats.cycles = 123456;
    stats.instructions = 789;
    stats.theoreticalOccupancy = 2.0 / 3.0;
    stats.avgResidentWarps = 17.25;
    stats.deadlocked = true;
    stats.deadlockCause = DeadlockCause::Acquire;
    stats.faultEvents = 3;

    SnapshotWriter w;
    saveStats(w, stats);
    SnapshotReader r(w.buffer());
    const SimStats back = loadStats(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back, stats);
    EXPECT_EQ(back.deadlockCause, DeadlockCause::Acquire);
}

TEST(SnapshotCodec, SimStatsOutOfRangeDeadlockCauseThrows)
{
    SnapshotWriter w;
    saveStats(w, SimStats{});
    std::string bytes = w.take();
    // The blob ends with the deadlockCause byte; 4 is one past Barrier.
    bytes.back() = 4;
    SnapshotReader r(bytes);
    EXPECT_THROW(loadStats(r), SnapshotError);
}

TEST(GpuSnapshotFormat, DamageFailsLoudly)
{
    GpuSnapshot snap;
    snap.kernel = "K";
    snap.policy = "P";
    snap.numSms = 1;
    snap.sms.resize(1);
    snap.sms[0].finished = true;
    const std::string bytes = snap.serialize();

    // Clean round trip first.
    const GpuSnapshot back = GpuSnapshot::deserialize(bytes);
    EXPECT_EQ(back.kernel, "K");
    EXPECT_EQ(back.policy, "P");
    ASSERT_EQ(back.sms.size(), 1u);
    EXPECT_TRUE(back.sms[0].finished);

    // Bad magic.
    std::string broken = bytes;
    broken[0] = 'X';
    EXPECT_THROW(GpuSnapshot::deserialize(broken), SnapshotError);
    // Unsupported version (the u32 after the magic).
    broken = bytes;
    broken[4] = static_cast<char>(0x7f);
    EXPECT_THROW(GpuSnapshot::deserialize(broken), SnapshotError);
    // A retired version (2): only kVersion decodes, older files are
    // rejected rather than migrated.
    broken = bytes;
    broken[4] = static_cast<char>(2);
    EXPECT_THROW(GpuSnapshot::deserialize(broken), SnapshotError);
    // Truncated.
    EXPECT_THROW(GpuSnapshot::deserialize(
                     std::string_view(bytes).substr(0, bytes.size() - 3)),
                 SnapshotError);
    // Trailing garbage.
    EXPECT_THROW(GpuSnapshot::deserialize(bytes + "zz"), SnapshotError);
}

/**
 * Exhaustive damage sweep over a REAL mid-run snapshot (live warp
 * state, register images, bitmasks, event queue — not the toy header
 * above): flipping every byte and truncating at every offset must
 * either still parse or throw SnapshotError. Anything else — a crash,
 * an std::length_error from an attacker-sized count field, an OOM
 * abort from a damaged bitmask length — is a reader hole.
 */
TEST(GpuSnapshotFormat, EveryByteFlipAndTruncationIsTypedOrParses)
{
    const Program program = buildWorkload("BFS");
    GpuConfig config = gtx480Config();
    config.numSms = 2;
    RunOptions options;
    options.gpu.mode = GpuOptions::Mode::FullMachine;
    options.gpu.control.maxCycles = 600;
    const PolicyRun cut = runPolicy("regmutex", program, config, options);
    ASSERT_FALSE(cut.result.completed());
    ASSERT_NE(cut.result.snapshot, nullptr);
    const std::string bytes = cut.result.snapshot->serialize();
    ASSERT_GT(bytes.size(), 1000u);

    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string damaged = bytes;
        damaged[i] = static_cast<char>(damaged[i] ^ 0xff);
        try {
            const GpuSnapshot back = GpuSnapshot::deserialize(damaged);
            // Survivable flip (payload bytes): must re-serialize too.
            (void)back.serialize();
        } catch (const SnapshotError &) {
            // Typed rejection — the contract.
        } catch (const std::exception &e) {
            ADD_FAILURE() << "flip at byte " << i
                          << " escaped the codec: " << e.what();
        }
    }
    for (std::size_t cut_at = 0; cut_at < bytes.size(); ++cut_at) {
        EXPECT_THROW(GpuSnapshot::deserialize(
                         std::string_view(bytes).substr(0, cut_at)),
                     SnapshotError)
            << "truncation at byte " << cut_at;
    }
}

/**
 * The same damage carried through a resume. Bytes that still decode
 * reach Sm::restoreState, which must range-check every saved index and
 * the warp/CTA bookkeeping: each flipped byte of a running SM's state
 * image ends in SnapshotError or in a resumed run that reaches its
 * cycle budget. A crash, a panic from an index the image smuggled in,
 * a sanitizer report or a watchdog hang is a restore hole. A small SM
 * on a small memory keeps the image and each resume cheap.
 */
TEST(GpuSnapshotFormat, EveryByteFlipOfAnSmImageIsTypedOrResumes)
{
    // A small SM (12 warp slots, a quarter of the GTX480 register
    // file) keeps the image short while two resident CTAs still
    // contend for SRP sections.
    constexpr std::uint64_t kCut = 4000;
    constexpr std::uint64_t kBudget = 300;
    Program program = buildWorkload("CUTCP");
    program.info.gridCtas = 2;
    GpuConfig config = gtx480Config();
    config.maxWarpsPerSm = 12;
    config.maxThreadsPerSm = config.maxWarpsPerSm * config.warpSize;
    config.registersPerSm = 8192;
    const PolicySpec &policy = PolicyRegistry::instance().at("regmutex");
    const Program compiled = policy.compile(program, config, {}).program;

    GpuOptions options;
    options.log2MemWords = 10;
    options.control.maxCycles = kCut;
    const GpuResult cut = simulateGpu(config, compiled, policy.allocator,
                                      options);
    ASSERT_FALSE(cut.completed());
    ASSERT_NE(cut.snapshot, nullptr);
    ASSERT_GT(cut.aggregate.acquireSuccesses, 0u);
    const std::string &image = cut.snapshot->sms.at(0).state;

    options.control.maxCycles = kCut + kBudget;
    int rejected = 0;
    for (std::size_t i = 0; i < image.size(); ++i) {
        auto damaged = std::make_shared<GpuSnapshot>(*cut.snapshot);
        damaged->sms[0].state[i] =
            static_cast<char>(damaged->sms[0].state[i] ^ 0x5a);
        options.resume = damaged;
        try {
            const GpuResult resumed =
                simulateGpu(config, compiled, policy.allocator, options);
            EXPECT_TRUE(resumed.completed() ||
                        resumed.aggregate.cycles >= kCut + kBudget)
                << "flip at byte " << i << " stopped the resumed run at "
                << "cycle " << resumed.aggregate.cycles;
        } catch (const SnapshotError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "flip at byte " << i
                          << " escaped the restore: " << e.what();
        }
    }
    EXPECT_GT(rejected, 0);
}

/**
 * A resident warp carries its whole register image. An SM image whose
 * first resident warp is one register short, with the stream otherwise
 * intact, must be rejected rather than resumed with that register
 * zeroed.
 */
TEST(GpuSnapshotFormat, ShortRegisterImageIsRejected)
{
    RunOptions cut;
    cut.gpu.control.maxCycles = 2500;
    const PolicyRun preempted =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), cut);
    ASSERT_NE(preempted.result.snapshot, nullptr);
    const std::string &image = preempted.result.snapshot->sms.at(0).state;
    const auto num_regs =
        static_cast<std::uint32_t>(preempted.compile.program.info.numRegs);
    const auto num_sregs =
        static_cast<std::uint32_t>(SpecialReg::NumSpecialRegs);
    const auto u32_at = [&](std::size_t at) {
        return SnapshotReader(std::string_view(image).substr(at, 4)).u32();
    };

    // A warp record reads ... u8 state, i32 pc, u32 register count,
    // that many i64 registers, u32 special-register count ...
    const std::size_t regs_bytes = 8 * std::size_t{num_regs};
    std::size_t at = 5;
    for (; at + 4 + regs_bytes + 4 <= image.size(); ++at) {
        const auto state = static_cast<std::uint8_t>(image[at - 5]);
        if (state != static_cast<std::uint8_t>(WarpState::Unused) &&
            state < static_cast<std::uint8_t>(WarpState::Finished) &&
            u32_at(at) == num_regs &&
            u32_at(at + 4 + regs_bytes) == num_sregs)
            break;
    }
    ASSERT_LE(at + 4 + regs_bytes + 4, image.size())
        << "no resident warp record";

    // Drop the last register and decrement the count to match.
    SnapshotWriter count;
    count.u32(num_regs - 1);
    auto damaged = std::make_shared<GpuSnapshot>(*preempted.result.snapshot);
    damaged->sms[0].state = image.substr(0, at) + count.take() +
                            image.substr(at + 4, regs_bytes - 8) +
                            image.substr(at + 4 + regs_bytes);
    RunOptions resume;
    resume.gpu.resume = damaged;
    EXPECT_THROW(runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(),
                           resume),
                 SnapshotError);
}

/** FNV-1a of @p bytes: a fingerprint that pins a cut's wire bytes. */
std::uint64_t
fingerprint(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Wire bytes are pinned, so a change to the codec, to the engine state
 * it saves or to the store diff (the global-memory words that differ
 * from their initial values, by ascending index) shows here. Any such
 * change is a format version bump, re-pinned in the same change.
 */
TEST(SnapshotPins, BfsRegmutexCutAtCycle2500)
{
    RunOptions cut;
    cut.gpu.control.maxCycles = 2500;
    const PolicyRun run =
        runPolicy("regmutex", buildWorkload("BFS"), gtx480Config(), cut);
    ASSERT_NE(run.result.snapshot, nullptr);
    const std::string bytes = run.result.snapshot->serialize();
    EXPECT_EQ(bytes.size(), 21892u);
    EXPECT_EQ(fingerprint(bytes), 0xe57ca74b7ea865c4ULL);
}

TEST(SnapshotPins, FullMachineBfsRegmutexCutAtCycle20000)
{
    GpuConfig machine = gtx480Config();
    machine.numSms = 15;
    RunOptions cut;
    cut.gpu.mode = GpuOptions::Mode::FullMachine;
    cut.gpu.threads = 2;
    cut.gpu.control.maxCycles = 20000;
    const PolicyRun run =
        runPolicy("regmutex", buildWorkload("BFS"), machine, cut);
    ASSERT_NE(run.result.snapshot, nullptr);
    const std::string bytes = run.result.snapshot->serialize();
    EXPECT_EQ(bytes.size(), 352694u);
    EXPECT_EQ(fingerprint(bytes), 0x1b3fa4617fed8ebcULL);
}

TEST(GpuSnapshotFormat, FileRoundTripIsAtomic)
{
    const std::string path = testing::TempDir() + "rm_snapshot_test.snap";
    GpuSnapshot snap;
    snap.kernel = "K";
    snap.numSms = 2;
    snap.sms.resize(2);
    writeSnapshotFile(path, snap);
    // No temp file left behind by the write-then-rename.
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    const GpuSnapshot back = readSnapshotFile(path);
    EXPECT_EQ(back.kernel, "K");
    EXPECT_EQ(back.numSms, 2);

    std::ofstream(path, std::ios::trunc) << "not a snapshot";
    EXPECT_THROW(readSnapshotFile(path), SnapshotError);
    std::remove(path.c_str());
}

TEST(GpuSnapshotFormat, ConcurrentWritersToOnePathStayAtomic)
{
    // Two processes (or two sweeps' workers) sharing a snapshot
    // directory may race on the same cell's file. Each write stages
    // through a writer-unique temp name, so the rename is atomic: the
    // final file is always one complete snapshot — never interleaved
    // bytes — and no temp files survive the race.
    const std::string dir =
        testing::TempDir() + "rm_snapshot_concurrent";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/cell.snap";

    GpuSnapshot a;
    a.kernel = "writer-a";
    a.numSms = 1;
    a.sms.resize(1);
    GpuSnapshot b;
    b.kernel = "writer-b";
    b.numSms = 3;
    b.sms.resize(3);

    constexpr int kWrites = 50;
    auto writer = [&path](const GpuSnapshot &snap) {
        for (int i = 0; i < kWrites; ++i)
            writeSnapshotFile(path, snap);
    };
    std::thread ta(writer, std::cref(a));
    std::thread tb(writer, std::cref(b));
    ta.join();
    tb.join();

    const GpuSnapshot last = readSnapshotFile(path);
    if (last.kernel == "writer-a")
        EXPECT_EQ(last.numSms, 1);
    else {
        EXPECT_EQ(last.kernel, "writer-b");
        EXPECT_EQ(last.numSms, 3);
    }

    std::vector<std::string> leftovers;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename() != "cell.snap")
            leftovers.push_back(entry.path().filename().string());
    EXPECT_TRUE(leftovers.empty())
        << "stray temp files: " << leftovers.size();
    std::filesystem::remove_all(dir);
}

// --- Kill-resume equivalence ---

/**
 * Reference run, preempted run, resumed run; assert the resumed stats
 * are bit-identical to the reference for the aggregate and every SM.
 */
void
expectResumeEquivalence(const std::string &policy, const Program &program,
                        const GpuConfig &config, GpuOptions base,
                        std::uint64_t preempt_at)
{
    RunOptions ref_options;
    ref_options.gpu = base;
    const PolicyRun ref = runPolicy(policy, program, config, ref_options);
    ASSERT_TRUE(ref.result.completed());

    RunOptions cut_options;
    cut_options.gpu = base;
    cut_options.gpu.control.maxCycles = preempt_at;
    const PolicyRun cut = runPolicy(policy, program, config, cut_options);
    ASSERT_FALSE(cut.result.completed()) << policy;
    ASSERT_EQ(cut.result.preemptReason, PreemptReason::CycleLimit);
    ASSERT_NE(cut.result.snapshot, nullptr);
    // maxCycles is enforced every cycle, so the cut is exact.
    EXPECT_EQ(cut.stats().cycles, preempt_at);

    RunOptions resume_options;
    resume_options.gpu = base;
    resume_options.gpu.resume = roundTrip(*cut.result.snapshot);
    const PolicyRun resumed =
        runPolicy(policy, program, config, resume_options);
    ASSERT_TRUE(resumed.result.completed()) << policy;

    EXPECT_EQ(resumed.stats(), ref.stats()) << policy;
    ASSERT_EQ(resumed.result.perSm.size(), ref.result.perSm.size());
    for (std::size_t i = 0; i < ref.result.perSm.size(); ++i)
        EXPECT_EQ(resumed.result.perSm[i], ref.result.perSm[i])
            << policy << " SM " << i;
}

class KillResume : public testing::TestWithParam<std::string>
{};

TEST_P(KillResume, BitIdenticalToStraightRun)
{
    const Program program = buildWorkload("BFS");
    expectResumeEquivalence(GetParam(), program, gtx480Config(),
                            GpuOptions{}, 2500);
}

TEST_P(KillResume, BitIdenticalUnderFaultPlan)
{
    const Program program = buildWorkload("BFS");
    GpuOptions gpu;
    gpu.fault.denyAcquire = {1000, 3000};
    gpu.fault.memSpike = {500, 2500};
    gpu.fault.memSpikeFactor = 4;
    expectResumeEquivalence(GetParam(), program, gtx480Config(), gpu,
                            2200);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, KillResume,
                         testing::ValuesIn(kPolicies),
                         [](const auto &info) { return info.param; });

TEST(KillResumeDetail, ArbitrarySnapshotCycles)
{
    const Program program = buildWorkload("BFS");
    for (const std::uint64_t at : {std::uint64_t{1}, std::uint64_t{17},
                                   std::uint64_t{1024},
                                   std::uint64_t{4097}}) {
        expectResumeEquivalence("regmutex", program, gtx480Config(),
                                GpuOptions{}, at);
    }
}

TEST(KillResumeDetail, MultiSmAtOneAndEightThreads)
{
    Program program = buildWorkload("BFS");
    program.info.gridCtas = 13;  // uneven share across 4 SMs
    GpuConfig config = gtx480Config();
    config.numSms = 4;
    for (const int threads : {1, 8}) {
        GpuOptions gpu;
        gpu.mode = GpuOptions::Mode::FullMachine;
        gpu.threads = threads;
        expectResumeEquivalence("regmutex", program, config, gpu, 1800);
        expectResumeEquivalence("rfv", program, config, gpu, 1800);
    }
}

TEST(KillResumeDetail, PeriodicSnapshotsDoNotPerturbStats)
{
    const Program program = buildWorkload("SPMV");
    const GpuConfig config = gtx480Config();

    const PolicyRun ref = runPolicy("regmutex", program, config);

    int captures = 0;
    std::shared_ptr<const GpuSnapshot> last;
    RunOptions options;
    options.gpu.snapshotEvery = 512;
    options.gpu.snapshotSink = [&](const GpuSnapshot &snap) {
        ++captures;
        last = roundTrip(snap);
    };
    const PolicyRun run = runPolicy("regmutex", program, config, options);
    ASSERT_TRUE(run.result.completed());
    EXPECT_EQ(run.stats(), ref.stats());
    EXPECT_GT(captures, 0);
    ASSERT_NE(last, nullptr);

    // The last periodic snapshot also resumes to the same end state.
    RunOptions resume_options;
    resume_options.gpu.resume = last;
    const PolicyRun resumed =
        runPolicy("regmutex", program, config, resume_options);
    EXPECT_EQ(resumed.stats(), ref.stats());
}

// --- Preemption triggers ---

TEST(Preemption, ExpiredWallDeadlineStops)
{
    const Program program = buildWorkload("BFS");
    RunOptions options;
    options.gpu.control.hasWallDeadline = true;
    options.gpu.control.wallDeadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    const PolicyRun run =
        runPolicy("regmutex", program, gtx480Config(), options);
    ASSERT_FALSE(run.result.completed());
    EXPECT_EQ(run.result.preemptReason, PreemptReason::WallDeadline);
    // The deadline is checked at epoch boundaries.
    EXPECT_EQ(run.stats().cycles, options.gpu.control.epochCycles);
    ASSERT_NE(run.result.snapshot, nullptr);

    // A resumed run without the deadline finishes normally.
    RunOptions resume_options;
    resume_options.gpu.resume = roundTrip(*run.result.snapshot);
    const PolicyRun resumed =
        runPolicy("regmutex", program, gtx480Config(), resume_options);
    EXPECT_TRUE(resumed.result.completed());
    const PolicyRun ref = runPolicy("regmutex", program, gtx480Config());
    EXPECT_EQ(resumed.stats(), ref.stats());
}

TEST(Preemption, GenerousLimitsDoNotPreempt)
{
    const Program program = buildWorkload("BFS");
    const PolicyRun ref = runPolicy("regmutex", program, gtx480Config());
    RunOptions options;
    options.gpu.control.maxCycles = ref.stats().cycles * 4;
    options.gpu.control =
        options.gpu.control.withWallDeadlineSeconds(3600.0);
    const PolicyRun run =
        runPolicy("regmutex", program, gtx480Config(), options);
    ASSERT_TRUE(run.result.completed());
    EXPECT_EQ(run.stats(), ref.stats());
    EXPECT_EQ(run.result.snapshot, nullptr);
}

// --- Resume validation ---

TEST(ResumeValidation, MismatchesFailLoudly)
{
    const Program program = buildWorkload("BFS");
    RunOptions cut_options;
    cut_options.gpu.control.maxCycles = 1500;
    const PolicyRun cut =
        runPolicy("regmutex", program, gtx480Config(), cut_options);
    ASSERT_NE(cut.result.snapshot, nullptr);

    // Different kernel.
    {
        RunOptions options;
        options.gpu.resume = cut.result.snapshot;
        EXPECT_THROW(runPolicy("regmutex", buildWorkload("SPMV"),
                               gtx480Config(), options),
                     SnapshotError);
    }
    // Different architecture (config digest).
    {
        RunOptions options;
        options.gpu.resume = cut.result.snapshot;
        EXPECT_THROW(runPolicy("regmutex", program,
                               halfRegisterFile(gtx480Config()), options),
                     SnapshotError);
    }
    // Different policy (caught by the per-SM identity header).
    {
        RunOptions options;
        options.gpu.resume = cut.result.snapshot;
        EXPECT_THROW(
            runPolicy("rfv", program, gtx480Config(), options),
            SnapshotError);
    }
}

// --- Sanitizer ---

TEST(Sanitizer, CleanRunsReportNoViolations)
{
    const Program program = buildWorkload("BFS");
    for (const std::string &policy : kPolicies) {
        RunOptions options;
        options.gpu.control.sanitize = true;
        const PolicyRun run =
            runPolicy(policy, program, gtx480Config(), options);
        EXPECT_TRUE(run.result.completed()) << policy;
        EXPECT_FALSE(run.stats().deadlocked) << policy;
    }
}

TEST(Sanitizer, SanitizedStatsMatchUnsanitized)
{
    const Program program = buildWorkload("BFS");
    const PolicyRun ref = runPolicy("regmutex", program, gtx480Config());
    RunOptions options;
    options.gpu.control.sanitize = true;
    const PolicyRun audited =
        runPolicy("regmutex", program, gtx480Config(), options);
    EXPECT_EQ(audited.stats(), ref.stats());
}

TEST(Sanitizer, CorruptionCaughtWithinOneEpoch)
{
    const Program program = buildWorkload("BFS");
    constexpr std::uint64_t kCorruptAt = 2000;
    for (const std::string &policy :
         {std::string("regmutex"), std::string("paired"),
          std::string("rfv"), std::string("owf")}) {
        RunOptions options;
        options.gpu.control.sanitize = true;
        options.gpu.fault.corruptStateAtCycle = kCorruptAt;
        try {
            runPolicy(policy, program, gtx480Config(), options);
            FAIL() << policy << ": corruption escaped the sanitizer";
        } catch (const SanitizerError &e) {
            EXPECT_FALSE(e.report().violations.empty()) << policy;
            EXPECT_GE(e.report().cycle, kCorruptAt) << policy;
            EXPECT_LE(e.report().cycle,
                      kCorruptAt + options.gpu.control.epochCycles)
                << policy;
        }
    }
}

/**
 * A warp may retire with a store still in flight (Exit does not wait on
 * stores), its slot relaunch, and the late completion arrive while the
 * new occupant is running. Each warp here lives ~globalLatency cycles
 * (the load chain), so its parting store lands squarely mid-life of the
 * slot's next occupant. Before Event/MemRequest carried launchOrder
 * generation tags, that stale completion decremented the new warp's
 * pendingMem below zero — now a hard sanitizer invariant instead of a
 * documented exemption.
 */
TEST(Sanitizer, StaleStoreCompletionAfterSlotRelaunch)
{
    KernelInfo info;
    info.name = "stale-store";
    info.numRegs = 4;
    info.ctaThreads = 32;        // one warp per CTA
    info.gridCtas = 15 * 8 * 3;  // several relaunch waves per SM
    ProgramBuilder b(info);
    b.movImm(0, 1);
    b.ldGlobal(1, 0);    // keeps the warp alive ~globalLatency cycles
    b.iadd(0, 1, 1);     // forces the wait on the load
    b.stGlobal(0, 0);    // fire-and-forget: still in flight at Exit
    b.exitKernel();
    const Program program = b.finalize();

    RunOptions options;
    options.gpu.control.sanitize = true;
    options.gpu.control.epochCycles = 64;  // audit promptly
    const PolicyRun run =
        runPolicy("baseline", program, gtx480Config(), options);
    EXPECT_TRUE(run.result.completed());
    EXPECT_FALSE(run.stats().deadlocked);

    // The not-yet-fired cross-relaunch events and queued requests carry
    // their tags through the snapshot codec: preempt mid-run (stores
    // from wave one are still outstanding) and resume bit-identically.
    expectResumeEquivalence("baseline", program, gtx480Config(),
                            GpuOptions{}, 450);
}

// --- Sweep integration ---

TEST(SweepIsolation, ControlPreemptedCellIsSimFailedWithoutSnapshots)
{
    // The checkpoint is a sweep's only durable record: runSweep strips
    // the engine's snapshot options from every cell, and a cell that a
    // caller-set budget preempts is a failure, not a resumable state.
    const std::vector<SweepCase> grid =
        sweepGrid({"BFS"}, {"regmutex", "rfv"}, {{"GTX480",
                                                  gtx480Config()}});
    int delivered = 0;
    SweepOptions options;
    options.threads = 1;
    options.gpu.control.maxCycles = 2000;
    options.gpu.snapshotEvery = 500;
    options.gpu.snapshotSink = [&delivered](const GpuSnapshot &) {
        ++delivered;
    };
    // A resume image for another kernel would throw SnapshotError.
    options.gpu.resume = std::make_shared<GpuSnapshot>();
    const std::vector<SweepResult> cut = runSweep(grid, options);
    for (const SweepResult &r : cut) {
        EXPECT_EQ(r.status, SweepStatus::SimFailed);
        EXPECT_EQ(r.error, "preempted: cycle-limit");
    }
    EXPECT_EQ(delivered, 0);
}

TEST(SweepCheckpoint, TornTrailingLineIsDropped)
{
    const std::string path =
        testing::TempDir() + "rm_sweep_torn_checkpoint.jsonl";
    std::remove(path.c_str());
    const std::vector<SweepCase> grid =
        sweepGrid({"BFS"}, {"baseline"}, {{"GTX480", gtx480Config()}});

    SweepOptions options;
    options.threads = 1;
    options.checkpointPath = path;
    const std::vector<SweepResult> first = runSweep(grid, options);
    ASSERT_TRUE(first[0].ok());
    EXPECT_FALSE(first[0].fromCheckpoint);

    // A run killed mid-append leaves a torn trailing line.
    std::ofstream(path, std::ios::app)
        << "{\"key\":\"half-written..., \"stats\":{\"cyc";

    const std::vector<SweepResult> second = runSweep(grid, options);
    ASSERT_TRUE(second[0].ok());
    EXPECT_TRUE(second[0].fromCheckpoint);
    EXPECT_EQ(second[0].stats(), first[0].stats());
    std::remove(path.c_str());
}

TEST(SweepCli, ParsesRunControlFlags)
{
    const char *argv[] = {"bench",        "--sms",        "4",
                          "--threads",    "2",            "--checkpoint",
                          "sweep.jsonl",  "--sanitize",   "--no-lint",
                          "--json",       "report.json"};
    const SweepCli cli(static_cast<int>(std::size(argv)),
                       const_cast<char *const *>(argv));
    EXPECT_EQ(cli.sms, 4);
    EXPECT_EQ(cli.threads, 2);
    EXPECT_EQ(cli.checkpoint, "sweep.jsonl");
    EXPECT_TRUE(cli.sanitize);
    EXPECT_TRUE(cli.noLint);

    GpuConfig config = gtx480Config();
    SweepOptions options;
    cli.apply(config, options);
    EXPECT_EQ(config.numSms, 4);
    EXPECT_EQ(options.gpu.mode, GpuOptions::Mode::FullMachine);
    EXPECT_EQ(options.threads, 2);
    EXPECT_EQ(options.checkpointPath, "sweep.jsonl");
    EXPECT_TRUE(options.gpu.control.sanitize);
    EXPECT_FALSE(options.lint);
}

} // namespace
} // namespace rm
