/**
 * @file
 * rm-fuzz harness self-consistency: the seeded generator is
 * deterministic and only emits cases buildKernel accepts, the case
 * codec round-trips and rejects damage with typed errors, every
 * planted bug class is caught by its advertised oracle, the
 * delta-debugging minimizer strictly shrinks while preserving the
 * failure signature, triage dedupes by signature, and the committed
 * corpus replays clean. Also hosts the JsonlCheckpoint truncation
 * sweep (crash-safety satellite): a journal cut at EVERY byte offset
 * inside its final record must reopen without crashing and recover
 * exactly the complete records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "core/checkpoint.hh"
#include "fuzz/gen.hh"
#include "isa/asm_parser.hh"
#include "fuzz/minimize.hh"
#include "fuzz/oracles.hh"
#include "fuzz/triage.hh"
#include "obs/json.hh"

namespace rm {
namespace {

// ---------------------------------------------------------------- gen

TEST(FuzzGen, CaseIsPureFunctionOfSeed)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
        const FuzzCase a = generateCase(seed);
        const FuzzCase b = generateCase(seed);
        EXPECT_EQ(caseToJson(a), caseToJson(b)) << "seed " << seed;
    }
    EXPECT_NE(caseToJson(generateCase(1)), caseToJson(generateCase(2)));
}

TEST(FuzzGen, GeneratedCasesAreValid)
{
    // The generator's envelope must stay inside what buildKernel
    // accepts — validateCase's final authority IS buildKernel, so this
    // sweep catches any drift between the two (e.g. the memory-subloop
    // pool floor).
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        std::string why;
        EXPECT_TRUE(validateCase(generateCase(seed), &why))
            << "seed " << seed << ": " << why;
    }
}

TEST(FuzzGen, ValidateRejectsCasesOutsideTheEngineEnvelope)
{
    // A hand-edited repro wider than the engine's one-word envelope
    // must fail validation by name, not surface as a run error.
    const FuzzCase fc = generateCase(0x431);
    ASSERT_TRUE(validateCase(fc));

    FuzzCase slots = fc;
    slots.config.maxWarpsPerSm = kEngineWordBits + 1;
    std::string why;
    EXPECT_FALSE(validateCase(slots, &why));
    EXPECT_NE(why.find("max_warps_per_sm"), std::string::npos) << why;

    FuzzCase regs = fc;
    regs.kernel.regs = kEngineWordBits + 1;
    why.clear();
    EXPECT_FALSE(validateCase(regs, &why));
    EXPECT_NE(why.find("regs outside"), std::string::npos) << why;

    // RegMutex pads to the allocation granularity: 63 registers at a
    // granularity of 5 would compile to 65.
    FuzzCase padded = fc;
    padded.kernel.regs = 63;
    padded.config.regAllocGranularity = 5;
    why.clear();
    EXPECT_FALSE(validateCase(padded, &why));
    EXPECT_NE(why.find("reg_alloc_granularity"), std::string::npos)
        << why;
}

TEST(FuzzGen, GeneratorCoversTheSpace)
{
    std::set<std::string> archs;
    std::set<std::string> policies;
    bool sawFault = false;
    bool sawBarrier = false;
    bool sawSubloop = false;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const FuzzCase fc = generateCase(seed);
        archs.insert(fc.arch);
        policies.insert(fc.policy);
        sawFault = sawFault || fc.fault.active();
        for (const PhaseSpec &p : fc.kernel.phases) {
            sawBarrier = sawBarrier || p.barrierAfter;
            sawSubloop = sawSubloop || p.memTrips > 0;
        }
    }
    EXPECT_GE(archs.size(), 4u);
    EXPECT_GE(policies.size(), 3u);
    EXPECT_TRUE(sawFault);
    EXPECT_TRUE(sawBarrier);
    EXPECT_TRUE(sawSubloop);
}

TEST(FuzzGen, GeneratedKernelsSurviveDisasmParseRoundTrip)
{
    // Fuzzer kernels exercise corners the curated suite never hits
    // (scrambled layouts, barrier pads, deep subloops); the assembler
    // must stay an identity on all of them.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const Program original = buildCaseProgram(generateCase(seed));
        const std::string text = emitProgram(original);
        const Program reparsed = parseProgram(text);
        EXPECT_EQ(emitProgram(reparsed), text) << "seed " << seed;
    }
}

TEST(FuzzGen, CaseJsonRoundTrips)
{
    for (std::uint64_t seed : {3ULL, 17ULL, 0x1eULL, 9999ULL}) {
        const FuzzCase fc = generateCase(seed);
        const std::string text = caseToJson(fc);
        const FuzzCase back = caseFromJson(parseJson(text));
        EXPECT_EQ(text, caseToJson(back)) << "seed " << seed;
        EXPECT_EQ(fc.seed, back.seed);
    }
}

TEST(FuzzGen, CaseCodecRejectsDamage)
{
    const std::string text = caseToJson(generateCase(7));
    EXPECT_THROW(caseFromJson(parseJson("{\"schema\":999}")),
                 JsonSchemaError);
    // Removing any required member must be a typed error, not a crash
    // or a silently defaulted case.
    const JsonValue root = parseJson(text);
    EXPECT_THROW(
        caseFromJson(parseJson("{\"schema\":1,\"seed\":\"0x7\"}")),
        JsonSchemaError);
    // Wrong-typed member.
    std::string bad = text;
    const auto pos = bad.find("\"policy\":");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 9, "\"policy\":3,\"x\":");
    EXPECT_THROW(caseFromJson(parseJson(bad)), JsonSchemaError);
}

// ------------------------------------------------------------ oracles

TEST(FuzzOracles, CleanCaseHasNoFindings)
{
    OracleOptions options;
    const std::vector<OracleFinding> findings =
        runOracles(generateCase(11), options);
    for (const OracleFinding &f : findings)
        ADD_FAILURE() << f.signature << ": " << f.message;
}

TEST(FuzzOracles, UnknownOracleIdIsFatal)
{
    OracleOptions options;
    options.oracles = {"no-such-oracle"};
    EXPECT_THROW(runOracles(generateCase(1), options), FatalError);
}

TEST(FuzzOracles, EveryPlantedBugIsCaughtByItsOracle)
{
    for (const PlantedBugInfo &info : plantedBugCatalog()) {
        const FuzzCase fc = plantedBugCase(info.bug);
        std::string why;
        ASSERT_TRUE(validateCase(fc, &why)) << info.name << ": " << why;
        OracleOptions options;
        options.planted = info.bug;
        const std::vector<OracleFinding> findings = runOracles(fc, options);
        bool caught = false;
        for (const OracleFinding &f : findings)
            caught = caught || f.oracle == info.oracle;
        EXPECT_TRUE(caught)
            << info.name << ": expected a finding from oracle \""
            << info.oracle << "\", got " << findings.size() << " findings";
    }
}

TEST(FuzzOracles, PlantedBugsAreInvisibleWithoutThePlant)
{
    // The planted case itself must be clean when nothing is planted —
    // otherwise the self-test would pass for the wrong reason.
    OracleOptions options;
    const std::vector<OracleFinding> findings =
        runOracles(plantedBugCase(PlantedBug::None), options);
    for (const OracleFinding &f : findings)
        ADD_FAILURE() << f.signature << ": " << f.message;
}

// ----------------------------------------------------------- minimize

TEST(FuzzMinimize, ShrinksStrictlyAndPreservesSignature)
{
    const PlantedBugInfo &info = plantedBugCatalog().front();
    const FuzzCase fc = plantedBugCase(info.bug);
    OracleOptions oracleOptions;
    oracleOptions.planted = info.bug;
    const std::vector<OracleFinding> findings = runOracles(fc, oracleOptions);
    ASSERT_FALSE(findings.empty());
    const std::string signature = findings.front().signature;

    MinimizeOptions options;
    options.oracle = oracleOptions;
    options.oracle.oracles = {findings.front().oracle};
    const MinimizeResult result = minimizeCase(fc, signature, options);
    EXPECT_LT(caseSize(result.reduced), caseSize(fc));
    EXPECT_EQ(result.signature, signature);
    EXPECT_GT(result.accepted, 0);

    // The reduced case still reproduces under the full oracle set.
    const std::vector<OracleFinding> again =
        runOracles(result.reduced, oracleOptions);
    bool reproduced = false;
    for (const OracleFinding &f : again)
        reproduced = reproduced || f.signature == signature;
    EXPECT_TRUE(reproduced);
}

// ------------------------------------------------------------- triage

TEST(FuzzTriage, DedupesBySignature)
{
    Triage triage;
    OracleFinding finding;
    finding.oracle = "determinism";
    finding.signature = "determinism:stats-mismatch";
    finding.message = "first";
    const FuzzCase fc = generateCase(5);
    EXPECT_TRUE(triage.record(finding, fc));
    finding.message = "second";
    EXPECT_FALSE(triage.record(finding, generateCase(6)));
    finding.signature = "codec:snapshot-roundtrip";
    finding.oracle = "codec";
    EXPECT_TRUE(triage.record(finding, fc));
    EXPECT_EQ(triage.uniqueCount(), 2u);
    EXPECT_EQ(triage.totalCount(), 3u);

    // Every JSONL line parses and keeps the FIRST seed for the bucket.
    std::istringstream lines(triage.toJsonl());
    std::string line;
    int parsed = 0;
    while (std::getline(lines, line)) {
        const JsonValue value = parseJson(line);
        ++parsed;
        if (jsonString(value, "signature") == "determinism:stats-mismatch") {
            EXPECT_EQ(jsonString(value, "first_seed"), "0x5");
        }
    }
    EXPECT_EQ(parsed, 2);
}

TEST(FuzzTriage, ReproFileRoundTrips)
{
    ReproFile repro;
    repro.oracle = "differential";
    repro.signature = "differential:cta-loss:owf";
    repro.note = "unit test";
    repro.fuzzCase = generateCase(21);
    const std::string text = reproToJson(repro);
    const ReproFile back = reproFromJson(parseJson(text));
    EXPECT_EQ(back.oracle, repro.oracle);
    EXPECT_EQ(back.signature, repro.signature);
    EXPECT_EQ(back.note, repro.note);
    EXPECT_EQ(caseToJson(back.fuzzCase), caseToJson(repro.fuzzCase));

    EXPECT_THROW(reproFromJson(parseJson("{\"oracle\":\"x\"}")),
                 JsonSchemaError);
}

// ------------------------------------------------------------- corpus

#ifdef RM_TEST_CORPUS_DIR
TEST(FuzzCorpus, CommittedReprosReplayClean)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(RM_TEST_CORPUS_DIR))
        if (entry.path().extension() == ".repro")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 4u) << "corpus went missing";
    for (const auto &path : files) {
        std::ifstream in(path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const ReproFile repro = reproFromJson(parseJson(text));
        std::string why;
        ASSERT_TRUE(validateCase(repro.fuzzCase, &why))
            << path.filename() << ": " << why;
        OracleOptions options;
        const std::vector<OracleFinding> findings =
            runOracles(repro.fuzzCase, options);
        if (repro.signature.empty()) {
            for (const OracleFinding &f : findings)
                ADD_FAILURE() << path.filename() << ": " << f.signature
                              << ": " << f.message;
        } else {
            bool matched = false;
            for (const OracleFinding &f : findings)
                matched = matched || f.signature == repro.signature;
            EXPECT_TRUE(matched)
                << path.filename() << ": expected " << repro.signature;
        }
    }
}
#endif

// -------------------------- JsonlCheckpoint truncation sweep (crash
// safety satellite: a journal cut at any byte must reopen cleanly)

TEST(FuzzCheckpoint, TruncationAtEveryByteOfFinalRecordRecovers)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "rm_fuzz_ckpt_trunc";
    fs::create_directories(dir);
    const fs::path journal = dir / "journal.jsonl";
    fs::remove(journal);

    {
        JsonlCheckpoint writer(journal.string());
        SimStats stats;
        stats.cycles = 101;
        stats.instructions = 202;
        writer.record("cell-a", stats);
        stats.cycles = 303;
        writer.record("cell-b", stats);
        stats.cycles = 404;
        writer.record("cell-c", stats);
    }

    std::ifstream in(journal, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_FALSE(bytes.empty());
    // Offset of the final record's first byte.
    const std::size_t lastLine =
        bytes.rfind('\n', bytes.size() - 2) + 1;
    ASSERT_GT(lastLine, 0u);

    for (std::size_t cut = lastLine; cut <= bytes.size(); ++cut) {
        const fs::path truncated = dir / "truncated.jsonl";
        {
            std::ofstream out(truncated,
                              std::ios::binary | std::ios::trunc);
            out.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        JsonlCheckpoint reader(truncated.string());
        // Cutting ONLY the trailing '\n' leaves complete JSON on the
        // final line, which the loader rightly recovers.
        const bool finalComplete = cut >= bytes.size() - 1;
        EXPECT_EQ(reader.replayed(), finalComplete ? 3u : 2u)
            << "cut at byte " << cut;
        ASSERT_NE(reader.find("cell-a"), nullptr) << "cut " << cut;
        EXPECT_EQ(reader.find("cell-a")->cycles, 101u);
        ASSERT_NE(reader.find("cell-b"), nullptr) << "cut " << cut;
        EXPECT_EQ(reader.find("cell-c") != nullptr, finalComplete)
            << "cut at byte " << cut;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace rm
