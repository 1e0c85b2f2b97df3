#ifndef RM_SIM_SNAPSHOT_HH
#define RM_SIM_SNAPSHOT_HH

/**
 * @file
 * Run durability: versioned, bit-exact serialization of complete
 * engine state plus the run-control knobs (cycle budgets, wall-clock
 * deadlines) that end a run with a Preempted status instead of
 * throwing work away.
 *
 * The format invariant is *restore-then-run ≡ uninterrupted run*: a
 * simulation restored from a snapshot produces SimStats bit-identical
 * to one that never stopped (tests/test_snapshot.cc asserts this for
 * every registered policy, with and without fault plans). The format
 * is little-endian, fixed-width, and carries a leading magic + version
 * so incompatible readers fail loudly (SnapshotError) rather than
 * silently misparse; see docs/ROBUSTNESS.md for the compatibility
 * policy.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitmask.hh"
#include "common/errors.hh"
#include "sim/stats.hh"

namespace rm {

struct GpuConfig;

/** A malformed, truncated or incompatible snapshot byte stream. */
class SnapshotError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * Append-only binary encoder. All integers are little-endian and
 * fixed-width; doubles are bit-cast through their IEEE-754 image so
 * round-trips are bit-exact; strings and nested blobs are
 * length-prefixed.
 */
class SnapshotWriter
{
  public:
    void u8(std::uint8_t v) { buf.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(int v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);
    /** A nested length-prefixed blob (framing for sub-encoders). */
    void bytes(const std::string &blob);
    void bitmask(const Bitmask &mask);

    const std::string &buffer() const { return buf; }
    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

/** Decoder matching SnapshotWriter; throws SnapshotError on underrun. */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::string_view bytes) : data(bytes) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    int i32();
    std::int64_t i64();
    double f64();
    /** Only 0 and 1 are booleans; any other byte is damage. */
    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw SnapshotError("snapshot: invalid boolean byte");
        return v == 1;
    }
    std::string str();
    std::string bytes();
    Bitmask bitmask();

    bool atEnd() const { return pos == data.size(); }
    std::size_t remaining() const { return data.size() - pos; }

  private:
    std::string_view data;
    std::size_t pos = 0;

    void need(std::size_t n);
};

/** Why a controlled run stopped before completing its grid share. */
enum class PreemptReason : std::uint8_t {
    None,          ///< not preempted (ran to completion)
    CycleLimit,    ///< the simulated-cycle budget was reached
    WallDeadline,  ///< the wall-clock deadline passed
};

/** Stable lower-case label ("none", "cycle-limit", ...). */
const char *preemptReasonName(PreemptReason reason);

/**
 * Budget / deadline / sanitizer knobs of one controlled run. The
 * default-constructed control is inert: the SM hot loop pays nothing
 * (an unbudgeted Gpu::run hands every SM leg this default).
 *
 * maxCycles is checked every cycle (so a snapshot can be taken at an
 * exact cycle); the wall deadline and the sanitizer run at epoch
 * boundaries only (cycle % epochCycles == 0) to keep them off the hot
 * path.
 */
struct RunControl
{
    /** Absolute simulated-cycle bound (0: unlimited). */
    std::uint64_t maxCycles = 0;
    /** Wall-clock deadline; hasWallDeadline gates it. */
    bool hasWallDeadline = false;
    std::chrono::steady_clock::time_point wallDeadline{};
    /** Epoch length for the deadline/sanitizer checks. */
    std::uint64_t epochCycles = 1024;
    /** Audit register-accounting invariants every epoch. */
    bool sanitize = false;

    bool epochWork() const { return hasWallDeadline || sanitize; }

    /** This control with a deadline @p seconds of wall time from now. */
    RunControl withWallDeadlineSeconds(double seconds) const;
};

/**
 * Serialized state of one preempted (or finished) engine run: the run
 * identity plus one entry per SM. Finished SMs carry only their final
 * SimStats; still-running SMs carry the full Sm::saveState() byte
 * image. GpuOptions::resume feeds one of these back into Gpu::run().
 */
struct GpuSnapshot
{
    static constexpr std::uint32_t kMagic = 0x524d534eU;  // "RMSN"
    /**
     * Per-warp register images cover resident slots only; events
     * serialize in (cycle, push order). deserialize() accepts this
     * version only: snapshots are short-lived preemption artefacts, so
     * a format change rejects older files rather than migrating them.
     */
    static constexpr std::uint32_t kVersion = 3;

    std::string kernel;
    std::string policy;
    std::uint8_t mode = 0;  ///< GpuOptions::Mode at capture time
    int numSms = 0;
    /** Fingerprint of the GpuConfig (gpuConfigDigest). */
    std::uint64_t configDigest = 0;

    struct SmEntry
    {
        int smId = 0;
        int ctas = 0;         ///< grid share of this SM
        bool finished = false;
        SimStats stats;       ///< final stats when finished
        std::string state;    ///< Sm::saveState() image when running
    };
    std::vector<SmEntry> sms;

    std::string serialize() const;
    static GpuSnapshot deserialize(std::string_view bytes);
};

/** Digest of the timing-relevant GpuConfig fields (resume validation). */
std::uint64_t gpuConfigDigest(const GpuConfig &config);

/** SimStats binary round-trip (the hang snapshot is not serialized —
 *  deadlocked / deadlockCause survive; forensics do not). */
void saveStats(SnapshotWriter &w, const SimStats &stats);
SimStats loadStats(SnapshotReader &r);

/**
 * Write @p snap to @p path atomically (temp file + rename) so a reader
 * never observes a torn snapshot; throws FatalError on I/O failure.
 */
void writeSnapshotFile(const std::string &path, const GpuSnapshot &snap);

/** Load a snapshot written by writeSnapshotFile. */
GpuSnapshot readSnapshotFile(const std::string &path);

} // namespace rm

#endif // RM_SIM_SNAPSHOT_HH
