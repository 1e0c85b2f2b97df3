#include "sim/snapshot.hh"

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "sim/config.hh"

namespace rm {
namespace {

/** Upper bound on a deserialized bitmask's bit count. Real masks track
 *  warp slots or register-file sections — a few thousand bits at the
 *  most extreme configs — so the cap only has to be generous enough to
 *  never bind legitimately while keeping a damaged length field from
 *  becoming a multi-gigabyte allocation. */
constexpr std::uint64_t kMaxBitmaskBits = 1u << 24;

/** Serialized floor of one SmEntry: smId + ctas + finished + the stats
 *  block + the state length prefix. Used only to reject an SM count no
 *  payload of the given size could actually carry. */
constexpr std::size_t kMinSmEntryBytes = 17;

} // namespace

void
SnapshotWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
SnapshotWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
SnapshotWriter::i32(int v)
{
    u32(static_cast<std::uint32_t>(v));
}

void
SnapshotWriter::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
SnapshotWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
SnapshotWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

void
SnapshotWriter::bytes(const std::string &blob)
{
    str(blob);
}

void
SnapshotWriter::bitmask(const Bitmask &mask)
{
    // Sparse encoding: size + indices of the set bits.
    u64(static_cast<std::uint64_t>(mask.size()));
    const std::vector<std::size_t> set = mask.setIndices();
    u32(static_cast<std::uint32_t>(set.size()));
    for (const std::size_t bit : set)
        u64(static_cast<std::uint64_t>(bit));
}

void
SnapshotReader::need(std::size_t n)
{
    if (data.size() - pos < n) {
        throw SnapshotError("snapshot: truncated stream (need " +
                            std::to_string(n) + " bytes at offset " +
                            std::to_string(pos) + " of " +
                            std::to_string(data.size()) + ")");
    }
}

std::uint8_t
SnapshotReader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
}

std::uint32_t
SnapshotReader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(data[pos + i]))
             << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data[pos + i]))
             << (8 * i);
    pos += 8;
    return v;
}

int
SnapshotReader::i32()
{
    return static_cast<int>(static_cast<std::int32_t>(u32()));
}

std::int64_t
SnapshotReader::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
SnapshotReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
SnapshotReader::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(data.substr(pos, n));
    pos += n;
    return s;
}

std::string
SnapshotReader::bytes()
{
    return str();
}

Bitmask
SnapshotReader::bitmask()
{
    const std::uint64_t size = u64();
    // The size is attacker-controlled until validated: masks track warp
    // slots or register sections (thousands of bits), so anything huge
    // is damage — reject it before Bitmask turns it into an allocation.
    if (size > kMaxBitmaskBits)
        throw SnapshotError("snapshot: bitmask size implausibly large");
    Bitmask mask(static_cast<std::size_t>(size));
    const std::uint32_t nset = u32();
    if (nset > size)
        throw SnapshotError("snapshot: bitmask set-count exceeds size");
    for (std::uint32_t i = 0; i < nset; ++i) {
        const std::uint64_t bit = u64();
        if (bit >= size)
            throw SnapshotError("snapshot: bitmask bit out of range");
        mask.set(static_cast<std::size_t>(bit));
    }
    return mask;
}

const char *
preemptReasonName(PreemptReason reason)
{
    switch (reason) {
      case PreemptReason::None:
        return "none";
      case PreemptReason::CycleLimit:
        return "cycle-limit";
      case PreemptReason::WallDeadline:
        return "wall-deadline";
    }
    return "unknown";
}

RunControl
RunControl::withWallDeadlineSeconds(double seconds) const
{
    RunControl control = *this;
    control.hasWallDeadline = true;
    control.wallDeadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    return control;
}

std::uint64_t
gpuConfigDigest(const GpuConfig &c)
{
    std::ostringstream os;
    os << c.numSms << ',' << c.maxWarpsPerSm << ',' << c.maxCtasPerSm
       << ',' << c.maxThreadsPerSm << ',' << c.registersPerSm << ','
       << c.sharedMemPerSm << ',' << c.warpSize << ',' << c.numSchedulers
       << ',' << c.regAllocGranularity << ',' << c.aluLatency << ','
       << c.sfuLatency << ',' << c.sharedLatency << ',' << c.globalLatency
       << ',' << c.memIssuePerCycle << ',' << c.maxPendingMemPerWarp
       << ',' << c.rfBanks << ',' << c.modelBankConflicts << ','
       << static_cast<int>(c.schedPolicy) << ',' << c.wakeOnRelease << ','
       << c.watchdogCycles;
    const std::string text = os.str();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
saveStats(SnapshotWriter &w, const SimStats &s)
{
    w.str(s.kernelName);
    w.str(s.allocatorName);
    w.u64(s.cycles);
    w.u64(s.instructions);
    w.u64(s.ctasCompleted);
    w.i32(s.theoreticalCtas);
    w.i32(s.theoreticalWarps);
    w.f64(s.theoreticalOccupancy);
    w.f64(s.avgResidentWarps);
    for (const SummedCounter &row : kSummedCounters)
        w.u64(s.*row.member);
    w.boolean(s.deadlocked);
    w.u8(static_cast<std::uint8_t>(s.deadlockCause));
}

SimStats
loadStats(SnapshotReader &r)
{
    SimStats s;
    s.kernelName = r.str();
    s.allocatorName = r.str();
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.ctasCompleted = r.u64();
    s.theoreticalCtas = r.i32();
    s.theoreticalWarps = r.i32();
    s.theoreticalOccupancy = r.f64();
    s.avgResidentWarps = r.f64();
    for (const SummedCounter &row : kSummedCounters)
        s.*row.member = r.u64();
    s.deadlocked = r.boolean();
    const std::uint8_t cause = r.u8();
    if (cause > static_cast<std::uint8_t>(DeadlockCause::Barrier))
        throw SnapshotError("snapshot: deadlock cause out of range");
    s.deadlockCause = static_cast<DeadlockCause>(cause);
    return s;
}

std::string
GpuSnapshot::serialize() const
{
    SnapshotWriter w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.str(kernel);
    w.str(policy);
    w.u8(mode);
    w.i32(numSms);
    w.u64(configDigest);
    w.u32(static_cast<std::uint32_t>(sms.size()));
    for (const SmEntry &entry : sms) {
        w.i32(entry.smId);
        w.i32(entry.ctas);
        w.boolean(entry.finished);
        saveStats(w, entry.stats);
        w.bytes(entry.state);
    }
    return w.take();
}

GpuSnapshot
GpuSnapshot::deserialize(std::string_view bytes)
{
    SnapshotReader r(bytes);
    GpuSnapshot snap;
    const std::uint32_t magic = r.u32();
    if (magic != kMagic)
        throw SnapshotError("snapshot: bad magic (not a snapshot file)");
    const std::uint32_t version = r.u32();
    if (version != kVersion) {
        throw SnapshotError("snapshot: unsupported version " +
                            std::to_string(version) + " (expected " +
                            std::to_string(kVersion) + ")");
    }
    snap.kernel = r.str();
    snap.policy = r.str();
    snap.mode = r.u8();
    snap.numSms = r.i32();
    snap.configDigest = r.u64();
    const std::uint32_t n = r.u32();
    // n is untrusted: resize() would allocate n SmEntry's up front, so
    // a flipped bit in the count field could demand gigabytes before
    // the per-entry reads ever hit a typed need() failure.
    if (n > r.remaining() / kMinSmEntryBytes)
        throw SnapshotError("snapshot: SM count exceeds payload size");
    snap.sms.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        SmEntry &entry = snap.sms[i];
        entry.smId = r.i32();
        entry.ctas = r.i32();
        entry.finished = r.boolean();
        entry.stats = loadStats(r);
        entry.state = r.bytes();
    }
    if (!r.atEnd())
        throw SnapshotError("snapshot: trailing bytes after payload");
    return snap;
}

void
writeSnapshotFile(const std::string &path, const GpuSnapshot &snap)
{
    const std::string payload = snap.serialize();
    // Unique temp per writer: two sweeps sharing a snapshot dir may
    // snapshot the same cell concurrently. A shared "<path>.tmp" would
    // let one writer rename the other's half-written file into place;
    // pid + a process-wide counter keeps every in-flight temp
    // distinct, and the final rename stays the single atomic commit
    // point.
    static std::atomic<std::uint64_t> temp_serial{0};
    std::ostringstream suffix;
    suffix << ".tmp." << ::getpid() << '.'
           << temp_serial.fetch_add(1, std::memory_order_relaxed);
    const std::string tmp = path + suffix.str();
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        fatalIf(!out, "snapshot: cannot write '", tmp, "'");
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        fatalIf(!out.good(), "snapshot: short write to '", tmp, "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    fatalIf(static_cast<bool>(ec), "snapshot: cannot rename '", tmp,
            "' to '", path, "': ", ec.message());
}

GpuSnapshot
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "snapshot: cannot read '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return GpuSnapshot::deserialize(buf.str());
}

} // namespace rm
