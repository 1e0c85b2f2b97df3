#ifndef RM_CORE_CHECKPOINT_HH
#define RM_CORE_CHECKPOINT_HH

/**
 * @file
 * Durable JSONL result store behind the sweep runner's checkpoint
 * (core/sweep.hh). One record per line:
 *
 *     {"key":"<sweepCaseKey>","stats":{...statsToJson...}}
 *
 * Appends are written as one whole line per system write so a reader
 * (or a kill between records) sees complete lines only; the loader
 * tolerates exactly one torn trailing line from a run killed
 * mid-append. Every append is fsync'd, so recorded cells survive a
 * host crash, not just a process kill. A record is restored only if
 * it re-encodes to the same line: one written before a SimStats field
 * was added would otherwise restore that field as zero, so it is
 * warned about and its cell simulated again.
 */

#include <map>
#include <mutex>
#include <string>

#include "sim/stats.hh"

namespace rm {

/** Append-only JSONL store of SimStats keyed by a stable string. */
class JsonlCheckpoint
{
  public:
    /**
     * Open @p path (empty disables the store entirely) and replay any
     * existing records into the in-memory index. A torn trailing line
     * is warned about and dropped; earlier unparsable lines and stale
     * records (see the file comment) are warned about and skipped.
     */
    explicit JsonlCheckpoint(std::string path);

    bool enabled() const { return !path.empty(); }

    /** Records replayed from an existing file at construction. */
    std::size_t replayed() const { return replayedCount; }

    /** The restored record for @p key; nullptr when absent. */
    const SimStats *find(const std::string &key) const;

    /**
     * Append one record (thread-safe). The in-memory index is NOT
     * updated — it is immutable after construction so find() stays
     * lock-free under parallel sweep cells. Throws FatalError when the
     * write cannot be completed — a full disk must fail the caller
     * loudly instead of silently dropping acknowledged work.
     */
    void record(const std::string &key, const SimStats &stats);

  private:
    std::string path;
    std::map<std::string, SimStats> restored;
    std::size_t replayedCount = 0;
    std::mutex guard;
};

} // namespace rm

#endif // RM_CORE_CHECKPOINT_HH
