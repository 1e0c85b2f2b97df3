#include "core/checkpoint.hh"

#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/errors.hh"
#include "common/logging.hh"
#include "obs/export.hh"
#include "obs/json.hh"

namespace rm {

namespace {

/** The record line for (@p key, @p stats), newline excluded. */
std::string
recordLine(const std::string &key, const SimStats &stats)
{
    JsonWriter w;
    w.beginObject();
    w.key("key").value(key);
    w.key("stats");
    statsToJson(w, stats);
    w.endObject();
    return w.take();
}

/**
 * Write all of @p data to the open descriptor @p fd, fsync and close
 * it. Failures are loud: a full disk must fail the caller instead of
 * silently dropping acknowledged records.
 */
void
writeSynced(int fd, const std::string &data, const std::string &path)
{
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + done, data.size() - done);
        if (n < 0) {
            ::close(fd);
            fatal("checkpoint: write to '", path, "' failed");
        }
        done += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        fatal("checkpoint: fsync of '", path, "' failed");
    }
    fatalIf(::close(fd) != 0, "checkpoint: close of '", path,
            "' failed");
}

} // namespace

JsonlCheckpoint::JsonlCheckpoint(std::string path) : path(std::move(path))
{
    if (this->path.empty())
        return;
    std::ifstream in(this->path);
    if (!in)
        return;  // first run: nothing to replay
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(std::move(line));
    in.close();
    std::string kept;  // the restored records' lines
    std::size_t records = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line.empty())
            continue;
        ++records;
        try {
            const JsonValue doc = parseJson(line);
            const JsonValue *key = doc.find("key");
            const JsonValue *stats = doc.find("stats");
            if (!key || !stats)
                continue;
            SimStats restored_stats = statsFromJson(*stats);
            if (recordLine(key->string, restored_stats) != line) {
                // A key missing from (or unknown to) this build's
                // SimStats would restore as a default: ignore the
                // record, so the cell simulates unless a later line
                // restores it.
                warn("checkpoint '", this->path, "': ignoring line ",
                     i + 1, " (cell '", key->string,
                     "'): its statistics do not match this build's");
                continue;
            }
            restored[key->string] = std::move(restored_stats);
            ++replayedCount;
            kept += line;
            kept.push_back('\n');
        } catch (const std::exception &) {
            // Records are appended and flushed atomically, so the only
            // expected damage is a torn final line from a run killed
            // mid-append: drop it. Anything earlier means the file was
            // damaged some other way — still skip, but say which line.
            if (i + 1 == lines.size())
                warn("checkpoint '", this->path,
                     "': dropping torn trailing record (line ", i + 1,
                     ")");
            else
                warn("checkpoint '", this->path,
                     "': skipping unparsable line ", i + 1);
        }
    }
    if (replayedCount == records)
        return;
    // Keep only the restored lines, so each skipped line is warned
    // about once. The new file is fsync'd as records are, then renamed
    // over the old one in a single step.
    const std::string tmp =
        this->path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    fatalIf(fd < 0, "checkpoint: cannot write '", tmp, "'");
    writeSynced(fd, kept, tmp);
    fatalIf(::rename(tmp.c_str(), this->path.c_str()) != 0,
            "checkpoint: cannot rename '", tmp, "' to '", this->path, "'");
}

const SimStats *
JsonlCheckpoint::find(const std::string &key) const
{
    // Lock-free by design: the index is immutable after construction
    // (record() appends to the file only), so parallel sweep cells can
    // probe it while others append.
    const auto it = restored.find(key);
    return it == restored.end() ? nullptr : &it->second;
}

void
JsonlCheckpoint::record(const std::string &key, const SimStats &stats)
{
    if (path.empty())
        return;
    std::string line = recordLine(key, stats);
    line.push_back('\n');

    const std::lock_guard<std::mutex> lock(guard);
    // One open-append-close per record, the record plus its newline in
    // a single write(2): O_APPEND makes the line land whole, so a
    // concurrent reader (or a kill between records) sees complete
    // lines only, and at worst one torn trailing line — which the
    // loader tolerates. The fsync makes the record survive a host
    // crash.
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT,
                          0644);
    fatalIf(fd < 0, "checkpoint: cannot append to '", path, "'");
    writeSynced(fd, line, path);
}

} // namespace rm
