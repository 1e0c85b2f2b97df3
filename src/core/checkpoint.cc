#include "core/checkpoint.hh"

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
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line.empty())
            continue;
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
    // crash. Failures are loud: a full disk must fail the caller
    // instead of silently dropping acknowledged records.
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT,
                          0644);
    fatalIf(fd < 0, "checkpoint: cannot append to '", path, "'");
    std::size_t done = 0;
    while (done < line.size()) {
        const ssize_t n =
            ::write(fd, line.data() + done, line.size() - done);
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

} // namespace rm
