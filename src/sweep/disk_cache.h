/**
 * @file
 * Persistent on-disk sweep result cache.
 *
 * A DiskCache is a versioned canonical-key -> ScenarioResult store
 * backed by one append-only text file, so repeated diva_sweep
 * invocations skip already-simulated scenarios. Design points:
 *
 *  - Versioned: the file starts with a header naming the record
 *    format and the model revision; a file written by another format
 *    or by another revision of the model is ignored wholesale and
 *    rewritten on the next append, never half-parsed or served.
 *  - Corruption-tolerant load: every record carries an FNV-1a checksum
 *    of its payload; torn, truncated, or edited lines, and records
 *    holding values no successful run produces (a batch below 1, a
 *    time that is not finite and positive, a negative or non-finite
 *    utilization, energy, power or area), are counted and skipped,
 *    never fatal.
 *  - Atomic append-on-write: fresh records are serialized into one
 *    buffer and appended with a single O_APPEND write(), so a crashed
 *    writer can lose at most its own tail record (which the checksum
 *    then rejects on load) and concurrent processes sharing a store
 *    interleave between batches, never inside a record. The in-memory
 *    view is updated only after the bytes reach the file, so a failed
 *    write is retried by the next append instead of silently dropped.
 *  - Failed results are never persisted: a transient failure must be
 *    retried on the next run, not replayed from the cache.
 *  - mmap-backed preload: the store is mapped read-only (one buffered
 *    read where mmap is unavailable) and indexed by scanning
 *    string_views over the mapping, and the preload reports a
 *    one-line summary (entries loaded, corrupt lines skipped, bytes
 *    mapped) to stderr instead of silently dropping corrupt lines.
 *
 * Only simulation *outputs* are stored; the scenario itself is
 * identified by its canonical key, and the runner re-attaches the
 * requester's Scenario on every hit.
 */

#ifndef DIVA_SWEEP_DISK_CACHE_H
#define DIVA_SWEEP_DISK_CACHE_H

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sweep/scenario.h"

namespace diva
{

/** On-disk canonical-key -> ScenarioResult store. */
class DiskCache
{
  public:
    /** Bump when the record layout changes; old files are discarded. */
    static constexpr int kFormatVersion = 1;

    /**
     * Revision of the priced model. Bump it in every change that moves
     * a priced number (cycles, energy, memory, area, ...), so that
     * stores holding the old numbers are discarded, not served.
     */
    static constexpr int kModelRevision = 1;

    /**
     * Open (creating if needed) the cache under `dir`. The directory
     * is created recursively; the store lives in one file inside it.
     * Loads every valid record eagerly.
     */
    explicit DiskCache(const std::string &dir);

    /** Full path of the backing file. */
    const std::string &filePath() const { return path_; }

    /** Loaded (and since-appended) entry count. */
    std::size_t size() const { return entries_.size(); }

    bool contains(const std::string &key) const
    {
        return entries_.count(key) != 0;
    }

    /** All entries; result Scenario fields are default-constructed. */
    const std::unordered_map<std::string, ScenarioResult> &entries() const
    {
        return entries_;
    }

    /** Lines rejected during load (bad checksum, truncation, ...). */
    std::size_t corruptLinesSkipped() const { return corrupt_; }

    /** Bytes of the backing file mapped (or read) by the preload. */
    std::size_t bytesMapped() const { return bytesMapped_; }

    /**
     * Persist the given results. Entries whose key is already stored,
     * whose result has `error` set, or whose key contains characters
     * the line format cannot carry are skipped. Returns the number of
     * records actually written.
     */
    std::size_t
    append(const std::vector<std::pair<std::string, ScenarioResult>> &fresh);

    /**
     * Default cache directory: $DIVA_CACHE_DIR, else
     * $XDG_CACHE_HOME/diva, else $HOME/.cache/diva, else ./.diva-cache.
     */
    static std::string defaultDir();

  private:
    void load();

    std::string path_;
    std::unordered_map<std::string, ScenarioResult> entries_;
    std::size_t corrupt_ = 0;
    std::size_t bytesMapped_ = 0;
    /** Set when the existing file has a foreign header: the next
     *  append rewrites the whole file instead of appending to it. */
    bool rewrite_needed_ = false;
};

} // namespace diva

#endif // DIVA_SWEEP_DISK_CACHE_H
