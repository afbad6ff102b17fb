#include "sweep/disk_cache.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sweep/emit.h"

namespace diva
{

namespace
{

/** Header line identifying the file and its record layout version. */
std::string
headerLine()
{
    return "diva-sweep-cache v" + std::to_string(DiskCache::kFormatVersion);
}

/** FNV-1a 64-bit, printed as fixed-width hex in the record prefix. */
std::string
checksum(std::string_view payload)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string_view>
splitTabs(std::string_view line)
{
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string_view::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

bool
parseU64(std::string_view s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && end == s.data() + s.size();
}

bool
parseF64(std::string_view s, double &out)
{
    if (s.empty())
        return false;
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), out);
    return ec == std::errc() && end == s.data() + s.size();
}

/** Tab-separated simulation outputs; the key is carried separately. */
std::string
payloadFor(const std::string &key, const ScenarioResult &r)
{
    std::ostringstream oss;
    oss << key << '\t' << r.resolvedBatch << '\t' << r.cycles << '\t'
        << r.computeCycles << '\t' << r.allReduceCycles << '\t'
        << formatDouble(r.seconds) << '\t' << formatDouble(r.utilization)
        << '\t' << formatDouble(r.energyJ) << '\t' << r.dramBytes << '\t'
        << r.postProcDramBytes << '\t' << formatDouble(r.enginePowerW)
        << '\t' << formatDouble(r.engineAreaMm2);
    return oss.str();
}

/** Inverse of payloadFor; false on any malformed field. */
bool
parsePayload(std::string_view payload, std::string &key,
             ScenarioResult &r)
{
    const std::vector<std::string_view> f = splitTabs(payload);
    if (f.size() != 12)
        return false;
    key = f[0];
    // Only successful results are stored, and their batch is >= 1; a
    // batch outside [1, INT_MAX] marks a corrupt record rather than
    // wrapping into some other int.
    std::uint64_t batch = 0;
    if (!parseU64(f[1], batch) || batch < 1 ||
        batch > std::uint64_t(std::numeric_limits<int>::max()))
        return false;
    r.resolvedBatch = static_cast<int>(batch);
    if (!parseU64(f[2], r.cycles) || !parseU64(f[3], r.computeCycles) ||
        !parseU64(f[4], r.allReduceCycles))
        return false;
    if (!parseF64(f[5], r.seconds) || !parseF64(f[6], r.utilization) ||
        !parseF64(f[7], r.energyJ))
        return false;
    if (!parseU64(f[8], r.dramBytes) || !parseU64(f[9], r.postProcDramBytes))
        return false;
    if (!parseF64(f[10], r.enginePowerW) ||
        !parseF64(f[11], r.engineAreaMm2))
        return false;
    // from_chars also reads "nan", "inf" and negatives. A successful
    // run takes a positive, finite time and reports finite,
    // non-negative utilization, energy, power and area (GPU results
    // carry 0 in those four), so anything else is a corrupt record.
    const auto finiteNonNegative = [](double v) {
        return std::isfinite(v) && v >= 0.0;
    };
    return std::isfinite(r.seconds) && r.seconds > 0.0 &&
           finiteNonNegative(r.utilization) &&
           finiteNonNegative(r.energyJ) &&
           finiteNonNegative(r.enginePowerW) &&
           finiteNonNegative(r.engineAreaMm2);
}

} // namespace

DiskCache::DiskCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec); // best effort
    path_ = (std::filesystem::path(dir) / "sweep-results.cache").string();
    load();
}

void
DiskCache::load()
{
    obs::ScopedPhase phase("disk_preload");
    // Preload maps the whole store read-only (POSIX; one buffered
    // read elsewhere or when mmap fails) and indexes records by
    // scanning string_views over the mapping -- no per-line
    // std::getline copies, no re-parse of untouched bytes.
    const char *data = nullptr;
    std::string buffer;
#ifndef _WIN32
    void *map = nullptr;
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0)
        return; // no file yet: empty cache
    struct ::stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return;
    }
    bytesMapped_ = std::size_t(st.st_size);
    if (bytesMapped_ > 0) {
        map = ::mmap(nullptr, bytesMapped_, PROT_READ, MAP_PRIVATE,
                     fd, 0);
        if (map != MAP_FAILED) {
            data = static_cast<const char *>(map);
        } else {
            map = nullptr;
            buffer.resize(bytesMapped_);
            std::size_t got = 0;
            while (got < bytesMapped_) {
                const ::ssize_t k = ::read(fd, buffer.data() + got,
                                           bytesMapped_ - got);
                if (k <= 0)
                    break;
                got += std::size_t(k);
            }
            buffer.resize(got);
            bytesMapped_ = got;
            data = buffer.data();
        }
    }
    ::close(fd);
#else
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return; // no file yet: empty cache
    std::ostringstream whole;
    whole << in.rdbuf();
    buffer = whole.str();
    bytesMapped_ = buffer.size();
    data = buffer.data();
#endif

    const std::string_view file(data ? data : "", bytesMapped_);
    bool first = true;
    for (std::size_t pos = 0; pos < file.size();) {
        std::size_t nl = file.find('\n', pos);
        if (nl == std::string_view::npos)
            nl = file.size();
        const std::string_view line = file.substr(pos, nl - pos);
        pos = nl + 1;
        if (first) {
            first = false;
            if (line != headerLine()) {
                // Foreign or future format: never half-parse it. Keep
                // nothing and replace the file wholesale on the next
                // append.
                rewrite_needed_ = true;
                break;
            }
            continue;
        }
        if (line.empty())
            continue;
        const std::size_t tab = line.find('\t');
        bool ok = tab != std::string_view::npos;
        if (ok) {
            const std::string_view payload = line.substr(tab + 1);
            ok = line.substr(0, tab) == checksum(payload);
            if (ok) {
                std::string key;
                ScenarioResult r;
                ok = parsePayload(payload, key, r);
                if (ok)
                    entries_[key] = r; // duplicate keys: last wins
            }
        }
        if (!ok)
            ++corrupt_;
    }
    if (first)
        rewrite_needed_ = true; // existing file with no header line

#ifndef _WIN32
    if (map)
        ::munmap(map, bytesMapped_);
#endif

    if (obs::MetricsRegistry::instance().enabled()) {
        auto &metrics = obs::MetricsRegistry::instance();
        metrics.addCounter("disk_cache.preload_entries",
                           entries_.size());
        metrics.addCounter("disk_cache.preload_corrupt", corrupt_);
        metrics.addCounter("disk_cache.preload_bytes", bytesMapped_);
    }
    // Verbose-only: CI byte-diffs stderr across cold/warm cache runs,
    // and the preload line is the one piece of output that differs.
    DIVA_VERBOSE("disk cache preload: ", entries_.size(),
                 " entries loaded, ", corrupt_,
                 " corrupt lines skipped, ", bytesMapped_,
                 " bytes mapped from ", path_);
}

namespace
{

/**
 * Append `data` to `path` with ONE write so concurrent appenders on
 * the same store interleave at record-batch granularity, never inside
 * a record: POSIX guarantees O_APPEND write() calls are atomic with
 * respect to each other. The Windows fallback is stream-buffered and
 * therefore single-writer only.
 */
bool
appendAtomically(const std::string &path, const std::string &data)
{
#ifndef _WIN32
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0)
        return false;
    std::size_t done = 0;
    bool ok = true;
    while (done < data.size()) {
        const ::ssize_t n =
            ::write(fd, data.data() + done, data.size() - done);
        if (n <= 0) {
            ok = false;
            break;
        }
        done += std::size_t(n);
    }
    ::close(fd);
    return ok;
#else
    std::ofstream out(path, std::ios::app | std::ios::binary);
    if (!out)
        return false;
    out << data;
    out.flush();
    return bool(out);
#endif
}

} // namespace

std::size_t
DiskCache::append(
    const std::vector<std::pair<std::string, ScenarioResult>> &fresh)
{
    // Serialize first; entries_ mirrors the file, so it is updated
    // only once the bytes are known to have reached it.
    std::string buffer;
    std::vector<const std::pair<std::string, ScenarioResult> *> batch;
    for (const auto &entry : fresh) {
        const auto &[key, r] = entry;
        if (!r.ok() || contains(key))
            continue;
        if (key.find('\t') != std::string::npos ||
            key.find('\n') != std::string::npos)
            continue; // the line format cannot carry such a key
        const std::string payload = payloadFor(key, r);
        buffer += checksum(payload);
        buffer += '\t';
        buffer += payload;
        buffer += '\n';
        batch.push_back(&entry);
    }

    if (rewrite_needed_) {
        // Replace the foreign file atomically: write everything we
        // hold plus the new batch to a sibling temp file, then rename
        // over the original.
        const std::string tmp = path_ + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            if (!out)
                return 0;
            out << headerLine() << '\n';
            for (const auto &[key, r] : entries_)
                out << checksum(payloadFor(key, r)) << '\t'
                    << payloadFor(key, r) << '\n';
            out << buffer;
            out.flush();
            if (!out)
                return 0;
        }
        std::error_code ec;
        std::filesystem::rename(tmp, path_, ec);
        if (ec)
            return 0;
        rewrite_needed_ = false;
        for (const auto *entry : batch)
            entries_[entry->first] = entry->second;
        obs::MetricsRegistry::instance().addCounter(
            "disk_cache.appended", batch.size());
        return batch.size();
    }

    if (batch.empty())
        return 0;
    if (!std::filesystem::exists(path_))
        buffer = headerLine() + '\n' + buffer;
    if (!appendAtomically(path_, buffer))
        return 0; // keys stay unstored, so a later append retries them
    for (const auto *entry : batch)
        entries_[entry->first] = entry->second;
    obs::MetricsRegistry::instance().addCounter("disk_cache.appended",
                                                batch.size());
    return batch.size();
}

std::string
DiskCache::defaultDir()
{
    if (const char *dir = std::getenv("DIVA_CACHE_DIR"); dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return (std::filesystem::path(xdg) / "diva").string();
    if (const char *home = std::getenv("HOME"); home && *home)
        return (std::filesystem::path(home) / ".cache" / "diva").string();
    return ".diva-cache";
}

} // namespace diva
