/**
 * @file
 * Committed output fingerprints and the checker that compares against them.
 *
 * The file (perfbench/expected.txt) holds one `name value` pair per line:
 * simulated iteration ticks and swap bytes for the train workloads, found
 * max batches and speed-cell throughputs for the sweep, and the plan
 * digest of every serve key. Values are compared as exact strings, so a
 * single perturbed tick or digest is a mismatch.
 *
 * In record mode a first observation is stored instead of compared (a
 * later, different observation of the same name is still a mismatch),
 * and save() writes the file back out.
 */

#ifndef PERFBENCH_FINGERPRINTS_HH
#define PERFBENCH_FINGERPRINTS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

class Fingerprints
{
  public:
    /** Parse `text`; returns false and sets `error` on a malformed line. */
    bool parse(const std::string &text, std::string &error);

    /** Read and parse `path`. */
    bool load(const std::string &path, std::string &error);

    /** Serialize every entry, sorted by name. */
    std::string serialize() const;

    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /**
     * Compare `actual` against the entry `name`. Returns false (and keeps
     * a note) on a mismatch or a missing entry. Thread-safe.
     */
    bool check(const std::string &name, const std::string &actual);
    bool check(const std::string &name, std::int64_t actual);
    bool check(const std::string &name, std::uint64_t actual);
    /** Exact: printed with 17 significant digits. */
    bool checkDouble(const std::string &name, double actual);

    /** Expected value of `name` ("" when absent). */
    std::string expected(const std::string &name) const;

    std::size_t mismatches() const;
    std::vector<std::string> notes() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::string> entries_;
    std::size_t mismatches_ = 0;
    std::vector<std::string> notes_;
    bool recording_ = false;
};

std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // PERFBENCH_FINGERPRINTS_HH
