#include "fingerprints.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

namespace
{

constexpr std::size_t kMaxNotes = 8;

} // namespace

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
Fingerprints::parse(const std::string &text, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, value, extra;
        if (!(fields >> name >> value) || (fields >> extra)) {
            error = "line " + std::to_string(lineno) +
                    ": expected 'name value'";
            return false;
        }
        if (!entries_.emplace(name, value).second) {
            error = "line " + std::to_string(lineno) + ": duplicate '" +
                    name + "'";
            return false;
        }
    }
    return true;
}

bool
Fingerprints::load(const std::string &path, std::string &error)
{
    std::ifstream f(path);
    if (!f) {
        error = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    return parse(ss.str(), error);
}

std::string
Fingerprints::serialize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "# perfbench expected outputs: name value (simulated, "
                      "exact). Regenerate with run.py --record.\n";
    for (const auto &[name, value] : entries_)
        out += name + " " + value + "\n";
    return out;
}

bool
Fingerprints::check(const std::string &name, const std::string &actual)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end() && recording_) {
        entries_.emplace(name, actual);
        return true;
    }
    if (it != entries_.end() && it->second == actual)
        return true;
    ++mismatches_;
    if (notes_.size() < kMaxNotes) {
        notes_.push_back(name + ": expected " +
                         (it == entries_.end() ? "<missing>" : it->second) +
                         ", got " + actual);
    }
    return false;
}

bool
Fingerprints::check(const std::string &name, std::int64_t actual)
{
    return check(name, std::to_string(actual));
}

bool
Fingerprints::check(const std::string &name, std::uint64_t actual)
{
    return check(name, std::to_string(actual));
}

bool
Fingerprints::checkDouble(const std::string &name, double actual)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", actual);
    return check(name, std::string(buf));
}

std::string
Fingerprints::expected(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    return it == entries_.end() ? std::string() : it->second;
}

std::size_t
Fingerprints::mismatches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return mismatches_;
}

std::vector<std::string>
Fingerprints::notes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return notes_;
}

} // namespace perfbench
