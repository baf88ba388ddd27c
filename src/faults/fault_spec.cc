#include "faults/fault_spec.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "support/logging.hh"

namespace capu::faults
{

namespace
{

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

std::vector<std::string_view>
split(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    while (!s.empty()) {
        auto pos = s.find(sep);
        out.push_back(trim(s.substr(0, pos)));
        if (pos == std::string_view::npos)
            break;
        s.remove_prefix(pos + 1);
    }
    return out;
}

/** A finite real number: NaN, infinity and overflow are malformed. */
double
parseDouble(std::string_view s, const char *what)
{
    std::string buf(s);
    char *end = nullptr;
    double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || buf.empty() || !std::isfinite(v))
        fatal("faults: malformed {} '{}'", what, buf);
    return v;
}

double
parseProb(std::string_view s, const char *what)
{
    double p = parseDouble(s, what);
    if (p < 0.0 || p > 1.0)
        fatal("faults: {} must lie in [0, 1], got {}", what, p);
    return p;
}

/**
 * A pcie window bound as parsePcie reads it back: bare milliseconds when
 * whole, else the coarser of `us` and `ns` that holds it exactly.
 */
std::string
windowBound(Tick t)
{
    if (t % kTickPerMs == 0)
        return std::to_string(t / kTickPerMs);
    if (t % kTickPerUs == 0)
        return std::to_string(t / kTickPerUs) + "us";
    return std::to_string(t) + "ns";
}

void
parsePcie(std::string_view body, FaultSpec &spec)
{
    PcieEpisode ep;
    auto at = body.find('@');
    ep.factor = parseDouble(trim(body.substr(0, at)), "pcie factor");
    if (ep.factor <= 0.0 || ep.factor > 1.0)
        fatal("faults: pcie factor must lie in (0, 1], got {}", ep.factor);
    if (at != std::string_view::npos) {
        std::string_view window = trim(body.substr(at + 1));
        auto dash = window.find('-');
        if (dash == std::string_view::npos)
            fatal("faults: pcie window must be <begin>-<end>, got '{}'",
                  std::string(window));
        ep.begin = parseTickSpan(trim(window.substr(0, dash)), kTickPerMs);
        ep.end = parseTickSpan(trim(window.substr(dash + 1)), kTickPerMs);
        if (ep.end <= ep.begin)
            fatal("faults: empty pcie window {}-{}", ep.begin, ep.end);
    }
    spec.pcie.push_back(ep);
}

void
parseSwapFail(std::string_view body, FaultSpec &spec)
{
    bool have_p = false;
    for (std::string_view field : split(body, ',')) {
        auto eq = field.find('=');
        if (eq == std::string_view::npos)
            fatal("faults: swapfail field '{}' is not key=value",
                  std::string(field));
        std::string_view k = trim(field.substr(0, eq));
        std::string_view v = trim(field.substr(eq + 1));
        if (k == "p") {
            spec.swapFailProb = parseProb(v, "swapfail probability");
            have_p = true;
        } else if (k == "retries") {
            spec.swapRetries = static_cast<int>(
                parseCount(std::string(v), "faults: swapfail retries", 0,
                           std::numeric_limits<int>::max()));
        } else if (k == "backoff") {
            spec.swapBackoffBase = parseTickSpan(v);
        } else {
            fatal("faults: unknown swapfail field '{}'", std::string(k));
        }
    }
    if (!have_p)
        fatal("faults: swapfail requires p=<prob>");
}

} // namespace

Tick
parseTickSpan(std::string_view text, Tick bare_unit)
{
    std::string_view s = trim(text);
    Tick unit = bare_unit;
    auto strip = [&](std::string_view suffix, Tick u) {
        if (s.size() > suffix.size() &&
            s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0) {
            unit = u;
            s.remove_suffix(suffix.size());
            return true;
        }
        return false;
    };
    // "ns" before "s": the longer suffix must win.
    strip("ns", 1) || strip("us", kTickPerUs) || strip("ms", kTickPerMs) ||
        strip("s", kTickPerSec);
    double v = parseDouble(trim(s), "duration");
    if (v < 0)
        fatal("faults: negative duration '{}'", std::string(text));
    // 2^64 ticks, exact as a double: the first count a Tick cannot hold.
    constexpr double kTooLong = 18446744073709551616.0;
    double ticks = v * static_cast<double>(unit) + 0.5;
    if (ticks >= kTooLong)
        fatal("faults: duration '{}' does not fit 64-bit ticks",
              std::string(text));
    return static_cast<Tick>(ticks);
}

FaultSpec
parseFaultSpec(std::string_view text)
{
    FaultSpec spec;
    for (std::string_view clause : split(text, ';')) {
        if (clause.empty())
            continue;
        auto colon = clause.find(':');
        if (colon == std::string_view::npos)
            fatal("faults: clause '{}' has no ':'", std::string(clause));
        std::string_view name = trim(clause.substr(0, colon));
        std::string_view body = trim(clause.substr(colon + 1));
        if (name == "pcie")
            parsePcie(body, spec);
        else if (name == "jitter") {
            spec.kernelJitter = parseDouble(body, "jitter fraction");
            if (spec.kernelJitter < 0.0 || spec.kernelJitter >= 1.0)
                fatal("faults: jitter must lie in [0, 1), got {}",
                      spec.kernelJitter);
        } else if (name == "hostcap") {
            try {
                spec.hostCapBytes = parseBytes(std::string(body));
            } catch (const FatalError &e) {
                fatal("faults: hostcap: {}", e.what());
            }
            if (spec.hostCapBytes == 0)
                fatal("faults: hostcap must be nonzero");
        } else if (name == "hostfail") {
            auto eq = body.find('=');
            if (eq == std::string_view::npos ||
                trim(body.substr(0, eq)) != "p") {
                fatal("faults: hostfail requires p=<prob>, got '{}'",
                      std::string(body));
            }
            spec.hostFailProb =
                parseProb(trim(body.substr(eq + 1)), "hostfail probability");
        } else if (name == "swapfail") {
            parseSwapFail(body, spec);
        } else {
            fatal("faults: unknown clause '{}'", std::string(name));
        }
    }
    return spec;
}

bool
FaultSpec::enabled() const
{
    return !pcie.empty() || kernelJitter > 0.0 || hostCapBytes > 0 ||
           hostFailProb > 0.0 || swapFailProb > 0.0;
}

std::uint64_t
FaultSpec::clampHostBytes(std::uint64_t configured) const
{
    if (hostCapBytes == 0)
        return configured;
    return std::min(configured, hostCapBytes);
}

std::string
FaultSpec::summary() const
{
    if (!enabled())
        return "none";
    std::string out;
    auto clause = [&](const std::string &c) {
        if (!out.empty())
            out += ';';
        out += c;
    };
    for (const auto &ep : pcie) {
        std::string c = "pcie:" + fmt("{}", ep.factor);
        if (ep.begin != 0 || ep.end != ~0ull) {
            c += "@" + windowBound(ep.begin) + "-" + windowBound(ep.end);
        }
        clause(c);
    }
    if (kernelJitter > 0.0)
        clause("jitter:" + fmt("{}", kernelJitter));
    if (hostCapBytes > 0)
        clause("hostcap:" + std::to_string(hostCapBytes) + "B");
    if (hostFailProb > 0.0)
        clause("hostfail:p=" + fmt("{}", hostFailProb));
    if (swapFailProb > 0.0) {
        clause("swapfail:p=" + fmt("{}", swapFailProb) +
               ",retries=" + std::to_string(swapRetries) +
               ",backoff=" + std::to_string(swapBackoffBase) + "ns");
    }
    return out;
}

} // namespace capu::faults
