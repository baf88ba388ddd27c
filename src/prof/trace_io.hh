/**
 * @file
 * Chrome-trace import: the inverse of obs::writeChromeTrace.
 *
 * capusim exports its event ring as Chrome trace_event JSON (--trace-json)
 * for Perfetto; capuprof consumes the same artifact offline. The exporter
 * was made lossless for this purpose (instant `value`, span `bytes` ride
 * in args), so a round-tripped event list profiles identically to the
 * live ring it came from. Metadata events (process/thread names) map back
 * to track names; otherData carries the run meta and the ring's
 * recorded/dropped counts.
 */

#ifndef CAPU_PROF_TRACE_IO_HH
#define CAPU_PROF_TRACE_IO_HH

#include <string>
#include <utility>
#include <vector>

#include "obs/event.hh"

namespace capu::prof
{

struct TraceBundle
{
    std::vector<obs::TraceEvent> events;
    obs::NameTable names; ///< resolves the events' labels
    std::vector<std::pair<std::string, std::string>> meta;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

/**
 * Parse a writeChromeTrace() artifact. Returns false (with the reason in
 * *err when provided) on unreadable files, malformed JSON, or JSON that
 * is not a Chrome trace object.
 */
bool importChromeTrace(const std::string &path, TraceBundle &out,
                       std::string *err = nullptr);

} // namespace capu::prof

#endif // CAPU_PROF_TRACE_IO_HH
