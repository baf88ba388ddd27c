/**
 * @file
 * Tensor-access trace serialization.
 *
 * The access trace is Capuchin's entire world-view — persisting it makes
 * the policy machinery usable offline: capture a trace from one run (or a
 * real framework, via the same {tensor_id, access_count, timestamp}
 * schema as the paper's TAT), then replay planning experiments against it
 * without re-simulating. `capusim --dump-trace` writes this format; the
 * PolicyMaker consumes a loaded tracker directly.
 *
 * Format: CSV with a versioned header. Columns:
 *   tensor,access,time_ns,is_output,op
 * plus a tensor-table section mapping ids to {name, bytes, kind} so a
 * trace is interpretable without the producing graph.
 */

#ifndef CAPU_CORE_TRACE_IO_HH
#define CAPU_CORE_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/access_tracker.hh"
#include "graph/graph.hh"

namespace capu
{

/** Tensor metadata carried alongside a trace. */
struct TraceTensorInfo
{
    TensorId id = kInvalidTensor;
    std::string name;
    std::uint64_t bytes = 0;
    TensorKind kind = TensorKind::FeatureMap;
};

struct TensorTrace
{
    std::vector<TraceTensorInfo> tensors;
    std::vector<AccessRecord> records;

    /** Rebuild an AccessTracker from the records. */
    AccessTracker toTracker() const;
};

/** Capture the tracker's sequence plus tensor metadata from `graph`. */
TensorTrace captureTrace(const AccessTracker &tracker, const Graph &graph);

/** Serialize to the versioned CSV format. */
void writeTrace(std::ostream &os, const TensorTrace &trace);

/**
 * Parse a trace written by writeTrace(). Every numeric cell is a whole
 * number (op -1 means none); a tensor id stays below tensor rows + record
 * rows and an op id below record rows, so no id asks reconstructGraph for
 * more than the file's own size.
 * @throws FatalError on malformed input (bad header, a truncated section,
 *         a bad cell or id, naming its row).
 */
TensorTrace readTrace(std::istream &is);

/** Convenience file wrappers. @throws FatalError on I/O failure. */
void saveTraceFile(const std::string &path, const TensorTrace &trace);
TensorTrace loadTraceFile(const std::string &path);

/**
 * Rebuild a skeletal Graph from a trace alone: tensors come from the
 * tensor table (ids preserved; never-accessed ids become zero-byte
 * placeholders), ops from the records (an op's inputs are the tensors it
 * read, its outputs the ones it wrote). Ops that read nothing are marked
 * non-recomputable — they are batch sources whose replay would fabricate
 * data. Phases and categories are unknown offline and default to
 * Forward/Elementwise; everything the PolicyMaker and PlanChecker need
 * (lineage, kinds, sizes, measured durations via the tracker) survives,
 * which is what makes offline plan linting possible.
 */
Graph reconstructGraph(const TensorTrace &trace);

} // namespace capu

#endif // CAPU_CORE_TRACE_IO_HH
