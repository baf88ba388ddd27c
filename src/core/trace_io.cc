#include "core/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/logging.hh"
#include "support/strfmt.hh"
#include "support/units.hh"

namespace capu
{

namespace
{

constexpr const char *kHeader = "# capuchin-trace v1";
constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

TensorKind
kindFromName(const std::string &name)
{
    if (name == "feature")
        return TensorKind::FeatureMap;
    if (name == "weight")
        return TensorKind::Weight;
    if (name == "gradient")
        return TensorKind::Gradient;
    if (name == "workspace")
        return TensorKind::Workspace;
    fatal("unknown tensor kind '{}'", name);
}

/** Row count of a "<name> <rows>" section header, at most the 32-bit id
 *  space. */
std::size_t
sectionRows(std::istream &is, const char *name)
{
    std::string line, word, rows;
    if (std::getline(is, line)) {
        std::istringstream ls(line);
        ls >> word >> rows;
    }
    if (word != name)
        fatal("trace missing {} section", name);
    return parseCount(rows, fmt("trace {} count", name), 0, kInvalidTensor);
}

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> out;
    std::string cell;
    for (char c : line) {
        if (c == ',') {
            out.push_back(cell);
            cell.clear();
        } else {
            cell += c;
        }
    }
    out.push_back(cell);
    return out;
}

} // namespace

AccessTracker
TensorTrace::toTracker() const
{
    AccessTracker tracker;
    for (const AccessRecord &rec : records)
        tracker.record(rec);
    return tracker;
}

TensorTrace
captureTrace(const AccessTracker &tracker, const Graph &graph)
{
    TensorTrace trace;
    std::vector<bool> seen(graph.numTensors(), false);
    for (const AccessRecord &rec : tracker.sequence()) {
        trace.records.push_back(rec);
        if (rec.tensor < seen.size() && !seen[rec.tensor]) {
            seen[rec.tensor] = true;
            const TensorDesc &t = graph.tensor(rec.tensor);
            trace.tensors.push_back(
                TraceTensorInfo{t.id, t.name, t.bytes, t.kind});
        }
    }
    return trace;
}

void
writeTrace(std::ostream &os, const TensorTrace &trace)
{
    os << kHeader << '\n';
    os << "tensors " << trace.tensors.size() << '\n';
    for (const auto &t : trace.tensors) {
        std::string safe_name = t.name;
        for (char &c : safe_name) {
            if (c == ',' || c == '\n')
                c = '_';
        }
        os << t.id << ',' << safe_name << ',' << t.bytes << ','
           << tensorKindName(t.kind) << '\n';
    }
    os << "records " << trace.records.size() << '\n';
    for (const auto &r : trace.records) {
        os << r.tensor << ',' << r.accessIndex << ',' << r.time << ','
           << (r.isOutput ? 1 : 0) << ','
           << (r.op == kInvalidOp ? -1 : static_cast<long long>(r.op))
           << '\n';
    }
}

TensorTrace
readTrace(std::istream &is)
{
    TensorTrace trace;
    std::string line;
    if (!std::getline(is, line) || line != kHeader)
        fatal("not a capuchin trace (bad header '{}')", line);

    // Tensor rows are parsed once the record count, which bounds their
    // ids, is known.
    std::size_t n_tensors = sectionRows(is, "tensors");
    std::vector<std::string> tensor_rows;
    for (std::size_t i = 0; i < n_tensors; ++i) {
        if (!std::getline(is, line))
            fatal("trace tensor table truncated at row {}", i);
        tensor_rows.push_back(std::move(line));
    }
    std::size_t n_records = sectionRows(is, "records");
    // Ids index dense per-id tables (reconstructGraph), so a tensor id must
    // stay below tensor rows + record rows and an op id below record rows.
    const std::uint64_t max_tensor =
        std::min<std::uint64_t>(n_tensors + n_records, kInvalidTensor) - 1;

    for (std::size_t i = 0; i < n_tensors; ++i) {
        const std::string &row = tensor_rows[i];
        auto cells = splitCsv(row);
        if (cells.size() != 4)
            fatal("trace tensor row {} '{}': expected 4 cells, got {}", i,
                  row, cells.size());
        TraceTensorInfo t;
        try {
            t.id = static_cast<TensorId>(
                parseCount(cells[0], "tensor id", 0, max_tensor));
            t.name = cells[1];
            t.bytes = parseCount(cells[2], "bytes");
            t.kind = kindFromName(cells[3]);
        } catch (const FatalError &e) {
            throw FatalError(fmt("trace tensor row {} '{}': {}", i, row,
                                 e.what()));
        }
        trace.tensors.push_back(std::move(t));
    }

    for (std::size_t i = 0; i < n_records; ++i) {
        if (!std::getline(is, line))
            fatal("trace records truncated at row {}", i);
        auto cells = splitCsv(line);
        if (cells.size() != 5)
            fatal("trace record row {} '{}': expected 5 cells, got {}", i,
                  line, cells.size());
        AccessRecord r;
        try {
            r.tensor = static_cast<TensorId>(
                parseCount(cells[0], "tensor id", 0, max_tensor));
            r.accessIndex = static_cast<int>(
                parseCount(cells[1], "access index", 0, kIntMax));
            r.time = parseCount(cells[2], "time");
            r.isOutput = parseCount(cells[3], "is_output", 0, 1) == 1;
            r.op = cells[4] == "-1" ? kInvalidOp
                                    : static_cast<OpId>(parseCount(
                                          cells[4], "op", 0, n_records - 1));
        } catch (const FatalError &e) {
            throw FatalError(fmt("trace record row {} '{}': {}", i, line,
                                 e.what()));
        }
        trace.records.push_back(r);
    }
    return trace;
}

void
saveTraceFile(const std::string &path, const TensorTrace &trace)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '{}' for writing", path);
    writeTrace(os, trace);
    if (!os)
        fatal("error writing trace to '{}'", path);
}

TensorTrace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open trace file '{}'", path);
    return readTrace(is);
}

Graph
reconstructGraph(const TensorTrace &trace)
{
    TensorId max_tensor = 0;
    OpId max_op = 0;
    bool any_op = false;
    for (const auto &t : trace.tensors)
        max_tensor = std::max(max_tensor, t.id);
    for (const auto &r : trace.records) {
        max_tensor = std::max(max_tensor, r.tensor);
        if (r.op != kInvalidOp) {
            max_op = std::max(max_op, r.op);
            any_op = true;
        }
    }

    Graph g("trace");
    if (trace.records.empty() && trace.tensors.empty())
        return g;

    // Tensor table first, ids preserved (addTensor assigns sequentially).
    std::vector<const TraceTensorInfo *> by_id(max_tensor + 1, nullptr);
    for (const auto &t : trace.tensors)
        by_id[t.id] = &t;
    for (TensorId id = 0; id <= max_tensor; ++id) {
        if (by_id[id] != nullptr) {
            g.addTensor(by_id[id]->name, by_id[id]->bytes, by_id[id]->kind);
        } else {
            g.addTensor("(unseen:" + std::to_string(id) + ")", 0,
                        TensorKind::Workspace);
        }
    }

    if (!any_op)
        return g;

    // Ops from the records: reads are inputs, writes outputs. A malformed
    // trace may claim two producers for one tensor; keep the first so the
    // graph stays constructible and let the checker flag the fallout.
    struct OpIo
    {
        std::vector<TensorId> inputs;
        std::vector<TensorId> outputs;
    };
    std::vector<OpIo> io(max_op + 1);
    std::vector<bool> produced(max_tensor + 1, false);
    auto add_unique = [](std::vector<TensorId> &v, TensorId t) {
        if (std::find(v.begin(), v.end(), t) == v.end())
            v.push_back(t);
    };
    for (const auto &r : trace.records) {
        if (r.op == kInvalidOp)
            continue;
        if (r.isOutput) {
            if (!produced[r.tensor]) {
                produced[r.tensor] = true;
                add_unique(io[r.op].outputs, r.tensor);
            }
        } else {
            add_unique(io[r.op].inputs, r.tensor);
        }
    }
    for (OpId id = 0; id <= max_op; ++id) {
        Operation op;
        op.name = "op" + std::to_string(id);
        op.inputs = std::move(io[id].inputs);
        op.outputs = std::move(io[id].outputs);
        // An op that reads nothing is a batch source: replaying it would
        // fabricate fresh data, so it must not count as recomputable.
        op.recomputable = !op.inputs.empty();
        if (op.recomputable == false)
            op.category = OpCategory::Source;
        g.addOp(std::move(op));
    }
    return g;
}

} // namespace capu
