/**
 * @file
 * One decoded trace for every post-hoc consumer.
 *
 * capuprof's profile and critical path and capuverify's dynamic checks all
 * read the same capuscope events. A TraceView decodes them once:
 *
 *   - the chronological order: a live Tracer's cached chronological(), or,
 *     for an imported TraceBundle, pointers into its events stable-sorted
 *     by tick once (an exported trace is already in that order);
 *   - one label-fact table (obs::labelFacts) per NameId;
 *   - the happens-before timeline and event graph, each built on first
 *     use and at most once.
 *
 * The view borrows its source: the Tracer or TraceBundle must outlive it
 * and stay unmodified while the view is in use. The lazy members make a
 * view unsafe to share across threads.
 */

#ifndef CAPU_PROF_TRACE_VIEW_HH
#define CAPU_PROF_TRACE_VIEW_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/happens_before.hh"
#include "obs/event_adapter.hh"
#include "obs/tracer.hh"
#include "prof/trace_io.hh"

namespace capu::prof
{

class TraceView
{
  public:
    /** Borrow a live tracer's order, names, drop count and meta. */
    explicit TraceView(const obs::Tracer &tracer);
    /** Sort an imported trace's events by tick once. */
    explicit TraceView(const TraceBundle &bundle);
    /** A view of a temporary would dangle. */
    explicit TraceView(obs::Tracer &&) = delete;
    explicit TraceView(TraceBundle &&) = delete;

    TraceView(const TraceView &) = delete;
    TraceView &operator=(const TraceView &) = delete;

    /** Every event, stable-sorted by tick. */
    const std::vector<const obs::TraceEvent *> &
    events() const
    {
        return *events_;
    }
    const obs::NameTable &names() const { return *names_; }
    /** labelFacts(names()), indexed by NameId. */
    const std::vector<obs::LabelFacts> &facts() const { return facts_; }
    /** Events the source's ring dropped before the ones in view. */
    std::uint64_t dropped() const { return dropped_; }
    /** Run metadata of the source. */
    const std::vector<std::pair<std::string, std::string>> &
    meta() const
    {
        return *meta_;
    }

    /** obs::extractTimeline over events(), built on first use. */
    const std::vector<obs::TimelineRecord> &timeline() const;
    /** buildTraceEventGraph over timeline(), built on first use. */
    const HbAnalysis &hb() const;

  private:
    std::vector<const obs::TraceEvent *> sorted_; ///< a bundle's order
    const std::vector<const obs::TraceEvent *> *events_;
    const obs::NameTable *names_;
    const std::vector<std::pair<std::string, std::string>> *meta_;
    std::uint64_t dropped_;
    std::vector<obs::LabelFacts> facts_;
    mutable std::optional<std::vector<obs::TimelineRecord>> timeline_;
    mutable std::optional<HbAnalysis> hb_;
};

} // namespace capu::prof

#endif // CAPU_PROF_TRACE_VIEW_HH
