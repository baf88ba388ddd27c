#include "prof/trace_view.hh"

#include <algorithm>

namespace capu::prof
{

TraceView::TraceView(const obs::Tracer &tracer)
    : events_(&tracer.chronological()), names_(&tracer.names()),
      meta_(&tracer.meta()), dropped_(tracer.dropped()),
      facts_(obs::labelFacts(tracer.names()))
{
}

TraceView::TraceView(const TraceBundle &bundle)
    : events_(&sorted_), names_(&bundle.names), meta_(&bundle.meta),
      dropped_(bundle.dropped), facts_(obs::labelFacts(bundle.names))
{
    sorted_.reserve(bundle.events.size());
    for (const obs::TraceEvent &ev : bundle.events)
        sorted_.push_back(&ev);
    std::stable_sort(sorted_.begin(), sorted_.end(),
                     [](const obs::TraceEvent *a, const obs::TraceEvent *b) {
                         return a->ts < b->ts;
                     });
}

const std::vector<obs::TimelineRecord> &
TraceView::timeline() const
{
    if (!timeline_)
        timeline_ = obs::extractTimeline(*events_, facts_);
    return *timeline_;
}

const HbAnalysis &
TraceView::hb() const
{
    if (!hb_)
        hb_ = buildTraceEventGraph(timeline());
    return *hb_;
}

} // namespace capu::prof
