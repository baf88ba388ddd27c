#include "sim/pcie_link.hh"

#include "support/logging.hh"

namespace capu
{

namespace
{

/** `<label>!fail` in the lane's tracer; 0 while it is not tracing. */
obs::NameId
failedLabel(const Stream &lane, obs::NameId label)
{
    obs::Tracer *tracer = lane.tracer();
    if (!tracer || !tracer->enabled())
        return 0;
    return tracer->intern(tracer->name(label) + "!fail");
}

} // namespace

PcieLink::PcieLink(double bandwidth, Tick latency)
    : bandwidth_(bandwidth), latency_(latency), d2h_("pcie-d2h"),
      h2d_("pcie-h2d")
{
    if (bandwidth <= 0)
        fatal("PCIe bandwidth must be positive, got {}", bandwidth);
}

Tick
PcieLink::transferTime(std::uint64_t bytes) const
{
    double ns = static_cast<double>(bytes) / bandwidth_ * 1e9;
    return latency_ + static_cast<Tick>(ns + 0.5);
}

Tick
PcieLink::degradedTransferTime(std::uint64_t bytes, Tick start) const
{
    if (!faultsOn())
        return transferTime(bytes);
    // The factor at the transfer's start governs the whole copy (episode
    // granularity is far coarser than a single transfer).
    double factor = faults_->pcieFactor(start);
    double ns = static_cast<double>(bytes) / (bandwidth_ * factor) * 1e9;
    return latency_ + static_cast<Tick>(ns + 0.5);
}

std::optional<Tick>
PcieLink::tryTransfer(CopyDir dir, std::uint64_t bytes, Tick ready,
                      obs::NameId label, std::int64_t tensor)
{
    Stream &ln = lane(dir);
    if (!faultsOn()) {
        return ln.enqueue(ready, transferTime(bytes), label,
                          obs::EventKind::Transfer, tensor, -1, bytes);
    }
    Tick nominal = transferTime(bytes);
    Tick at = ready;
    int budget = faults_->spec().swapRetries;
    for (int attempt = 0;; ++attempt) {
        Tick start = std::max(at, ln.busyUntil());
        Tick dur = degradedTransferTime(bytes, start);
        if (!faults_->swapAttemptFails()) {
            if (dur > nominal) {
                ++faults_->stats().degradedTransfers;
                faults_->noteFault(start, "fault.pcie.degraded", tensor,
                                   bytes);
            }
            return ln.enqueue(at, dur, label, obs::EventKind::Transfer,
                              tensor, -1, bytes);
        }
        // The failed attempt occupies the lane for its wire time, then
        // aborts; the payload never lands.
        ++faults_->stats().swapAttemptFailures;
        faults_->noteFault(start, "fault.swap.attempt", tensor, bytes);
        ln.enqueue(at, dur, failedLabel(ln, label), obs::EventKind::Transfer,
                   tensor, -1, bytes);
        if (attempt >= budget)
            return std::nullopt;
        ++faults_->stats().swapRetries;
        at = ln.busyUntil() + faults_->retryBackoff(attempt);
        faults_->noteRecovery(at, "recovery.swap-retry", tensor, bytes);
    }
}

Tick
PcieLink::transfer(CopyDir dir, std::uint64_t bytes, Tick ready,
                   obs::NameId label, std::int64_t tensor)
{
    if (auto done = tryTransfer(dir, bytes, ready, label, tensor))
        return *done;
    // Retry budget spent on a must-succeed transfer (swap-in, prefetch):
    // force one final attempt through — the lane has already paid for the
    // failed tries, and the data has to move for execution to continue.
    ++faults_->stats().swapForced;
    Stream &ln = lane(dir);
    Tick at = std::max(ready, ln.busyUntil());
    faults_->noteRecovery(at, "recovery.swap-forced", tensor, bytes);
    return ln.enqueue(at, degradedTransferTime(bytes, at), label,
                      obs::EventKind::Transfer, tensor, -1, bytes);
}

void
PcieLink::attachTracer(obs::Tracer *tracer)
{
    d2h_.attachTracer(tracer, obs::kTrackD2H);
    h2d_.attachTracer(tracer, obs::kTrackH2D);
}

void
PcieLink::attachFaults(faults::FaultEngine *engine)
{
    faults_ = engine;
}

Tick
PcieLink::laneBusyUntil(CopyDir dir) const
{
    return lane(dir).busyUntil();
}

Tick
PcieLink::lastStart(CopyDir dir) const
{
    return lane(dir).lastStart();
}

Stream &
PcieLink::lane(CopyDir dir)
{
    return dir == CopyDir::DeviceToHost ? d2h_ : h2d_;
}

const Stream &
PcieLink::lane(CopyDir dir) const
{
    return dir == CopyDir::DeviceToHost ? d2h_ : h2d_;
}

void
PcieLink::reset()
{
    d2h_.reset();
    h2d_.reset();
}

} // namespace capu
