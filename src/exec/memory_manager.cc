#include "exec/memory_manager.hh"

#include <limits>

#include "support/logging.hh"

namespace capu
{

MemoryManager::MemoryManager(std::uint64_t gpu_capacity,
                             std::uint64_t host_capacity,
                             BfcOptions gpu_options)
    : gpu_(gpu_capacity, gpu_options), host_(host_capacity)
{
}

std::optional<MemHandle>
MemoryManager::allocate(Tick now, std::uint64_t bytes,
                        BfcAllocator::Placement placement)
{
    deferred_.applyUpTo(now, gpu_);
    auto h = gpu_.allocate(bytes, placement);
    if (h)
        sampleUsage(now);
    return h;
}

std::optional<MemHandle>
MemoryManager::allocateWaiting(Tick &now, std::uint64_t bytes)
{
    while (true) {
        if (auto h = allocate(now, bytes))
            return h;
        auto next = deferred_.nextMaturity();
        if (!next)
            return std::nullopt;
        // Wait for the earliest in-flight free (swap-out / kernel retire).
        now = std::max(now, *next);
    }
}

void
MemoryManager::freeNow(Tick now, MemHandle handle)
{
    deferred_.applyUpTo(now, gpu_);
    if (gpu_.isFreePending(handle))
        panic("freeNow of handle {}, which has a deferred free posted",
              handle);
    gpu_.deallocate(handle);
    sampleUsage(now);
}

void
MemoryManager::freeAt(Tick when, MemHandle handle)
{
    gpu_.markFreePending(handle);
    deferred_.post(when, handle);
}

bool
MemoryManager::canAllocate(Tick now, std::uint64_t bytes)
{
    deferred_.applyUpTo(now, gpu_);
    return gpu_.canAllocate(bytes);
}

std::optional<Tick>
MemoryManager::nextPendingFree() const
{
    return deferred_.nextMaturity();
}

void
MemoryManager::drainAll()
{
    deferred_.applyUpTo(std::numeric_limits<Tick>::max(), gpu_);
}

void
MemoryManager::attachTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    bytesInUseLabel_ = 0;
    if (tracer_)
        tracer_->setTrackName(obs::kTrackMemory, "memory");
}

void
MemoryManager::sampleUsage(Tick now)
{
    if (!tracer_ || !tracer_->enabled())
        return;
    if (bytesInUseLabel_ == 0)
        bytesInUseLabel_ = tracer_->intern("gpu.bytes_in_use");
    tracer_->counter(obs::kTrackMemory, now, bytesInUseLabel_,
                     static_cast<double>(gpu_.bytesInUse()));
}

} // namespace capu
