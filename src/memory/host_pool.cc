#include "memory/host_pool.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu
{

HostPinnedPool::HostPinnedPool(std::uint64_t capacity) : capacity_(capacity)
{
}

std::uint64_t
HostPinnedPool::allocate(std::uint64_t bytes)
{
    if (inUse_ + bytes > capacity_) {
        ++failedAllocs_;
        return 0;
    }
    inUse_ += bytes;
    peak_ = std::max(peak_, inUse_);
    std::uint64_t h = nextHandle_++;
    sizes_.emplace(h, bytes);
    return h;
}

void
HostPinnedPool::deallocate(std::uint64_t handle)
{
    auto it = sizes_.find(handle);
    if (it == sizes_.end())
        panic("host pool deallocate of unknown handle {}", handle);
    inUse_ -= it->second;
    sizes_.erase(it);
}

} // namespace capu
