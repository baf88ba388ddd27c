#include "serve/plan_cache.hh"

#include <algorithm>

#include "core/plan_io.hh"

namespace capu::serve
{

namespace
{

std::uint64_t
entryFootprint(const Plan &plan)
{
    return sizeof(PlanCache::Entry) +
           plan.items.size() * sizeof(PlannedEviction);
}

} // namespace

const PlanCache::Entry *
PlanCache::find(const ServeKey &key)
{
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &*it->second;
}

const PlanCache::Entry *
PlanCache::insert(const ServeKey &key, Plan plan,
                  std::uint64_t graph_fingerprint,
                  std::unique_ptr<Session> template_session)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Replacement: never mutate the resident entry in place — remove
        // it and stamp the successor with a fresh version.
        bytes_ -= it->second->bytes;
        lru_.erase(it->second);
        map_.erase(it);
    }
    Entry e;
    e.key = key;
    e.digest = planDigest(plan);
    e.graphFingerprint = graph_fingerprint;
    e.version = ++nextVersion_;
    e.bytes = entryFootprint(plan);
    e.plan = std::move(plan);
    e.templateSession = std::move(template_session);
    bytes_ += e.bytes;
    lru_.push_front(std::move(e));
    map_[key] = lru_.begin();
    ++stats_.insertions;
    enforceCapacity();
    // The fresh entry can only be the victim when capacity is zero-sized;
    // guard so callers never dereference a dangling front.
    auto found = map_.find(key);
    return found != map_.end() ? &*found->second : nullptr;
}

void
PlanCache::evictOne()
{
    if (lru_.empty())
        return;
    Entry &victim = lru_.back();
    bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
}

std::size_t
PlanCache::templateSessions() const
{
    return static_cast<std::size_t>(
        std::count_if(lru_.begin(), lru_.end(), [](const Entry &e) {
            return e.templateSession != nullptr;
        }));
}

void
PlanCache::enforceCapacity()
{
    while (!lru_.empty() &&
           ((maxEntries_ > 0 && lru_.size() > maxEntries_) ||
            (maxBytes_ > 0 && bytes_ > maxBytes_)))
        evictOne();
}

} // namespace capu::serve
