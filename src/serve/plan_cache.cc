#include "serve/plan_cache.hh"

#include <algorithm>

#include "core/plan_io.hh"
#include "support/logging.hh"

namespace capu::serve
{

PlanCache::PlanCache(std::size_t max_entries) : maxEntries_(max_entries)
{
    if (maxEntries_ == 0)
        fatal("plan cache capacity must be at least one entry");
}

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

const PlanCache::Entry &
PlanCache::insert(const ServeKey &key, Plan plan,
                  std::uint64_t graph_fingerprint,
                  std::unique_ptr<Session> template_session)
{
    auto it = map_.find(key);
    if (it != map_.end()) {
        // Replacement: never mutate the resident entry in place — remove
        // it and stamp the successor with a fresh version.
        lru_.erase(it->second);
        map_.erase(it);
    }
    Entry e;
    e.key = key;
    e.digest = planDigest(plan);
    e.graphFingerprint = graph_fingerprint;
    e.version = ++nextVersion_;
    e.plan = std::move(plan);
    e.templateSession = std::move(template_session);
    lru_.push_front(std::move(e));
    map_[key] = lru_.begin();
    ++stats_.insertions;
    // One insertion overfills the cache by at most one entry, and with
    // room for at least one the victim is never the entry just made.
    if (lru_.size() > maxEntries_) {
        map_.erase(lru_.back().key);
        lru_.pop_back();
        ++stats_.evictions;
    }
    return lru_.front();
}

std::size_t
PlanCache::templateSessions() const
{
    return static_cast<std::size_t>(
        std::count_if(lru_.begin(), lru_.end(), [](const Entry &e) {
            return e.templateSession != nullptr;
        }));
}

} // namespace capu::serve
