/**
 * @file
 * Process-wide build-once cache behind experiment::cachedTrace and
 * workloads::GraphCache.
 *
 * The first get() of a key runs the builder outside the lock; callers of
 * the same key meanwhile wait on its shared_future and share the value
 * or the builder's exception. A key whose build throws is dropped before
 * its waiters wake, so a later get() builds it again. clear() drops
 * every key; a value lives on while any caller holds it.
 */

#ifndef TLPSIM_COMMON_ONCE_CACHE_HH
#define TLPSIM_COMMON_ONCE_CACHE_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace tlpsim
{

template <typename Key, typename T>
class OnceCache
{
  public:
    using Ptr = std::shared_ptr<const T>;

    /** The value for @p key; the first call builds it from build(). */
    template <typename Build>
    Ptr
    get(const Key &key, const Build &build)
    {
        std::unique_lock<std::mutex> lock(m_);
        if (auto it = map_.find(key); it != map_.end()) {
            std::shared_future<Ptr> value = it->second;
            lock.unlock();
            return value.get();
        }
        std::promise<Ptr> promise;
        map_.emplace(key, promise.get_future().share());
        lock.unlock();
        Ptr built;
        try {
            built = std::make_shared<const T>(build());
        } catch (...) {
            lock.lock();
            map_.erase(key);
            lock.unlock();
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(built);
        return built;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(m_);
        map_.clear();
    }

  private:
    std::mutex m_;
    std::map<Key, std::shared_future<Ptr>> map_;
};

} // namespace tlpsim

#endif // TLPSIM_COMMON_ONCE_CACHE_HH
