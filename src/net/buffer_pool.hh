/**
 * @file
 * Pooled message buffers for the vpd connection threads.
 *
 * Every connection needs a read buffer, a frame-decoder buffer and a
 * write buffer; recycling them through a shared free list keeps the
 * steady state allocation-free across connection churn (a fresh
 * connection inherits a predecessor's grown capacity instead of
 * re-growing from zero). The pool is deliberately tiny: a mutexed
 * free list, touched twice per connection (acquire at open, release
 * at close) — never per frame, so it is nowhere near the hot path.
 *
 * acquires/reuses counters feed the server's STATS snapshot
 * (pool.acquires, pool.reuses); the reuse rate is their ratio.
 */

#ifndef VP_NET_BUFFER_POOL_HH
#define VP_NET_BUFFER_POOL_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/mutex.hh"

namespace vp::net {

class BufferPool
{
  public:
    /** Keep at most @p maxBuffers on the free list. */
    explicit BufferPool(size_t maxBuffers = 64)
        : maxBuffers_(maxBuffers)
    {
    }

    /** An empty buffer, reusing pooled capacity when available. */
    std::vector<uint8_t>
    acquire()
    {
        acquires_.fetch_add(1, std::memory_order_relaxed);
        const util::MutexLock lock(mutex_);
        if (free_.empty())
            return {};
        std::vector<uint8_t> buffer = std::move(free_.back());
        free_.pop_back();
        buffer.clear();
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return buffer;
    }

    /** Return @p buffer to the free list (dropped when full). */
    void
    release(std::vector<uint8_t> buffer)
    {
        if (buffer.capacity() == 0)
            return;
        const util::MutexLock lock(mutex_);
        if (free_.size() < maxBuffers_)
            free_.push_back(std::move(buffer));
    }

    uint64_t
    acquires() const
    {
        return acquires_.load(std::memory_order_relaxed);
    }

    uint64_t
    reuses() const
    {
        return reuses_.load(std::memory_order_relaxed);
    }

    size_t
    pooled() const
    {
        const util::MutexLock lock(mutex_);
        return free_.size();
    }

  private:
    size_t maxBuffers_;
    mutable util::Mutex mutex_;
    std::vector<std::vector<uint8_t>> free_ VP_GUARDED_BY(mutex_);
    std::atomic<uint64_t> acquires_{0};
    std::atomic<uint64_t> reuses_{0};
};

} // namespace vp::net

#endif // VP_NET_BUFFER_POOL_HH
