#include "core/kernel/worker_pool.hh"

#include <algorithm>
#include <utility>

namespace eie::core::kernel {

WorkerPool::WorkerPool(unsigned threads)
{
    const unsigned helpers = threads > 1 ? threads - 1 : 0;
    workers_.reserve(helpers);
    for (unsigned t = 0; t < helpers; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

unsigned
WorkerPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

void
WorkerPool::drain(const std::function<void(std::size_t)> &fn,
                  std::size_t count)
{
    for (;;) {
        std::size_t index;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (next_index_ >= count)
                return;
            index = next_index_++;
        }
        try {
            fn(index);
        } catch (...) {
            // Keep the first error for the caller and stop handing
            // out indices; helpers must not let it escape their loop.
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
            next_index_ = count;
        }
    }
}

void
WorkerPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        job_count_ = count;
        next_index_ = 0;
        active_ = static_cast<unsigned>(workers_.size());
        ++generation_;
    }
    start_cv_.notify_all();

    drain(fn, count);

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return active_ == 0; });
    job_ = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
WorkerPool::workerLoop()
{
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(std::size_t)> *job;
        std::size_t count;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stop_ || generation_ != seen_generation;
            });
            if (stop_)
                return;
            seen_generation = generation_;
            job = job_;
            count = job_count_;
        }

        drain(*job, count);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--active_ == 0)
                done_cv_.notify_all();
        }
    }
}

} // namespace eie::core::kernel
