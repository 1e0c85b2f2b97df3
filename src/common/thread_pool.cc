#include "common/thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

namespace rm {

ThreadPool::ThreadPool(int threads)
{
    if (threads < 1)
        threads = 1;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cv.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(task));
    }
    cv.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return;  // stopping and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool([] {
        if (const char *env = std::getenv("RM_THREADS")) {
            try {
                const int n = std::stoi(env);
                if (n > 0)
                    return n;
            } catch (const std::exception &) {
                // Malformed values fall through to the hardware width;
                // a tuning knob must never make a run fail.
            }
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<int>(hw);
    }());
    return pool;
}

namespace {

/**
 * State of one parallelFor() batch, shared between the caller and any
 * pool workers that pick up helper tasks. Kept alive by shared_ptr:
 * a helper scheduled after the batch drained still touches the
 * counters (and immediately exits) after the caller has returned.
 */
struct Batch
{
    std::function<void(int)> body;
    int n = 0;
    std::atomic<int> next{0};       ///< next iteration to claim
    std::atomic<int> completed{0};  ///< iterations finished (or skipped)
    std::atomic<bool> stop{false};  ///< set on first exception
    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
};

/**
 * Claim-and-run loop every participant executes. Each of the n
 * iterations is claimed exactly once and bumps `completed` exactly
 * once (skipped iterations after an error included), so completed == n
 * is the batch-done condition the caller waits on.
 */
void
runBatch(const std::shared_ptr<Batch> &batch)
{
    for (;;) {
        const int i = batch->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch->n)
            return;
        if (!batch->stop.load(std::memory_order_relaxed)) {
            try {
                batch->body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(batch->mutex);
                if (!batch->error)
                    batch->error = std::current_exception();
                batch->stop.store(true, std::memory_order_relaxed);
            }
        }
        if (batch->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            batch->n) {
            std::lock_guard<std::mutex> lock(batch->mutex);
            batch->cv.notify_all();
        }
    }
}

} // namespace

void
parallelFor(int n, const std::function<void(int)> &body, int threads)
{
    if (n <= 0)
        return;
    if (n == 1 || threads == 1) {
        for (int i = 0; i < n; ++i)
            body(i);
        return;
    }

    ThreadPool &pool = ThreadPool::shared();
    int width = threads == 0 ? pool.size() + 1 : threads;
    if (width > n)
        width = n;

    auto batch = std::make_shared<Batch>();
    batch->body = body;
    batch->n = n;

    // One participant is the calling thread; the rest are helper tasks
    // that may or may not run before the batch drains.
    for (int i = 0; i < width - 1; ++i)
        pool.submit([batch] { runBatch(batch); });
    runBatch(batch);

    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->cv.wait(lock, [&] {
        return batch->completed.load(std::memory_order_acquire) == batch->n;
    });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace rm
