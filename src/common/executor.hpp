/**
 * @file
 * The execution layer: a process-wide, lazily-started work-stealing
 * thread pool shared by every parallel scan path (core::ChunkedScanner,
 * core::SearchService), so N concurrent requests
 * share one bounded set of workers instead of each spawning fresh
 * std::threads and oversubscribing the machine N-fold.
 *
 * Structure (see DESIGN.md "Execution layer"):
 *  - one deque per worker; the owner pushes/pops its back (LIFO, cache
 *    warm), idle workers steal from other deques' fronts (FIFO, oldest
 *    work first) — counted in the `executor.steals` metric;
 *  - a bounded global injection queue for external submitters; a full
 *    queue blocks submit() (backpressure) unless the caller is itself
 *    a pool worker, in which case the task goes to its own deque
 *    (unbounded) so nested submission can never self-deadlock;
 *  - task futures capture exceptions (future.get() rethrows);
 *  - a task carrying an expired Deadline at dequeue time is dropped
 *    without running: its future fails with DeadlineExceeded or
 *    Cancelled and `executor.dropped` counts it;
 *  - joins help: forIndices() and wait() execute pending pool tasks
 *    while they wait, so a worker blocked on nested work contributes
 *    instead of deadlocking the pool. Every pool task finishes on its
 *    own (no task waits on serving-side progress), so a helper may
 *    pick up any of them;
 *  - the destructor stops the workers (the in-flight task of each
 *    finishes), then fails every still-queued task with Cancelled —
 *    no future is ever abandoned, even at static teardown.
 *
 * `Executor::shared()` is the process-wide pool (hardware_concurrency
 * workers, constructed on first use); instanced pools exist for tests
 * and benchmarks. The single-thread scan path (`threads == 1`) never
 * touches the pool at all — the paper's single-core measurements stay
 * pool-free by construction.
 *
 * Metrics: `executor.tasks` (executed), `executor.steals`,
 * `executor.dropped`, `executor.queue_depth` (pending, sampled at
 * submit/dequeue), `executor.wait_seconds` (submit-to-dequeue
 * latency). A task submitted with a TraceSink records a `pool` span
 * around its execution.
 */

#ifndef CRISPR_COMMON_EXECUTOR_HPP_
#define CRISPR_COMMON_EXECUTOR_HPP_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace crispr::common {

/** Pool shape; fixed for the pool's lifetime. */
struct ExecutorOptions
{
    /** Worker threads; 0 = hardware_concurrency (at least 1). */
    unsigned threads = 0;
    /**
     * Bound of the global injection queue. An external submit() past
     * the bound blocks until a worker drains (backpressure); worker
     * threads bypass the bound via their own deques.
     */
    size_t queueBound = 4096;
};

/** Per-task options. */
struct TaskOptions
{
    /** Expired at dequeue time => the task is dropped, not run. */
    Deadline deadline;
    /**
     * When set, execution records a `pool` span into this sink (for
     * forIndices, one per index a helper lane runs). Each span ends
     * before the submitter can observe the work complete, so the
     * sink need only outlive that wait.
     */
    TraceSink *trace = nullptr;
};

/** The work-stealing pool. */
class Executor
{
  public:
    explicit Executor(ExecutorOptions options = {});

    /**
     * Stops the workers (each finishes its in-flight task), joins
     * them, then fails every still-queued task with Cancelled.
     */
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * The process-wide pool every scan path schedules onto
     * (hardware_concurrency workers), constructed on first use and
     * shut down cleanly before static teardown unwinds past it.
     */
    static Executor &shared();

    /**
     * Resolve a worker-thread request: 0 = hardware_concurrency (at
     * least 1), n = n. The one implementation of the 0-means-all-cores
     * convention — every scan path resolves through here, and because
     * the resolved lanes are pool *tasks* rather than fresh threads,
     * nested parallel scans cannot multiply OS thread counts.
     */
    static unsigned resolveThreads(unsigned requested);

    /**
     * Schedule `fn`; the future rethrows anything `fn` throws. Blocks
     * for queue space when called from outside the pool and the
     * injection queue is full.
     */
    template <typename F>
    auto
    submit(F &&fn, TaskOptions opts = {})
        -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto promise = std::make_shared<std::promise<R>>();
        std::future<R> fut = promise->get_future();
        Task task;
        task.deadline = opts.deadline;
        task.run = [promise, trace = opts.trace,
                    fn = std::forward<F>(fn)]() mutable {
            try {
                // The span ends before the future is ready: the sink
                // is the submitter's, which may destroy it as soon as
                // it sees the result.
                TraceSpan span(trace, "pool");
                if constexpr (std::is_void_v<R>) {
                    fn();
                    span.finish();
                    promise->set_value();
                } else {
                    R value = fn();
                    span.finish();
                    promise->set_value(std::move(value));
                }
            } catch (...) {
                promise->set_exception(std::current_exception());
            }
        };
        task.drop = [promise](Error error) {
            promise->set_exception(std::make_exception_ptr(
                ErrorException(std::move(error))));
        };
        enqueue(std::move(task), /*block_on_full=*/true);
        return fut;
    }

    /**
     * Run `body(index, lane)` for every index in [0, n): the calling
     * thread is lane 0 and up to `lanes - 1` pool tasks join as extra
     * lanes, so the loop makes progress even when the pool is
     * saturated — and a loop running inside a pool worker borrows
     * idle workers instead of spawning threads. Lane ids are dense in
     * [0, lanes) and each lane is one thread of control, so per-lane
     * scratch (scanner clones, event buffers) indexed by lane is
     * race-free. `body` returning false stops further index grabs
     * (deadline/failure); indices already grabbed still complete.
     * Returns the number of indices actually run. The caller helps
     * execute unrelated pool tasks while it waits for its own lanes
     * to finish, which is what makes nested joins deadlock-free.
     */
    size_t forIndices(
        size_t n, unsigned lanes, TaskOptions opts,
        const std::function<bool(size_t index, unsigned lane)> &body);

    /**
     * Help execute pool tasks until `fut` is ready (deadlock-free
     * join usable from inside a pool worker). With nothing to run, it
     * blocks on `fut` for up to 200 µs before looking again, so a
     * future that becomes ready wakes the wait at once.
     */
    template <typename T>
    void
    wait(std::future<T> &fut)
    {
        while (fut.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!tryExecuteOne())
                fut.wait_for(std::chrono::microseconds(200));
        }
    }

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }
    /** Tasks queued but not yet started. */
    size_t pendingCount() const
    {
        return pending_.load(std::memory_order_relaxed);
    }
    uint64_t tasksExecuted() const { return tasks_.value(); }
    uint64_t steals() const { return stealsCounter_.value(); }
    uint64_t dropped() const { return droppedCounter_.value(); }

    /** executor.* metrics (tasks, steals, dropped, queue_depth,
     *  wait_seconds.*). */
    std::map<std::string, double> metricsSnapshot() const;
    void mergeMetricsInto(std::map<std::string, double> &out) const;

  private:
    struct Task
    {
        std::function<void()> run;
        std::function<void(Error)> drop; //!< fail the future instead
        Deadline deadline;
        std::chrono::steady_clock::time_point enqueued;
    };

    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> deque;
        std::thread thread;
    };

    void workerLoop(size_t index);
    void enqueue(Task task, bool block_on_full);
    /** Pop/steal one task and execute (or drop) it. */
    bool tryExecuteOne();
    bool popOwn(Task &out);
    bool popGlobal(Task &out);
    bool steal(Task &out);
    void execute(Task task);
    void noteDequeued(const Task &task);

    const ExecutorOptions options_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::mutex mutex_; //!< global queue + sleep/wake + stop
    std::condition_variable cv_;      //!< wakes idle workers
    std::condition_variable spaceCv_; //!< wakes blocked submitters
    std::deque<Task> global_;
    std::atomic<bool> stop_{false};
    std::atomic<size_t> pending_{0}; //!< queued, not yet started

    mutable MetricsRegistry metrics_;
    Counter tasks_;
    Counter stealsCounter_;
    Counter droppedCounter_;
    Gauge queueDepth_;
    Histogram waitSeconds_;
};

} // namespace crispr::common

#endif // CRISPR_COMMON_EXECUTOR_HPP_
