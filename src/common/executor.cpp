#include "common/executor.hpp"

#include <algorithm>

namespace crispr::common {

namespace {

/** Which pool (if any) the current thread is a worker of. */
struct TlsWorker
{
    Executor *owner = nullptr;
    void *worker = nullptr;
};
thread_local TlsWorker tls_worker;

/** Rotating steal start so thieves don't all hammer worker 0. */
thread_local unsigned tls_rotor = 0;

std::chrono::steady_clock::time_point
now()
{
    return std::chrono::steady_clock::now();
}

} // namespace

Executor::Executor(ExecutorOptions options)
    : options_(options),
      tasks_(metrics_.counter("executor.tasks")),
      stealsCounter_(metrics_.counter("executor.steals")),
      droppedCounter_(metrics_.counter("executor.dropped")),
      queueDepth_(metrics_.gauge("executor.queue_depth")),
      waitSeconds_(metrics_.histogram("executor.wait_seconds"))
{
    const unsigned n = resolveThreads(options_.threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    for (unsigned i = 0; i < n; ++i)
        workers_[i]->thread =
            std::thread([this, i] { workerLoop(i); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    spaceCv_.notify_all();
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();

    // Fail every task that never ran so no future is abandoned.
    std::vector<Task> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Task &task : global_)
            orphans.push_back(std::move(task));
        global_.clear();
    }
    for (auto &worker : workers_) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        for (Task &task : worker->deque)
            orphans.push_back(std::move(task));
        worker->deque.clear();
    }
    pending_.store(0, std::memory_order_relaxed);
    for (Task &task : orphans) {
        droppedCounter_.inc();
        if (task.drop)
            task.drop(Error(ErrorCode::Cancelled,
                            "executor shut down with the task still "
                            "queued"));
    }
}

Executor &
Executor::shared()
{
    static Executor instance{ExecutorOptions{}};
    return instance;
}

unsigned
Executor::resolveThreads(unsigned requested)
{
    if (requested != 0)
        return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

void
Executor::workerLoop(size_t index)
{
    Worker *self = workers_[index].get();
    tls_worker = TlsWorker{this, self};
    tls_rotor = static_cast<unsigned>(index) + 1;
    for (;;) {
        // Checked before every dequeue, not just when idle: shutdown
        // lets the in-flight task finish but must not drain the
        // backlog — still-queued tasks are failed with Cancelled by
        // the destructor instead.
        if (stop_.load(std::memory_order_acquire))
            break;
        if (tryExecuteOne())
            continue;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::milliseconds(10), [this] {
            return stop_.load(std::memory_order_relaxed) ||
                   pending_.load(std::memory_order_relaxed) > 0;
        });
    }
    tls_worker = TlsWorker{};
}

void
Executor::enqueue(Task task, bool block_on_full)
{
    task.enqueued = now();
    if (tls_worker.owner == this) {
        // Nested submission from a worker: the task goes to the
        // worker's own (unbounded) deque, so a full injection queue
        // can never deadlock the pool against itself.
        auto *self = static_cast<Worker *>(tls_worker.worker);
        {
            std::lock_guard<std::mutex> lock(self->mutex);
            self->deque.push_back(std::move(task));
            pending_.fetch_add(1, std::memory_order_relaxed);
        }
        queueDepth_.set(static_cast<double>(
            pending_.load(std::memory_order_relaxed)));
        cv_.notify_one();
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (block_on_full) {
        spaceCv_.wait(lock, [this] {
            return stop_ || global_.size() < options_.queueBound;
        });
    } else if (!stop_ && global_.size() >= options_.queueBound) {
        // Best-effort submission (extra scan lanes): the caller makes
        // progress on its own, so a full queue just means fewer lanes.
        lock.unlock();
        droppedCounter_.inc();
        if (task.drop)
            task.drop(Error(ErrorCode::ResourceExhausted,
                            "executor queue full"));
        return;
    }
    if (stop_) {
        lock.unlock();
        droppedCounter_.inc();
        if (task.drop)
            task.drop(Error(ErrorCode::Cancelled,
                            "executor is shutting down"));
        return;
    }
    global_.push_back(std::move(task));
    pending_.fetch_add(1, std::memory_order_relaxed);
    queueDepth_.set(
        static_cast<double>(pending_.load(std::memory_order_relaxed)));
    cv_.notify_one();
}

bool
Executor::popOwn(Task &out)
{
    if (tls_worker.owner != this)
        return false;
    auto *self = static_cast<Worker *>(tls_worker.worker);
    std::lock_guard<std::mutex> lock(self->mutex);
    if (self->deque.empty())
        return false;
    // LIFO for the owner: newest first (cache warm).
    out = std::move(self->deque.back());
    self->deque.pop_back();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return true;
}

bool
Executor::popGlobal(Task &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (global_.empty())
        return false;
    out = std::move(global_.front());
    global_.pop_front();
    pending_.fetch_sub(1, std::memory_order_relaxed);
    spaceCv_.notify_one();
    return true;
}

bool
Executor::steal(Task &out)
{
    const size_t n = workers_.size();
    for (size_t i = 0; i < n; ++i) {
        Worker *victim = workers_[(tls_rotor + i) % n].get();
        if (victim == tls_worker.worker && tls_worker.owner == this)
            continue;
        std::lock_guard<std::mutex> lock(victim->mutex);
        if (victim->deque.empty())
            continue;
        // FIFO from the victim: oldest first.
        out = std::move(victim->deque.front());
        victim->deque.pop_front();
        pending_.fetch_sub(1, std::memory_order_relaxed);
        stealsCounter_.inc();
        ++tls_rotor;
        return true;
    }
    return false;
}

bool
Executor::tryExecuteOne()
{
    Task task;
    if (popOwn(task) || popGlobal(task) || steal(task)) {
        execute(std::move(task));
        return true;
    }
    return false;
}

void
Executor::noteDequeued(const Task &task)
{
    queueDepth_.set(
        static_cast<double>(pending_.load(std::memory_order_relaxed)));
    waitSeconds_.observe(
        std::chrono::duration<double>(now() - task.enqueued).count());
}

void
Executor::execute(Task task)
{
    noteDequeued(task);
    if (task.deadline.expired()) {
        droppedCounter_.inc();
        if (task.drop) {
            const bool cancelled = task.deadline.cancelled();
            task.drop(Error(cancelled ? ErrorCode::Cancelled
                                      : ErrorCode::DeadlineExceeded,
                            cancelled
                                ? "task cancelled before execution"
                                : "task deadline expired before "
                                  "execution"));
        }
        return;
    }
    tasks_.inc();
    task.run(); // never throws: submit/forIndices wrap the callable
}

size_t
Executor::forIndices(
    size_t n, unsigned lanes, TaskOptions opts,
    const std::function<bool(size_t index, unsigned lane)> &body)
{
    if (n == 0)
        return 0;
    lanes = std::max(1u, lanes);

    /** Shared loop state; helper lanes hold it via shared_ptr, so a
     *  lane that dequeues after the loop finished exits safely without
     *  touching the (long-gone) caller frame through `body`. */
    struct Loop
    {
        size_t n;
        std::function<bool(size_t, unsigned)> body;
        TraceSink *trace = nullptr;
        std::atomic<size_t> next{0};
        std::atomic<size_t> inflight{0};
        std::atomic<size_t> done{0};
        std::atomic<bool> stop{false};
        std::mutex mutex;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto loop = std::make_shared<Loop>();
    loop->n = n;
    loop->body = body;
    loop->trace = opts.trace;

    auto run_lane = [](Loop &state, unsigned lane) {
        for (;;) {
            // inflight is raised *before* the index grab, so the
            // joining caller can never observe "indices exhausted,
            // nothing in flight" while a lane holds an index.
            state.inflight.fetch_add(1, std::memory_order_acq_rel);
            bool grabbed = false;
            if (!state.stop.load(std::memory_order_acquire)) {
                const size_t w = state.next.fetch_add(
                    1, std::memory_order_relaxed);
                if (w < state.n) {
                    grabbed = true;
                    bool keep = false;
                    try {
                        // A helper lane's span ends before its
                        // inflight decrement, after which the caller's
                        // join may return and the sink go away.
                        TraceSpan span(lane > 0 ? state.trace : nullptr,
                                       "pool");
                        keep = state.body(w, lane);
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(state.mutex);
                        if (!state.error)
                            state.error = std::current_exception();
                    }
                    state.done.fetch_add(1,
                                         std::memory_order_relaxed);
                    if (!keep)
                        state.stop.store(true,
                                         std::memory_order_release);
                }
            }
            const size_t left = state.inflight.fetch_sub(
                                    1, std::memory_order_acq_rel) -
                                1;
            if (!grabbed || state.stop.load(std::memory_order_acquire)
                || state.next.load(std::memory_order_relaxed) >=
                       state.n) {
                if (left == 0) {
                    std::lock_guard<std::mutex> lock(state.mutex);
                    state.cv.notify_all();
                }
                if (!grabbed)
                    return;
            }
        }
    };

    const unsigned helper_lanes = static_cast<unsigned>(std::min(
        {static_cast<size_t>(lanes) - 1, n - 1, workers_.size()}));
    for (unsigned lane = 1; lane <= helper_lanes; ++lane) {
        Task task;
        task.deadline = opts.deadline;
        task.run = [loop, run_lane, lane] { run_lane(*loop, lane); };
        // No future behind helper lanes: a dropped lane just means
        // the remaining lanes (always including the caller) do the
        // work, so drop stays empty and enqueue never blocks.
        enqueue(std::move(task), /*block_on_full=*/false);
    }

    run_lane(*loop, 0);

    // Join the lanes that grabbed work, helping with unrelated pool
    // tasks meanwhile (a nested loop inside a saturated pool must not
    // park a worker). Lanes that never started will find the indices
    // exhausted and exit without calling body.
    auto finished = [&] {
        return loop->inflight.load(std::memory_order_acquire) == 0;
    };
    while (!finished()) {
        if (tryExecuteOne())
            continue;
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->cv.wait_for(lock, std::chrono::milliseconds(1),
                          finished);
    }
    if (loop->error)
        std::rethrow_exception(loop->error);
    return loop->done.load(std::memory_order_relaxed);
}

std::map<std::string, double>
Executor::metricsSnapshot() const
{
    return metrics_.toMap();
}

void
Executor::mergeMetricsInto(std::map<std::string, double> &out) const
{
    metrics_.mergeInto(out);
}

} // namespace crispr::common
