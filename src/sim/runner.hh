/**
 * @file
 * Parallel experiment engine.
 *
 * A figure/table bench is a grid of independent design points
 * (workload × scheme × system knobs); each point is one self-contained
 * simulation. The Runner shards those simulations across a job-based
 * thread pool:
 *
 *   - Jobs are keyed by a config fingerprint; submitting the same design
 *     point twice is a no-op, and results are memoized for the lifetime of
 *     the Runner (this replaces the per-bench static result caches).
 *   - Traces are recorded once through the mutex-guarded cache in
 *     sim/experiment.cc and shared read-only across workers.
 *   - get() blocks until the job completes; if the job is still queued,
 *     the calling thread claims and runs it inline (work stealing), so a
 *     Runner with TLPSIM_JOBS=1 spawns no threads and degenerates to the
 *     old sequential behaviour.
 *   - Results are keyed, not ordered by completion: benches render their
 *     tables by iterating their own loops, so output is bit-identical
 *     regardless of worker count.
 *   - With a StorePolicy, each job first consults the persistent
 *     ResultStore: an ok row is deserialized and served without
 *     simulating; a miss (or a failure/quarantined row) simulates under
 *     an optional wall-clock watchdog and persists the outcome. A point
 *     that exceeds timeout_s gets one bounded retry, then is recorded
 *     as a structured failure and the sweep continues — outcome()
 *     exposes the per-point status without throwing.
 *
 * Worker count comes from TLPSIM_JOBS (default: hardware_concurrency).
 */

#ifndef TLPSIM_SIM_RUNNER_HH
#define TLPSIM_SIM_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/watchdog.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "store/result_store.hh"
#include "workloads/workload.hh"

namespace tlpsim::experiment
{

/** TLPSIM_JOBS (worker threads), default hardware_concurrency. Throws
 *  ConfigError, naming the variable, unless it is a positive 32-bit
 *  integer. */
unsigned jobsFromEnv();

/**
 * Revision of the simulated model. configKey() carries it, so a result
 * store or a Runner never serves a result an older model simulated for
 * the same configuration. Bump it in every change that moves results.
 * Revision 2: requests are accepted before they act, and count once.
 * Revision 3: the parallel graph build grew graph.cc, which moved every
 * recorded GAP PC (README "Bounded memory and determinism").
 * Revision 4: every recorded PC is its call site's fixed literal
 * (kernel code base plus offset), so every in-binary trace changed once.
 */
inline constexpr unsigned kModelRevision = 4;

/** Fingerprint of every SystemConfig field the simulation depends on
 *  (the serialized SystemConfig::effectiveConfig dump, which expands
 *  each deployed component's declared knob defaults), under the model
 *  revision that simulates it. */
std::string configKey(const SystemConfig &cfg);

/** The Runner key of a single-core design point — also the content
 *  address of its persistent store row and the input to the --shard
 *  partition, so every consumer agrees on what "the same point" means. */
std::string singlePointKey(const workloads::WorkloadSpec &w,
                           const SystemConfig &cfg);

/** The Runner key of a multi-core mix design point (cf. singlePointKey). */
std::string mixPointKey(const workloads::Mix &mix, const SystemConfig &cfg);

/** Persistence and robustness policy for a Runner's executed jobs.
 *  (Namespace-scope rather than nested so it can brace-default in the
 *  Runner constructor signature.) */
struct StorePolicy
{
    /** Persistent result store; null = in-process memoization only. */
    std::shared_ptr<store::ResultStore> store;
    /** Wall-clock budget per design point in seconds; 0 disables the
     *  watchdog. */
    double timeout_s = 0.0;
    /** Total attempts for a point that times out: the first run plus
     *  bounded retries (default: one retry — a wall-clock timeout is
     *  host noise as often as pathology, but retrying forever would
     *  re-wedge the grid). */
    unsigned timeout_attempts = 2;
};

class Runner
{
  public:
    using JobFn = std::function<SimResult()>;

    /** Status of one completed design point, without exception control
     *  flow: sweeps print failure rows and keep going. */
    struct Outcome
    {
        bool failed = false;
        std::optional<SimResult> result;   ///< set when !failed
        std::string error;        ///< failure description (failed only)
        unsigned attempts = 0;    ///< simulation attempts (0 = stored hit)
        bool from_store = false;  ///< served from the persistent store
    };

    /** One completed point, streamed to the completion observer. The
     *  references are only valid during the callback. */
    struct CompletionRecord
    {
        const std::string &key;
        const std::string &label;
        const Outcome &outcome;
    };
    using CompletionFn = std::function<void(const CompletionRecord &)>;

    explicit Runner(unsigned jobs = jobsFromEnv(), StorePolicy policy = {});
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Streaming observer invoked once per completed point (completion
     *  order, any worker thread; calls are serialized by the observer's
     *  own discipline — the CLI's JSONL writer locks internally). Set
     *  before the first submit(). */
    void setOnComplete(CompletionFn fn) { on_complete_ = std::move(fn); }

    /** Queue a keyed job. Returns false (and does nothing) if the key is
     *  already submitted, running, or done. @p label is a short
     *  human-readable point name for diagnostics and streamed output. */
    bool submit(const std::string &key, JobFn fn, std::string label = "");

    /** Block until the job for @p key is done; runs it inline if it is
     *  still queued. The reference stays valid for the Runner's life.
     *  Throws SimTimeoutError for a point recorded as a watchdog
     *  failure; use outcome() to handle failures without unwinding.
     *  Calling with a key that was never submitted is a programming
     *  error and throws std::logic_error naming the key — it can never
     *  block forever or return garbage. */
    const SimResult &get(const std::string &key);

    /** Block like get(), but report watchdog failures as data instead of
     *  throwing (non-timeout simulation errors still rethrow). The
     *  reference stays valid for the Runner's life. */
    const Outcome &outcome(const std::string &key);

    // ----- design-point helpers used by the bench binaries --------------

    /** Queue a single-core simulation of @p w under @p cfg. */
    void submitSingle(const workloads::WorkloadSpec &w,
                      const SystemConfig &cfg);

    /** Result of submitSingle (submits on demand). */
    const SimResult &single(const workloads::WorkloadSpec &w,
                            const SystemConfig &cfg);

    /** Queue a multi-core mix simulation (cfg.num_cores cores). */
    void submitMix(const std::vector<workloads::WorkloadSpec> &all,
                   const workloads::Mix &mix, const SystemConfig &cfg);

    /** Result of submitMix (submits on demand). */
    const SimResult &mix(const std::vector<workloads::WorkloadSpec> &all,
                         const workloads::Mix &mix, const SystemConfig &cfg);

    unsigned jobs() const { return jobs_; }

    // Sweep accounting (for resume/shard reporting and CI assertions):
    /** Points actually simulated in this process (not store-served). */
    std::size_t simulatedCount() const;
    /** Points served from the persistent store without simulating. */
    std::size_t storeHitCount() const;
    /** Points that ended as structured watchdog failures. */
    std::size_t failedCount() const;

    const StorePolicy &policy() const { return policy_; }

  private:
    enum class State
    {
        Pending,
        Running,
        Done,
    };

    struct Job
    {
        State state = State::Pending;
        JobFn fn;
        std::string label;
        std::exception_ptr error;   ///< a non-timeout simulation error
        Outcome outcome;
    };

    void workerLoop();
    /** Run @p job (must be Running); takes and restores @p lock. */
    void execute(const std::string &key, Job &job,
                 std::unique_lock<std::mutex> &lock);
    /** Wait until @p key's job is Done (work-stealing a Pending job);
     *  rethrows stored non-timeout errors. Returns the job. */
    Job &await(const std::string &key);

    unsigned jobs_;
    StorePolicy policy_;
    CompletionFn on_complete_;
    mutable std::mutex m_;
    std::condition_variable work_cv_;   ///< workers: queue non-empty / stop
    std::condition_variable done_cv_;   ///< get(): a job completed
    std::map<std::string, Job> map_;    ///< node-stable result storage
    std::deque<std::string> queue_;     ///< submission order
    bool stop_ = false;
    std::size_t simulated_ = 0;
    std::size_t store_hits_ = 0;
    std::size_t failed_ = 0;
    std::vector<std::thread> threads_;
};

/** Process-wide runner shared by the bench binaries. */
Runner &defaultRunner();

} // namespace tlpsim::experiment

#endif // TLPSIM_SIM_RUNNER_HH
