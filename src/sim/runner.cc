#include "sim/runner.hh"

#include <cstdio>
#include <stdexcept>

#include "common/diag.hh"
#include "common/watchdog.hh"

namespace tlpsim::experiment
{

unsigned
jobsFromEnv()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint32_t jobs = Config::fromEnvVar("TLPSIM_JOBS")
        .getUnsigned32("TLPSIM_JOBS", hw == 0 ? 1 : hw);
    if (jobs == 0)
        throw ConfigError("TLPSIM_JOBS: expected at least one worker "
                          "thread, got 0");
    return jobs;
}

std::string
configKey(const SystemConfig &cfg)
{
    // The full *effective* dump: every tunable field participates — with
    // each deployed component's subtree expanded to its declared schema
    // defaults overlaid with the configured knobs — so two design points
    // that differ anywhere (a tau, a queue depth, a component default
    // that changed between builds) can never share a memoized result.
    // The model revision re-keys every point when the model itself
    // changes under an unchanged configuration.
    return "model r" + std::to_string(kModelRevision) + "\n"
        + cfg.effectiveConfig().serialize();
}

Runner::Runner(unsigned jobs, StorePolicy policy)
    : jobs_(jobs == 0 ? 1 : jobs), policy_(std::move(policy))
{
    if (policy_.timeout_attempts == 0)
        policy_.timeout_attempts = 1;
    // With one job the caller thread does all the work in get(); spawning
    // a single worker would only add wakeup latency.
    if (jobs_ >= 2) {
        threads_.reserve(jobs_);
        for (unsigned i = 0; i < jobs_; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }
}

Runner::~Runner()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

bool
Runner::submit(const std::string &key, JobFn fn, std::string label)
{
    {
        std::lock_guard<std::mutex> lock(m_);
        auto [it, inserted] = map_.try_emplace(key);
        if (!inserted)
            return false;
        it->second.fn = std::move(fn);
        it->second.label = std::move(label);
        queue_.push_back(key);
    }
    work_cv_.notify_one();
    return true;
}

Runner::Job &
Runner::await(const std::string &key)
{
    std::unique_lock<std::mutex> lock(m_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        // Loud in every build type: an assert would be compiled out of
        // the default Release build and leave UB on a mis-keyed lookup,
        // and waiting on a job that will never exist would block forever.
        throw std::logic_error(
            "Runner::get()/outcome() for a key that was never submitted "
            "(" + std::to_string(map_.size()) + " job(s) are submitted; "
            "fingerprint " + store::fingerprintHex(key) + "): " + key);
    }
    Job &job = it->second;
    if (job.state == State::Pending) {
        // Work stealing: run the job on the calling thread. The stale
        // queue entry is skipped by workers (state != Pending).
        job.state = State::Running;
        execute(it->first, job, lock);
    } else {
        done_cv_.wait(lock, [&] { return job.state == State::Done; });
    }
    if (job.error)
        std::rethrow_exception(job.error);
    return job;
}

const SimResult &
Runner::get(const std::string &key)
{
    const Outcome &out = await(key).outcome;
    if (out.failed)
        throw SimTimeoutError(out.error);
    return *out.result;
}

const Runner::Outcome &
Runner::outcome(const std::string &key)
{
    return await(key).outcome;
}

void
Runner::execute(const std::string &key, Job &job,
                std::unique_lock<std::mutex> &lock)
{
    JobFn fn = std::move(job.fn);
    job.fn = nullptr;
    const std::string label = job.label;
    lock.unlock();

    Outcome out;
    std::exception_ptr error;

    // 1. Persistent-store hit: an ok row is the result — no simulation.
    //    A failure row (earlier run recorded a timeout) and a
    //    quarantined row (load() moved it aside) both fall through to
    //    recomputation, which is what makes --resume self-healing.
    if (policy_.store) {
        if (auto row = policy_.store->load(key)) {
            if (row->getString(store::kStatusKey, "") == store::kStatusOk) {
                try {
                    out.result = simResultFromConfig(*row);
                    out.from_store = true;
                } catch (const ConfigError &e) {
                    // Checksummed but undeserializable: a row written by
                    // an incompatible format revision. Recompute (and
                    // overwrite it below).
                    diag("store", "row for " + label
                                      + " is from an incompatible format ("
                                      + e.what() + "); recomputing");
                }
            }
        }
    }

    // 2. Simulate under the watchdog, with bounded timeout retries.
    if (!out.from_store) {
        for (;;) {
            ++out.attempts;
            if (policy_.timeout_s > 0.0)
                watchdog::arm(policy_.timeout_s);
            try {
                out.result = fn();
                watchdog::disarm();
                break;
            } catch (const SimTimeoutError &e) {
                watchdog::disarm();
                if (out.attempts >= policy_.timeout_attempts) {
                    out.failed = true;
                    out.error = std::string(e.what()) + " ("
                        + std::to_string(out.attempts) + " attempt(s))";
                    diag("watchdog", label + ": " + out.error
                                         + "; recording a failure row and "
                                           "continuing the sweep");
                    break;
                }
                diag("watchdog", label + ": " + e.what() + "; retrying ("
                                     + std::to_string(out.attempts + 1) + "/"
                                     + std::to_string(
                                           policy_.timeout_attempts)
                                     + ")");
            } catch (...) {
                // Non-timeout errors keep their PR-1 semantics: stored
                // and rethrown to every get()/outcome() caller.
                watchdog::disarm();
                error = std::current_exception();
                break;
            }
        }

        // 3. Persist the outcome (ok or structured failure).
        if (policy_.store && !error) {
            Config row;
            if (out.failed) {
                row.set(store::kStatusKey, store::kStatusFailed);
                row.set("error", out.error);
                row.set("attempts", out.attempts);
                row.set("timeout_s", policy_.timeout_s);
            } else {
                row = simResultToConfig(*out.result);
                row.set(store::kStatusKey, store::kStatusOk);
            }
            policy_.store->save(key, row);
        }
    }

    // 4. Stream the completion (outside the lock; the record's references
    //    are only promised for the duration of the call).
    if (on_complete_ && !error)
        on_complete_({key, label, out});

    lock.lock();
    if (out.from_store)
        ++store_hits_;
    else if (out.failed)
        ++failed_;
    else if (!error)
        ++simulated_;
    job.outcome = std::move(out);
    job.error = error;
    job.state = State::Done;
    done_cv_.notify_all();
}

void
Runner::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    while (true) {
        work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_)
            return;
        std::string key = std::move(queue_.front());
        queue_.pop_front();
        Job &job = map_.at(key);
        if (job.state != State::Pending)
            continue;   // claimed by a stealing get()
        job.state = State::Running;
        execute(key, job, lock);
    }
}

namespace
{

/** Short human-readable design-point label for progress logging. */
std::string
configSummary(const SystemConfig &cfg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s|%s|%uc|%llu+%llu",
                  cfg.scheme.name.c_str(),
                  cfg.l1_prefetcher.empty() ? "none"
                                            : cfg.l1_prefetcher.c_str(),
                  cfg.num_cores,
                  static_cast<unsigned long long>(cfg.warmup_instrs),
                  static_cast<unsigned long long>(cfg.sim_instrs));
    return buf;
}

void
logSim(const char *what, const std::string &name, const SystemConfig &cfg)
{
    std::fprintf(stderr, "  [sim %s] %-22s %s\n", what, name.c_str(),
                 configSummary(cfg).c_str());
}

} // namespace

std::string
singlePointKey(const workloads::WorkloadSpec &w, const SystemConfig &cfg)
{
    // pointName(), not name: a file workload keys by verified content
    // hash, so the same bytes under two paths share store rows and an
    // edited file never serves stale ones.
    return "1c|" + w.pointName() + "|" + configKey(cfg);
}

std::string
mixPointKey(const workloads::Mix &mix, const SystemConfig &cfg)
{
    return std::to_string(mix.cores()) + "c|" + mix.pointName() + "|"
        + configKey(cfg);
}

void
Runner::submitSingle(const workloads::WorkloadSpec &w,
                     const SystemConfig &cfg)
{
    submit(singlePointKey(w, cfg), [w, cfg] {
        logSim("1c", w.name, cfg);
        return runSingleCore(w, cfg);
    }, w.name + "|" + cfg.scheme.name);
}

const SimResult &
Runner::single(const workloads::WorkloadSpec &w, const SystemConfig &cfg)
{
    submitSingle(w, cfg);
    return get(singlePointKey(w, cfg));
}

void
Runner::submitMix(const std::vector<workloads::WorkloadSpec> &all,
                  const workloads::Mix &mix, const SystemConfig &cfg)
{
    submit(mixPointKey(mix, cfg), [all, mix, cfg] {
        logSim((std::to_string(mix.cores()) + "c").c_str(), mix.name, cfg);
        return runMix(all, mix, cfg);
    }, mix.name + "|" + cfg.scheme.name);
}

const SimResult &
Runner::mix(const std::vector<workloads::WorkloadSpec> &all,
            const workloads::Mix &mix, const SystemConfig &cfg)
{
    submitMix(all, mix, cfg);
    return get(mixPointKey(mix, cfg));
}

std::size_t
Runner::simulatedCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return simulated_;
}

std::size_t
Runner::storeHitCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return store_hits_;
}

std::size_t
Runner::failedCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return failed_;
}

Runner &
defaultRunner()
{
    static Runner runner;
    return runner;
}

} // namespace tlpsim::experiment
