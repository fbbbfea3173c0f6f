#include "sim/device_array.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>

#include "sim/cell_cache.hh"
#include "sim/estimator.hh"
#include "sim/logging.hh"

namespace spk
{

const char *
fidelityName(Fidelity fidelity)
{
    switch (fidelity) {
      case Fidelity::Exact:
        return "exact";
      case Fidelity::Fast:
        return "fast";
    }
    return "?";
}

bool
parseFidelity(const std::string &name, Fidelity &out)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "exact") {
        out = Fidelity::Exact;
        return true;
    }
    if (lower == "fast") {
        out = Fidelity::Fast;
        return true;
    }
    return false;
}

CellOrderPolicy
costGuidedOrder()
{
    return [](const std::vector<DeviceJob> &jobs) {
        std::vector<double> cost(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            cost[i] = estimateJobCost(jobs[i]);
        std::vector<std::size_t> order(jobs.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        // Longest job first; stable index tiebreak keeps the order a
        // pure function of the job list.
        std::sort(order.begin(), order.end(),
                  [&cost](std::size_t a, std::size_t b) {
                      if (cost[a] != cost[b])
                          return cost[a] > cost[b];
                      return a < b;
                  });
        return order;
    };
}

namespace
{

/** Resolve the hook's policy and check it really permutes the jobs. */
std::vector<std::size_t>
resolveOrder(const DeviceArrayHooks &hooks,
             const std::vector<DeviceJob> &jobs)
{
    const std::vector<std::size_t> order =
        (hooks.order ? hooks.order : costGuidedOrder())(jobs);
    if (order.size() != jobs.size())
        fatal("DeviceArray: cell-order policy returned " +
              std::to_string(order.size()) + " indices for " +
              std::to_string(jobs.size()) + " jobs");
    std::vector<bool> seen(jobs.size(), false);
    for (const std::size_t i : order) {
        if (i >= jobs.size() || seen[i])
            fatal("DeviceArray: cell-order policy is not a "
                  "permutation (index " + std::to_string(i) + ")");
        seen[i] = true;
    }
    return order;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

DeviceArray::DeviceArray(std::vector<DeviceJob> jobs)
    : jobs_(std::move(jobs)),
      completed_(new std::atomic<std::uint8_t>[jobs_.size()]())
{
}

double
DeviceArray::runOne(std::size_t index, CellCache *cache)
{
    const auto start = std::chrono::steady_clock::now();
    const DeviceJob &job = jobs_[index];
    if (!job.streams.empty() && !job.trace.empty())
        fatal("DeviceArray: job has both a trace and streams — move "
              "the trace into a stream");
    // The cache stores snapshots only; a cell that wants its per-I/O
    // series must really simulate.
    const bool cacheable = cache && !job.captureIoResults;
    if (cacheable && cache->lookup(job, results_[index])) {
        cellSeconds_[index] = secondsSince(start);
        completed_[index].store(1, std::memory_order_release);
        return cellSeconds_[index];
    }
    if (job.fidelity == Fidelity::Fast) {
        // Analytic path: no event loop, no per-I/O series. Same
        // release/acquire contract as the exact path below.
        results_[index] = estimateDevice(job);
    } else {
        Ssd ssd(job.cfg);
        if (job.preconditionGc)
            ssd.preconditionForGc();
        if (!job.streams.empty())
            ssd.replayStreams(job.streams);
        else
            ssd.replay(job.trace);
        ssd.run();
        results_[index] = ssd.metrics();
        if (job.captureIoResults)
            ioResults_[index] = ssd.results();
    }
    if (cacheable)
        cache->store(job, results_[index]);
    cellSeconds_[index] = secondsSince(start);
    // Release pairs with the acquire in completed(): a concurrent
    // poller that sees the flag also sees the snapshot stores above.
    completed_[index].store(1, std::memory_order_release);
    return cellSeconds_[index];
}

const std::vector<MetricsSnapshot> &
DeviceArray::run(unsigned threads, const DeviceArrayHooks &hooks)
{
    results_.assign(jobs_.size(), MetricsSnapshot{});
    ioResults_.assign(jobs_.size(), {});
    cellSeconds_.assign(jobs_.size(), 0.0);
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        completed_[i].store(0, std::memory_order_relaxed);

    const auto stopped = [&hooks] {
        return hooks.stop &&
               hooks.stop->load(std::memory_order_relaxed);
    };

    const unsigned workers = std::max(
        1u, std::min(threads, static_cast<unsigned>(jobs_.size())));
    threadBusySeconds_.assign(workers, 0.0);
    const auto run_start = std::chrono::steady_clock::now();

    // The policy decides which cell a free worker picks up next;
    // results are indexed by cell, so this is wall-clock-only.
    const std::vector<std::size_t> order =
        jobs_.empty() ? std::vector<std::size_t>{}
                      : resolveOrder(hooks, jobs_);

    if (workers <= 1) {
        for (const std::size_t i : order) {
            if (stopped())
                break;
            threadBusySeconds_[0] += runOne(i, hooks.cache);
            if (hooks.onDeviceDone)
                hooks.onDeviceDone(i, results_[i]);
        }
        runWallSeconds_ = secondsSince(run_start);
        return results_;
    }

    // Fixed pool; each worker claims the next unstarted device from
    // an atomic cursor over the policy's order. Devices share nothing
    // mutable, so the claim order cannot influence any result. The
    // callback mutex only serializes observation.
    std::atomic<std::size_t> cursor{0};
    std::mutex done_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([this, w, &order, &cursor, &hooks, &stopped,
                           &done_mutex] {
            while (!stopped()) {
                const std::size_t slot =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (slot >= order.size())
                    return;
                const std::size_t i = order[slot];
                threadBusySeconds_[w] += runOne(i, hooks.cache);
                if (hooks.onDeviceDone) {
                    std::lock_guard<std::mutex> lock(done_mutex);
                    hooks.onDeviceDone(i, results_[i]);
                }
            }
        });
    }
    for (auto &t : pool)
        t.join();
    runWallSeconds_ = secondsSince(run_start);
    return results_;
}

std::size_t
DeviceArray::completedCount() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        count += completed(i) ? 1 : 0;
    return count;
}

namespace
{

/** A part's weight under a weighted-mean rule, as (weight, share):
 *  values accumulate as value * weight * share, in that order. */
template <Merge Rule, typename S>
std::pair<double, double>
partWeight(const S &m)
{
    const auto ios = static_cast<double>(m.iosCompleted);
    const double bytes = static_cast<double>(m.bytesRead + m.bytesWritten);
    const double read =
        bytes > 0.0 ? static_cast<double>(m.bytesRead) / bytes : 0.0;
    if constexpr (Rule == Merge::ReadShareWeightedMean)
        return {ios, read};
    else if constexpr (Rule == Merge::WriteShareWeightedMean)
        return {ios, 1.0 - read};
    else if constexpr (Rule == Merge::MakespanWeightedMean)
        return {static_cast<double>(m.makespan), 1.0};
    else if constexpr (Rule == Merge::RequestsWeightedMean)
        return {static_cast<double>(m.requestsServed), 1.0};
    else
        return {ios, 1.0};
}

/** What a weighted mean divides by: the merged integer count for the
 *  I/O- and request-weighted means, else the summed part weights. */
template <Merge Rule, typename S>
double
totalWeight(const S &agg, double summed)
{
    if constexpr (Rule == Merge::IoWeightedMean)
        return static_cast<double>(agg.iosCompleted);
    else if constexpr (Rule == Merge::RequestsWeightedMean)
        return static_cast<double>(agg.requestsServed);
    else
        return summed;
}

/** View a member as its elements: an array as itself, a scalar as a
 *  one-element span. */
template <typename T>
auto
elements(T &x)
{
    if constexpr (requires { x.size(); })
        return std::span(x);
    else
        return std::span<T, 1>(&x, 1);
}

template <typename S>
S mergeParts(const std::vector<const S *> &parts);

/** Merge per-stream slices by name, in order of first appearance
 *  (part order, then slice order). */
template <typename S, typename T>
std::vector<T>
mergeByName(const std::vector<const S *> &parts,
            std::vector<T> S::*member)
{
    std::vector<std::vector<const T *>> groups;
    for (const S *p : parts) {
        for (const T &slice : p->*member) {
            std::size_t g = 0;
            while (g < groups.size() && groups[g][0]->name != slice.name)
                ++g;
            if (g == groups.size())
                groups.emplace_back();
            groups[g].push_back(&slice);
        }
    }
    std::vector<T> merged;
    for (const auto &group : groups)
        merged.push_back(mergeParts(group));
    return merged;
}

/**
 * Fold @p parts (non-empty) through @p S's field table. One pass over
 * the parts, in order, applies each row's merge rule; weighted means
 * collect (value, weight) sums, one per element, which a second walk
 * of the table divides (leaving zero when nothing carries weight).
 */
template <typename S>
S
mergeParts(const std::vector<const S *> &parts)
{
    S agg;
    std::size_t means = 0;
    S::forEachField([&](const auto &row) {
        if constexpr (isWeightedMean(std::remove_cvref_t<decltype(row)>::merge))
            means += elements(agg.*row.member).size();
    });
    std::vector<std::pair<double, double>> sums(means);
    for (const S *p : parts) {
        std::size_t next = 0;
        S::forEachField([&](const auto &row) {
            using Row = std::remove_cvref_t<decltype(row)>;
            auto &out = agg.*row.member;
            const auto &in = p->*row.member;
            if constexpr (Row::merge == Merge::Key) {
                if (p == parts.front())
                    out = in;
            } else if constexpr (Row::merge == Merge::SameOrMixed) {
                if (p == parts.front())
                    out = in;
                else if (in != out)
                    out = "mixed";
            } else if constexpr (Row::merge == Merge::ByStreamName) {
                // Merged after the pass, across all parts at once.
            } else if constexpr (Row::merge == Merge::Max) {
                out = std::max(out, in);
            } else if constexpr (Row::merge == Merge::Sum) {
                const auto outs = elements(out);
                for (std::size_t i = 0; i < outs.size(); ++i)
                    outs[i] += elements(in)[i];
            } else {
                const auto [weight, share] = partWeight<Row::merge>(*p);
                for (const auto v : elements(in)) {
                    sums[next].first += static_cast<double>(v) * weight * share;
                    sums[next++].second += weight * share;
                }
            }
        });
    }
    std::size_t next = 0;
    S::forEachField([&](const auto &row) {
        using Row = std::remove_cvref_t<decltype(row)>;
        auto &out = agg.*row.member;
        if constexpr (Row::merge == Merge::ByStreamName) {
            out = mergeByName(parts, row.member);
        } else if constexpr (isWeightedMean(Row::merge)) {
            for (auto &o : elements(out)) {
                const auto [value, summed] = sums[next++];
                const double total = totalWeight<Row::merge>(agg, summed);
                if (total > 0.0)
                    o = static_cast<std::remove_cvref_t<decltype(o)>>(
                        value / total);
            }
        }
    });
    return agg;
}

} // namespace

MetricsSnapshot
DeviceArray::aggregate(const std::vector<MetricsSnapshot> &devices)
{
    if (devices.empty())
        return {};
    std::vector<const MetricsSnapshot *> parts;
    parts.reserve(devices.size());
    for (const MetricsSnapshot &m : devices)
        parts.push_back(&m);
    return mergeParts(parts);
}

} // namespace spk
