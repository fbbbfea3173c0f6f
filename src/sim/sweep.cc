#include "sim/sweep.hh"

#include <algorithm>
#include <cctype>
#include <limits>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace spk
{

namespace
{

bool
containsNoCase(const std::string &haystack, const std::string &needle)
{
    if (needle.empty())
        return true;
    const auto it = std::search(
        haystack.begin(), haystack.end(), needle.begin(), needle.end(),
        [](char a, char b) {
            return std::tolower(static_cast<unsigned char>(a)) ==
                   std::tolower(static_cast<unsigned char>(b));
        });
    return it != haystack.end();
}

/** Keep matching values; leave the axis untouched when nothing
 *  matches (the needle is aimed at some other axis). */
template <typename T, typename LabelFn>
void
filterAxis(std::vector<T> &values, const std::string &needle,
           LabelFn label)
{
    std::vector<T> kept;
    for (const auto &v : values) {
        if (containsNoCase(label(v), needle))
            kept.push_back(v);
    }
    if (!kept.empty() && kept.size() < values.size())
        values = std::move(kept);
}

std::vector<SweepPoint>
expandPoints(const SweepAxes &axes)
{
    std::vector<SweepPoint> points;
    points.reserve(axes.cellCount());
    for (const auto &trace : axes.traces) {
        for (const auto scheduler : axes.schedulers) {
            for (const auto seed : axes.seeds) {
                for (const auto &variant : axes.variants) {
                    for (const auto arbiter : axes.arbiters) {
                        for (const auto fault : axes.faults) {
                            for (const auto fid : axes.fidelities) {
                                SweepPoint p;
                                p.trace = trace;
                                p.scheduler = scheduler;
                                p.seed = seed;
                                p.variant = variant;
                                p.arbiter = arbiter;
                                p.fault = fault;
                                p.fidelity = fid;
                                p.index = points.size();
                                points.push_back(std::move(p));
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::vector<DeviceJob>
buildJobs(const std::vector<SweepPoint> &points,
          const SweepRunner::JobBuilder &build)
{
    std::vector<DeviceJob> jobs;
    jobs.reserve(points.size());
    for (const auto &p : points) {
        DeviceJob job = build(p);
        // The fidelity axis owns engine selection: stamping it here
        // keeps every existing job builder fidelity-agnostic.
        job.fidelity = p.fidelity;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace

SweepAxes
filterAxes(SweepAxes axes, const std::string &needle)
{
    if (needle.empty())
        return axes;
    filterAxis(axes.traces, needle,
               [](const std::string &s) { return s; });
    filterAxis(axes.schedulers, needle, [](SchedulerKind k) {
        return std::string(schedulerKindName(k));
    });
    filterAxis(axes.variants, needle,
               [](const std::string &s) { return s; });
    filterAxis(axes.arbiters, needle, [](ArbiterKind k) {
        return std::string(arbiterKindName(k));
    });
    filterAxis(axes.fidelities, needle, [](Fidelity f) {
        return std::string(fidelityName(f));
    });
    return axes;
}

SweepRunner::SweepRunner(SweepAxes axes, const JobBuilder &build)
    : axes_(std::move(axes)), points_(expandPoints(axes_)),
      array_(buildJobs(points_, build))
{
}

const std::vector<MetricsSnapshot> &
SweepRunner::run(unsigned threads, const Progress &progress)
{
    DeviceArrayHooks hooks;
    hooks.stop = progress.stop;
    hooks.order = progress.order;
    hooks.cache = progress.cache;
    std::size_t done = 0;
    if (progress.onCellDone) {
        // DeviceArray already serializes onDeviceDone, so the counter
        // needs no further synchronization.
        hooks.onDeviceDone = [this, &progress,
                              &done](std::size_t index,
                                     const MetricsSnapshot &) {
            progress.onCellDone(++done, points_.size(),
                                points_[index]);
        };
    }
    return array_.run(threads, hooks);
}

std::size_t
SweepRunner::indexOf(const std::string &trace, SchedulerKind scheduler,
                     std::uint64_t seed, const std::string &variant,
                     ArbiterKind arbiter, double fault,
                     Fidelity fidelity) const
{
    const auto axisIndex = [](const auto &values, const auto &value,
                              const char *axis) {
        const auto it =
            std::find(values.begin(), values.end(), value);
        if (it == values.end())
            fatal(std::string("SweepRunner: value not on the ") +
                  axis + " axis");
        return static_cast<std::size_t>(it - values.begin());
    };
    // The defaulted seed (0), variant ("") and arbiter (RoundRobin)
    // arguments address a single-value axis without naming its value;
    // anything else must match exactly.
    const std::size_t t = axisIndex(axes_.traces, trace, "trace");
    const std::size_t s =
        axisIndex(axes_.schedulers, scheduler, "scheduler");
    const std::size_t e = seed == 0 && axes_.seeds.size() == 1
                              ? 0
                              : axisIndex(axes_.seeds, seed, "seed");
    const std::size_t v =
        variant.empty() && axes_.variants.size() == 1
            ? 0
            : axisIndex(axes_.variants, variant, "variant");
    const std::size_t a =
        arbiter == ArbiterKind::RoundRobin &&
                axes_.arbiters.size() == 1
            ? 0
            : axisIndex(axes_.arbiters, arbiter, "arbiter");
    const std::size_t f =
        fault == 0.0 && axes_.faults.size() == 1
            ? 0
            : axisIndex(axes_.faults, fault, "fault");
    const std::size_t fi =
        fidelity == Fidelity::Exact && axes_.fidelities.size() == 1
            ? 0
            : axisIndex(axes_.fidelities, fidelity, "fidelity");
    return (((((t * axes_.schedulers.size() + s) *
                   axes_.seeds.size() +
               e) *
                  axes_.variants.size() +
              v) *
                 axes_.arbiters.size() +
             a) *
                axes_.faults.size() +
            f) *
               axes_.fidelities.size() +
           fi;
}

const MetricsSnapshot &
SweepRunner::at(const std::string &trace, SchedulerKind scheduler,
                std::uint64_t seed, const std::string &variant,
                ArbiterKind arbiter, double fault,
                Fidelity fidelity) const
{
    const std::size_t index = indexOf(trace, scheduler, seed,
                                      variant, arbiter, fault,
                                      fidelity);
    if (array_.results().size() != points_.size())
        fatal("SweepRunner: results accessed before run()");
    return array_.results()[index];
}

const std::vector<IoResult> &
SweepRunner::ioResultsAt(const std::string &trace,
                         SchedulerKind scheduler, std::uint64_t seed,
                         const std::string &variant,
                         ArbiterKind arbiter, double fault,
                         Fidelity fidelity) const
{
    const std::size_t index = indexOf(trace, scheduler, seed,
                                      variant, arbiter, fault,
                                      fidelity);
    if (array_.results().size() != points_.size())
        fatal("SweepRunner: results accessed before run()");
    return array_.ioResults(index);
}

const DeviceJob &
SweepRunner::jobAt(const std::string &trace, SchedulerKind scheduler,
                   std::uint64_t seed, const std::string &variant,
                   ArbiterKind arbiter, double fault,
                   Fidelity fidelity) const
{
    return array_.jobs()[indexOf(trace, scheduler, seed, variant,
                                 arbiter, fault, fidelity)];
}

MetricsSnapshot
SweepRunner::aggregate() const
{
    std::vector<MetricsSnapshot> completed;
    completed.reserve(points_.size());
    for (const auto &p : points_) {
        if (array_.completed(p.index))
            completed.push_back(array_.results()[p.index]);
    }
    return DeviceArray::aggregate(completed);
}

namespace
{

/** The sweep-point columns both CSVs lead with. */
constexpr const char *kPointColumns =
    "trace,scheduler,seed,variant,arbiter,fault,fidelity";

void
writePoint(std::ostream &os, const SweepPoint &p)
{
    os << p.trace << ',' << schedulerKindName(p.scheduler) << ','
       << p.seed << ',' << p.variant << ','
       << arbiterKindName(p.arbiter) << ',' << p.fault << ','
       << fidelityName(p.fidelity);
}

/** The CSV columns of @p S's field table, each after a comma. */
template <typename S>
void
writeColumns(std::ostream &os)
{
    S::forEachField([&os](const auto &row) {
        for (const std::string_view column : row.columns)
            os << ',' << column;
    });
}

/** @p s's value for each column of its field table, each after a
 *  comma. */
template <typename S>
void
writeValues(std::ostream &os, const S &s)
{
    S::forEachField([&os, &s](const auto &row) {
        using Row = std::remove_cvref_t<decltype(row)>;
        const auto &v = s.*row.member;
        if constexpr (Row::width == 1) {
            os << ',' << v;
        } else if constexpr (Row::width > 1) {
            for (std::size_t i = 0; i < Row::width; ++i)
                os << ',' << v[i];
        }
    });
}

} // namespace

void
SweepRunner::writeCsv(std::ostream &os) const
{
    if (array_.results().size() != points_.size() &&
        !points_.empty())
        fatal("SweepRunner: CSV requested before run()");
    os << kPointColumns << ",completed";
    writeColumns<MetricsSnapshot>(os);
    os << ",cell_seconds\n";
    // max_digits10: doubles must round-trip so a CSV diff catches
    // the same drift the golden bit-pattern digests do.
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    for (const auto &p : points_) {
        writePoint(os, p);
        os << ',' << (array_.completed(p.index) ? 1 : 0);
        writeValues(os, array_.results()[p.index]);
        // Last column on purpose: wall time is the one
        // nondeterministic field; byte-exact CSV diffs drop it by
        // stripping the final column.
        os << ','
           << (p.index < array_.cellSeconds().size()
                   ? array_.cellSeconds()[p.index]
                   : 0.0)
           << '\n';
    }
    os.precision(old_precision);
}

void
SweepRunner::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("SweepRunner: cannot open CSV file " + path);
    writeCsv(os);
}

void
SweepRunner::writeStreamCsv(std::ostream &os) const
{
    if (array_.results().size() != points_.size() && !points_.empty())
        fatal("SweepRunner: stream CSV requested before run()");
    os << kPointColumns;
    writeColumns<StreamMetrics>(os);
    os << '\n';
    const auto old_precision =
        os.precision(std::numeric_limits<double>::max_digits10);
    for (const auto &p : points_) {
        for (const auto &s : array_.results()[p.index].streams) {
            writePoint(os, p);
            writeValues(os, s);
            os << '\n';
        }
    }
    os.precision(old_precision);
}

void
SweepRunner::writeStreamCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("SweepRunner: cannot open stream CSV file " + path);
    writeStreamCsv(os);
}

} // namespace spk
