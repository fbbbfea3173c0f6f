#include "spans.hh"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench
{

SpanLog::Scope::Scope(SpanLog &log, const char *name, long cell)
    : log_(log), index_(log.spans_.size())
{
    Span span;
    span.name = name;
    // Thread id in the high bits keeps ids unique across merged logs.
    span.id = (static_cast<std::uint64_t>(log.tid_) << 40) |
              log.nextId_++;
    span.parent =
        log.open_.empty() ? 0 : log.spans_[log.open_.back()].id;
    span.tid = log.tid_;
    span.cell = cell;
    span.start = Clock::now();
    span.end = span.start;
    log.spans_.push_back(span);
    log.open_.push_back(index_);
}

double
SpanLog::Scope::close()
{
    if (open_) {
        log_.spans_[index_].end = Clock::now();
        log_.open_.pop_back();
        open_ = false;
    }
    return log_.spans_[index_].seconds();
}

std::map<std::string, LayerTime>
layerTimes(const std::vector<const SpanLog *> &logs)
{
    std::unordered_map<std::uint64_t, const Span *> byId;
    for (const auto *log : logs) {
        for (const auto &s : log->spans())
            byId[s.id] = &s;
    }
    std::map<std::string, LayerTime> out;
    for (const auto *log : logs) {
        for (const auto &s : log->spans()) {
            LayerTime &t = out[s.name];
            ++t.calls;
            t.totalSeconds += s.seconds();
            t.selfSeconds += s.seconds();
        }
    }
    // Children nest inside their parent on one thread, so the covered
    // part of the parent's interval is the sum of its children.
    for (const auto *log : logs) {
        for (const auto &s : log->spans()) {
            const auto parent = byId.find(s.parent);
            if (parent != byId.end())
                out[parent->second->name].selfSeconds -= s.seconds();
        }
    }
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs,
                 Clock::time_point origin)
{
    std::ofstream os(path);
    if (!os)
        return false;
    const auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    os << "{\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const auto *log : logs) {
        for (const auto &s : log->spans()) {
            std::snprintf(
                buf, sizeof buf,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"id\":%llu,\"parent\":%llu,\"cell\":%ld}}",
                first ? "" : ",", s.name, s.tid, us(s.start),
                us(s.end) - us(s.start),
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent), s.cell);
            os << buf;
            first = false;
        }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
