/**
 * @file
 * In-memory span log for the traced run.
 *
 * A span records one call into a layer: its name, start and end
 * (host time), the span that caused it and the cell it served. Each
 * worker thread owns one SpanLog, so recording takes no lock; the
 * logs are merged and written once, as Chrome trace-event JSON
 * (chrome://tracing and Perfetto open it), after the run ends.
 */

#ifndef SPK_PERFBENCH_SPANS_HH
#define SPK_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 for a root span
    unsigned tid = 0;
    long cell = -1; //!< expansion index of the cell served, or -1
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

/** One thread's spans, in the order they opened. */
class SpanLog
{
  public:
    explicit SpanLog(unsigned tid) : tid_(tid) {}

    const std::vector<Span> &spans() const { return spans_; }

    /** RAII span: opens on construction, closes on close() or at the
     *  end of its scope, whichever comes first. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, long cell = -1);
        ~Scope() { close(); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span (idempotent); returns its seconds. */
        double close();

      private:
        SpanLog &log_;
        std::size_t index_;
        bool open_ = true;
    };

  private:
    unsigned tid_;
    std::uint64_t nextId_ = 1;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_; //!< indices of open spans
};

/** Host time per span name: calls, total and self seconds (a span's
 *  duration minus the part its child spans cover). */
struct LayerTime
{
    std::uint64_t calls = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

std::map<std::string, LayerTime>
layerTimes(const std::vector<const SpanLog *> &logs);

/** Write every span as a Chrome trace-event JSON file; false if the
 *  file cannot be written. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs,
                      Clock::time_point origin);

} // namespace perfbench

#endif // SPK_PERFBENCH_SPANS_HH
