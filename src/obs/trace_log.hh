/**
 * @file
 * Chrome trace-event timeline log.
 *
 * Records named spans (complete "ph":"X" events in the trace-event
 * format) and renders them as a JSON document that chrome://tracing
 * and Perfetto load directly:
 *
 *   { "displayTimeUnit": "ms",
 *     "traceEvents": [
 *       {"name":"cell gcc", "cat":"cell", "ph":"X", "pid":1,
 *        "tid":2, "ts":123.4, "dur":567.8, "args":{...}},
 *       ... ] }
 *
 * The vpexp driver creates one TraceLog per run (--trace-json FILE)
 * and the scheduler / suite layers record spans for cells, trace
 * replays, trace-cache recordings and report generation through the
 * obs::Instrumentation handle. Timestamps are
 * microseconds since the log's construction (steady clock); tids are
 * small per-thread integers assigned on first use, with thread_name
 * metadata so the timeline groups by worker.
 *
 * Thread-safe: spans complete at cell/replay/report granularity
 * (hundreds per run), so a mutex per completed span is irrelevant to
 * replay performance and keeps the format code trivial.
 */

#ifndef VP_OBS_TRACE_LOG_HH
#define VP_OBS_TRACE_LOG_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.hh"

namespace vp::obs {

class TraceLog
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Optional key -> value annotations shown in the event's args. */
    using Args = std::vector<std::pair<std::string, std::string>>;

    TraceLog() : origin_(Clock::now()) {}
    TraceLog(const TraceLog &) = delete;
    TraceLog &operator=(const TraceLog &) = delete;

    /**
     * Record one complete span [@p start, @p end) on the calling
     * thread's timeline lane.
     */
    void complete(const std::string &name, const std::string &category,
                  Clock::time_point start, Clock::time_point end,
                  Args args = {});

    /**
     * RAII span: constructed at the start of the work, records the
     * complete event on destruction (or at close(), to attach args
     * computed during the work).
     */
    class Span
    {
      public:
        Span(TraceLog *log, std::string name, std::string category)
            : log_(log), name_(std::move(name)),
              category_(std::move(category)),
              start_(log ? Clock::now() : Clock::time_point{})
        {
        }

        Span(Span &&other) noexcept
            : log_(other.log_), name_(std::move(other.name_)),
              category_(std::move(other.category_)),
              start_(other.start_), args_(std::move(other.args_))
        {
            other.log_ = nullptr;
        }

        /** Closes the current span, then takes over @p other. */
        Span &
        operator=(Span &&other)
        {
            if (this != &other) {
                close();
                log_ = other.log_;
                name_ = std::move(other.name_);
                category_ = std::move(other.category_);
                start_ = other.start_;
                args_ = std::move(other.args_);
                other.log_ = nullptr;
            }
            return *this;
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        ~Span() { close(); }

        /** Annotate the span ("events" -> "81920", ...). */
        void
        arg(const std::string &key, const std::string &value)
        {
            if (log_ != nullptr)
                args_.emplace_back(key, value);
        }

        /** Record the span now instead of at destruction. */
        void
        close()
        {
            if (log_ == nullptr)
                return;
            log_->complete(name_, category_, start_, Clock::now(),
                           std::move(args_));
            log_ = nullptr;
        }

      private:
        TraceLog *log_;
        std::string name_;
        std::string category_;
        Clock::time_point start_;
        Args args_;
    };

    /**
     * Open a span on this log. A null @p log yields an inert span
     * (every method a no-op), so call sites need no null checks:
     * @code
     *   auto span = obs::TraceLog::span(log, "cell gcc", "cell");
     * @endcode
     */
    static Span
    span(TraceLog *log, std::string name, std::string category)
    {
        return Span(log, std::move(name), std::move(category));
    }

    size_t eventCount() const;

    /** Render the whole log as a chrome://tracing JSON document. */
    std::string render() const;

    /** render() to @p out. */
    void write(std::ostream &out) const;

  private:
    struct Event
    {
        std::string name;
        std::string category;
        double tsUs;        ///< microseconds since origin_
        double durUs;
        int tid;
        Args args;
    };

    /** Small per-thread lane id, assigned on first event. */
    int laneForThisThread() VP_REQUIRES(mutex_);

    Clock::time_point origin_;
    mutable util::Mutex mutex_;
    std::vector<Event> events_ VP_GUARDED_BY(mutex_);
    /** index = tid */
    std::vector<std::string> laneNames_ VP_GUARDED_BY(mutex_);
    std::map<std::thread::id, int> lanes_ VP_GUARDED_BY(mutex_);
};

} // namespace vp::obs

#endif // VP_OBS_TRACE_LOG_HH
