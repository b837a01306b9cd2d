/**
 * @file
 * The per-cell instrumentation handle: what the harness layers thread
 * through a replay so every observation point can stay a one-liner.
 *
 * A cell (one workload x predictor-bank run, see exp/experiment.hh)
 * gets at most one Instrumentation; a null pointer means "off" and
 * every helper below degenerates to nothing — the replay hot path
 * never sees the handle at all (tables and predictors keep plain
 * member counters that the harness *pulls* at cell boundaries), so
 * instrumentation off is byte- and time-identical to not having the
 * subsystem, which hotpath_guard_test pins.
 *
 * The handle bundles:
 *  - a Registry for the cell's counters/gauges/histograms (required);
 *  - an optional run-wide TraceLog for timeline spans.
 *
 * Threads that share one handle concurrently (runSuite workers) are
 * safe without atomics: the registry shards per thread.
 */

#ifndef VP_OBS_INSTRUMENTATION_HH
#define VP_OBS_INSTRUMENTATION_HH

#include "obs/registry.hh"
#include "obs/trace_log.hh"

namespace vp::obs {

class Instrumentation
{
  public:
    explicit Instrumentation(Registry *registry,
                             TraceLog *trace = nullptr)
        : registry_(registry), trace_(trace)
    {
    }

    Registry *registry() const { return registry_; }
    TraceLog *traceLog() const { return trace_; }

    void
    add(const std::string &name, uint64_t delta = 1)
    {
        if (registry_ != nullptr)
            registry_->add(name, delta);
    }

    void
    gauge(const std::string &name, uint64_t value)
    {
        if (registry_ != nullptr)
            registry_->gauge(name, value);
    }

    void
    record(const std::string &name, uint64_t value)
    {
        if (registry_ != nullptr)
            registry_->record(name, value);
    }

    /** A timeline span; inert when no trace log is attached. */
    TraceLog::Span
    span(std::string name, std::string category)
    {
        return TraceLog::span(trace_, std::move(name),
                              std::move(category));
    }

  private:
    Registry *registry_;
    TraceLog *trace_;
};

/** Null-safe helpers so call sites read as one line. */
inline void
add(Instrumentation *obs, const std::string &name, uint64_t delta = 1)
{
    if (obs != nullptr)
        obs->add(name, delta);
}

inline void
gauge(Instrumentation *obs, const std::string &name, uint64_t value)
{
    if (obs != nullptr)
        obs->gauge(name, value);
}

inline void
record(Instrumentation *obs, const std::string &name, uint64_t value)
{
    if (obs != nullptr)
        obs->record(name, value);
}

/** Span helper: inert when @p obs is null or has no trace log. */
inline TraceLog::Span
span(Instrumentation *obs, std::string name, std::string category)
{
    return TraceLog::span(obs != nullptr ? obs->traceLog() : nullptr,
                          std::move(name), std::move(category));
}

} // namespace vp::obs

#endif // VP_OBS_INSTRUMENTATION_HH
