/**
 * @file
 * core::CounterSink implemented over an obs::Registry shard: the
 * bridge the harness uses to pull a predictor bank's internal
 * counters (ValuePredictor::collectCounters) into a cell's registry.
 *
 * Header-only and trivially cheap — collection happens once per cell,
 * never per event. The sink writes to one Shard, so
 * construct it with registry->local() on the thread doing the
 * collection (the Shard threading contract).
 */

#ifndef VP_OBS_REGISTRY_SINK_HH
#define VP_OBS_REGISTRY_SINK_HH

#include "core/predictor.hh"
#include "obs/registry.hh"

namespace vp::obs {

class RegistrySink : public core::CounterSink
{
  public:
    explicit RegistrySink(Registry::Shard &shard) : shard_(shard) {}

    void
    counter(const std::string &name, uint64_t value) override
    {
        shard_.add(name, value);
    }

    void
    gauge(const std::string &name, uint64_t value) override
    {
        shard_.gauge(name, value);
    }

    void
    distribution(const std::string &name, uint64_t value,
                 uint64_t count) override
    {
        shard_.record(name, value, count);
    }

  private:
    Registry::Shard &shard_;
};

} // namespace vp::obs

#endif // VP_OBS_REGISTRY_SINK_HH
