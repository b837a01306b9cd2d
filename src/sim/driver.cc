#include "sim/driver.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/instrumentation.hh"

namespace vp::sim {

size_t
PredictorBank::add(core::PredictorPtr predictor)
{
    members_.push_back(EvaluatedPredictor{std::move(predictor), {}});
    return members_.size() - 1;
}

void
PredictorBank::trackOverlap(int n)
{
    if (n <= 0 || n > core::OverlapTracker::maxPredictors ||
        static_cast<size_t>(n) > members_.size()) {
        throw std::invalid_argument("trackOverlap: bad predictor count");
    }
    overlap_ = std::make_unique<core::OverlapTracker>(n);
}

void
PredictorBank::trackImprovement(size_t index_a, size_t index_b)
{
    if (index_a >= members_.size() || index_b >= members_.size())
        throw std::invalid_argument("trackImprovement: bad index");
    improvement_.emplace();
    improveA_ = index_a;
    improveB_ = index_b;
}

void
PredictorBank::trackValues()
{
    values_.emplace();
}

void
PredictorBank::onValue(const vm::TraceEvent &event)
{
    scratchCorrect_.reset(1, members_.size());
    uint64_t *correct_bits = scratchCorrect_.row(0);

    for (size_t i = 0; i < members_.size(); ++i) {
        auto &member = members_[i];
        const auto pred = member.predictor->predict(event.pc);
        const bool correct = pred.valid && pred.value == event.value;
        member.stats.record(event.cat, pred.valid, correct);
        if (correct)
            core::bits::set(correct_bits, i);
        member.predictor->update(event.pc, event.value);
    }

    if (overlap_) {
        uint32_t mask = 0;
        for (int i = 0; i < overlap_->numPredictors(); ++i) {
            if (core::bits::test(correct_bits, static_cast<size_t>(i)))
                mask |= 1u << i;
        }
        overlap_->record(event.cat, mask);
    }

    if (improvement_) {
        improvement_->record(event.pc, event.cat,
                             core::bits::test(correct_bits, improveA_),
                             core::bits::test(correct_bits, improveB_));
    }

    if (values_)
        values_->record(event.pc, event.cat, event.value);
}

void
PredictorBank::onBatch(vm::TraceSpan batch)
{
    const size_t n = batch.size();
    if (n == 0)
        return;

    // Deinterleave the events into parallel pc/value arrays so the
    // core layer consumes plain spans without depending on vm types.
    batchPcs_.resize(n);
    batchValues_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        batchPcs_[i] = batch[i].pc;
        batchValues_[i] = batch[i].value;
    }

    batchValid_.reset(members_.size(), n);
    batchCorrect_.reset(members_.size(), n);

    // One virtual dispatch per (member, batch); each family's
    // override runs its devirtualised inner loop.
    for (size_t m = 0; m < members_.size(); ++m) {
        members_[m].predictor->evalBatch(batchPcs_.data(),
                                         batchValues_.data(), n,
                                         batchValid_.row(m),
                                         batchCorrect_.row(m));
    }

    // Statistics and trackers are pure accumulators over the outcome
    // bits, so feeding them member-major here produces exactly the
    // state the event-major scalar loop builds.
    for (size_t m = 0; m < members_.size(); ++m) {
        auto &member = members_[m];
        const uint64_t *valid = batchValid_.row(m);
        const uint64_t *correct = batchCorrect_.row(m);
        for (size_t i = 0; i < n; ++i) {
            member.stats.record(batch[i].cat, core::bits::test(valid, i),
                                core::bits::test(correct, i));
        }
    }

    if (overlap_) {
        for (size_t i = 0; i < n; ++i) {
            uint32_t mask = 0;
            for (int m = 0; m < overlap_->numPredictors(); ++m) {
                if (core::bits::test(
                            batchCorrect_.row(static_cast<size_t>(m)),
                            i)) {
                    mask |= 1u << m;
                }
            }
            overlap_->record(batch[i].cat, mask);
        }
    }

    if (improvement_) {
        const uint64_t *a = batchCorrect_.row(improveA_);
        const uint64_t *b = batchCorrect_.row(improveB_);
        for (size_t i = 0; i < n; ++i) {
            improvement_->record(batch[i].pc, batch[i].cat,
                                 core::bits::test(a, i),
                                 core::bits::test(b, i));
        }
    }

    if (values_) {
        for (const auto &event : batch)
            values_->record(event.pc, event.cat, event.value);
    }
}

void
PredictorBank::collectCounters(core::CounterSink &sink) const
{
    for (const auto &member : members_)
        member.predictor->collectCounters(sink);
}

int
PredictorBank::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < members_.size(); ++i) {
        if (members_[i].predictor->name() == name)
            return static_cast<int>(i);
    }
    return -1;
}

void
replayTrace(const std::vector<vm::TraceEvent> &events,
            PredictorBank &bank)
{
    for (const auto &event : events)
        bank.onValue(event);
}

namespace {

/**
 * Close one telemetry window: sample every member's cumulative stats,
 * emit the delta against the previous boundary, advance the boundary.
 */
void
closeWindow(const PredictorBank &bank, WindowSeries &windows,
            uint64_t end_event,
            std::vector<WindowSample::Delta> &at_last_boundary)
{
    WindowSample sample;
    sample.endEvent = end_event;
    sample.members.resize(bank.size());
    for (size_t m = 0; m < bank.size(); ++m) {
        const core::PredictionStats &stats = bank.member(m).stats;
        WindowSample::Delta &prev = at_last_boundary[m];
        sample.members[m].eligible = stats.total() - prev.eligible;
        sample.members[m].predicted = stats.predicted() - prev.predicted;
        sample.members[m].correct = stats.correct() - prev.correct;
        prev = {stats.total(), stats.predicted(), stats.correct()};
    }
    windows.samples.push_back(std::move(sample));
}

} // anonymous namespace

uint64_t
replayTrace(vm::TraceBatchSource &source, PredictorBank &bank,
            obs::Instrumentation *obs, WindowSeries *windows)
{
    const uint64_t window_n =
            windows != nullptr ? windows->windowEvents : 0;
    std::vector<WindowSample::Delta> boundary(
            window_n != 0 ? bank.size() : 0);
    uint64_t n = 0;
    for (;;) {
        vm::TraceSpan span = source.nextBatch();
        if (span.empty())
            break;
        obs::add(obs, "replay.batches");
        obs::add(obs, "replay.events", span.size());
        obs::record(obs, "replay.batch_fill", span.size());
        while (!span.empty()) {
            size_t take = span.size();
            if (window_n != 0) {
                // Split at the boundary so windows close at exact
                // multiples of windowEvents regardless of how the
                // source batches events.
                const uint64_t room = window_n - n % window_n;
                take = static_cast<size_t>(
                        std::min<uint64_t>(take, room));
            }
            bank.onBatch(span.first(take));
            span = span.subspan(take);
            n += take;
            if (window_n != 0 && n % window_n == 0)
                closeWindow(bank, *windows, n, boundary);
        }
    }
    if (window_n != 0 && n % window_n != 0)
        closeWindow(bank, *windows, n, boundary);
    return n;
}

uint64_t
replayTrace(vm::TraceBatchSource &source, PredictorBank &bank)
{
    return replayTrace(source, bank, nullptr, nullptr);
}

void
replayTraceBatched(const std::vector<vm::TraceEvent> &events,
                   PredictorBank &bank, size_t batch)
{
    vm::VectorBatchSource source(events, batch);
    replayTrace(source, bank);
}

RunOutcome
runProgram(const isa::Program &prog, PredictorBank &bank,
           vm::MachineConfig config)
{
    vm::Machine machine(config);
    machine.setSink(&bank);

    RunOutcome outcome;
    outcome.workload = prog.name;
    outcome.vmResult = machine.run(prog);
    outcome.staticPredicted = prog.countPredictedStatic();
    for (int c = 0; c < isa::numCategories; ++c) {
        outcome.staticByCategory[c] =
                prog.countPredictedStatic(static_cast<isa::Category>(c));
    }

    if (!outcome.vmResult.ok()) {
        throw std::runtime_error(
                "workload '" + prog.name + "' did not halt cleanly: " +
                vm::exitReasonName(outcome.vmResult.reason) +
                (outcome.vmResult.diagnostic.empty()
                         ? "" : " (" + outcome.vmResult.diagnostic + ")"));
    }
    return outcome;
}

} // namespace vp::sim
