/**
 * @file
 * A deliberately naive finite context method predictor (Section 2.2
 * of the paper) for differential testing of core::FcmPredictor: every
 * context is a std::map key spelling out (pc, order, values), every
 * follower list a std::vector scanned end to end. Slow, and easy to
 * check by reading.
 */

#ifndef VP_TESTS_ORACLE_FCM_ORACLE_HH
#define VP_TESTS_ORACLE_FCM_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fcm.hh"

namespace vp::oracle {

class FcmOracle : public core::ValuePredictor
{
  public:
    explicit FcmOracle(core::FcmConfig config) : config_(config) {}

    core::Prediction
    predict(uint64_t pc) const override
    {
        const Cell *best = nullptr;
        const auto it = history_.find(pc);
        if (it != history_.end()) {
            const int match = longestMatch(pc, it->second);
            if (match >= 0)
                best = bestOf(contexts_.at(key(pc, it->second, match)));
        }
        return best == nullptr ? core::Prediction::none()
                               : core::Prediction::of(best->value);
    }

    void
    update(uint64_t pc, uint64_t actual) override
    {
        std::vector<uint64_t> &history = history_[pc];
        const int top =
                std::min<int>(config_.order,
                              static_cast<int>(history.size()));
        int lowest = 0;
        if (config_.blending == core::FcmBlending::None)
            lowest = config_.order;
        else if (config_.blending == core::FcmBlending::LazyExclusion)
            lowest = std::max(0, longestMatch(pc, history));

        ++seq_;
        for (int j = top; j >= lowest; --j)
            bump(contexts_[key(pc, history, j)], actual);

        history.push_back(actual);
        if (static_cast<int>(history.size()) > config_.order)
            history.erase(history.begin());
    }

    std::string name() const override { return "fcm-oracle"; }

    void reset() override { *this = FcmOracle(config_); }

    size_t tableEntries() const override { return contexts_.size(); }

  private:
    struct Cell
    {
        uint64_t value;
        uint32_t count;
        uint64_t seq;
    };

    /** (pc, j, the j newest history values, oldest first). */
    static std::vector<uint64_t>
    key(uint64_t pc, const std::vector<uint64_t> &history, int j)
    {
        std::vector<uint64_t> k{pc, static_cast<uint64_t>(j)};
        k.insert(k.end(), history.end() - j, history.end());
        return k;
    }

    /** Longest order with a known context, or -1. */
    int
    longestMatch(uint64_t pc, const std::vector<uint64_t> &history) const
    {
        const int top =
                std::min<int>(config_.order,
                              static_cast<int>(history.size()));
        const int bottom = config_.blending == core::FcmBlending::None
                                   ? config_.order
                                   : 0;
        for (int j = top; j >= bottom; --j) {
            if (contexts_.count(key(pc, history, j)) != 0)
                return j;
        }
        return -1;
    }

    /** Highest count; ties go to the most recently seen value. */
    static const Cell *
    bestOf(const std::vector<Cell> &cells)
    {
        const Cell *best = nullptr;
        for (const Cell &cell : cells) {
            if (best == nullptr || cell.count > best->count ||
                (cell.count == best->count && cell.seq > best->seq))
                best = &cell;
        }
        return best;
    }

    /** Count @p value; past counterMax, halve every count and drop
     *  the zeros (the bumped cell, at counterMax + 1, survives). */
    void
    bump(std::vector<Cell> &cells, uint64_t value)
    {
        for (Cell &cell : cells) {
            if (cell.value != value)
                continue;
            cell.seq = seq_;
            if (++cell.count > config_.counterMax && config_.counterMax != 0) {
                for (Cell &c : cells)
                    c.count /= 2;
                std::erase_if(cells,
                              [](const Cell &c) { return c.count == 0; });
            }
            return;
        }
        cells.push_back(Cell{value, 1, seq_});
    }

    core::FcmConfig config_;
    std::map<std::vector<uint64_t>, std::vector<Cell>> contexts_;
    std::map<uint64_t, std::vector<uint64_t>> history_;
    uint64_t seq_ = 0;
};

} // namespace vp::oracle

#endif // VP_TESTS_ORACLE_FCM_ORACLE_HH
