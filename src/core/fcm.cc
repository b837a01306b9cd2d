#include "core/fcm.hh"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

namespace vp::core {

FcmPredictor::FcmPredictor(FcmConfig config) : config_(config)
{
    if (config_.order < 0)
        throw std::invalid_argument("fcm order must be non-negative");
}

void
FcmFollowers::bump(uint64_t value, uint64_t seq, uint32_t counter_max,
                   uint32_t max_followers)
{
    for (auto &cell : cells) {
        if (cell.value == value) {
            ++cell.count;
            cell.seq = seq;
            // Halve when a count would exceed (not reach) the
            // ceiling: counts can then saturate at counter_max
            // exactly, as a counter_max-wide hardware counter would,
            // and the just-bumped cell (now >= 2) always survives
            // the pruning — even with counter_max == 1.
            if (counter_max != 0 && cell.count > counter_max) {
                // Text-compression style rescaling: halve everything,
                // weighting recent behaviour more heavily.
                for (auto &c : cells)
                    c.count /= 2;
                cells.eraseIf(
                        [](const Cell &c) { return c.count == 0; });
            }
            return;
        }
    }
    if (max_followers != 0 && cells.size() >= max_followers) {
        // Follower list is at its capacity budget: replace the
        // weakest cell (lowest count, ties to the least recent).
        auto victim = cells.begin();
        for (auto it = cells.begin() + 1; it != cells.end(); ++it) {
            if (it->count < victim->count ||
                (it->count == victim->count && it->seq < victim->seq)) {
                victim = it;
            }
        }
        *victim = Cell{value, 1, seq};
        return;
    }
    cells.push_back(Cell{value, 1, seq});
}

const FcmFollowers::Cell *
FcmFollowers::best() const
{
    const Cell *best = nullptr;
    for (const auto &cell : cells) {
        if (best == nullptr || cell.count > best->count ||
            (cell.count == best->count && cell.seq > best->seq)) {
            best = &cell;
        }
    }
    return best;
}

namespace {

/** MurmurHash3's 64-bit finaliser of a value, or of a context key. */
template <typename Key>
size_t
hashOf(const Key &key)
{
    uint64_t x;
    if constexpr (std::is_integral_v<Key>)
        x = key;
    else
        x = key.value ^ (uint64_t{key.parent} * 0x9e3779b97f4a7c15ull);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
}

} // namespace

template <typename Slot>
const Slot *
FcmPredictor::FlatTable<Slot>::find(Key key) const
{
    if (slots_.empty())
        return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = hashOf(key) & mask;; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.empty())
            return nullptr;
        if (slot.key() == key)
            return &slot;
    }
}

template <typename Slot>
Slot &
FcmPredictor::FlatTable<Slot>::claim(Key key)
{
    // Growing before the probe may grow a table the key is already
    // in, at most once per doubling.
    if ((size_t{size_} + 1) * 4 > slots_.size() * 3)
        grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hashOf(key) & mask;; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.empty()) {
            ++size_;
            return slot;
        }
        if (slot.key() == key)
            return slot;
    }
}

template <typename Slot>
void
FcmPredictor::FlatTable<Slot>::grow()
{
    std::vector<Slot> old(std::max<size_t>(4, slots_.size() * 2));
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.empty())
            continue;
        size_t i = hashOf(slot.key()) & mask;
        while (!slots_[i].empty())
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

uint32_t
FcmPredictor::child(uint32_t parent, uint64_t value)
{
    ContextSlot &slot = trieIndex_.claim({value, parent});
    if (slot.empty()) {
        if (trie_.size() >= kNone)
            throw std::length_error("fcm: context ids exhausted");
        slot = ContextSlot{value, parent,
                           static_cast<uint32_t>(trie_.size())};
        trie_.push_back(Context{0, 0, 0, kNone});
    }
    return slot.id;
}

int
FcmPredictor::longestMatch(const uint32_t *ids, int filled) const
{
    const int lowest =
            config_.blending == FcmBlending::None ? config_.order : 0;
    for (int j = filled; j >= lowest; --j) {
        if (trie_[ids[j]].count != 0)
            return j;
    }
    return -1;
}

void
FcmPredictor::bump(uint32_t id, uint64_t value)
{
    Context &context = trie_[id];
    const uint32_t ceiling = config_.counterMax;
    if (context.count == 0) {
        context = Context{value, seq_, 1, kNone};
        ++contexts_;
        return;
    }
    if (context.list == kNone && context.value == value) {
        context.seq = seq_;
        // A lone follower's halving (see FcmFollowers::bump) keeps it.
        if (++context.count > ceiling && ceiling != 0)
            context.count /= 2;
        return;
    }
    if (context.list == kNone) {
        // A second follower value: both move to a list.
        context.list = static_cast<uint32_t>(lists_.size());
        lists_.emplace_back().claim(context.value) =
                Follower{context.value, context.seq, context.count};
    }
    Follower &follower = lists_[context.list].claim(value);
    follower.value = value;
    follower.seq = seq_;
    if (++follower.count > ceiling && ceiling != 0) {
        halve(context);
    } else if (follower.count >= context.count) {
        // The bumped follower has the newest stamp, so a tie goes to
        // it.
        context.value = value;
        context.count = follower.count;
    }
}

void
FcmPredictor::halve(Context &context)
{
    // As FcmFollowers::bump does: halve every count and drop the
    // zeros (the bumped follower, past the ceiling, survives). Then
    // rescan for the best and rebuild the smaller table.
    std::vector<Follower> kept;
    lists_[context.list].forEach([&](Follower follower) {
        follower.count /= 2;
        if (follower.count != 0)
            kept.push_back(follower);
    });
    FollowerList list;
    const Follower *best = &kept.front();
    for (const Follower &follower : kept) {
        list.claim(follower.value) = follower;
        if (follower.count > best->count ||
            (follower.count == best->count && follower.seq > best->seq))
            best = &follower;
    }
    lists_[context.list] = std::move(list);
    context.value = best->value;
    context.count = best->count;
}

Prediction
FcmPredictor::predict(uint64_t pc) const
{
    const PcSlot *slot = pcs_.find(pc);
    if (slot == nullptr)
        return Prediction::none();
    const uint32_t *ids = row(slot->row);
    const int match = longestMatch(ids, static_cast<int>(slot->filled));
    if (match < 0)
        return Prediction::none();
    return Prediction::of(trie_[ids[match]].value);
}

Prediction
FcmPredictor::train(uint64_t pc, uint64_t actual)
{
    PcSlot &slot = pcs_.claim(pc);
    if (slot.empty()) {
        slot = PcSlot{pc, static_cast<uint32_t>(ids_.size() / stride()), 0};
        ids_.resize(ids_.size() + stride(), kNone);
        row(slot.row)[0] = child(kNone, pc);
    }
    // Stable below: bump() and child() grow lists_ and trie_ only.
    uint32_t *const ids = row(slot.row);
    const int filled = static_cast<int>(slot.filled);
    const int match = longestMatch(ids, filled);
    const Prediction made = match < 0
                                    ? Prediction::none()
                                    : Prediction::of(trie_[ids[match]].value);

    // Lazy exclusion trains the matched order and everything above
    // it; full blending (and the no-blending configuration) trains
    // all orders it uses.
    int lowest = 0;
    switch (config_.blending) {
      case FcmBlending::None:
        lowest = config_.order;
        break;
      case FcmBlending::Full:
        lowest = 0;
        break;
      case FcmBlending::LazyExclusion:
        lowest = match < 0 ? 0 : match;
        break;
    }
    ++seq_;
    for (int j = filled; j >= lowest; --j)
        bump(ids[j], actual);

    // Slide the window: the next order-j context extends this
    // event's order-(j-1) one by @p actual. Descending, so each
    // parent is read before it is overwritten.
    const int next = std::min(filled + 1, config_.order);
    for (int j = next; j >= 1; --j)
        ids[j] = child(ids[j - 1], actual);
    slot.filled = static_cast<uint32_t>(next);
    return made;
}

void
FcmPredictor::update(uint64_t pc, uint64_t actual)
{
    train(pc, actual);
}

void
FcmPredictor::trainBatch(const uint64_t *pcs, const uint64_t *values,
                         size_t n, uint64_t *valid, uint64_t *correct)
{
    for (size_t i = 0; i < n; ++i) {
        const Prediction made = train(pcs[i], values[i]);
        if (made.valid) {
            bits::set(valid, i);
            if (made.value == values[i])
                bits::set(correct, i);
        }
    }
}

std::string
FcmPredictor::name() const
{
    std::string base = "fcm" + std::to_string(config_.order);
    switch (config_.blending) {
      case FcmBlending::None: return base + "-pure";
      case FcmBlending::Full: return base + "-full";
      case FcmBlending::LazyExclusion: return base;
    }
    return base;
}

void
FcmPredictor::reset()
{
    *this = FcmPredictor(config_);
}

void
FcmPredictor::collectCounters(CounterSink &sink) const
{
    uint64_t cells = 0;
    uint64_t longest = 0;
    for (const Context &context : trie_) {
        const uint64_t size = context.list != kNone
                                      ? lists_[context.list].size()
                                      : context.count != 0;
        cells += size;
        longest = std::max(longest, size);
    }
    sink.gauge("fcm.contexts", contexts_);
    sink.gauge("fcm.cells", cells);
    sink.gauge("fcm.followers.max", longest);
}

} // namespace vp::core
