/**
 * @file
 * Finite context method (FCM) predictors (Section 2.2 of the paper).
 */

#ifndef VP_CORE_FCM_HH
#define VP_CORE_FCM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/predictor.hh"

namespace vp::core {

/** How predictions of different orders are combined. */
enum class FcmBlending {
    /**
     * No blending: only the exact order-k context is consulted. An
     * order-k predictor then needs a full-length history before it can
     * match anything (used for the Table 1 / Figure 2 analyses).
     */
    None,

    /**
     * Blending with *lazy exclusion* (the paper's configuration): the
     * longest matching context of orders k..0 supplies the prediction,
     * and only the tables of that order and higher are updated.
     */
    LazyExclusion,

    /** Full blending: all orders 0..k are updated on every value. */
    Full
};

/** FCM configuration. */
struct FcmConfig
{
    /** Context length k: number of preceding values used. */
    int order = 3;

    FcmBlending blending = FcmBlending::LazyExclusion;

    /**
     * Counter ceiling. 0 means exact (unbounded) counts, the paper's
     * idealized configuration. A small positive value (say 15) enables
     * the text-compression trick: counts are allowed to reach the
     * ceiling, and when one would exceed it all counters of that
     * context are halved, weighting recent history more heavily.
     */
    uint32_t counterMax = 0;

    friend bool operator==(const FcmConfig &, const FcmConfig &) = default;
};

/**
 * Follower frequencies for one context of the bounded two-level
 * predictor (BoundedFcmPredictor). Counting, halving and tie-breaks
 * are FcmPredictor's: bounded_equivalence_test pins the two equal at
 * ample capacity, and fcm_oracle_test pins FcmPredictor to a naive
 * oracle.
 */
struct FcmFollowers
{
    struct Cell
    {
        uint64_t value;
        uint32_t count;
        uint64_t seq;       ///< recency stamp for tie-breaking
    };

    /**
     * Small-buffer cell sequence: the first kInline cells live inside
     * the followers object itself, spilling to the heap only beyond
     * that. Real contexts almost always have 1-2 distinct followers,
     * so keeping them inline means a bounded VPT entry carries its
     * cells in the same (huge-page-backed, prefetchable) table array —
     * a detached heap block per context would cost the hot replay loop
     * one more dependent cache-and-TLB miss per event.
     */
    class CellList
    {
      public:
        static constexpr uint32_t kInline = 2;

        CellList() = default;
        CellList(const CellList &other) { copyFrom(other); }
        CellList(CellList &&other) noexcept { moveFrom(other); }

        CellList &
        operator=(const CellList &other)
        {
            if (this != &other) {
                clear();
                copyFrom(other);
            }
            return *this;
        }

        CellList &
        operator=(CellList &&other) noexcept
        {
            if (this != &other) {
                clear();
                moveFrom(other);
            }
            return *this;
        }

        ~CellList() { delete[] heap_; }

        Cell *data() { return heap_ != nullptr ? heap_ : inline_; }
        const Cell *
        data() const
        {
            return heap_ != nullptr ? heap_ : inline_;
        }

        Cell *begin() { return data(); }
        Cell *end() { return data() + size_; }
        const Cell *begin() const { return data(); }
        const Cell *end() const { return data() + size_; }

        uint32_t size() const { return size_; }
        bool empty() const { return size_ == 0; }

        void
        push_back(const Cell &cell)
        {
            if (size_ == cap_)
                grow();
            data()[size_++] = cell;
        }

        /** Drop every cell matching @p pred, preserving order. */
        template <typename Pred>
        void
        eraseIf(Pred pred)
        {
            Cell *d = data();
            uint32_t kept = 0;
            for (uint32_t i = 0; i < size_; ++i) {
                if (!pred(d[i]))
                    d[kept++] = d[i];
            }
            size_ = kept;
        }

        void
        clear()
        {
            delete[] heap_;
            heap_ = nullptr;
            size_ = 0;
            cap_ = kInline;
        }

      private:
        void
        grow()
        {
            const uint32_t new_cap = cap_ * 2;
            Cell *bigger = new Cell[new_cap];
            const Cell *d = data();
            for (uint32_t i = 0; i < size_; ++i)
                bigger[i] = d[i];
            delete[] heap_;
            heap_ = bigger;
            cap_ = new_cap;
        }

        void
        copyFrom(const CellList &other)
        {
            size_ = other.size_;
            if (size_ > kInline) {
                heap_ = new Cell[other.cap_];
                cap_ = other.cap_;
            }
            const Cell *src = other.data();
            Cell *dst = data();
            for (uint32_t i = 0; i < size_; ++i)
                dst[i] = src[i];
        }

        void
        moveFrom(CellList &other) noexcept
        {
            heap_ = other.heap_;
            size_ = other.size_;
            cap_ = other.cap_;
            if (heap_ == nullptr) {
                for (uint32_t i = 0; i < size_; ++i)
                    inline_[i] = other.inline_[i];
            }
            other.heap_ = nullptr;
            other.size_ = 0;
            other.cap_ = kInline;
        }

        Cell inline_[kInline];
        Cell *heap_ = nullptr;
        uint32_t size_ = 0;
        uint32_t cap_ = kInline;
    };

    /**
     * Scanned linearly by bump() and best(). Every bounded spec caps
     * a list at maxFollowers = 4, which keeps a scan short; unbounded
     * lists grow with value diversity (to thousands of cells on some
     * PCs), so FcmPredictor indexes those instead.
     */
    CellList cells;

    /**
     * Record one occurrence of @p value following this context.
     *
     * @p counter_max is the FcmConfig ceiling (0 = exact counts):
     * when a count would exceed it, every counter is halved (zeros
     * pruned, except the cell just bumped, which stays at >= 1).
     * @p max_followers bounds the number of distinct follower cells
     * kept (0 = unbounded); when full, a new follower replaces the
     * lowest-count (ties: least recent) cell.
     */
    void bump(uint64_t value, uint64_t seq, uint32_t counter_max,
              uint32_t max_followers = 0);

    /** Best follower: max count, ties to the most recent. */
    const Cell *best() const;
};

/**
 * Order-k finite context method predictor.
 *
 * Per static PC the predictor keeps the k most recent values (the
 * context) and, for every order j <= k, the frequency of each value
 * that followed each observed length-j value pattern. Contexts are
 * matched exactly, so there is no aliasing between contexts
 * (Section 3).
 *
 * The predicted value is the one with the maximum count under the
 * longest matching context; ties go to the most recently observed
 * value. Cold entries decline to predict (counted as incorrect by the
 * evaluation harness, consistent with the paper's accounting).
 *
 * Layout. The contexts of all PCs form one trie in a flat array. A
 * context's key is (its parent, its newest value): the parent is the
 * same PC's context without that newest value, and a PC's order-0
 * context has the key (kNone, pc). Following the parents back spells
 * out the PC and every value, so this 12-byte key is exact at any
 * order. One open-addressing index maps keys to context ids and holds
 * the keys itself, so a probe reads the slot array only. Each PC
 * keeps the ids of its current context at every order, so matching
 * and training read them directly and do no probing. After training,
 * the next order-j context is the child of this event's order-(j-1)
 * context by the value just seen. That is one probe per order, which
 * inserts the context if it is new.
 *
 * Followers. A context holds its best follower's value and count, so
 * a prediction reads the context alone. While it has seen one value,
 * that follower is all there is; a second value moves the followers
 * to a FollowerList, a hash table of cells keyed by value. The best
 * is kept up to date on every bump: between halvings counts only
 * grow and the bumped cell has the newest stamp, so it becomes the
 * best iff its count reaches the best's. Only a halving
 * (counterMax != 0) rescans the cells, and a halving already touches
 * every cell. So each event costs O(order), however many distinct
 * followers its contexts have. The scalar predict()/update() pair and
 * trainBatch() both run on this one structure.
 */
class FcmPredictor : public ValuePredictor
{
  public:
    explicit FcmPredictor(FcmConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override { return contexts_; }

    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override
    {
        trainBatch(pcs, values, n, valid, correct);
    }

    /** Devirtualised batch loop over train(). */
    void trainBatch(const uint64_t *pcs, const uint64_t *values,
                    size_t n, uint64_t *valid, uint64_t *correct);

    /** Gauges `fcm.contexts`, `fcm.cells` and `fcm.followers.max`. */
    void collectCounters(CounterSink &sink) const override;

  private:
    /** No id: a free slot, or the parent of an order-0 context. */
    static constexpr uint32_t kNone = UINT32_MAX;

    /**
     * Open-addressing hash table of Slots: linear probing, a
     * power-of-two capacity, at most 3/4 full. A Slot names its key
     * with key(); a value-initialised Slot is free (empty()).
     */
    template <typename Slot>
    class FlatTable
    {
      public:
        using Key = decltype(std::declval<const Slot &>().key());

        /** The slot holding @p key, or nullptr. */
        const Slot *find(Key key) const;

        /** The slot holding @p key; failing that, the free slot
         *  where it belongs, now counted in size(), which the caller
         *  must fill with @p key. */
        Slot &claim(Key key);

        template <typename Visit>
        void
        forEach(Visit visit) const
        {
            for (const Slot &slot : slots_) {
                if (!slot.empty())
                    visit(slot);
            }
        }

        uint32_t size() const { return size_; }

      private:
        void grow();

        std::vector<Slot> slots_;
        uint32_t size_ = 0;
    };

    /** (parent, newest value): a context's exact key. */
    struct ContextKey
    {
        uint64_t value;
        uint32_t parent;

        bool operator==(const ContextKey &) const = default;
    };

    /** Maps a context key to the context's id in trie_. */
    struct ContextSlot
    {
        uint64_t value = 0;
        uint32_t parent = 0;
        uint32_t id = kNone;

        ContextKey key() const { return {value, parent}; }
        bool empty() const { return id == kNone; }
    };

    /** One PC: its row of current context ids, and how many history
     *  values it has seen, capped at the order. */
    struct PcSlot
    {
        uint64_t pc = 0;
        uint32_t row = kNone;
        uint32_t filled = 0;

        uint64_t key() const { return pc; }
        bool empty() const { return row == kNone; }
    };

    /** One follower value of a FollowerList. */
    struct Follower
    {
        uint64_t value = 0;
        uint64_t seq = 0;       ///< recency stamp for tie-breaking
        uint32_t count = 0;     ///< 0: a free slot

        uint64_t key() const { return value; }
        bool empty() const { return count == 0; }
    };

    using FollowerList = FlatTable<Follower>;

    /** One context's followers; its key is in trieIndex_. */
    struct Context
    {
        uint64_t value;         ///< best follower (the only one inline)
        uint64_t seq;           ///< the inline follower's stamp
        uint32_t count;         ///< best follower's count; 0: untrained
        uint32_t list;          ///< lists_ entry, or kNone: inline
    };

    /** Predict, then train, one event. Both the scalar and the
     *  batched path run exactly this. */
    Prediction train(uint64_t pc, uint64_t actual);

    /** The context (@p parent, @p value), created if new. */
    uint32_t child(uint32_t parent, uint64_t value);

    /** The row of a PC's current context ids, order 0 first. */
    uint32_t *row(uint32_t at) { return &ids_[at * stride()]; }
    const uint32_t *
    row(uint32_t at) const
    {
        return &ids_[at * stride()];
    }
    size_t stride() const { return static_cast<size_t>(config_.order) + 1; }

    /** Longest order with a trained context, or -1. */
    int longestMatch(const uint32_t *ids, int filled) const;

    /** Count one occurrence of @p value after context @p id. */
    void bump(uint32_t id, uint64_t value);

    /** The -sat rescaling of a context's FollowerList. */
    void halve(Context &context);

    FcmConfig config_;
    std::vector<Context> trie_;
    FlatTable<ContextSlot> trieIndex_;
    std::vector<FollowerList> lists_;
    FlatTable<PcSlot> pcs_;
    std::vector<uint32_t> ids_;     ///< stride() context ids per PC
    size_t contexts_ = 0;           ///< contexts with a follower
    uint64_t seq_ = 0;
};

} // namespace vp::core

#endif // VP_CORE_FCM_HH
