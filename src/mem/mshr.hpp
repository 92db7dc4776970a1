/**
 * @file
 * Miss Status Handling Register (MSHR) table.
 *
 * An MSHR tracks one outstanding line miss and the requests merged into
 * it. MSHRs are the paper's most commonly saturated cache-miss-related
 * resource: when the table (or an entry's merge list) is full, the
 * access suffers a reservation failure and the memory pipeline stalls.
 *
 * The table is the hottest lookup in the memory pipeline (every L1/L2
 * access probes it, often more than once), so it is stored as a flat
 * open-addressing hash table: one contiguous slot array, linear
 * probing with a deterministic multiply-shift hash, and backward-shift
 * deletion (no tombstones). Retired slots keep their merge-list
 * allocation; a merge list still grows past its retained capacity.
 * One merge (tryMerge) and one release, which hands the fill's
 * targets over in place. See DESIGN.md §14.2.
 */

#ifndef CKESIM_MEM_MSHR_HPP
#define CKESIM_MEM_MSHR_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace ckesim {

/**
 * MSHR table keyed by line number. @tparam Target is the per-merged-
 * request bookkeeping returned to the owner when the fill arrives.
 */
template <typename Target>
class MshrTable
{
  public:
    /** Outcome of a single-probe tryMerge(). */
    enum class MergeResult {
        NoEntry, ///< no outstanding miss for this line
        Full,    ///< entry exists but its merge list is full
        Merged,  ///< target appended to the outstanding miss
    };

    /**
     * @param num_entries table capacity (Table 1: 128 per SM/partition)
     * @param max_merge maximum requests merged into one entry
     */
    MshrTable(int num_entries, int max_merge)
        : capacity_(num_entries), max_merge_(max_merge)
    {
        // 2x headroom keeps linear-probe chains short at full
        // occupancy; the slot count is a power of two for mask math.
        std::size_t want =
            static_cast<std::size_t>(num_entries > 0 ? num_entries : 1)
            * 2;
        std::size_t n = 8;
        int log2n = 3;
        while (n < want) {
            n <<= 1;
            ++log2n;
        }
        slots_.resize(n);
        mask_ = n - 1;
        shift_ = 64 - log2n;
    }

    /** Is a miss for this line already outstanding? */
    bool
    pending(LineAddr line_number) const
    {
        return findSlot(line_number) != kNoSlot;
    }

    /** Is there room for a brand-new entry? */
    bool hasFree() const { return size_ < capacity_; }

    /** Allocate a new entry for @p line_number with one target. */
    void
    allocate(LineAddr line_number, Target target)
    {
        SIM_CHECK(hasFree(), ctx_,
                  "MSHR allocate with table full ("
                      << capacity_ << " entries)");
        std::size_t i = homeOf(line_number);
        while (slots_[i].used) {
            SIM_CHECK(slots_[i].line != line_number, ctx_,
                      "duplicate MSHR allocation for line "
                          << line_number);
            i = (i + 1) & mask_;
        }
        Slot &s = slots_[i];
        s.line = line_number;
        s.used = true;
        s.targets.clear(); // retains merge-list capacity
        s.targets.push_back(std::move(target));
        ++size_;
        ++allocated_;
    }

    /**
     * Append @p target to the outstanding miss for @p line_number if
     * one exists and has merge room, in one probe.
     */
    MergeResult
    tryMerge(LineAddr line_number, Target target)
    {
        const std::size_t i = findSlot(line_number);
        if (i == kNoSlot)
            return MergeResult::NoEntry;
        if (static_cast<int>(slots_[i].targets.size()) >= max_merge_)
            return MergeResult::Full;
        slots_[i].targets.push_back(std::move(target));
        return MergeResult::Merged;
    }

    /**
     * Retire the entry on fill and hand over its targets in merge
     * order, the allocating request's first. The span stays valid
     * until the next release(): the entry's merge list is swapped
     * into one member vector, not copied, and the retired slot keeps
     * the previous list's capacity. @pre an entry for @p line_number
     * exists.
     */
    std::span<const Target>
    release(LineAddr line_number)
    {
        const std::size_t i = findSlot(line_number);
        SIM_CHECK(i != kNoSlot, ctx_,
                  "fill for line " << line_number
                                   << " with no outstanding miss "
                                      "(dropped or duplicated fill)");
        handed_over_.swap(slots_[i].targets);
        eraseSlot(i);
        --size_;
        ++released_;
        return handed_over_;
    }

    /** Visit every outstanding entry (unspecified order). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                fn(s.line, s.targets);
    }

    int size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // ---- integrity layer ------------------------------------------------
    /** Attach failure context (owner's SM/module identity). */
    void setCheckContext(const SimCtx &ctx) { ctx_ = ctx; }

    /** Lifetime allocation / release totals (conservation ledger). */
    std::uint64_t totalAllocated() const { return allocated_; }
    std::uint64_t totalReleased() const { return released_; }

    /** Alloc/free balance: outstanding entries match the ledger. */
    void
    checkBalance(const SimCtx &ctx) const
    {
        SIM_INVARIANT(released_ <= allocated_, ctx,
                      "MSHR released " << released_
                                       << " exceeds allocated "
                                       << allocated_);
        SIM_INVARIANT(allocated_ - released_ ==
                          static_cast<std::uint64_t>(size_),
                      ctx,
                      "MSHR ledger imbalance: allocated="
                          << allocated_ << " released=" << released_
                          << " outstanding=" << size_);
        SIM_INVARIANT(size_ <= capacity_, ctx,
                      "MSHR occupancy " << size_
                                        << " exceeds capacity "
                                        << capacity_);
    }

    // ---- checkpointing --------------------------------------------------
    /**
     * Checkpoint walk (sim/snapshot.hpp): the outstanding entries in
     * sorted line order (slot order depends on insertion history and
     * must never reach the payload), then the lifetime ledger. On
     * load the entries are allocated and merged again. @p target
     * walks one Target: (archive, target).
     */
    template <class Ar, ObjectOf<MshrTable> Self, class Walk>
    static void
    state(Ar &ar, Self &self, const Walk &target)
    {
        ar.section("mshr");
        Entries entries;
        if constexpr (!Ar::kLoading)
            entries = self.sortedEntries();
        ar.length(entries, static_cast<std::size_t>(self.capacity_));
        for (auto &[line, targets] : entries) {
            ar.unit(line);
            ar.length(targets, static_cast<std::size_t>(self.max_merge_));
            for (Target &t : targets)
                target(ar, t);
        }
        if constexpr (Ar::kLoading)
            self.reload(entries);
        ar.u64(self.allocated_);
        ar.u64(self.released_);
    }

  private:
    struct Slot
    {
        LineAddr line{};
        std::vector<Target> targets;
        bool used = false;
    };

    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** (line, merged targets) per outstanding miss: the payload. */
    using Entries = std::vector<std::pair<LineAddr, std::vector<Target>>>;

    /** Deterministic multiply-shift hash: host-independent. */
    std::size_t
    homeOf(LineAddr line) const
    {
        const std::uint64_t h =
            static_cast<std::uint64_t>(line.get()) *
            0x9E3779B97F4A7C15ULL;
        return static_cast<std::size_t>(h >> shift_);
    }

    std::size_t
    findSlot(LineAddr line) const
    {
        std::size_t i = homeOf(line);
        while (slots_[i].used) {
            if (slots_[i].line == line)
                return i;
            i = (i + 1) & mask_;
        }
        return kNoSlot;
    }

    /** Outstanding (line, targets) entries in line order. */
    Entries
    sortedEntries() const
    {
        Entries out;
        out.reserve(static_cast<std::size_t>(size_));
        for (const Slot &s : slots_)
            if (s.used)
                out.emplace_back(s.line, s.targets);
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return out;
    }

    /** Replace the table's entries with @p entries (restore). */
    void
    reload(Entries &entries)
    {
        for (Slot &s : slots_) {
            s.used = false;
            s.targets.clear();
        }
        size_ = 0;
        for (auto &entry : entries) {
            const LineAddr line = entry.first;
            std::vector<Target> &targets = entry.second;
            SIM_CHECK(!targets.empty(), ctx_,
                      "snapshot MSHR entry for line "
                          << line << " has no targets");
            allocate(line, std::move(targets.front()));
            for (std::size_t j = 1; j < targets.size(); ++j) {
                const MergeResult merged =
                    tryMerge(line, std::move(targets[j]));
                SIM_CHECK(merged == MergeResult::Merged, ctx_,
                          "merge list overflow on line "
                              << line << " (max " << max_merge_ << ")");
            }
        }
    }

    /**
     * Backward-shift deletion: close the hole at @p hole by sliding
     * back any later chain member that hashes at or before it, so
     * lookups never need tombstones.
     */
    void
    eraseSlot(std::size_t hole)
    {
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask_;
            if (!slots_[j].used)
                break;
            const std::size_t home = homeOf(slots_[j].line);
            if (((j - home) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole].line = slots_[j].line;
                // Swap keeps both merge lists' capacity alive.
                std::swap(slots_[hole].targets, slots_[j].targets);
                slots_[hole].used = true;
                slots_[j].targets.clear();
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].targets.clear();
    }

    int capacity_;  // fixed at construction
    int max_merge_; // fixed at construction
    std::vector<Slot> slots_; ///< open-addressing flat table
    std::size_t mask_ = 0;    // fixed at construction
    int shift_ = 0;           // fixed at construction
    int size_ = 0;            ///< outstanding entries
    std::uint64_t allocated_ = 0;
    std::uint64_t released_ = 0;
    /** The last release()'s targets.
     *  SIMCHECK-ALLOW(snapshot-coverage): scratch; dead between fills */
    std::vector<Target> handed_over_;
    SimCtx ctx_; ///< diagnostic context, rebound by owner
};

} // namespace ckesim

#endif // CKESIM_MEM_MSHR_HPP
