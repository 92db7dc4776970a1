/**
 * @file
 * Warp schedulers (Table 1: 4 Greedy-Then-Oldest schedulers per SM;
 * Loose Round Robin for the Section 4.3 sensitivity study).
 *
 * Warp slots are statically striped across schedulers (slot %
 * num_schedulers), as in GPGPU-Sim.
 */

#ifndef CKESIM_SM_SCHEDULER_HPP
#define CKESIM_SM_SCHEDULER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "sim/config.hpp"
#include "sim/snapshot.hpp"
#include "sm/warp.hpp"

namespace ckesim {

/** One issue slice of an SM. */
class WarpScheduler
{
  public:
    WarpScheduler(int id, int num_schedulers, int max_warps,
                  SchedPolicy policy);

    /**
     * Pick the warp slot to issue from this cycle, or
     * kInvalidWarpSlot.
     *
     * @param eligible bit j (of maskWords() words) is set iff slots()[j]
     *        is Ready *and* passes every structural/CKE gate for its
     *        next instruction
     * @param ages TB dispatch age per SM warp slot (GTO "oldest"; the
     *        SM passes its dense scan-age mirror, DESIGN.md §14)
     */
    WarpSlot pick(std::span<const std::uint64_t> eligible,
                  std::span<const std::uint64_t> ages);

    /** Record the issued slot (GTO greediness). */
    void onIssue(WarpSlot slot) { greedy_ = slot; }

    int id() const { return id_; }
    const std::vector<WarpSlot> &slots() const { return slots_; }

    /** Bit j of an eligible set is slots()[j]. */
    std::size_t
    bitOf(WarpSlot slot) const
    {
        return static_cast<std::size_t>((slot.get() - id_) / stride_);
    }

    /** 64-bit words in an eligible set. */
    std::size_t maskWords() const { return (slots_.size() + 63) / 64; }

    /** Checkpoint walk (sim/snapshot.hpp archives). */
    template <class Ar, ObjectOf<WarpScheduler> Self>
    static void
    state(Ar &ar, Self &self)
    {
        ar.id(self.greedy_);
        ar.u64(self.rr_next_);
    }

  private:
    int id_;                        // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    int stride_;                    // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    SchedPolicy policy_;            // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    std::vector<WarpSlot> slots_;   // SIMCHECK-ALLOW(snapshot-coverage): fixed at construction
    WarpSlot greedy_ = kInvalidWarpSlot;
    std::size_t rr_next_ = 0;
};

} // namespace ckesim

#endif // CKESIM_SM_SCHEDULER_HPP
