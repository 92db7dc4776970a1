/**
 * @file
 * MILG — Memory Instruction Limiting number Generator (Figure 10).
 *
 * The hardware consists of one 7-bit peak in-flight memory instruction
 * counter, one 12-bit reservation-failure counter, one 10-bit memory
 * request counter and a 10-bit right shifter. Every 1024 memory
 * requests from its kernel the MILG recomputes the allowed number of
 * in-flight memory instructions:
 *
 *     rsfail_per_req = rsfails >> 10
 *     limit = rsfail_per_req >= 1
 *               ? max(peak_inflight / (rsfail_per_req + 1), 1)
 *               : peak_inflight * 3 / 2 + ...    (AIMD relax)
 *
 * i.e. throttle until there is at most ~one reservation failure per
 * memory request ("a fully utilized / near stall-free memory
 * pipeline", Section 3.3.2), and regrow multiplicatively through
 * congestion-free intervals.
 */

#ifndef CKESIM_CORE_MILG_HPP
#define CKESIM_CORE_MILG_HPP

#include <algorithm>
#include <cstdint>

#include "sim/snapshot.hpp"

namespace ckesim {

/** One kernel's limiting-number generator (one per kernel per SM). */
class Milg
{
  public:
    /** Counter widths of the hardware design (Section 4.4). */
    static constexpr int kInflightBits = 7;
    static constexpr int kRsFailBits = 12;
    static constexpr int kRequestBits = 10;

    static constexpr int kIntervalRequests = 1 << kRequestBits; // 1024
    static constexpr int kMaxInflight = (1 << kInflightBits) - 1;
    static constexpr int kRsFailSaturation = (1 << kRsFailBits) - 1;

    /** "No limit yet": before the first interval completes. */
    static constexpr int kUnlimited = 1 << 20;

    /** Total storage bits of one MILG instance (overhead study). */
    static constexpr int kStorageBits =
        kInflightBits + kRsFailBits + kRequestBits;

    Milg() = default;

    /** A memory request from this kernel was serviced by the L1D. */
    void
    onRequest()
    {
        ++request_counter_;
        if (request_counter_ >= kIntervalRequests)
            recompute();
    }

    /** A reservation failure was charged to this kernel. */
    void
    onRsFail()
    {
        if (rsfail_counter_ < kRsFailSaturation)
            ++rsfail_counter_;
    }

    /** Track the peak in-flight memory instruction count. */
    void
    observeInflight(int inflight)
    {
        if (inflight > peak_inflight_)
            peak_inflight_ = inflight > kMaxInflight ? kMaxInflight
                                                     : inflight;
    }

    /** Current allowed in-flight memory instructions (>= 1). */
    int limit() const { return limit_; }

    /** Number of completed sampling intervals (diagnostics). */
    std::uint64_t intervals() const { return intervals_; }

    void
    reset()
    {
        request_counter_ = 0;
        rsfail_counter_ = 0;
        peak_inflight_ = 0;
        limit_ = kUnlimited;
        prev_over_ = false;
        intervals_ = 0;
    }

    /** Checkpoint walk (sim/snapshot.hpp archives). */
    template <class Ar, ObjectOf<Milg> Self>
    static void
    state(Ar &ar, Self &self)
    {
        ar.i64(self.request_counter_);
        ar.i64(self.rsfail_counter_);
        ar.i64(self.peak_inflight_);
        ar.i64(self.limit_);
        ar.boolean(self.prev_over_);
        ar.u64(self.intervals_);
    }

  private:
    /** Optional left pre-shift on the rsfail count before the 10-bit
     *  divide (threshold scaling). 0 keeps the paper's threshold of
     *  one reservation failure per memory request. */
    static constexpr int kThresholdScaleShift = 0;

    void
    recompute()
    {
        // 10-bit right shift: reservation failures per memory
        // request.
        const int rsfail_per_req =
            (rsfail_counter_ << kThresholdScaleShift) >> kRequestBits;
        const int peak = peak_inflight_ > 0 ? peak_inflight_ : 1;
        const bool over = rsfail_per_req >= 1;
        if (over && !prev_over_) {
            // Hysteresis (one flip-flop): a single congested interval
            // holds the limit; only sustained congestion throttles.
            // Prevents transient spikes from clamping compute-
            // intensive kernels (Figure 9(a): C+C wants no limits).
            prev_over_ = true;
            limit_ = peak > 0 ? std::max(peak, 1) : limit_;
        } else if (over) {
            // Over the "at most one reservation failure per memory
            // request" target (Section 3.3.2): throttle. The +1 makes
            // the divide strictly reducing at the boundary so the
            // limit converges instead of oscillating at peak.
            limit_ = peak / (rsfail_per_req + 1);
            if (limit_ < 1)
                limit_ = 1;
        } else {
            // Congestion-free interval: relax multiplicatively so a
            // kernel throttled during a transient (e.g. before its
            // co-runner was itself limited) regrows within a few
            // sampling intervals.
            prev_over_ = false;
            limit_ = peak + std::max(peak / 2, 1);
        }
        request_counter_ = 0;
        rsfail_counter_ = 0;
        peak_inflight_ = 0;
        ++intervals_;
    }

    int request_counter_ = 0;
    int rsfail_counter_ = 0;
    int peak_inflight_ = 0;
    int limit_ = kUnlimited;
    bool prev_over_ = false;
    std::uint64_t intervals_ = 0;
};

} // namespace ckesim

#endif // CKESIM_CORE_MILG_HPP
