/**
 * @file
 * Warped-Slicer TB partitioning (Xu et al., ISCA'16; Sections 1 and
 * 2.5 of the reproduced paper).
 *
 * Each kernel's performance-vs-TB-count scalability curve is obtained
 * either offline (static) or by online profiling — different SMs run
 * different TB counts of one kernel concurrently. The "sweet point" is
 * the feasible TB combination that minimizes every kernel's
 * performance degradation (we maximize the minimum normalized IPC,
 * breaking ties towards the larger sum — the intersection point of
 * Figure 3(b)).
 */

#ifndef CKESIM_CORE_WARPED_SLICER_HPP
#define CKESIM_CORE_WARPED_SLICER_HPP

#include <utility>
#include <vector>

#include "core/tb_partition.hpp"
#include "kernels/profile.hpp"
#include "sim/config.hpp"

namespace ckesim {

/** IPC-vs-TB-count samples for one kernel; linear interpolation. */
class ScalabilityCurve
{
  public:
    ScalabilityCurve() = default;

    /** Add an observation: IPC when @p tbs TBs are resident. */
    void addPoint(int tbs, double ipc);

    /** Interpolated IPC at @p tbs (through (0,0); flat beyond max). */
    double at(int tbs) const;

    /** Largest sampled TB count. */
    int maxTbs() const;

    bool empty() const { return points_.empty(); }
    const std::vector<std::pair<int, double>> &points() const
    {
        return points_;
    }

    /** Field table (sim/fields.hpp): the sampled points. */
    template <class V, ObjectOf<ScalabilityCurve>... S>
    friend constexpr void
    fields(V &v, S &...s)
    {
        v(Field{"points"}, s.points_...);
    }

  private:
    std::vector<std::pair<int, double>> points_; ///< sorted by tbs
};

/** Result of sweet-point selection. */
struct SweetPoint
{
    std::vector<int> tbs;      ///< per-kernel TB counts
    double theoretical_ws = 0; ///< sum of predicted normalized IPCs
    std::vector<double> predicted_norm_ipc;
};

/**
 * Enumerate feasible TB partitions and pick the sweet point.
 * Normalization is against each curve's value at the kernel's
 * isolated maximum TB count.
 */
SweetPoint
findSweetPoint(const std::vector<ScalabilityCurve> &curves,
               const std::vector<const KernelProfile *> &kernels,
               const SmConfig &sm);

/**
 * Profiling-phase TB counts for dynamic Warped-Slicer: @p samples
 * evenly spaced counts in [1, max], always including max.
 */
std::vector<int> profilingTbCounts(int max_tbs, int samples);

} // namespace ckesim

#endif // CKESIM_CORE_WARPED_SLICER_HPP
