/**
 * @file
 * The memory request/reply descriptor that travels between an SM's L1D
 * and the shared memory subsystem (crossbar, L2, DRAM).
 */

#ifndef CKESIM_MEM_REQUEST_HPP
#define CKESIM_MEM_REQUEST_HPP

#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace ckesim {

/** Kind of transaction below the L1. */
enum class ReqKind {
    ReadMiss,  ///< L1D read miss fetch
    WriteThru, ///< L1D write (WEWN: write-evict write-no-allocate)
    Writeback, ///< L2 dirty eviction to DRAM (never replied)
};

/** One line transaction below the L1D. */
struct MemRequest
{
    LineAddr line_addr{};             ///< line address (line-granular)
    SmId sm_id = kInvalidSm;          ///< originating SM (reply routing)
    KernelId kernel = kInvalidKernel;
    ReqKind kind = ReqKind::ReadMiss;
    Cycle birth{};                    ///< cycle the L1D emitted it
};

/** Checkpoint walk of one request (sim/snapshot.hpp archives); an
 *  object, so it can walk the elements of a RingBuf or MshrTable. */
inline constexpr auto walkMemRequest =
    []<class Ar, ObjectOf<MemRequest> Req>(Ar &ar, Req &req) {
        ar.unit(req.line_addr);
        ar.id(req.sm_id);
        ar.id(req.kernel);
        ar.u8(req.kind);
        ar.unit(req.birth);
    };

} // namespace ckesim

#endif // CKESIM_MEM_REQUEST_HPP
