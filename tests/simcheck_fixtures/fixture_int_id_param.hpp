// simcheck golden fixture: int-id-param.
// Identities cross header boundaries as KernelId/SmId/WarpSlot; an
// integer named *_id or *_slot is how a kernel id ends up passed as a
// warp slot. Positional indices are integers named *_index.
#include <cstddef>
#include <cstdint>

struct KernelId
{
    int v = 0;
};

void bindKernel(int kernel_id); // EXPECT[int-id-param]
void parkWarp(unsigned warp_slot); // EXPECT[int-id-param]
void routeTo(std::uint32_t sm_id, int lane); // EXPECT[int-id-param]
void evict(std::size_t victim_slot); // EXPECT[int-id-param]
void bindKernel(KernelId kernel_id);
void openChannel(int channel_index);
void attach(int *owner_id);
