// simcheck golden fixture: clean control, header half.
// run_fixture_tests.py analyses this file as src/sm/fixture_clean.hpp,
// where the header-only rules apply. Both findings below are waived,
// and both waivers must be used.
#ifndef VENDOR_PIPELINE_HPP // SIMCHECK-ALLOW(include-guard): keeps the guard of the vendored header it mirrors
#define VENDOR_PIPELINE_HPP

struct KernelId
{
    int v = 0;
};

void bindKernel(KernelId kernel_id);
// SIMCHECK-ALLOW(int-id-param): C shim with an int-only ABI
void bindKernelRaw(int kernel_id);

#endif
