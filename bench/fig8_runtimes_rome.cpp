// Figure 8 reproduction: runtime comparison on the AMD Rome preset.
// Benchmarks: HPCCG, NBody, miniAMR, Matmul.  The paper's AOCC runtime is
// LLVM-based and ties the LLVM curve, so the llvm_like stand-in covers
// both.  llvm_like is the real per-CPU Chase–Lev work-stealing scheduler
// (it was a relabeled SyncScheduler before PR 6), so this figure now
// compares genuinely different architectures.  The preset fixes only the
// thread count; the runtime models no NUMA domains.
#include "bench/fig_common.hpp"

int main() {
  ats::bench::runFigure("fig8", ats::MachinePreset::Rome,
                        {"hpccg", "nbody", "miniamr", "matmul"},
                        ats::bench::runtimeComparisonVariants());
  return 0;
}
