// Figures 7-9: the optimized runtime ("nanos6") against the OpenMP-
// runtime architectural stand-ins, over all eight apps on the host.
// Expected shape (paper §6.3): nanos6 best at small granularities; the
// work-stealing (LLVM-family) stand-in second; the central-mutex (GOMP)
// stand-in drops off first.  The paper's AOCC runtime is LLVM-based and
// ties the LLVM curve, so llvm_like covers both.
#include "bench/fig_common.hpp"

int main() {
  ats::bench::runFigure("fig_runtimes",
                        ats::bench::runtimeComparisonVariants());
  return 0;
}
