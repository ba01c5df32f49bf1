// Figures 4-6: efficiency vs task granularity of the runtime with and
// without each optimization, over all eight apps.  The paper runs this
// sweep on three machines (§6.1); here it runs on the host, sized by
// figureWorkers().  Expected shape: all variants converge at coarse
// granularity; at fine granularity the "optimized" curve stays highest,
// with the removed-optimization curves dropping off earlier (which one
// dominates is benchmark-dependent, §6.2).
#include "bench/fig_common.hpp"

int main() {
  ats::bench::runFigure("fig_ablation", ats::bench::ablationVariants());
  return 0;
}
