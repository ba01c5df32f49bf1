#include "common/topology.hpp"

#include <gtest/gtest.h>

namespace ats {
namespace {

TEST(Topology, HostPresetHasAtLeastOneCpu) {
  const Topology host = makeTopology(MachinePreset::Host);
  EXPECT_GE(host.numCpus, 1u);
}

TEST(Topology, CpuCountOverrideKeepsThePreset) {
  const Topology t = makeTopology(MachinePreset::Host, 4);
  EXPECT_EQ(t.numCpus, 4u);
}

TEST(Topology, ReservedSlotsCountAsSlotsNotCpus) {
  // The Runtime reserves a spawner slot via reservedSlots; the worker
  // count numCpus must not grow with it.
  Topology topo = makeTopology(MachinePreset::Host, 4);
  topo.reservedSlots = 1;
  EXPECT_EQ(topo.numCpus, 4u);
  EXPECT_EQ(topo.slotCount(), 5u);
}

}  // namespace
}  // namespace ats
