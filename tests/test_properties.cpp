// Property-based sweeps (parameterized gtest) over the simulator's
// invariants: things that must hold for *every* configuration, not just
// the paper's.
#include <gtest/gtest.h>

#include <tuple>

#include "arch/configs.h"
#include "kernels/stream.h"
#include "net/network.h"
#include "roofline/exec_model.h"
#include "roofline/kernel_library.h"
#include "simmpi/world.h"

namespace ctesim {
namespace {

// ---------------------------------------------------------- collectives --

using CollectiveCase = std::tuple<int /*ranks*/, std::uint64_t /*bytes*/>;

class CollectiveProperty : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(CollectiveProperty, AllreduceTimeMonotoneInPayload) {
  const auto [ranks, bytes] = GetParam();
  auto run_bytes = [&, ranks = ranks](std::uint64_t payload) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.network_jitter = 0.0;
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, ranks));
    return world.run([payload](mpi::Rank& r) -> sim::Task<> {
      co_await r.allreduce(payload);
    });
  };
  EXPECT_LE(run_bytes(bytes), run_bytes(bytes * 4) + 1e-12);
}

TEST_P(CollectiveProperty, BcastNoSlowerThanSequentialSends) {
  const auto [ranks, bytes] = GetParam();
  if (ranks < 3) GTEST_SKIP();
  auto run = [&, ranks = ranks, bytes = bytes](bool tree) {
    mpi::WorldOptions options;
    options.machine = arch::cte_arm();
    options.network_jitter = 0.0;
    mpi::World world(std::move(options),
                     mpi::Placement::per_node(arch::cte_arm().node, ranks));
    return world.run([tree, bytes = bytes](mpi::Rank& r) -> sim::Task<> {
      if (tree) {
        co_await r.bcast(0, bytes);
      } else if (r.id() == 0) {
        for (int dst = 1; dst < r.size(); ++dst) {
          co_await r.send(dst, bytes);
        }
      } else {
        co_await r.recv(0);
      }
    });
  };
  // The binomial tree must not lose to the naive linear broadcast.
  EXPECT_LE(run(true), run(false) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CollectiveProperty,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13, 16),
                       ::testing::Values(std::uint64_t{64},
                                         std::uint64_t{64} << 10)));

// -------------------------------------------------------------- network --

class HopProperty : public ::testing::TestWithParam<int> {};

TEST_P(HopProperty, TransferBandwidthNonIncreasingInHops) {
  const int size_pow = GetParam();
  net::Network network(arch::cte_arm().interconnect, 192);
  network.set_jitter(0.0);
  const std::uint64_t bytes = 1ull << size_pow;
  // Group all destinations by (hops, x-distance); within a group the
  // bandwidth is identical, across hop counts it must not increase.
  const auto* torus =
      dynamic_cast<const net::TorusTopology*>(&network.topology());
  ASSERT_NE(torus, nullptr);
  std::map<std::pair<int, int>, double> bw_by_class;
  for (int dst = 1; dst < 192; ++dst) {
    const auto t = network.transfer(0, dst, bytes);
    const auto key = std::make_pair(torus->dim_distance(0, dst, 0), t.hops);
    auto [it, inserted] = bw_by_class.emplace(key, t.bandwidth);
    if (!inserted) {
      EXPECT_NEAR(it->second, t.bandwidth, 1e-6 * it->second);
    }
  }
  // For fixed x-distance, more total hops => no more bandwidth.
  for (const auto& [key, bw] : bw_by_class) {
    const auto worse = bw_by_class.find({key.first, key.second + 1});
    if (worse != bw_by_class.end()) {
      EXPECT_LE(worse->second, bw * (1.0 + 1e-9));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HopProperty,
                         ::testing::Values(8, 12, 16, 20, 24));

// ------------------------------------------------------------- roofline --

using RooflineCase = std::tuple<int /*kernel*/, int /*cores*/>;

class RooflineProperty : public ::testing::TestWithParam<RooflineCase> {};

roofline::KernelSig kernel_by_index(int idx) {
  using namespace roofline::kernels;
  switch (idx) {
    case 0:
      return stream_triad();
    case 1:
      return dgemm();
    case 2:
      return spmv_csr();
    case 3:
      return fem_assembly();
    case 4:
      return md_nonbonded();
    default:
      return stencil3d();
  }
}

TEST_P(RooflineProperty, TimePositiveAdditiveAndMonotone) {
  const auto [kernel_idx, cores] = GetParam();
  const auto sig = kernel_by_index(kernel_idx);
  for (const auto& machine : {arch::cte_arm(), arch::marenostrum4()}) {
    const roofline::ExecModel model(machine.node,
                                    arch::default_app_compiler(machine));
    const double t1 = model.time(sig, 1e6, cores).value();
    const double t2 = model.time(sig, 2e6, cores).value();
    EXPECT_GT(t1, 0.0);
    // Linearity in elements.
    EXPECT_NEAR(t2, 2.0 * t1, 1e-9 * t2);
    // The breakdown components bound the total.
    const auto b = model.analyze(sig, 1e6, cores);
    EXPECT_GE(b.total_s, std::max(b.compute_s, b.memory_s) - 1e-15);
    EXPECT_LE(b.total_s, b.compute_s + b.memory_s + 1e-15);
  }
}

TEST_P(RooflineProperty, BetterCompilerNeverSlower) {
  const auto [kernel_idx, cores] = GetParam();
  const auto sig = kernel_by_index(kernel_idx);
  const auto machine = arch::cte_arm();
  const roofline::ExecModel gnu(machine.node, arch::gnu_compiler());
  const roofline::ExecModel vendor(machine.node, arch::vendor_tuned());
  EXPECT_LE(vendor.time(sig, 1e6, cores).value(), gnu.time(sig, 1e6, cores).value() * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RooflineProperty,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(1, 12, 48)));

// ------------------------------------------------------- native kernels --

class StreamThreads : public ::testing::TestWithParam<int> {};

TEST_P(StreamThreads, ParallelTriadMatchesSerialResult) {
  // Run one canonical iteration, substituting the threaded triad for the
  // serial one; the closed-form check must still pass bit-for-bit.
  const int threads = GetParam();
  kernels::Stream stream(10000);
  stream.copy();
  stream.scale();
  stream.add();
  stream.triad_parallel(threads);
  EXPECT_LT(stream.verify_after(1), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Threads, StreamThreads,
                         ::testing::Values(1, 2, 3, 4, 7));

}  // namespace
}  // namespace ctesim
