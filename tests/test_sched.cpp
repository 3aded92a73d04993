// Tests for the job-scheduler allocation policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

#include "arch/configs.h"
#include "net/topology.h"
#include "sched/allocator.h"
#include "util/rng.h"

namespace ctesim::sched {
namespace {

net::TorusTopology cte_torus() {
  return net::TorusTopology(arch::cte_arm().interconnect.dims);
}

TEST(Allocator, TracksFreeNodes) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  EXPECT_EQ(alloc.free_nodes(), 192);
  const auto job = alloc.allocate(16, Policy::kLinear);
  EXPECT_EQ(job.size(), 16u);
  EXPECT_EQ(alloc.free_nodes(), 176);
  for (int n : job) EXPECT_TRUE(alloc.is_busy(n));
  alloc.release(job);
  EXPECT_EQ(alloc.free_nodes(), 192);
}

TEST(Allocator, FailsGracefullyWhenFull) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  EXPECT_EQ(alloc.allocate(192, Policy::kLinear).size(), 192u);
  EXPECT_TRUE(alloc.allocate(1, Policy::kLinear).empty());
}

TEST(Allocator, NoDoubleAllocation) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  const auto a = alloc.allocate(64, Policy::kRandom, 1);
  const auto b = alloc.allocate(64, Policy::kRandom, 2);
  std::vector<int> overlap;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST(Allocator, ContiguousBeatsRandomOnProximity) {
  // The whole point of the topology-aware scheduler: the compact block has
  // a much smaller mean pairwise distance than a random scatter.
  for (int job_size : {8, 16, 32}) {
    auto torus = cte_torus();
    Allocator contiguous(torus);
    Allocator scattered(torus);
    const auto block = contiguous.allocate(job_size, Policy::kContiguous);
    const auto scatter = scattered.allocate(job_size, Policy::kRandom, 99);
    ASSERT_EQ(block.size(), static_cast<std::size_t>(job_size));
    EXPECT_LT(contiguous.mean_pairwise_hops(block),
              0.75 * scattered.mean_pairwise_hops(scatter))
        << job_size;
  }
}

TEST(Allocator, ContiguousWorksOnFragmentedMachine) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  // Fragment: occupy every third node.
  std::vector<int> busy;
  for (int n = 0; n < 192; n += 3) busy.push_back(n);
  alloc.occupy(busy);
  const auto job = alloc.allocate(16, Policy::kContiguous);
  ASSERT_EQ(job.size(), 16u);
  for (int n : job) {
    EXPECT_NE(n % 3, 0) << "allocated busy node " << n;
  }
}

TEST(Allocator, RandomIsSeedDeterministic) {
  auto torus = cte_torus();
  Allocator a(torus);
  Allocator b(torus);
  EXPECT_EQ(a.allocate(24, Policy::kRandom, 7),
            b.allocate(24, Policy::kRandom, 7));
}

TEST(Allocator, OccupyRejectsDoubleBooking) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  alloc.occupy({5});
  EXPECT_THROW(alloc.occupy({5}), ContractError);
  EXPECT_THROW(alloc.release({6}), ContractError);
}

TEST(Allocator, JobIdTrackedAllocation) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  const auto job = alloc.allocate(7u, 16, Policy::kLinear);
  ASSERT_EQ(job.size(), 16u);
  EXPECT_TRUE(alloc.owns(7u));
  EXPECT_EQ(alloc.nodes_of(7u), job);
  EXPECT_EQ(alloc.free_nodes(), 176);
  alloc.release(7u);
  EXPECT_FALSE(alloc.owns(7u));
  EXPECT_EQ(alloc.free_nodes(), 192);
}

TEST(Allocator, JobIdRejectsForeignAndDoubleRelease) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  ASSERT_FALSE(alloc.allocate(1u, 8, Policy::kLinear).empty());
  // A job id that owns nothing cannot release anything.
  EXPECT_THROW(alloc.release(2u), ContractError);
  EXPECT_THROW(alloc.nodes_of(2u), ContractError);
  // One allocation per job id at a time.
  EXPECT_THROW(alloc.allocate(1u, 4, Policy::kLinear), ContractError);
  alloc.release(1u);
  EXPECT_THROW(alloc.release(1u), ContractError);
}

TEST(Allocator, JobIdFailedAllocationRecordsNothing) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  ASSERT_FALSE(alloc.allocate(1u, 192, Policy::kLinear).empty());
  EXPECT_TRUE(alloc.allocate(2u, 1, Policy::kLinear).empty());
  EXPECT_FALSE(alloc.owns(2u));
}

TEST(Allocator, ReleaseReuseCycle) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  const auto a = alloc.allocate(1u, 96, Policy::kLinear);
  const auto b = alloc.allocate(2u, 96, Policy::kLinear);
  EXPECT_EQ(alloc.free_nodes(), 0);
  alloc.release(1u);
  // The freed block is reusable by a new job.
  const auto c = alloc.allocate(3u, 96, Policy::kLinear);
  EXPECT_EQ(c, a);
  alloc.release(2u);
  alloc.release(3u);
  EXPECT_EQ(alloc.free_nodes(), 192);
  (void)b;
}

TEST(Allocator, MeanPairwiseHopsEdgeCases) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  EXPECT_EQ(alloc.mean_pairwise_hops({}), 0.0);
  EXPECT_EQ(alloc.mean_pairwise_hops({5}), 0.0);
  // Two adjacent nodes (last torus dimension has stride 1): exactly 1 hop.
  EXPECT_EQ(alloc.mean_pairwise_hops({0, 1}), 1.0);
}

TEST(Allocator, FragmentationHandChecked) {
  // 1-D ring of 8: occupying nodes 0 and 4 splits the free space into two
  // blocks of 3, so the largest block holds half the free nodes.
  net::TorusTopology ring({8});
  Allocator alloc(ring);
  EXPECT_EQ(alloc.largest_free_block(), 8);
  EXPECT_EQ(alloc.fragmentation(), 0.0);
  alloc.occupy({0, 4});
  EXPECT_EQ(alloc.largest_free_block(), 3);
  EXPECT_DOUBLE_EQ(alloc.fragmentation(), 0.5);
  // Full machine: nothing free, nothing fragmented by convention.
  alloc.occupy({1, 2, 3, 5, 6, 7});
  EXPECT_EQ(alloc.largest_free_block(), 0);
  EXPECT_EQ(alloc.fragmentation(), 0.0);
}

TEST(Allocator, FragmentationOnTorus) {
  auto torus = cte_torus();
  Allocator alloc(torus);
  // A compact 2x2x2... block leaves one big free region.
  const auto job = alloc.allocate(1u, 8, Policy::kContiguous);
  ASSERT_EQ(job.size(), 8u);
  const double compact_frag = alloc.fragmentation();
  alloc.release(1u);
  // The same capacity scattered leaves free space more broken up.
  const auto scatter = alloc.allocate(2u, 8, Policy::kRandom, 17);
  EXPECT_LE(compact_frag, alloc.fragmentation());
}

// --- equivalence oracle ------------------------------------------------------
//
// The placement as first written: a fresh BFS (seen vector, deque,
// coordinates()/node_at() neighbours) per seed and a pairwise hops() loop
// per ball. Allocator's translated visit order and pruned incremental score
// must pick the same nodes and report the same mean, bit for bit. Seeds
// follow the same stride sample, with the same every-seed retry when no
// sampled seed is free.

double reference_mean_hops(const net::TorusTopology& torus,
                           const std::vector<int>& nodes) {
  if (nodes.size() < 2) return 0.0;
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      total += torus.hops(nodes[i], nodes[j]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

std::vector<int> reference_neighbours(const net::TorusTopology& torus,
                                      int node) {
  std::vector<int> out;
  const auto coords = torus.coordinates(node);
  for (std::size_t d = 0; d < torus.dims().size(); ++d) {
    for (int dir : {-1, +1}) {
      auto next = coords;
      const int size = torus.dims()[d];
      next[d] = (next[d] + dir + size) % size;
      out.push_back(torus.node_at(next));
    }
  }
  return out;
}

std::vector<int> reference_contiguous(const net::TorusTopology& torus,
                                      const std::vector<bool>& unavailable,
                                      int count, int stride) {
  const int n = torus.num_nodes();
  std::vector<int> best;
  double best_score = 1e300;
  for (int seed = 0; seed < n; seed += stride) {
    if (unavailable[static_cast<std::size_t>(seed)]) continue;
    std::vector<int> ball;
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    std::deque<int> queue{seed};
    seen[static_cast<std::size_t>(seed)] = true;
    while (!queue.empty() && static_cast<int>(ball.size()) < count) {
      const int node = queue.front();
      queue.pop_front();
      if (!unavailable[static_cast<std::size_t>(node)]) ball.push_back(node);
      for (const int nb : reference_neighbours(torus, node)) {
        if (!seen[static_cast<std::size_t>(nb)]) {
          seen[static_cast<std::size_t>(nb)] = true;
          queue.push_back(nb);
        }
      }
    }
    if (static_cast<int>(ball.size()) < count) continue;
    const double score = reference_mean_hops(torus, ball);
    if (score < best_score) {
      best_score = score;
      best = ball;
    }
  }
  if (best.empty() && stride > 1) {
    return reference_contiguous(torus, unavailable, count, 1);
  }
  std::sort(best.begin(), best.end());
  return best;
}

int reference_largest_free_block(const net::TorusTopology& torus,
                                 const std::vector<bool>& unavailable) {
  const int n = torus.num_nodes();
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  int best = 0;
  for (int start = 0; start < n; ++start) {
    if (unavailable[static_cast<std::size_t>(start)] ||
        seen[static_cast<std::size_t>(start)]) {
      continue;
    }
    int size = 0;
    std::deque<int> queue{start};
    seen[static_cast<std::size_t>(start)] = true;
    while (!queue.empty()) {
      const int node = queue.front();
      queue.pop_front();
      ++size;
      for (const int nb : reference_neighbours(torus, node)) {
        if (!seen[static_cast<std::size_t>(nb)] &&
            !unavailable[static_cast<std::size_t>(nb)]) {
          seen[static_cast<std::size_t>(nb)] = true;
          queue.push_back(nb);
        }
      }
    }
    best = std::max(best, size);
  }
  return best;
}

std::vector<bool> unavailable_mask(const Allocator& alloc, int n) {
  std::vector<bool> mask(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    mask[static_cast<std::size_t>(node)] =
        alloc.is_busy(node) || alloc.is_drained(node);
  }
  return mask;
}

class ContiguousOracle : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(ContiguousOracle, MatchesReferenceOnRandomMasks) {
  const net::TorusTopology torus(GetParam());
  const int n = torus.num_nodes();
  const int stride = n > 512 ? n / 256 : 1;
  // One placement on the state `alloc` is in, against the reference.
  const auto expect_reference = [&](Allocator& alloc, int count,
                                    const std::string& where) {
    const auto mask = unavailable_mask(alloc, n);
    ASSERT_EQ(alloc.largest_free_block(),
              reference_largest_free_block(torus, mask))
        << where;
    const auto expected = reference_contiguous(torus, mask, count, stride);
    const auto got = alloc.allocate(count, Policy::kContiguous);
    ASSERT_EQ(got, expected) << where << " count " << count;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alloc.mean_pairwise_hops(got)),
              std::bit_cast<std::uint64_t>(reference_mean_hops(torus, got)))
        << where;
  };
  // Busy share 0, 0.2, ..., 1.0 by trial, then near-full machines, where
  // walks run long and pruning fires most, then nearly empty ones, where
  // most seeds' first positions are all free and tie; plus a few drained
  // nodes.
  const double busy_shares[] = {0.0, 0.2, 0.4, 0.6, 0.8,  1.0,
                                0.9, 0.95, 0.02, 0.08};
  for (std::uint64_t trial = 1; trial <= std::size(busy_shares); ++trial) {
    Allocator alloc(torus);
    Rng rng(trial * 7919 + static_cast<std::uint64_t>(n));
    const double busy_share = busy_shares[trial - 1];
    const bool near_full = busy_share >= 0.9;
    std::vector<int> busy;
    for (int node = 0; node < n; ++node) {
      const double u = rng.uniform();
      if (u < 0.05) {
        alloc.drain(node);
      } else if (u < busy_share) {
        busy.push_back(node);
      }
    }
    alloc.occupy(busy);
    // A run of placements, each on the state the previous one left.
    for (int step = 0; step < 8 && alloc.free_nodes() > 0; ++step) {
      // Near full, a job may take every free node.
      const int max_count = near_full ? alloc.free_nodes()
                                      : std::min(alloc.free_nodes(), 48);
      const int count =
          step == 0 ? 1
                    : static_cast<int>(rng.uniform_int(1, max_count));
      expect_reference(alloc, count,
                       "trial " + std::to_string(trial) + " step " +
                           std::to_string(step));
    }
  }

  // Block-structured occupancy, as a batch study leaves it: contiguous
  // jobs placed and released in a random order until the machine is
  // mostly full, so free nodes come in runs of released blocks.
  {
    Allocator alloc(torus);
    Rng rng(static_cast<std::uint64_t>(n) * 31 + 1);
    std::vector<std::uint64_t> live;
    for (std::uint64_t job = 1; job <= 60; ++job) {
      if (!live.empty() && rng.uniform() < 0.3) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        alloc.release(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        continue;
      }
      if (alloc.free_nodes() == 0) continue;
      const int count = static_cast<int>(rng.uniform_int(
          1, std::min(alloc.free_nodes(), std::max(4, n / 8))));
      const auto mask = unavailable_mask(alloc, n);
      const auto expected = reference_contiguous(torus, mask, count, stride);
      const auto got = alloc.allocate(job, count, Policy::kContiguous);
      ASSERT_EQ(got, expected) << "block trial job " << job;
      live.push_back(job);
    }
  }

  // The largest free count that still scans densely for `count`, and one
  // more: the same placement either side of the switch.
  const int count = std::min(8, n / 2);
  int dense_free = 0;
  while (Allocator::kDenseDivisor * (dense_free + 1) * (dense_free + 1) <
         std::int64_t{count} * n) {
    ++dense_free;
  }
  for (const int free : {dense_free, dense_free + 1}) {
    if (free <= count || free > n) continue;
    Allocator alloc(torus);
    Rng rng(static_cast<std::uint64_t>(free) * 131 + 7);
    std::vector<int> nodes(static_cast<std::size_t>(n));
    for (int node = 0; node < n; ++node) {
      nodes[static_cast<std::size_t>(node)] = node;
    }
    for (int i = 0; i < n - free; ++i) {  // prefix shuffle picks the busy
      const auto j = static_cast<std::size_t>(rng.uniform_int(i, n - 1));
      std::swap(nodes[static_cast<std::size_t>(i)], nodes[j]);
    }
    nodes.resize(static_cast<std::size_t>(n - free));
    alloc.occupy(nodes);
    ASSERT_EQ(alloc.free_nodes(), free);
    expect_reference(alloc, count, "free " + std::to_string(free));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tori, ContiguousOracle,
    ::testing::Values(std::vector<int>{4, 2, 2, 2, 3, 2},
                      std::vector<int>{8, 4, 4, 2, 3, 2},
                      std::vector<int>{5}, std::vector<int>{1, 3, 2},
                      std::vector<int>{2, 2, 2}));

TEST(Allocator, SmallBallsMatchReferenceOnSmallTori) {
  // Small tori with a size-3 dimension hold 3-node balls of mean 1.0 (a
  // ring) beside 4/3 (a path): the seed scan must keep looking past a
  // 4/3 ball and stop only at the 1.0 floor.
  for (const std::vector<int>& dims :
       {std::vector<int>{4, 3}, std::vector<int>{2, 3, 2},
        std::vector<int>{3, 3}}) {
    const net::TorusTopology torus(dims);
    const int n = torus.num_nodes();
    Rng rng(static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 200; ++trial) {
      Allocator alloc(torus);
      std::vector<int> busy;
      for (int node = 0; node < n; ++node) {
        if (rng.uniform() < 0.4) busy.push_back(node);
      }
      alloc.occupy(busy);
      const int count = static_cast<int>(rng.uniform_int(2, 4));
      if (count > alloc.free_nodes()) continue;
      const auto mask = unavailable_mask(alloc, n);
      ASSERT_EQ(alloc.allocate(count, Policy::kContiguous),
                reference_contiguous(torus, mask, count, 1))
          << "trial " << trial << " count " << count;
    }
  }
}

TEST(Allocator, EqualTotalsGoToLowestSeed) {
  // Ring of 8 with free nodes 0, 2, 4 and 6. From 0 the visit order is
  // 0 7 1 6 2 ..., so seed 0's ball is {0, 6}; seed 2's is {2, 0}, a
  // different ball with the same 2 hops. Seeds 4 and 6 tie too. The
  // lowest seed keeps the placement.
  const net::TorusTopology ring({8});
  Allocator alloc(ring);
  alloc.occupy({1, 3, 5, 7});
  EXPECT_EQ(alloc.mean_pairwise_hops({0, 6}), 2.0);
  EXPECT_EQ(alloc.mean_pairwise_hops({0, 2}), 2.0);
  EXPECT_EQ(alloc.allocate(2, Policy::kContiguous), (std::vector<int>{0, 6}));
}

TEST(Allocator, FloorStopEndsTheScan) {
  // On an empty machine seed 0's ball reaches the floor (every pair one
  // hop apart) at once, so no later seed is walked: one position for one
  // node, two for an adjacent pair.
  auto torus = cte_torus();
  Allocator alloc(torus);
  EXPECT_EQ(alloc.allocate(1, Policy::kContiguous), (std::vector<int>{0}));
  EXPECT_EQ(alloc.positions_walked(), 1u);
  alloc.release(std::vector<int>{0});
  // From node 0 the walk reads 0, then its -1 neighbour along X.
  EXPECT_EQ(alloc.allocate(2, Policy::kContiguous),
            (std::vector<int>{0, 144}));
  EXPECT_EQ(alloc.positions_walked(), 3u);
}

TEST(Allocator, WholeFreeSetIsTheBall) {
  // A job that takes every free node gets exactly the free nodes, without
  // a seed scan; one node fewer is a real placement.
  for (const std::vector<int>& dims : {std::vector<int>{4, 2, 2, 2, 3, 2},
                                       std::vector<int>{8, 4, 4, 2, 3, 2}}) {
    const net::TorusTopology torus(dims);
    const int n = torus.num_nodes();
    const int stride = n > 512 ? n / 256 : 1;
    Allocator alloc(torus);
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<int> busy;
    for (int node = 0; node < n; ++node) {
      const double u = rng.uniform();
      if (u < 0.05) {
        alloc.drain(node);
      } else if (u < 0.9) {
        busy.push_back(node);
      }
    }
    alloc.occupy(busy);
    std::vector<int> free;
    for (int node = 0; node < n; ++node) {
      if (!alloc.is_busy(node) && !alloc.is_drained(node)) free.push_back(node);
    }
    const auto count = static_cast<int>(free.size());
    ASSERT_GT(count, 2);

    const auto mask = unavailable_mask(alloc, n);
    const auto fewer = alloc.allocate(count - 1, Policy::kContiguous);
    EXPECT_EQ(fewer, reference_contiguous(torus, mask, count - 1, stride));
    EXPECT_NE(fewer, std::vector<int>(free.begin(), free.end() - 1));
    alloc.release(fewer);

    const std::uint64_t walked = alloc.positions_walked();
    EXPECT_EQ(alloc.allocate(count, Policy::kContiguous), free);
    EXPECT_EQ(alloc.positions_walked(), walked);
    EXPECT_EQ(free, reference_contiguous(torus, mask, count, stride));
    EXPECT_EQ(alloc.free_nodes(), 0);
  }
}

TEST(Allocator, LaterCleanSeedsLoseTheTie) {
  // On the 4x3 torus (node = 3x + y) a seed's first four positions are
  // itself, its -x and +x neighbours, then its -y neighbour: a path and a
  // spur, 9 hops in all. A ring along y plus one node totals 8.
  const net::TorusTopology torus({4, 3});
  {
    // Every seed is clean and ties at 9: the lowest keeps the placement.
    Allocator alloc(torus);
    EXPECT_EQ(alloc.allocate(4, Policy::kContiguous),
              (std::vector<int>{0, 2, 3, 9}));
  }
  {
    // Node 9, seed 0's -x neighbour, is busy, so seed 0 is not clean and
    // its ball {0, 3, 2, 1} totals 8. The clean seeds after it total 9
    // and must not replace it.
    Allocator alloc(torus);
    alloc.occupy({9});
    const auto mask = unavailable_mask(alloc, torus.num_nodes());
    const auto got = alloc.allocate(4, Policy::kContiguous);
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(got, reference_contiguous(torus, mask, 4, 1));
    EXPECT_EQ(alloc.mean_pairwise_hops(got), 8.0 / 6.0);
  }
}

TEST(Allocator, MeanPairwiseHopsMatchesPairwiseSum) {
  // Arbitrary sets (not BFS balls), duplicates included: the histogram
  // total equals the pairwise one exactly.
  const net::TorusTopology torus({8, 4, 4, 2, 3, 2});
  Allocator alloc(torus);
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> nodes(static_cast<std::size_t>(rng.uniform_int(0, 200)));
    for (int& node : nodes) {
      node = static_cast<int>(rng.uniform_int(0, torus.num_nodes() - 1));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alloc.mean_pairwise_hops(nodes)),
              std::bit_cast<std::uint64_t>(reference_mean_hops(torus, nodes)));
  }
  EXPECT_THROW(alloc.mean_pairwise_hops({0, torus.num_nodes()}),
               ContractError);
}

TEST(Allocator, LargeTorusPlacesWhenEverySampledSeedIsBusy) {
  // Above 512 nodes only every n/256-th node is tried as a seed. With all
  // of those busy, the placement must fall back to every free seed.
  const net::TorusTopology torus({8, 4, 4, 2, 3, 2});
  const int n = torus.num_nodes();
  ASSERT_EQ(n, 1536);
  const int stride = n / 256;
  Allocator alloc(torus);
  Rng rng(3);
  std::vector<int> busy;
  for (int node = 0; node < n; ++node) {
    if (node % stride == 0 || rng.uniform() < 0.5) busy.push_back(node);
  }
  alloc.occupy(busy);
  for (const int count : {1, 2, 17, 64}) {
    const auto mask = unavailable_mask(alloc, n);
    const auto job = alloc.allocate(count, Policy::kContiguous);
    ASSERT_EQ(job.size(), static_cast<std::size_t>(count));
    EXPECT_EQ(job, reference_contiguous(torus, mask, count, 1));
    for (const int node : job) EXPECT_NE(node % stride, 0);
  }
}

TEST(Allocator, CountersMatchRecount) {
  const net::TorusTopology torus({4, 2, 2, 2, 3, 2});
  Allocator alloc(torus);
  const auto expect_recount = [&](const char* after) {
    int free = 0;
    int drained = 0;
    for (int node = 0; node < torus.num_nodes(); ++node) {
      if (alloc.is_drained(node)) {
        ++drained;
      } else if (!alloc.is_busy(node)) {
        ++free;
      }
    }
    EXPECT_EQ(alloc.free_nodes(), free) << after;
    EXPECT_EQ(alloc.drained_count(), drained) << after;
    EXPECT_EQ(alloc.in_service_nodes(), torus.num_nodes() - drained) << after;
  };
  expect_recount("construction");
  alloc.occupy({0, 5, 9});
  expect_recount("occupy");
  alloc.drain(1);
  alloc.drain(2);
  expect_recount("drain");
  const auto job = alloc.allocate(1u, 12, Policy::kContiguous);
  ASSERT_EQ(job.size(), 12u);
  expect_recount("allocate");
  alloc.return_to_service(1);
  expect_recount("return");
  alloc.release({0, 5});
  expect_recount("release by nodes");
  alloc.release(1u);
  expect_recount("release by job");
  // A rejected call leaves the counters alone.
  EXPECT_THROW(alloc.occupy({9}), ContractError);
  EXPECT_TRUE(alloc.allocate(500, Policy::kContiguous).empty());
  expect_recount("rejected calls");
}

}  // namespace
}  // namespace ctesim::sched
