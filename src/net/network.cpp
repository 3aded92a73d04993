#include "net/network.h"

#include <cmath>

#include "util/check.h"

namespace ctesim::net {

namespace {
constexpr int kDefaultNodesPerEdgeSwitch = 32;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

Network::Network(const arch::InterconnectSpec& spec, int num_nodes)
    : spec_(spec) {
  CTESIM_EXPECTS(num_nodes >= 1);
  CTESIM_EXPECTS(spec.link_bw > 0.0);
  if (spec.kind == arch::InterconnectSpec::Kind::kTorus) {
    CTESIM_EXPECTS(!spec.dims.empty());
    int total = 1;
    for (int d : spec.dims) total *= d;
    CTESIM_EXPECTS(total >= num_nodes);
    topology_ = std::make_unique<TorusTopology>(spec.dims);
  } else {
    topology_ = std::make_unique<FatTreeTopology>(num_nodes,
                                                  kDefaultNodesPerEdgeSwitch);
  }
}

void Network::set_recv_degradation(int node, double factor) {
  CTESIM_EXPECTS(node >= 0 && node < num_nodes());
  CTESIM_EXPECTS(factor > 0.0 && factor <= 1.0);
  recv_degradation_[node] = {
      {0.0, std::numeric_limits<double>::infinity(), factor}};
  ++revision_;
}

void Network::add_recv_degradation(int node, double factor, double start_s,
                                   double end_s) {
  CTESIM_EXPECTS(node >= 0 && node < num_nodes());
  CTESIM_EXPECTS(factor > 0.0 && factor <= 1.0);
  CTESIM_EXPECTS(start_s >= 0.0 && end_s > start_s);
  recv_degradation_[node].push_back({start_s, end_s, factor});
  ++revision_;
}

void Network::clear_faults() {
  recv_degradation_.clear();
  ++revision_;
}

double Network::recv_factor(int node, double now_s) const {
  const auto it = recv_degradation_.find(node);
  if (it == recv_degradation_.end()) return 1.0;
  double factor = 1.0;
  for (const DegradationWindow& w : it->second) {
    if (now_s >= w.start_s && now_s < w.end_s) factor *= w.factor;
  }
  return factor;
}

double Network::pair_jitter(int src, int dst) const {
  if (jitter_amplitude_ <= 0.0) return 1.0;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  const double u =
      static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;  // [0,1)
  return 1.0 + jitter_amplitude_ * (2.0 * u - 1.0);
}

Transfer Network::transfer(int src, int dst, std::uint64_t bytes,
                           double now_s) const {
  CTESIM_EXPECTS(src >= 0 && src < num_nodes());
  CTESIM_EXPECTS(dst >= 0 && dst < num_nodes());
  CTESIM_EXPECTS(src != dst);

  Transfer t;
  t.hops = topology_->hops(src, dst);
  t.rendezvous = spec_.eager_threshold > 0 && bytes > spec_.eager_threshold;

  t.latency_s = spec_.base_latency_s + t.hops * spec_.per_hop_latency_s;
  if (t.rendezvous) t.latency_s += spec_.rendezvous_latency_s;

  double bw = spec_.link_bw * spec_.eff_bw_factor *
              std::pow(1.0 - spec_.hop_bw_penalty, t.hops) *
              pair_jitter(src, dst);
  if (spec_.long_dim_bw_penalty > 0.0) {
    if (const auto* torus = dynamic_cast<const TorusTopology*>(
            topology_.get())) {
      const int long_hops = torus->dim_distance(src, dst, 0);
      bw *= std::pow(1.0 - spec_.long_dim_bw_penalty, long_hops);
    }
  }
  if (const double factor = recv_factor(dst, now_s); factor < 1.0) {
    // A sick receive path (the arms0b1-11c case) hurts both the credit/
    // buffer bandwidth and the per-message processing latency, so the
    // degradation is visible even for small latency-bound messages.
    bw *= factor;
    t.latency_s /= factor;
  }
  CTESIM_ENSURES(bw > 0.0);

  t.time_s = t.latency_s + static_cast<double>(bytes) / bw;
  t.bandwidth = t.time_s > 0.0 ? static_cast<double>(bytes) / t.time_s : 0.0;
  return t;
}

}  // namespace ctesim::net
