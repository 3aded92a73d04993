#include "net/congestion.h"

#include <algorithm>

#include "trace/recorder.h"
#include "util/check.h"

namespace ctesim::net {

CongestionModel::CongestionModel(const Network& network)
    : network_(&network),
      torus_(dynamic_cast<const TorusTopology*>(&network.topology())) {}

template <typename Visit>
void CongestionModel::for_each_link(int src, int dst, Visit&& visit) const {
  CTESIM_EXPECTS(src != dst);
  if (torus_ == nullptr) {
    // Fat-tree: the shared resources are each endpoint's up/down links.
    visit(LinkId{static_cast<std::int32_t>(src), 0, +1});
    visit(LinkId{static_cast<std::int32_t>(dst), 0, -1});
    return;
  }
  // Dimension-order routing: walk each dimension along the shorter wrap
  // direction, emitting the departing link of every intermediate node.
  // Row-major numbering: dimension d's coordinate is node / stride % n,
  // where stride is the product of the later dimensions.
  const auto& dims = torus_->dims();
  CTESIM_EXPECTS(src >= 0 && src < torus_->num_nodes());
  CTESIM_EXPECTS(dst >= 0 && dst < torus_->num_nodes());
  int node = src;
  int stride = torus_->num_nodes();
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const int n = dims[d];
    stride /= n;
    int here = src / stride % n;
    const int there = dst / stride % n;
    const int forward = (there - here + n) % n;
    const int dir = forward <= n - forward ? +1 : -1;
    while (here != there) {
      visit(LinkId{static_cast<std::int32_t>(node),
                   static_cast<std::int16_t>(d),
                   static_cast<std::int16_t>(dir)});
      const int next = (here + dir + n) % n;
      node += (next - here) * stride;
      here = next;
    }
  }
}

std::vector<LinkId> CongestionModel::route(int src, int dst) const {
  std::vector<LinkId> links;
  for_each_link(src, dst, [&links](const LinkId& link) {
    links.push_back(link);
  });
  CTESIM_ENSURES(!links.empty());
  return links;
}

sim::Time CongestionModel::transfer_at(int src, int dst, std::uint64_t bytes,
                                       sim::Time now) {
  // Base (contention-free) behaviour provides latency and the effective
  // per-link occupancy; congestion adds waiting for busy links.
  const Transfer base =
      network_->transfer(src, dst, bytes, sim::to_seconds(now));
  const auto& spec = network_->spec();
  // Wire occupancy of the message on one link. The torus' first dimension
  // (rack-spanning) runs slower, consistent with long_dim_bw_penalty.
  const double link_bw = spec.link_bw * spec.eff_bw_factor;
  const sim::Time occupancy =
      sim::from_seconds(static_cast<double>(bytes) / link_bw);
  const sim::Time long_occupancy = sim::from_seconds(
      static_cast<double>(bytes) /
      (link_bw * (1.0 - spec.long_dim_bw_penalty)));
  const sim::Time per_hop = sim::from_seconds(spec.per_hop_latency_s);

  sim::Time head = now + sim::from_seconds(spec.base_latency_s);
  sim::Time tail = head;
  sim::Time queued = 0;
  for_each_link(src, dst, [&](const LinkId& link) {
    sim::Time& busy = busy_until_[link];
    const sim::Time start = std::max(head, busy);
    queued += start - head;
    const sim::Time occ = link.dim == 0 ? long_occupancy : occupancy;
    busy = start + occ;
    tail = std::max(tail, busy);
    head = start + per_hop;  // cut-through: the head moves on per hop
  });
  queueing_s_ += sim::to_seconds(queued);
  if (recorder_ && recorder_->enabled()) {
    int busy = 0;
    for (const auto& [link, until] : busy_until_) {
      if (until > now) ++busy;
    }
    recorder_->counter(trace::Track::global(), "net", "queueing_s", now,
                       queueing_s_);
    recorder_->counter(trace::Track::global(), "net", "busy_links", now,
                       static_cast<double>(busy));
  }
  // The tail clears the last (or slowest) link then; never earlier than
  // the contention-free end-to-end model.
  return std::max(tail, now + sim::from_seconds(base.time_s));
}

void CongestionModel::reset() {
  busy_until_.clear();
  queueing_s_ = 0.0;
}

}  // namespace ctesim::net
