#include "netif/reliable_ni.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace nimcast::netif {

sim::Time derived_retx_timeout(const SystemParams& params,
                               const net::NetworkConfig& config,
                               std::size_t hops, std::int32_t fanout,
                               sim::Time t_ack) {
  const auto h = static_cast<sim::Time::rep>(std::max<std::size_t>(hops, 1));
  // One direction: coprocessor send pass, header over injection + h
  // switch links + ejection, payload drain, coprocessor receive pass.
  const sim::Time t_step = params.t_snd + config.t_hop * (h + 2) +
                           config.serialization_time() + params.t_rcv;
  // Full ACK round trip, plus the ACK possibly queueing behind the
  // coprocessor passes of `fanout` sibling copies at either end.
  const sim::Time rtt =
      t_step + t_step + params.t_snd + params.t_rcv +
      t_ack * static_cast<sim::Time::rep>(std::max(fanout, 1));
  return rtt * 2;
}

ReliableFpfsNi::ReliableFpfsNi(sim::Simulator& simctx,
                               net::WormholeNetwork& network,
                               SystemParams params,
                               ReliabilityParams reliability,
                               topo::HostId self, sim::Trace* trace)
    : NetworkInterface{simctx, network, params, self, trace},
      reliability_{reliability},
      base_timeout_{reliability.retx_timeout == sim::Time::zero()
                        ? derived_retx_timeout(params, network.config(),
                                               /*hops=*/4, /*fanout=*/8,
                                               reliability.t_ack)
                        : reliability.retx_timeout},
      backoff_rng_{reliability.jitter_seed ^
                   (std::uint64_t{0x9E3779B97F4A7C15} *
                    static_cast<std::uint64_t>(self + 1))} {}

sim::Time ReliableFpfsNi::backoff_timeout(std::int32_t attempts) {
  const auto exponent =
      std::min(std::max(attempts, 0), reliability_.backoff_cap);
  double scale = std::pow(reliability_.backoff_factor, exponent);
  if (reliability_.backoff_jitter > 0.0 && attempts > 0) {
    scale *= 1.0 + reliability_.backoff_jitter * backoff_rng_.next_double();
  }
  return sim::Time::us(base_timeout_.as_us() * scale);
}

void ReliableFpfsNi::start_from_host(net::MessageId message, Host& host) {
  host.software_send([this, message] {
    MessageState& state = state_of(message, "ReliableFpfsNi");
    const ForwardingEntry& entry = state.entry;
    hold_all(state);
    for (std::int32_t j = 0; j < entry.packet_count; ++j) {
      send_to_children(state, message, j);
    }
  });
}

void ReliableFpfsNi::send_to_children(MessageState& state,
                                      net::MessageId message,
                                      std::int32_t index) {
  const auto& kids = state.entry.children;
  const auto count = state.entry.packet_count;
  if (state.pending.empty()) {
    state.pending.resize(static_cast<std::size_t>(count) * kids.size());
  }
  for (std::size_t c = 0; c < kids.size(); ++c) {
    state.pending[static_cast<std::size_t>(index) * kids.size() + c] =
        PendingSend{{}, 0, true};
    reliable_send(message, index, count, kids[c]);
  }
}

ReliableFpfsNi::PendingSend* ReliableFpfsNi::live_edge(MessageState& state,
                                                       std::int32_t index,
                                                       topo::HostId child) {
  if (state.pending.empty()) return nullptr;
  const auto& kids = state.entry.children;
  const auto pos = std::find(kids.begin(), kids.end(), child);
  if (pos == kids.end()) return nullptr;
  PendingSend& edge =
      state.pending[static_cast<std::size_t>(index) * kids.size() +
                    static_cast<std::size_t>(pos - kids.begin())];
  return edge.live ? &edge : nullptr;
}

void ReliableFpfsNi::reliable_send(net::MessageId message, std::int32_t index,
                                   std::int32_t packet_count,
                                   topo::HostId child) {
  coproc_.enqueue(params_.t_snd, [this, message, index, packet_count, child] {
    // The ACK may have arrived while this (re)transmission sat in the
    // coprocessor queue; if so the edge is closed and sending a copy now
    // would only waste wire time (and double-release buffers).
    PendingSend* pending = live_edge(state_of(message, "ReliableFpfsNi"),
                                     index, child);
    if (pending == nullptr) return;
    // The attempt number is part of the packet's loss-hash identity:
    // each retransmitted copy gets an independent drop draw.
    network_.send(net::Packet{.message = message, .packet_index = index,
                              .packet_count = packet_count, .sender = self_,
                              .dest = child, .attempt = pending->attempts});
    // Arm (or re-arm) the retransmission timer as of injection time,
    // exponentially backed off by the attempts already burned.
    pending->timer = sim_.schedule_in(
        backoff_timeout(pending->attempts),
        [this, message, index, packet_count, child] {
          on_timeout(message, index, packet_count, child);
        });
    if (trace_) {
      note("rsent msg=" + std::to_string(message) + " pkt=" +
           std::to_string(index) + " -> host " + std::to_string(child));
    }
  });
}

void ReliableFpfsNi::on_timeout(net::MessageId message, std::int32_t index,
                                std::int32_t packet_count,
                                topo::HostId child) {
  MessageState& state = state_of(message, "ReliableFpfsNi");
  PendingSend* pending = live_edge(state, index, child);
  if (pending == nullptr) return;  // ACKed in the meantime
  // A child cut off by a fault cannot ACK no matter how often we retry;
  // abandon the edge immediately instead of burning the budget.
  const bool unreachable = !network_.reachable(self_, child);
  if (!unreachable) {
    ++pending->attempts;
    ++retx_count_;
  }
  if (unreachable || pending->attempts > reliability_.max_retransmissions) {
    pending->live = false;
    ++gave_up_;
    // The edge's buffer obligation is met by abandonment: without this
    // the slot would leak and the NI would report held buffers forever.
    release_copy(state, index);
    if (trace_) {
      note(std::string("giveup") + (unreachable ? "-unreachable" : "-budget") +
           " msg=" + std::to_string(message) + " pkt=" +
           std::to_string(index) + " -> host " + std::to_string(child));
    }
    if (on_delivery_failure) on_delivery_failure(message, index, child);
    return;
  }
  if (trace_) {
    note("retx msg=" + std::to_string(message) + " pkt=" +
         std::to_string(index) + " -> host " + std::to_string(child));
  }
  reliable_send(message, index, packet_count, child);
}

void ReliableFpfsNi::send_ack(const net::Packet& data) {
  // The ACK inherits the data copy's attempt number so the ACK for each
  // (re)transmission is its own independent loss draw.
  const net::Packet ack{.message = data.message,
                        .packet_index = data.packet_index,
                        .packet_count = data.packet_count, .sender = self_,
                        .dest = data.sender, .tag = kAckTag,
                        .attempt = data.attempt};
  coproc_.enqueue_front(reliability_.t_ack,
                        [this, ack] { network_.send(ack); });
}

void ReliableFpfsNi::handle_ack(const net::Packet& ack) {
  const std::int32_t s = find_slot(ack.message);
  if (s < 0) return;
  MessageState& state = slot(s);
  PendingSend* pending = live_edge(state, ack.packet_index, ack.sender);
  if (pending == nullptr) return;  // duplicate ACK
  sim_.cancel(pending->timer);
  pending->live = false;
  // The child has the packet; this copy's buffer obligation is met.
  release_copy(state, ack.packet_index);
}

void ReliableFpfsNi::deliver(const net::Packet& packet) {
  // Control traffic jumps the queue: a data or ACK packet behind a long
  // forwarding backlog would otherwise delay acknowledgments past the
  // retransmission timeout and trigger spurious retransmit storms even
  // on a lossless fabric (real NIs prioritize tiny control responses for
  // exactly this reason).
  if (packet.tag == kAckTag) {
    coproc_.enqueue_front(reliability_.t_ack,
                          [this, packet] { handle_ack(packet); });
    return;
  }
  // Acknowledge at arrival — the sender may be retransmitting because a
  // previous ACK was lost, and duplicates must be re-ACKed too.
  send_ack(packet);
  NetworkInterface::deliver(packet);
}

bool ReliableFpfsNi::accept_data(const net::Packet& packet,
                                 MessageState& state) {
  if (state.seen.empty()) {
    state.seen.resize(static_cast<std::size_t>(state.entry.packet_count));
  }
  auto& seen = state.seen[static_cast<std::size_t>(packet.packet_index)];
  const bool fresh = seen == 0;  // a duplicate is not re-forwarded or counted
  seen = 1;
  if (!fresh) ++dup_count_;
  return fresh;
}

void ReliableFpfsNi::on_packet_received(const net::Packet& packet,
                                        MessageState& state) {
  if (state.entry.children.empty()) return;
  hold_packet(state, packet.packet_index,
              static_cast<std::int32_t>(state.entry.children.size()));
  send_to_children(state, packet.message, packet.packet_index);
}

}  // namespace nimcast::netif
