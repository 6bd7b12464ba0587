#include "netif/ni_base.hpp"

#include <cassert>
#include <stdexcept>

namespace nimcast::netif {

NetworkInterface::NetworkInterface(sim::Simulator& simctx,
                                   net::WormholeNetwork& network,
                                   SystemParams params, topo::HostId self,
                                   sim::Trace* trace)
    : sim_{simctx},
      network_{network},
      params_{params},
      self_{self},
      trace_{trace},
      coproc_{simctx, params.ni_engines, this},
      buffer_{simctx} {
  network.bind_sink(self, this);
}

void NetworkInterface::install(net::MessageId message, ForwardingEntry entry) {
  if (message < 0) {
    throw std::invalid_argument("NetworkInterface: negative message id");
  }
  if (entry.packet_count < 1) {
    throw std::invalid_argument("ForwardingEntry: packet_count < 1");
  }
  for (topo::HostId c : entry.children) {
    if (c == self_) {
      throw std::invalid_argument("ForwardingEntry: node is its own child");
    }
  }
  const auto m = static_cast<std::size_t>(message);
  if (m >= slot_of_.size()) slot_of_.resize(m + 1, -1);
  if (slot_of_[m] < 0) {
    slot_of_[m] = static_cast<std::int32_t>(slots_.size());
    slots_.emplace_back();
  }
  MessageState& state = slot(slot_of_[m]);
  state = MessageState{std::move(entry), 0, {}, {}, {}};
  if (!state.entry.children.empty()) {
    state.copies.assign(static_cast<std::size_t>(state.entry.packet_count),
                        kNotHeld);
  }
}

NetworkInterface::MessageState& NetworkInterface::state_of(
    net::MessageId message, const char* who) {
  const std::int32_t s = find_slot(message);
  if (s < 0) {
    throw std::logic_error(std::string(who) + ": no forwarding entry for " +
                           "message " + std::to_string(message) +
                           " at host " + std::to_string(self_));
  }
  return slot(s);
}

void NetworkInterface::after_host_receive(net::MessageId, Host&) {}

bool NetworkInterface::accept_data(const net::Packet&, MessageState&) {
  return true;
}

void NetworkInterface::deliver(const net::Packet& packet) {
  // Receive processing occupies the coprocessor for t_rcv; only then does
  // the firmware see the header and react. Low priority: firmware
  // finishes forwarding the packet in hand before polling the receive
  // queue (the loop structure of Figs. 6 and 7).
  coproc_.enqueue_low(Job{params_.t_rcv, JobKind::kReceive, -1, packet});
}

void NetworkInterface::run_job(const Job& job) {
  const net::Packet& p = job.packet;
  switch (job.kind) {
    case JobKind::kReceive:
      receive(p);
      return;
    case JobKind::kSend:
      network_.send(p);
      release_copy(slot(find_slot(p.message)), p.packet_index);
      if (job.slot >= 0) coproc_.run_parked(job.slot);
      break;
    case JobKind::kInject:
      network_.send(p);
      break;
    case JobKind::kContinuation:
      return;  // run by the server itself
  }
  if (trace_) {
    note("sent msg=" + std::to_string(p.message) + " pkt=" +
         std::to_string(p.packet_index) + " -> host " + std::to_string(p.dest));
  }
}

void NetworkInterface::receive(const net::Packet& packet) {
  const std::int32_t s = find_slot(packet.message);
  if (s < 0) {
    throw std::logic_error("NI " + std::to_string(self_) +
                           ": packet for unknown message " +
                           std::to_string(packet.message));
  }
  MessageState& state = slot(s);
  if (!accept_data(packet, state)) return;
  if (trace_) {
    note("rcv done msg=" + std::to_string(packet.message) +
         " pkt=" + std::to_string(packet.packet_index));
  }
  on_packet_received(packet, state);
  if (++state.received > state.entry.packet_count) {
    throw std::logic_error("NI " + std::to_string(self_) +
                           ": duplicate packet delivery");
  }
  // Last use of `state`: the callbacks below may install messages here.
  if (state.received == state.entry.packet_count &&
      state.entry.is_destination && on_message_at_ni) {
    on_message_at_ni(self_, packet.message);
  }
  if (on_packet_at_ni) on_packet_at_ni(self_, packet);
}

void NetworkInterface::hold_packet(MessageState& state, std::int32_t index,
                                   std::int32_t copies) {
  buffer_.acquire();
  if (copies == 0) {
    buffer_.release();
    return;
  }
  auto& held = state.copies[static_cast<std::size_t>(index)];
  assert(held == kNotHeld && "packet already held");
  held = copies;
}

void NetworkInterface::hold_all(MessageState& state) {
  const auto copies = static_cast<std::int32_t>(state.entry.children.size());
  for (std::int32_t j = 0; j < state.entry.packet_count; ++j) {
    hold_packet(state, j, copies);
  }
}

void NetworkInterface::release_copy(MessageState& state, std::int32_t index) {
  auto& held = state.copies[static_cast<std::size_t>(index)];
  assert(held > 0 && "release_copy on packet not held");
  if (--held == 0) {
    held = kNotHeld;
    buffer_.release();
  }
}

Job NetworkInterface::copy_job(JobKind kind, net::MessageId message,
                               std::int32_t index, std::int32_t packet_count,
                               topo::HostId child,
                               std::int32_t route_class) const {
  return Job{params_.t_snd, kind, -1,
             net::Packet{.message = message, .packet_index = index,
                         .packet_count = packet_count, .sender = self_,
                         .dest = child, .route_class = route_class}};
}

}  // namespace nimcast::netif
