#include "netif/conventional_ni.hpp"

namespace nimcast::netif {

void ConventionalNi::start_from_host(net::MessageId message, Host& host) {
  after_host_receive(message, host);  // the source forwards like any node
}

void ConventionalNi::after_host_receive(net::MessageId message, Host& host) {
  // One software send per child: the host re-fragments the message and
  // pushes the packets to the NI send queue each time (Figure 2). The
  // t_s start-ups serialize on the host CPU; the NI pipeline drains each
  // child's packets while the host prepares the next send.
  const ForwardingEntry& entry = state_of(message, "ConventionalNi").entry;
  for (topo::HostId child : entry.children) {
    host.software_send([this, message, child, count = entry.packet_count] {
      for (std::int32_t j = 0; j < count; ++j) {
        coproc_.enqueue(copy_job(JobKind::kInject, message, j, count, child));
      }
    });
  }
}

void ConventionalNi::on_packet_received(const net::Packet&, MessageState&) {
  // Nothing beyond the base t_rcv + DMA: the host does all forwarding,
  // triggered by after_host_receive once the message completes.
}

}  // namespace nimcast::netif
