#pragma once

#include "netif/ni_base.hpp"

namespace nimcast::netif {

/// Conventional network interface (paper Section 2.3, Figure 2).
///
/// The NI moves packets but makes no forwarding decisions: every multicast
/// copy is initiated by host software. At the source and at every
/// intermediate node, the host pays one t_s software start-up *per child*;
/// an intermediate node additionally cannot begin forwarding until the
/// complete message has reached host memory and been received (t_r).
/// This is the baseline the smart NI designs beat (Figure 4).
class ConventionalNi final : public NetworkInterface {
 public:
  using NetworkInterface::NetworkInterface;

  void start_from_host(net::MessageId message, Host& host) override;
  void after_host_receive(net::MessageId message, Host& host) override;
  [[nodiscard]] const char* style() const override { return "conventional"; }

 protected:
  void on_packet_received(const net::Packet& packet,
                          MessageState& state) override;
};

}  // namespace nimcast::netif
