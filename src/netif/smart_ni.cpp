#include "netif/smart_ni.hpp"

namespace nimcast::netif {

void FpfsNi::start_from_host(net::MessageId message, Host& host) {
  start_streaming({message}, host);
}

void FpfsNi::start_streaming(const std::vector<net::MessageId>& messages,
                             Host& host) {
  if (messages.empty()) {
    throw std::logic_error("FpfsNi: start_streaming with no messages");
  }
  // One software start-up moves the whole message into NI memory; the
  // coprocessor owns everything from there (Figure 4(b)).
  host.software_send([this, messages] {
    std::vector<MessageState*> states;
    states.reserve(messages.size());
    for (net::MessageId m : messages) {
      states.push_back(&state_of(m, "FpfsNi"));
      hold_all(*states.back());
    }
    // Round-robin over the classes, packet-major within each: stream
    // packet g = copy g/R of class g mod R (exhausted classes are
    // skipped, so an uneven split stays in global stream order).
    std::vector<std::int32_t> cursor(messages.size(), 0);
    bool more = true;
    while (more) {
      more = false;
      for (std::size_t r = 0; r < messages.size(); ++r) {
        const ForwardingEntry& entry = states[r]->entry;
        if (cursor[r] >= entry.packet_count) continue;
        const std::int32_t j = cursor[r]++;
        more = true;
        for (topo::HostId child : entry.children) {
          send_copy(messages[r], j, entry.packet_count, child,
                    entry.route_class);
        }
      }
    }
  });
}

void FpfsNi::start_streaming_adaptive(
    const std::vector<net::MessageId>& messages, std::int32_t stream_packets,
    Host& host, std::function<std::size_t(std::int32_t)> select) {
  if (messages.empty()) {
    throw std::logic_error("FpfsNi: start_streaming_adaptive with no messages");
  }
  if (stream_packets < 1) {
    throw std::logic_error("FpfsNi: start_streaming_adaptive needs packets");
  }
  auto stream = std::make_shared<AdaptiveStream>();
  stream->messages = messages;
  stream->stream_packets = stream_packets;
  stream->select = std::move(select);
  // A small capture keeps the parked continuation inline.
  host.software_send([this, stream] {
    stream->slots.reserve(stream->messages.size());
    for (net::MessageId m : stream->messages) {
      if (state_of(m, "FpfsNi").entry.packet_count != stream->stream_packets) {
        throw std::logic_error(
            "FpfsNi: adaptive classes must be installed with the full "
            "stream as packet_count");
      }
      stream->slots.push_back(find_slot(m));
    }
    issue_adaptive(stream, 0);
  });
}

void FpfsNi::issue_adaptive(const std::shared_ptr<AdaptiveStream>& stream,
                            std::int32_t g) {
  // Childless classes advance synchronously; the loop re-enters from the
  // last copy's completion otherwise, so selection for packet g+1 sees
  // the fabric as of the instant packet g finished injecting.
  while (g < stream->stream_packets) {
    const std::size_t r = stream->select(g);
    MessageState& state = slot(stream->slots.at(r));
    const ForwardingEntry& entry = state.entry;
    const auto copies = static_cast<std::int32_t>(entry.children.size());
    hold_packet(state, g, copies);
    if (copies == 0) {
      ++g;
      continue;
    }
    for (std::size_t i = 0; i + 1 < entry.children.size(); ++i) {
      send_copy(stream->messages[r], g, entry.packet_count, entry.children[i],
                entry.route_class);
    }
    const std::int32_t next =
        coproc_.park([this, stream, g] { issue_adaptive(stream, g + 1); });
    send_copy(stream->messages[r], g, entry.packet_count,
              entry.children.back(), entry.route_class, next);
    return;
  }
}

void FpfsNi::on_packet_received(const net::Packet& packet,
                                MessageState& state) {
  const ForwardingEntry& entry = state.entry;
  if (entry.children.empty()) return;  // leaf: DMA to host only
  hold_packet(state, packet.packet_index,
              static_cast<std::int32_t>(entry.children.size()));
  for (topo::HostId child : entry.children) {
    send_copy(packet.message, packet.packet_index, packet.packet_count,
              child, entry.route_class);
  }
}

void FcfsNi::start_from_host(net::MessageId message, Host& host) {
  host.software_send([this, message] {
    MessageState& state = state_of(message, "FcfsNi");
    const ForwardingEntry& entry = state.entry;
    hold_all(state);
    // Child-major: the whole message to child i before child i+1 sees
    // anything.
    for (topo::HostId child : entry.children) {
      for (std::int32_t j = 0; j < entry.packet_count; ++j) {
        send_copy(message, j, entry.packet_count, child);
      }
    }
  });
}

void FcfsNi::on_packet_received(const net::Packet& packet,
                                MessageState& state) {
  const ForwardingEntry& entry = state.entry;
  if (entry.children.empty()) return;
  // Every packet will eventually be copied to every child; the copies to
  // children 2..c only get queued when the message is complete, which is
  // exactly why FCFS holds buffers so long.
  hold_packet(state, packet.packet_index,
              static_cast<std::int32_t>(entry.children.size()));
  send_copy(packet.message, packet.packet_index, packet.packet_count,
            entry.children.front());

  // `received` counts the packets before this one.
  if (state.received + 1 == entry.packet_count) {
    for (std::size_t i = 1; i < entry.children.size(); ++i) {
      for (std::int32_t j = 0; j < entry.packet_count; ++j) {
        send_copy(packet.message, j, entry.packet_count, entry.children[i]);
      }
    }
  }
}

}  // namespace nimcast::netif
