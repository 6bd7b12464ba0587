#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netif/buffer_tracker.hpp"
#include "netif/forwarding.hpp"
#include "netif/host.hpp"
#include "netif/serial_server.hpp"
#include "netif/system_params.hpp"
#include "network/wormhole_network.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace nimcast::netif {

/// Base network interface model.
///
/// One per host. The NI owns a coprocessor (a `SerialServer`): accepting a
/// packet from the network costs `t_rcv`, injecting one copy costs
/// `t_snd`. Subclasses implement the multicast forwarding discipline —
/// what the coprocessor firmware does with a received multicast packet and
/// how the source side schedules the initial copies.
///
/// Coprocessor work is typed: receive-process, buffer-accounted send and
/// plain inject jobs carry a packet header and run through one switch
/// (run_job); anything else is a parked continuation. Per-message state
/// is flat: a 4-byte message -> slot index, grown to the largest message
/// id installed *here*, and one dense MessageState per installed entry.
///
/// The engine wires `on_message_at_ni` to fire when this NI has received
/// (and finished receive-processing of) every packet of a message for
/// which it is a destination; host-level completion (the +t_r) is layered
/// on top by the engine through the Host object.
class NetworkInterface : public net::DeliverySink, private JobRunner {
 public:
  /// Binds itself as `self`'s delivery sink on `network` — packets
  /// addressed to `self` arrive through deliver() with no per-packet
  /// closure or engine-installed dispatch in between.
  NetworkInterface(sim::Simulator& simctx, net::WormholeNetwork& network,
                   SystemParams params, topo::HostId self,
                   sim::Trace* trace = nullptr);
  ~NetworkInterface() override = default;

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  /// Installs multicast forwarding state for `message` (>= 0). Must be
  /// called on every participant's NI before the source begins, and not
  /// again for a message while any of its packets is held.
  void install(net::MessageId message, ForwardingEntry entry);

  /// Source-side entry point: begins the multicast at this node, charging
  /// whatever host software cost the NI style requires (smart NIs: one
  /// t_s to move the message into NI memory; conventional NIs: one t_s
  /// per child, with the message staying in host memory).
  virtual void start_from_host(net::MessageId message, Host& host) = 0;

  /// Network delivery entry point: a packet has fully arrived in the NI
  /// receive queue. Receive processing (t_rcv) is queued on the
  /// coprocessor; the discipline hook runs when it completes. Virtual so
  /// protocol layers (e.g. the reliable NI) can interpose on raw
  /// arrivals (ACKs, duplicates) before the standard path.
  virtual void deliver(const net::Packet& packet);

  /// DeliverySink: the network hands this NI its own fully-arrived
  /// packets; routes through the virtual deliver() so protocol layers
  /// keep their interposition point.
  void on_packet_delivered(const net::Packet& packet) final {
    deliver(packet);
  }

  /// Called by the engine after the destination host finished its t_r for
  /// `message` (the message is now in application memory). Conventional
  /// NIs forward to children from here; smart NIs ignore it.
  virtual void after_host_receive(net::MessageId message, Host& host);

  /// Fired once per (destination NI, message): all packets received and
  /// receive-processed.
  std::function<void(topo::HostId, net::MessageId)> on_message_at_ni;

  /// Fired once per receive-processed data packet, after the forwarding
  /// discipline ran. Unset (the default) costs the hot path one branch;
  /// the streaming engine binds it to drive per-packet in-order
  /// reassembly accounting.
  std::function<void(topo::HostId, const net::Packet&)> on_packet_at_ni;

  [[nodiscard]] topo::HostId id() const { return self_; }
  [[nodiscard]] const BufferTracker& buffer() const { return buffer_; }
  [[nodiscard]] const SerialServer& coprocessor() const { return coproc_; }
  /// Coprocessor backlog: jobs queued plus jobs in service. The
  /// adaptive streaming selector samples this at telemetry snapshots as
  /// the NI-side congestion signal.
  [[nodiscard]] std::int64_t injection_queue_depth() const {
    return static_cast<std::int64_t>(coproc_.queued()) + coproc_.active();
  }
  /// Bytes of the message index and slot array: grows with the messages
  /// installed here, never with hosts or with other NIs' messages.
  [[nodiscard]] std::size_t state_bytes() const {
    return slot_of_.capacity() * sizeof(std::int32_t) +
           slots_.capacity() * sizeof(MessageState);
  }
  [[nodiscard]] const SystemParams& params() const { return params_; }
  [[nodiscard]] virtual const char* style() const = 0;

 protected:
  /// Reliable NI: one (packet, child) edge's retransmission state.
  struct PendingSend {
    sim::EventId timer;
    std::int32_t attempts = 0;
    bool live = false;
  };

  /// Everything this NI knows about one installed message.
  struct MessageState {
    ForwardingEntry entry;
    std::int32_t received = 0;  ///< distinct data packets processed
    /// Per packet: copies still to go out, kNotHeld when not resident.
    /// Sized at install for nodes with children (leaves never hold).
    std::vector<std::int32_t> copies;
    /// Reliable NI, sized on first use: per packet, seen; per (packet,
    /// child position), the edge's pending send.
    std::vector<std::uint8_t> seen;
    std::vector<PendingSend> pending;
  };
  static constexpr std::int32_t kNotHeld = -1;

  /// Discipline hook: a multicast packet finished receive processing.
  /// Forward copies as the discipline dictates (leaves do nothing).
  /// `state.received` does not count `packet` yet.
  virtual void on_packet_received(const net::Packet& packet,
                                  MessageState& state) = 0;

  /// Protocol hook before a receive-processed data packet counts: false
  /// swallows it (the reliable NI drops duplicates here).
  virtual bool accept_data(const net::Packet& packet, MessageState& state);

  /// A job of `kind` injecting one copy of packet `index` to `child`
  /// under `route_class`, costing t_snd.
  [[nodiscard]] Job copy_job(JobKind kind, net::MessageId message,
                             std::int32_t index, std::int32_t packet_count,
                             topo::HostId child,
                             std::int32_t route_class = 0) const;

  /// Queues one buffer-accounted copy (kSend): its injection releases one
  /// of the held packet's copies, freeing the buffer slot at zero, then
  /// runs the continuation parked at `then` (see SerialServer::park), if
  /// any. The adaptive streaming source hangs the *next* packet's member
  /// selection off its last copy this way — the continuation enqueues
  /// before the coprocessor picks its next job, so the issue stream's
  /// timing is byte-identical to enqueueing everything upfront.
  void send_copy(net::MessageId message, std::int32_t index,
                 std::int32_t packet_count, topo::HostId child,
                 std::int32_t route_class = 0, std::int32_t then = -1) {
    Job job = copy_job(JobKind::kSend, message, index, packet_count, child,
                       route_class);
    job.slot = then;
    coproc_.enqueue(job);
  }

  /// Declares that packet `index` is resident in NI memory and will be
  /// copied out `copies` times. Acquires a buffer slot (released
  /// immediately when copies == 0).
  void hold_packet(MessageState& state, std::int32_t index,
                   std::int32_t copies);
  /// hold_packet for every packet, one copy per child.
  void hold_all(MessageState& state);

  /// Decrements a held packet's outstanding-copy count without sending
  /// (the reliable NI releases on acknowledgment, not on injection).
  void release_copy(MessageState& state, std::int32_t index);

  /// Slot of an installed message, or -1.
  [[nodiscard]] std::int32_t find_slot(net::MessageId message) const {
    const auto m = static_cast<std::size_t>(message);
    return message >= 0 && m < slot_of_.size() ? slot_of_[m] : -1;
  }
  /// A slot's state; references stay valid until the next install().
  [[nodiscard]] MessageState& slot(std::int32_t s) {
    return slots_[static_cast<std::size_t>(s)];
  }
  /// State of an installed message; throws std::logic_error naming `who`
  /// when `message` is not installed here.
  [[nodiscard]] MessageState& state_of(net::MessageId message, const char* who);

  /// Records an NI trace line (callers test `trace_` first, so the
  /// string is only built when tracing).
  void note(const std::string& what) {
    trace_->record(sim_.now(), sim::TraceCategory::kNi, self_, what);
  }

  sim::Simulator& sim_;
  net::WormholeNetwork& network_;
  SystemParams params_;
  topo::HostId self_;
  sim::Trace* trace_;
  SerialServer coproc_;
  BufferTracker buffer_;

 private:
  /// The coprocessor's dispatch switch.
  void run_job(const Job& job) final;
  void receive(const net::Packet& packet);

  std::vector<std::int32_t> slot_of_;  // message id -> slot, or -1
  std::vector<MessageState> slots_;
};

}  // namespace nimcast::netif
