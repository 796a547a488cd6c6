// Session wiring: constructs the AH, participants and the simulated
// network channels between them, matching the draft's deployment shapes —
// "The AH can share an application to TCP participants, UDP participants,
// and several multicast addresses in the same sharing session" (§4.2).
// Multicast is modelled as one encode pass fanned out over per-receiver
// channels (the per-link loss/delay still differs per receiver).
#pragma once

#include <memory>
#include <vector>

#include "core/app_host.hpp"
#include "core/participant.hpp"
#include "net/egress.hpp"
#include "net/multicast.hpp"
#include "net/tcp_channel.hpp"
#include "net/udp_channel.hpp"
#include "relay/relay.hpp"

namespace ads {

/// The two simulated UDP channels of one participant link.
struct UdpLinkConfig {
  UdpChannelOptions down;  ///< AH → participant (remoting)
  UdpChannelOptions up;    ///< participant → AH (RTCP, HIP, BFCP)
};

/// The two simulated TCP channels of one participant link.
struct TcpLinkConfig {
  TcpChannelOptions down;  ///< AH → participant (remoting)
  TcpChannelOptions up;    ///< participant → AH (RTCP, HIP, BFCP)
};

/// Owns one AH, its participants and the simulated channels between them.
class SharingSession {
 public:
  /// Construct the session: one event loop, one AH, no participants yet.
  explicit SharingSession(AppHostOptions host_opts = {});
  ~SharingSession();

  /// The virtual clock everything in this session runs on.
  EventLoop& loop() { return loop_; }
  /// The Application Host this session wires participants to.
  AppHost& host() { return host_; }
  /// The session-wide telemetry sink (the AH's, shared by every channel the
  /// session creates). `telemetry().snapshot()` sees metrics from all
  /// layers: ah.*, encoder.*, cache.*, rtx.*, net.*, participant.*.
  telemetry::Telemetry& telemetry() { return host_.telemetry(); }

  /// One participant plus the channels wiring it to the AH.
  struct Connection {
    ParticipantId id = 0;
    std::unique_ptr<Participant> participant;
    // Exactly one pair is non-null depending on the transport.
    std::unique_ptr<UdpChannel> down_udp;
    std::unique_ptr<UdpChannel> up_udp;
    std::unique_ptr<TcpChannel> down_tcp;
    std::unique_ptr<TcpChannel> up_tcp;
    Egress up_egress;  ///< uplink RFC 4571 framing and carry (TCP)
  };

  /// Create a UDP participant wired through lossy channels. The
  /// participant has not joined yet — call join() on it (or use
  /// add_udp_participant_joined).
  Connection& add_udp_participant(ParticipantOptions opts = {},
                                  UdpLinkConfig link = {});
  /// Create a TCP participant wired through RFC 4571-framed channels;
  /// the AH pushes the §4.4 late-join state immediately.
  Connection& add_tcp_participant(ParticipantOptions opts = {},
                                  TcpLinkConfig link = {});

  /// Apply the output geometry a participant requested in its SDP answer
  /// (the a=geometry token on its accepted remoting m-line,
  /// docs/TRANSCODE.md) to its AH-side cohort operating point. Identity
  /// when the answer carries no token. Returns false on a malformed token
  /// or a geometry the AH rejects; the participant then stays at its
  /// previous geometry.
  bool apply_answer_geometry(Connection& c, const SessionDescription& answer);

  /// Sever a TCP participant's links (both directions) as a hard connection
  /// drop: in-flight data is lost, later writes are refused. The connection
  /// stays in the session for a later reconnect_tcp().
  void drop_tcp(Connection& c);

  /// Re-establish a dropped (or evicted) TCP participant: fresh channels,
  /// the AH re-registers the peer under its old id (BFCP/HIP identity and
  /// floor state survive) — or a fresh one if, after an eviction, the old
  /// id went to another participant — and resyncs it through the §4.4
  /// late-join path (WMI + full refresh); the participant resets its
  /// stream/loss state via on_transport_reset(). Counted in
  /// recovery.reconnects.
  void reconnect_tcp(Connection& c, TcpLinkConfig link = {});

  /// Successful reconnect_tcp() calls so far.
  std::uint64_t reconnects() const { return reconnects_; }
  /// Links severed by drop_tcp() or eviction so far.
  std::uint64_t dropped_links() const { return dropped_links_; }
  /// Connections torn down by the AH liveness sweep so far.
  std::uint64_t evicted_connections() const { return evicted_connections_; }

  /// Every connection created, in creation order (including dropped ones).
  const std::vector<std::unique_ptr<Connection>>& connections() const {
    return connections_;
  }

  /// One multicast session: the AH encodes and sends once; the group
  /// replicates to every member over that member's own last hop.
  struct MulticastMember {
    ParticipantId id = 0;
    std::unique_ptr<Participant> participant;
    std::unique_ptr<UdpChannel> up;
  };
  /// One multicast group: a shared stream identity plus its members.
  struct MulticastSession {
    ParticipantId group_id = 0;  ///< the AH-side stream identity
    std::unique_ptr<MulticastGroup> group;
    std::vector<std::unique_ptr<MulticastMember>> members;
  };

  /// Create an (initially empty) multicast session on the AH.
  MulticastSession& add_multicast_session();

  /// Join a member to a multicast session. `down` describes the member's
  /// last-hop from the multicast tree; `up` its unicast feedback path.
  MulticastMember& add_multicast_member(MulticastSession& mc,
                                        ParticipantOptions opts = {},
                                        UdpChannelOptions down = {},
                                        UdpChannelOptions up = {});

  /// Every multicast session created, in creation order.
  const std::vector<std::unique_ptr<MulticastSession>>& multicast_sessions() const {
    return multicast_;
  }

  /// Deepest relay cascade the session will wire (sanity bound; the paper's
  /// deployment shapes never need more than a few levels).
  static constexpr int kMaxRelayDepth = 8;

  /// One relay node in the cascade plus the channels of its upstream link.
  /// The handle's address is stable for the session's lifetime and every
  /// closure routes through it (never through raw node/channel pointers),
  /// so a crash_relay() that destroys the node mid-flight leaves no
  /// dangling capture behind.
  struct RelayHandle {
    std::unique_ptr<relay::RelayNode> node;
    std::unique_ptr<UdpChannel> down;  ///< upstream → relay (media + SRs)
    std::unique_ptr<UdpChannel> up;    ///< relay → upstream (RTCP/HIP/BFCP)
    ParticipantId upstream_id = 0;     ///< AH-side id (root relays only)
    RelayHandle* parent = nullptr;     ///< null for a root relay
    relay::LegId leg = 0;              ///< this relay's leg on its parent
    int depth = 1;                     ///< 1 = directly below the AH
    RelayHandle* backup = nullptr;     ///< preferred adopter on failover
    bool alive = true;                 ///< false between crash and restart
    relay::RelayOptions opts;          ///< resolved options (cold restart)
    UdpLinkConfig link;                ///< resolved link config (cold restart)
    relay::LegConfig leg_cfg;          ///< leg policy on the parent
    relay::RelayNode::Stats retired;   ///< crash-time counters (restart fold)
  };

  /// One viewer hanging off a relay leg (receives the relay's forwarded
  /// stream; its feedback terminates at that relay).
  struct RelayViewer {
    relay::LegId leg = 0;
    RelayHandle* relay = nullptr;
    std::unique_ptr<Participant> participant;
    std::unique_ptr<UdpChannel> down;  ///< relay → viewer
    std::unique_ptr<UdpChannel> up;    ///< viewer → relay
    relay::LegConfig leg_cfg;          ///< leg policy (restart re-attach)
  };

  /// Create a root relay fed by the AH: the AH sees one more UDP
  /// participant; the relay re-fans that stream to its own legs.
  RelayHandle& add_relay(relay::RelayOptions opts = {}, UdpLinkConfig link = {});
  /// Cascade a child relay below `parent` (one parent leg feeds the whole
  /// child subtree). Throws std::invalid_argument past kMaxRelayDepth.
  RelayHandle& add_relay_child(RelayHandle& parent,
                               relay::RelayOptions opts = {},
                               UdpLinkConfig link = {},
                               relay::LegConfig leg = {});
  /// Attach a viewer to one of `relay`'s legs.
  RelayViewer& add_relay_viewer(RelayHandle& relay,
                                ParticipantOptions opts = {},
                                UdpLinkConfig link = {},
                                relay::LegConfig leg = {});

  /// Every relay created, in creation order (roots and children).
  const std::vector<std::unique_ptr<RelayHandle>>& relays() const {
    return relays_;
  }
  /// Every relay viewer created, in creation order.
  const std::vector<std::unique_ptr<RelayViewer>>& relay_viewers() const {
    return relay_viewers_;
  }

  // ----- relay self-healing (crash, failover, restart) -----------------

  /// Configure `r`'s failover target. When its node declares the upstream
  /// dead the session re-parents it under `backup`; with no usable backup
  /// (dead, the dead parent itself, inside `r`'s own subtree, or one whose
  /// adoption would exceed kMaxRelayDepth) the nearest live ancestor above
  /// the dead parent adopts the subtree, falling back to the AH itself.
  void set_relay_backup(RelayHandle& r, RelayHandle* backup) {
    r.backup = backup;
  }

  /// Re-parent `r` (and implicitly its whole subtree) under `new_parent`
  /// (nullptr = directly under the AH) and resync it via the §4.4 path
  /// (RelayNode::adopt_upstream). The old parent's leg is withdrawn when
  /// that parent is still alive. Counted in recovery.relay_failovers when
  /// reached through the automatic path.
  void reparent_relay(RelayHandle& r, RelayHandle* new_parent);

  /// Kill a relay cold: node and channels destroyed, cache and in-flight
  /// traffic lost, its leg (or AH participant slot) withdrawn upstream.
  /// Children notice only through their own liveness watchdogs.
  void crash_relay(RelayHandle& r);

  /// Cold-restart a crashed relay: fresh channels (same deterministic
  /// seeds), a fresh node with an empty cache, re-attached under its
  /// current parent (or the nearest live ancestor / the AH — a root
  /// re-registers its OLD participant id), and fresh legs for every
  /// child and viewer still parented to it. The node then resyncs via
  /// the same adoption epoch as a failover (one upstream PLI pulls the
  /// §4.4 full refresh through the subtree). Lifetime counters fold so
  /// relay.rN.* telemetry stays monotone.
  void restart_relay(RelayHandle& r);

  /// Relays crashed via crash_relay() so far.
  std::uint64_t relay_crashes() const { return relay_crashes_; }
  /// Cold restarts via restart_relay() so far.
  std::uint64_t relay_restarts() const { return relay_restarts_; }
  /// Automatic subtree failovers (watchdog-triggered re-parenting) so far.
  std::uint64_t relay_failovers() const { return relay_failovers_; }

  /// Advance simulated time.
  void run_for(SimTime duration) { loop_.run_until(loop_.now() + duration); }

 private:
  /// Collector: sums every channel's / participant's ad-hoc Stats structs
  /// into net.udp.*, net.tcp.* and participant.* counters at snapshot time.
  void publish_net_metrics();
  /// Resolve one link direction: draw its seed from the session's link
  /// seed sequence when left at the default (1), and point it at the
  /// session telemetry.
  void resolve(UdpChannelOptions& ch);
  /// Build, attach, wire and start one relay under `parent` (nullptr = the
  /// AH). add_relay and add_relay_child both come through here.
  RelayHandle& make_relay(RelayHandle* parent, relay::RelayOptions opts,
                          UdpLinkConfig link, relay::LegConfig leg);
  /// Tear down a connection's channels (both transports), folding their
  /// stats into the retired totals; the Participant object survives with
  /// its replica and stats.
  void teardown_links(Connection& c);
  /// Install `r`'s channel receivers and node callbacks. Receivers read
  /// r->parent / r->leg / r->upstream_id at delivery time, so re-parenting
  /// never re-wires a channel.
  void wire_relay(RelayHandle* r);
  /// Register `r` on its upstream: a leg on r->parent, or an AH participant
  /// (reusing r->upstream_id when set). Sets r->leg and r->depth.
  void attach_relay_upstream(RelayHandle& r);
  /// Recompute descendant depths after a re-parent.
  void refresh_relay_depths(RelayHandle& r);
  /// Watchdog-triggered failover: pick backup / nearest live ancestor / AH
  /// and re-parent the orphan there.
  void failover_relay(RelayHandle& r);
  /// True when `candidate` sits inside `root`'s subtree (cycle guard).
  static bool relay_in_subtree(const RelayHandle& candidate,
                               const RelayHandle& root);

  EventLoop loop_;
  AppHost host_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::unique_ptr<MulticastSession>> multicast_;
  std::vector<std::unique_ptr<RelayHandle>> relays_;
  std::vector<std::unique_ptr<RelayViewer>> relay_viewers_;
  std::uint64_t link_seed_ = 0x11CE;
  UdpChannel::Stats retired_udp_;
  TcpChannel::Stats retired_tcp_;
  std::uint64_t dropped_links_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t evicted_connections_ = 0;
  std::uint64_t relay_crashes_ = 0;
  std::uint64_t relay_restarts_ = 0;
  std::uint64_t relay_failovers_ = 0;
};

}  // namespace ads
