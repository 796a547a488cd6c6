#include "core/session.hpp"

#include <stdexcept>

namespace ads {
namespace {

// Endpoints read their channel through the owning handle's member at call
// time (connection, relay handle, relay viewer, multicast session — all
// heap-allocated and never moved): re-creating the channel needs no
// re-wiring, and a torn-down link turns sends into clean no-ops instead of
// dereferencing a dead channel.

/// UDP endpoint over a UdpChannel or MulticastGroup.
template <class Channel>
Endpoint udp_endpoint(const std::unique_ptr<Channel>& ch) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_datagram = [&ch](BytesView d) { return ch ? ch->send(d) : false; };
  ep.send_packet_batch = [&ch](std::span<const PacketView> pkts) {
    return ch ? ch->send_batch(pkts) : std::size_t{0};
  };
  return ep;
}

/// TCP endpoint over a TcpChannel (gather writes, §7 backlog signal).
Endpoint tcp_endpoint(const std::unique_ptr<TcpChannel>& ch) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.write_gather = [&ch](std::span<const BytesView> parts) {
    return ch ? ch->send_gather(parts) : std::size_t{0};
  };
  ep.backlog = [&ch] { return ch ? ch->backlog_bytes() : std::size_t{0}; };
  return ep;
}

/// Add one UDP channel's lifetime stats into `into` (null adds nothing).
void add_stats(UdpChannel::Stats& into, const UdpChannel* ch) {
  if (ch == nullptr) return;
  const UdpChannel::Stats& s = ch->stats();
  into.sent += s.sent;
  into.delivered += s.delivered;
  into.lost += s.lost;
  into.queue_dropped += s.queue_dropped;
  into.duplicated += s.duplicated;
  into.bytes_delivered += s.bytes_delivered;
}

/// Add one TCP channel's lifetime stats into `into` (null adds nothing).
void add_stats(TcpChannel::Stats& into, const TcpChannel* ch) {
  if (ch == nullptr) return;
  const TcpChannel::Stats& s = ch->stats();
  into.bytes_offered += s.bytes_offered;
  into.bytes_accepted += s.bytes_accepted;
  into.bytes_delivered += s.bytes_delivered;
  into.partial_writes += s.partial_writes;
  into.bytes_lost_on_drop += s.bytes_lost_on_drop;
}

}  // namespace

SharingSession::SharingSession(AppHostOptions host_opts)
    : host_(loop_, host_opts) {
  host_.telemetry().metrics.add_collector(this, [this] { publish_net_metrics(); });
  // Liveness evictions reclaim the session-side transport too. The
  // Participant object is kept: its replica and stats outlive the links,
  // and reconnect_tcp() can revive the connection.
  host_.set_eviction_handler([this](ParticipantId id) {
    for (auto& conn : connections_) {
      if (conn->id != id) continue;
      teardown_links(*conn);
      ++evicted_connections_;
    }
  });
}

SharingSession::~SharingSession() {
  // Before members die: the collector walks connections_ and multicast_.
  host_.telemetry().metrics.remove_collectors(this);
}

void SharingSession::publish_net_metrics() {
  UdpChannel::Stats udp = retired_udp_;
  TcpChannel::Stats tcp = retired_tcp_;
  Participant::Stats part;
  const auto add_part = [&part](const Participant* p) {
    if (p == nullptr) return;
    const Participant::Stats& s = p->stats();
    part.rtp_packets += s.rtp_packets;
    part.bytes_received += s.bytes_received;
    part.region_updates += s.region_updates;
    part.move_rectangles += s.move_rectangles;
    part.wmi_received += s.wmi_received;
    part.pointer_updates += s.pointer_updates;
    part.decode_errors += s.decode_errors;
    part.orphan_fragments += s.orphan_fragments;
    part.nacks_sent += s.nacks_sent;
    part.plis_sent += s.plis_sent;
    part.gaps_skipped += s.gaps_skipped;
    part.hip_sent += s.hip_sent;
    part.rrs_sent += s.rrs_sent;
    part.srs_received += s.srs_received;
    part.nack_escalations += s.nack_escalations;
    part.starvation_plis += s.starvation_plis;
    part.transport_resets += s.transport_resets;
  };

  for (const auto& c : connections_) {
    add_stats(udp, c->down_udp.get());
    add_stats(udp, c->up_udp.get());
    add_stats(tcp, c->down_tcp.get());
    add_stats(tcp, c->up_tcp.get());
    add_part(c->participant.get());
  }
  for (const auto& mc : multicast_) {
    for (std::size_t i = 0; i < mc->group->member_count(); ++i) {
      add_stats(udp, &mc->group->member(i));
    }
    for (const auto& m : mc->members) {
      add_stats(udp, m->up.get());
      add_part(m->participant.get());
    }
  }
  for (const auto& r : relays_) {
    add_stats(udp, r->down.get());
    add_stats(udp, r->up.get());
  }
  for (const auto& v : relay_viewers_) {
    add_stats(udp, v->down.get());
    add_stats(udp, v->up.get());
    add_part(v->participant.get());
  }

  auto& met = host_.telemetry().metrics;
  met.counter("net.udp.sent").set(udp.sent);
  met.counter("net.udp.delivered").set(udp.delivered);
  met.counter("net.udp.lost").set(udp.lost);
  met.counter("net.udp.queue_dropped").set(udp.queue_dropped);
  met.counter("net.udp.duplicated").set(udp.duplicated);
  met.counter("net.udp.bytes_delivered").set(udp.bytes_delivered);
  met.counter("net.tcp.bytes_offered").set(tcp.bytes_offered);
  met.counter("net.tcp.bytes_accepted").set(tcp.bytes_accepted);
  met.counter("net.tcp.bytes_delivered").set(tcp.bytes_delivered);
  met.counter("net.tcp.partial_writes").set(tcp.partial_writes);
  met.counter("net.tcp.bytes_lost_on_drop").set(tcp.bytes_lost_on_drop);
  met.counter("participant.rtp_packets").set(part.rtp_packets);
  met.counter("participant.bytes_received").set(part.bytes_received);
  met.counter("participant.region_updates").set(part.region_updates);
  met.counter("participant.move_rectangles").set(part.move_rectangles);
  met.counter("participant.wmi_received").set(part.wmi_received);
  met.counter("participant.pointer_updates").set(part.pointer_updates);
  met.counter("participant.decode_errors").set(part.decode_errors);
  met.counter("participant.orphan_fragments").set(part.orphan_fragments);
  met.counter("participant.nacks_sent").set(part.nacks_sent);
  met.counter("participant.plis_sent").set(part.plis_sent);
  met.counter("participant.gaps_skipped").set(part.gaps_skipped);
  met.counter("participant.hip_sent").set(part.hip_sent);
  met.counter("participant.rrs_sent").set(part.rrs_sent);
  met.counter("participant.srs_received").set(part.srs_received);
  met.counter("participant.nack_escalations").set(part.nack_escalations);
  met.counter("participant.starvation_plis").set(part.starvation_plis);
  met.counter("participant.transport_resets").set(part.transport_resets);
  met.counter("recovery.dropped_links").set(dropped_links_);
  met.counter("recovery.reconnects").set(reconnects_);
  met.counter("recovery.evicted_connections").set(evicted_connections_);
  met.counter("recovery.relay_crashes").set(relay_crashes_);
  met.counter("recovery.relay_restarts").set(relay_restarts_);
  met.counter("recovery.relay_failovers").set(relay_failovers_);
}

void SharingSession::resolve(UdpChannelOptions& ch) {
  if (ch.seed == 1) ch.seed = ++link_seed_;
  ch.telemetry = &host_.telemetry();
}

void SharingSession::teardown_links(Connection& c) {
  // Fold the channels' stats into the retired totals first, so net.*
  // counters never run backwards when a link dies.
  add_stats(retired_udp_, c.down_udp.get());
  add_stats(retired_udp_, c.up_udp.get());
  add_stats(retired_tcp_, c.down_tcp.get());
  add_stats(retired_tcp_, c.up_tcp.get());
  // Channel destructors cancel in-flight deliveries (weak-ptr tokens) and
  // withdraw their share of the net.tcp.backlog gauge.
  c.down_udp.reset();
  c.up_udp.reset();
  c.down_tcp.reset();
  c.up_tcp.reset();
  c.up_egress.clear();
}

void SharingSession::drop_tcp(Connection& c) {
  if (!c.down_tcp && !c.up_tcp) return;
  if (c.down_tcp) c.down_tcp->drop();
  if (c.up_tcp) c.up_tcp->drop();
  ++dropped_links_;
}

void SharingSession::reconnect_tcp(Connection& c, TcpLinkConfig link) {
  // The AH forgets the old transport first — its endpoint closures point at
  // the channels about to die. A connection without links was evicted: the
  // AH already dropped its id, which may since belong to someone else.
  if (c.down_tcp || c.up_tcp || c.down_udp || c.up_udp) {
    host_.remove_participant(c.id);
  }
  teardown_links(c);

  link.down.telemetry = &host_.telemetry();
  link.up.telemetry = &host_.telemetry();
  c.down_tcp = std::make_unique<TcpChannel>(loop_, link.down);
  c.up_tcp = std::make_unique<TcpChannel>(loop_, link.up);

  // Same id while it is free: BFCP floor state and HIP identity survive.
  // A re-issued id falls back to a fresh one, which the participant adopts
  // as its BFCP user id. Re-registering as a TCP endpoint queues the §4.4
  // late-join resync (WMI + full refresh), and the fresh AH-side
  // ParticipantState brings a fresh uplink deframer (no torn-frame prefix
  // from the old stream).
  c.id = host_.add_participant(tcp_endpoint(c.down_tcp), c.id);
  c.participant->set_user_id(c.id);

  c.down_tcp->set_receiver(
      [p = c.participant.get()](Bytes data) { p->on_stream_bytes(data); });
  c.up_tcp->set_receiver([this, id = c.id](Bytes data) {
    host_.on_uplink_stream(id, data);
  });
  c.participant->on_transport_reset();
  ++reconnects_;
}

SharingSession::Connection& SharingSession::add_udp_participant(
    ParticipantOptions opts, UdpLinkConfig link) {
  auto conn = std::make_unique<Connection>();
  Connection* c = conn.get();

  opts.transport = ParticipantOptions::Transport::kUdp;
  resolve(link.down);
  resolve(link.up);

  c->down_udp = std::make_unique<UdpChannel>(loop_, link.down);
  c->up_udp = std::make_unique<UdpChannel>(loop_, link.up);

  c->id = host_.add_participant(udp_endpoint(c->down_udp));
  opts.user_id = c->id;

  c->participant = std::make_unique<Participant>(loop_, opts);
  c->down_udp->set_receiver(
      [p = c->participant.get()](Bytes data) { p->on_datagram(data); });
  c->up_udp->set_receiver([this, id = c->id](Bytes data) {
    host_.on_uplink_packet(id, data);
  });
  // Route through the Connection, not the channel: eviction can destroy the
  // link while the participant (timers still pending) outlives it.
  c->participant->set_uplink([c](BytesView packet) {
    if (c->up_udp) c->up_udp->send(packet);
  });

  connections_.push_back(std::move(conn));
  return *connections_.back();
}

SharingSession::Connection& SharingSession::add_tcp_participant(
    ParticipantOptions opts, TcpLinkConfig link) {
  auto conn = std::make_unique<Connection>();
  Connection* c = conn.get();

  opts.transport = ParticipantOptions::Transport::kTcp;
  opts.send_nacks = false;  // TCP repairs loss itself
  link.down.telemetry = &host_.telemetry();
  link.up.telemetry = &host_.telemetry();

  c->down_tcp = std::make_unique<TcpChannel>(loop_, link.down);
  c->up_tcp = std::make_unique<TcpChannel>(loop_, link.up);

  c->id = host_.add_participant(tcp_endpoint(c->down_tcp));
  opts.user_id = c->id;

  c->participant = std::make_unique<Participant>(loop_, opts);
  c->down_tcp->set_receiver(
      [p = c->participant.get()](Bytes data) { p->on_stream_bytes(data); });
  c->up_tcp->set_receiver([this, id = c->id](Bytes data) {
    host_.on_uplink_stream(id, data);
  });
  // Participant emits packets; the uplink egress adds RFC 4571 framing.
  // Routed through the Connection (not a raw channel pointer) so the
  // closure survives eviction teardown and keeps working against the fresh
  // channel after reconnect_tcp().
  c->up_egress = Egress(tcp_endpoint(c->up_tcp));
  c->participant->set_uplink([c](BytesView packet) {
    if (c->up_tcp) c->up_egress.send_control(packet);
  });

  connections_.push_back(std::move(conn));
  return *connections_.back();
}

bool SharingSession::apply_answer_geometry(Connection& c,
                                           const SessionDescription& answer) {
  const auto geom = answer_geometry(answer);
  if (!geom) return false;
  return host_.set_participant_geometry(c.id, *geom);
}

void SharingSession::wire_relay(RelayHandle* r) {
  // Every closure reads the handle at delivery time: re-parenting changes
  // r->parent / r->leg without re-wiring a channel, and a crash that nulls
  // node/channels turns deliveries into clean no-ops.
  r->down->set_receiver([r](Bytes data) {
    if (r->node) r->node->on_upstream_datagram(std::move(data));
  });
  r->up->set_receiver([this, r](Bytes data) {
    if (r->parent == nullptr) {
      host_.on_uplink_packet(r->upstream_id, data);
    } else if (r->parent->alive && r->parent->node) {
      r->parent->node->on_leg_packet(r->leg, data);
    }
  });
  r->node->set_upstream([r](BytesView packet) {
    return r->up ? r->up->send(packet) : false;
  });
  r->node->set_upstream_lost([this, r] { failover_relay(*r); });
}

void SharingSession::attach_relay_upstream(RelayHandle& r) {
  if (r.parent == nullptr) {
    // The AH sees the relay as one more UDP participant: it gets the full
    // encode fan-out (joining the shared-encode cohort) and its uplink is
    // the aggregated feedback for the entire subtree. Re-attaching with a
    // known id (failover / restart) resyncs via the §4.4 late-join path.
    r.upstream_id = host_.add_participant(udp_endpoint(r.down), r.upstream_id);
    r.leg = 0;
    r.depth = 1;
  } else {
    // One parent leg feeds this child's whole subtree.
    r.leg = r.parent->node->add_leg(udp_endpoint(r.down), r.leg_cfg);
    r.depth = r.parent->depth + 1;
  }
}

void SharingSession::refresh_relay_depths(RelayHandle& r) {
  for (auto& c : relays_) {
    if (c->parent == &r) {
      c->depth = r.depth + 1;
      refresh_relay_depths(*c);
    }
  }
}

bool SharingSession::relay_in_subtree(const RelayHandle& candidate,
                                      const RelayHandle& root) {
  for (const RelayHandle* p = &candidate; p != nullptr; p = p->parent) {
    if (p == &root) return true;
  }
  return false;
}

SharingSession::RelayHandle& SharingSession::add_relay(
    relay::RelayOptions opts, UdpLinkConfig link) {
  return make_relay(nullptr, std::move(opts), link, {});
}

SharingSession::RelayHandle& SharingSession::add_relay_child(
    RelayHandle& parent, relay::RelayOptions opts, UdpLinkConfig link,
    relay::LegConfig leg) {
  if (parent.depth + 1 > kMaxRelayDepth) {
    throw std::invalid_argument("SharingSession: relay cascade too deep");
  }
  return make_relay(&parent, std::move(opts), link, leg);
}

SharingSession::RelayHandle& SharingSession::make_relay(
    RelayHandle* parent, relay::RelayOptions opts, UdpLinkConfig link,
    relay::LegConfig leg) {
  auto handle = std::make_unique<RelayHandle>();
  RelayHandle* r = handle.get();
  r->parent = parent;

  resolve(link.down);
  resolve(link.up);
  // Distinct per-node identity and metrics namespace within one session.
  opts.telemetry = &host_.telemetry();
  opts.metrics_prefix = "relay.r" + std::to_string(relays_.size() + 1) + ".";
  opts.seed ^= (relays_.size() + 1) << 20;
  // The resolved configs survive in the handle so a cold restart rebuilds
  // the same deterministic node and channels.
  r->opts = opts;
  r->link = link;
  r->leg_cfg = leg;

  r->down = std::make_unique<UdpChannel>(loop_, link.down);
  r->up = std::make_unique<UdpChannel>(loop_, link.up);
  r->node = std::make_unique<relay::RelayNode>(loop_, std::move(opts));

  attach_relay_upstream(*r);
  wire_relay(r);
  r->node->start();

  relays_.push_back(std::move(handle));
  return *relays_.back();
}

SharingSession::RelayViewer& SharingSession::add_relay_viewer(
    RelayHandle& relay, ParticipantOptions opts, UdpLinkConfig link,
    relay::LegConfig leg) {
  auto viewer = std::make_unique<RelayViewer>();
  RelayViewer* v = viewer.get();
  v->relay = &relay;

  opts.transport = ParticipantOptions::Transport::kUdp;
  resolve(link.down);
  resolve(link.up);
  v->leg_cfg = leg;

  v->down = std::make_unique<UdpChannel>(loop_, link.down);
  v->up = std::make_unique<UdpChannel>(loop_, link.up);

  v->leg = relay.node->add_leg(udp_endpoint(v->down), leg);

  v->participant = std::make_unique<Participant>(loop_, opts);
  v->down->set_receiver(
      [p = v->participant.get()](Bytes data) { p->on_datagram(data); });
  // Handle-routed: v->leg is refreshed when a restarted relay re-adds the
  // leg, and a dead relay simply drops the viewer's feedback.
  v->up->set_receiver([v](Bytes data) {
    if (v->relay->alive && v->relay->node) {
      v->relay->node->on_leg_packet(v->leg, data);
    }
  });
  v->participant->set_uplink([v](BytesView packet) {
    if (v->up) v->up->send(packet);
  });

  relay_viewers_.push_back(std::move(viewer));
  return *relay_viewers_.back();
}

void SharingSession::reparent_relay(RelayHandle& r, RelayHandle* new_parent) {
  if (!r.alive || r.node == nullptr) return;
  if (new_parent != nullptr) {
    if (!new_parent->alive || new_parent->node == nullptr) {
      throw std::invalid_argument("SharingSession: new relay parent is dead");
    }
    if (new_parent == &r || relay_in_subtree(*new_parent, r)) {
      throw std::invalid_argument("SharingSession: relay re-parent would cycle");
    }
    if (new_parent->depth + 1 > kMaxRelayDepth) {
      throw std::invalid_argument("SharingSession: relay cascade too deep");
    }
  }
  // Withdraw from the old upstream (a dead parent already forgot the leg).
  if (r.parent != nullptr) {
    if (r.parent->alive && r.parent->node) r.parent->node->remove_leg(r.leg);
  } else if (r.upstream_id != 0 && new_parent != nullptr) {
    // Root moving under a relay: release the AH slot. A later re-parent
    // back to the AH registers afresh (the subtree resyncs either way).
    host_.remove_participant(r.upstream_id);
    r.upstream_id = 0;
  }
  r.parent = new_parent;
  attach_relay_upstream(r);
  refresh_relay_depths(r);
  // §4.4 resync into the new upstream epoch: fresh receiver / cache /
  // holdoff state, then a PLI so the new parent's stream keys in cleanly.
  r.node->adopt_upstream();
}

void SharingSession::failover_relay(RelayHandle& r) {
  ++relay_failovers_;
  // Ladder: configured backup, else nearest live ancestor ABOVE the dead
  // parent (the parent itself was just declared dead), else the AH. A
  // backup that IS that parent is skipped — re-parenting onto the node
  // just declared silent would orphan again every watchdog period — and
  // an over-deep backup is as useless as a dead one: letting
  // reparent_relay throw on this automatic (event-loop) path would
  // terminate the run and freeze the orphan.
  RelayHandle* target = nullptr;
  if (r.backup != nullptr && r.backup != &r && r.backup != r.parent &&
      r.backup->alive && r.backup->node != nullptr &&
      r.backup->depth + 1 <= kMaxRelayDepth &&
      !relay_in_subtree(*r.backup, r)) {
    target = r.backup;
  }
  if (target == nullptr && r.parent != nullptr) {
    for (RelayHandle* a = r.parent->parent; a != nullptr; a = a->parent) {
      if (a->alive && a->node != nullptr && !relay_in_subtree(*a, r)) {
        target = a;
        break;
      }
    }
  }
  reparent_relay(r, target);
}

void SharingSession::crash_relay(RelayHandle& r) {
  if (!r.alive || r.node == nullptr) return;
  // Quiesce first — holdoff windows die, the cache drops — so the crash
  // snapshot below includes the quiesce accounting and the restart fold
  // keeps the relay.rN.* namespace monotone across incarnations.
  r.node->stop();
  r.retired = r.node->stats();
  // Withdraw the upstream attachment so the upstream stops feeding a dead
  // link: a live parent forgets the leg; a root relay's AH slot is
  // deregistered (mirroring reconnect_tcp), keeping r.upstream_id so
  // restart_relay re-registers the SAME id and resyncs via the §4.4
  // late-join path. Leaving the slot registered would leak it — a restart
  // would allocate a second id double-feeding this handle's down channel.
  if (r.parent != nullptr) {
    if (r.parent->alive && r.parent->node) r.parent->node->remove_leg(r.leg);
  } else if (r.upstream_id != 0) {
    host_.remove_participant(r.upstream_id);
  }
  add_stats(retired_udp_, r.down.get());
  add_stats(retired_udp_, r.up.get());
  // Node destruction publishes one final stopped-state snapshot (per-leg
  // backlog/rate gauges read zero while the node is down) and withdraws
  // the collector. Channel destructors cancel in-flight deliveries via
  // their weak-ptr tokens.
  r.node.reset();
  r.down.reset();
  r.up.reset();
  r.alive = false;
  ++relay_crashes_;
}

void SharingSession::restart_relay(RelayHandle& r) {
  if (r.alive) return;
  // Same resolved configs (and therefore the same deterministic seeds) as
  // the first incarnation.
  r.down = std::make_unique<UdpChannel>(loop_, r.link.down);
  r.up = std::make_unique<UdpChannel>(loop_, r.link.up);
  r.node = std::make_unique<relay::RelayNode>(loop_, r.opts);
  r.node->fold_stats(r.retired);
  r.alive = true;
  // If the old parent died while this node was down, climb to the nearest
  // live ancestor (nullptr = the AH adopts it).
  if (r.parent != nullptr && !r.parent->alive) {
    RelayHandle* a = r.parent->parent;
    while (a != nullptr && !a->alive) a = a->parent;
    r.parent = a;
  }
  wire_relay(&r);
  attach_relay_upstream(r);
  refresh_relay_depths(r);
  // Children and viewers still parented here get fresh legs on the new
  // node; their handle-routed receivers pick up the new leg ids at the
  // next delivery. Orphaned children re-home through their own watchdogs.
  for (auto& c : relays_) {
    if (c->parent == &r && c->alive && c->node) {
      c->leg = r.node->add_leg(udp_endpoint(c->down), c->leg_cfg);
    }
  }
  for (auto& v : relay_viewers_) {
    if (v->relay == &r) {
      v->leg = r.node->add_leg(udp_endpoint(v->down), v->leg_cfg);
    }
  }
  r.node->start();
  // The documented same-id resync, made real: a cold restart begins a new
  // upstream epoch exactly like a failover adoption — the PLI it sends
  // upward reaches the AH (directly, or relayed through the parent) and
  // pulls the §4.4 full refresh through the whole re-attached subtree.
  r.node->adopt_upstream();
  ++relay_restarts_;
}

SharingSession::MulticastSession& SharingSession::add_multicast_session() {
  auto mc = std::make_unique<MulticastSession>();
  mc->group = std::make_unique<MulticastGroup>(loop_);

  mc->group_id = host_.add_participant(udp_endpoint(mc->group));

  multicast_.push_back(std::move(mc));
  return *multicast_.back();
}

SharingSession::MulticastMember& SharingSession::add_multicast_member(
    MulticastSession& mc, ParticipantOptions opts, UdpChannelOptions down,
    UdpChannelOptions up) {
  auto member = std::make_unique<MulticastMember>();
  opts.transport = ParticipantOptions::Transport::kUdp;
  resolve(down);
  resolve(up);

  UdpChannel& down_channel = mc.group->add_member(down);
  member->up = std::make_unique<UdpChannel>(loop_, up);
  member->id = host_.add_member_alias(mc.group_id);
  opts.user_id = member->id;
  // Draw per-member NACK jitter unless the caller set one: this is the
  // §5.3.2 storm-avoidance randomisation.
  if (opts.nack_jitter_us == 0) opts.nack_jitter_us = 30'000;

  member->participant = std::make_unique<Participant>(loop_, opts);
  down_channel.set_receiver(
      [p = member->participant.get()](Bytes data) { p->on_datagram(data); });
  member->up->set_receiver([this, id = member->id](Bytes data) {
    host_.on_uplink_packet(id, data);
  });
  member->participant->set_uplink(
      [upc = member->up.get()](BytesView packet) { upc->send(packet); });

  mc.members.push_back(std::move(member));
  return *mc.members.back();
}

}  // namespace ads
