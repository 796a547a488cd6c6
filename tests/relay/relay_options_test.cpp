// RelayOptions validation (same contract as AppHostOptions::validated):
// impossible settings throw std::invalid_argument, merely nonsensical ones
// are clamped into a working configuration — a misconfigured relay must
// never silently wedge a whole subtree.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/session.hpp"
#include "relay/relay.hpp"

namespace ads::relay {
namespace {

TEST(RelayOptions, ZeroMaxLegsThrows) {
  RelayOptions opts;
  opts.max_legs = 0;
  EXPECT_THROW(RelayNode::validated(opts), std::invalid_argument);
  EventLoop loop;
  EXPECT_THROW(RelayNode(loop, opts), std::invalid_argument);
}

TEST(RelayOptions, ZeroReportIntervalThrows) {
  RelayOptions opts;
  opts.report_interval_us = 0;
  EXPECT_THROW(RelayNode::validated(opts), std::invalid_argument);
}

TEST(RelayOptions, ZeroNackFlushClampedToNextTurn) {
  RelayOptions opts;
  opts.nack_flush_us = 0;
  EXPECT_EQ(RelayNode::validated(opts).nack_flush_us, 1u);
}

TEST(RelayOptions, HoldoffClampedUpToFlushInterval) {
  RelayOptions opts;
  opts.nack_flush_us = 50'000;
  opts.nack_holdoff_us = 10'000;  // re-request before the flush even fires
  EXPECT_EQ(RelayNode::validated(opts).nack_holdoff_us, 50'000u);
}

TEST(RelayOptions, TinyRetransmissionCacheClamped) {
  RelayOptions opts;
  opts.retransmission_cache = 0;
  EXPECT_EQ(RelayNode::validated(opts).retransmission_cache, 16u);
}

TEST(RelayOptions, RateLimitedBurstClampedToOnePacket) {
  RelayOptions opts;
  opts.link.rate_bps = 1'000'000;
  opts.link.burst_bytes = 100;  // below one MTU: nothing could ever send
  EXPECT_EQ(RelayNode::validated(opts).link.burst_bytes, 1500u);
  // Unlimited legs keep whatever burst was configured.
  opts.link.rate_bps = 0;
  opts.link.burst_bytes = 100;
  EXPECT_EQ(RelayNode::validated(opts).link.burst_bytes, 100u);
}

TEST(RelayOptions, SwappedAdaptationClampIsReordered) {
  RelayOptions opts;
  opts.link.adaptation.min_rate_bps = 5'000'000;
  opts.link.adaptation.max_rate_bps = 1'000'000;
  const RelayOptions v = RelayNode::validated(opts);
  EXPECT_LE(v.link.adaptation.min_rate_bps, v.link.adaptation.max_rate_bps);
}

TEST(RelayOptions, AdaptationBoundsAreNormalised) {
  // The same link validation as AppHostOptions.AdaptationBoundsAreNormalised.
  RelayOptions opts;
  opts.link.adaptation.enabled = true;
  opts.link.adaptation.min_rate_bps = 8'000'000;
  opts.link.adaptation.max_rate_bps = 1'000'000;
  opts.link.adaptation.initial_rate_bps = 64'000'000;
  opts.link.adaptation.max_fps_divisor = 0;
  opts.link.adaptation.backlog_window = 0;
  const RelayOptions v = RelayNode::validated(opts);
  EXPECT_EQ(v.link.adaptation.min_rate_bps, 1'000'000u);
  EXPECT_EQ(v.link.adaptation.max_rate_bps, 8'000'000u);
  EXPECT_EQ(v.link.adaptation.initial_rate_bps, 8'000'000u);
  EXPECT_EQ(v.link.adaptation.max_fps_divisor, 1);
  EXPECT_EQ(v.link.adaptation.backlog_window, 1);
}

TEST(RelayOptions, DefaultsAreAlreadyValid) {
  const RelayOptions defaults;
  const RelayOptions v = RelayNode::validated(defaults);
  EXPECT_EQ(v.max_legs, defaults.max_legs);
  EXPECT_EQ(v.report_interval_us, defaults.report_interval_us);
  EXPECT_EQ(v.nack_flush_us, defaults.nack_flush_us);
  EXPECT_EQ(v.nack_holdoff_us, defaults.nack_holdoff_us);
  EXPECT_EQ(v.retransmission_cache, defaults.retransmission_cache);
}

TEST(RelayOptions, AddLegBeyondMaxLegsThrows) {
  EventLoop loop;
  RelayOptions opts;
  opts.max_legs = 2;
  RelayNode node(loop, opts);
  Endpoint a, b, c;
  node.add_leg(std::move(a));
  node.add_leg(std::move(b));
  EXPECT_THROW(node.add_leg(std::move(c)), std::invalid_argument);
  EXPECT_EQ(node.leg_count(), 2u);
}

TEST(RelayOptions, RemoveLegFreesASlot) {
  EventLoop loop;
  RelayOptions opts;
  opts.max_legs = 1;
  RelayNode node(loop, opts);
  const LegId id = node.add_leg(Endpoint{});
  node.remove_leg(id);
  EXPECT_EQ(node.leg_count(), 0u);
  EXPECT_NO_THROW(node.add_leg(Endpoint{}));
}

TEST(RelaySession, CascadeDepthIsBounded) {
  SharingSession session;
  SharingSession::RelayHandle* relay = &session.add_relay();
  for (int depth = 2; depth <= SharingSession::kMaxRelayDepth; ++depth) {
    relay = &session.add_relay_child(*relay);
    EXPECT_EQ(relay->depth, depth);
  }
  EXPECT_THROW(session.add_relay_child(*relay), std::invalid_argument);
}

}  // namespace
}  // namespace ads::relay
