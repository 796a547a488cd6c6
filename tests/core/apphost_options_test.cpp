// AppHostOptions::validated(): impossible settings are rejected at
// construction, nonsensical-but-recoverable combinations are clamped, and
// sensible configurations pass through untouched.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/app_host.hpp"

namespace ads {
namespace {

TEST(AppHostOptions, DefaultsAreValidAndUnchanged) {
  AppHostOptions opts;
  const AppHostOptions v = AppHost::validated(opts);
  EXPECT_EQ(v.frame_interval_us, opts.frame_interval_us);
  EXPECT_EQ(v.screen_width, opts.screen_width);
  EXPECT_EQ(v.damage_tile, opts.damage_tile);
  EXPECT_EQ(v.link.burst_bytes, opts.link.burst_bytes);
  EXPECT_EQ(v.link.backlog_limit, opts.link.backlog_limit);
}

TEST(AppHostOptions, ZeroFrameIntervalThrows) {
  AppHostOptions opts;
  opts.frame_interval_us = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  EventLoop loop;
  EXPECT_THROW(AppHost(loop, opts), std::invalid_argument);
}

TEST(AppHostOptions, NonPositiveScreenThrows) {
  AppHostOptions opts;
  opts.screen_width = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
  opts.screen_width = 640;
  opts.screen_height = -1;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
}

TEST(AppHostOptions, ZeroMtuThrows) {
  AppHostOptions opts;
  opts.mtu_payload = 0;
  EXPECT_THROW(AppHost::validated(opts), std::invalid_argument);
}

TEST(AppHostOptions, NonPositiveDamageTileClampsToDefault) {
  AppHostOptions opts;
  opts.damage_tile = 0;
  EXPECT_EQ(AppHost::validated(opts).damage_tile, 32);
  opts.damage_tile = -8;
  EXPECT_EQ(AppHost::validated(opts).damage_tile, 32);
}

TEST(AppHostOptions, NegativeBandRowsClampToDisabled) {
  AppHostOptions opts;
  opts.region_band_rows = -1;
  EXPECT_EQ(AppHost::validated(opts).region_band_rows, 0);
}

TEST(AppHostOptions, RateControlledBurstCoversOneMtu) {
  // A burst that cannot cover a single MTU would gate every frame forever;
  // with §4.3 rate control (or adaptation) active it is raised to the MTU.
  AppHostOptions opts;
  opts.link.rate_bps = 1'000'000;
  opts.link.burst_bytes = 100;
  EXPECT_EQ(AppHost::validated(opts).link.burst_bytes, opts.mtu_payload);

  AppHostOptions adaptive;
  adaptive.link.adaptation.enabled = true;
  adaptive.link.burst_bytes = 1;
  EXPECT_EQ(AppHost::validated(adaptive).link.burst_bytes, adaptive.mtu_payload);

  // Without any rate control the tiny burst is inert and left alone.
  AppHostOptions unlimited;
  unlimited.link.burst_bytes = 100;
  EXPECT_EQ(AppHost::validated(unlimited).link.burst_bytes, 100u);
}

TEST(AppHostOptions, SmallTcpBacklogLimitIsPreserved) {
  // Deliberately tight §7 limits (smaller than one MTU) are a legitimate
  // configuration — validation must not second-guess them.
  AppHostOptions opts;
  opts.link.backlog_limit = 1024;
  EXPECT_EQ(AppHost::validated(opts).link.backlog_limit, 1024u);
}

TEST(AppHostOptions, AdaptationBoundsAreNormalised) {
  AppHostOptions opts;
  opts.link.adaptation.enabled = true;
  opts.link.adaptation.min_rate_bps = 8'000'000;
  opts.link.adaptation.max_rate_bps = 1'000'000;
  opts.link.adaptation.initial_rate_bps = 64'000'000;
  opts.link.adaptation.max_fps_divisor = 0;
  opts.link.adaptation.backlog_window = 0;
  const AppHostOptions v = AppHost::validated(opts);
  EXPECT_EQ(v.link.adaptation.min_rate_bps, 1'000'000u);
  EXPECT_EQ(v.link.adaptation.max_rate_bps, 8'000'000u);
  EXPECT_EQ(v.link.adaptation.initial_rate_bps, 8'000'000u);
  EXPECT_EQ(v.link.adaptation.max_fps_divisor, 1);
  EXPECT_EQ(v.link.adaptation.backlog_window, 1);
}

TEST(AppHostOptions, ConstructorStoresValidatedOptions) {
  EventLoop loop;
  AppHostOptions opts;
  opts.damage_tile = -1;
  opts.encode_threads = 0;
  AppHost host(loop, opts);
  EXPECT_EQ(host.options().damage_tile, 32);
}

}  // namespace
}  // namespace ads
