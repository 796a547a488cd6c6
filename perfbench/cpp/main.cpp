// ads_perfbench: runs one workload by name on one seed and prints every
// metric by name with its unit; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   ads_perfbench --workload photo|text_relay|join_churn --seed N
//                 --seconds S --trace 0|1 [--ticks N] [--spans FILE]
//
// Every run first makes kSetupSamples - 1 set-up-only passes (set-up is
// reported as the median of those and the timed passes' own set-ups).
// --trace 0: untraced session passes, repeated until their timed runs add
//   up to S wall seconds (at least one). The JSON carries the end-to-end
//   metrics.
// --trace 1: one untraced pass, one traced pass of the same seed (relay and
//   uplink spans too, every span kept in memory and written to FILE), and
//   the shadow AH pipeline. The JSON carries the per-layer metrics.
// --ticks overrides the workload's timed tick count (short self-checks).
//
// Exit code 0 only when the correctness gate holds: every live viewer is
// pixel-identical to the AH's shared view after the drain with no decode
// error, and every pass of the seed (traced or not) reproduces the same
// virtual metrics and deterministic counters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr int kSetupSamples = 3;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int ticks = -1;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ads_perfbench: %s\nusage: ads_perfbench --workload "
               "photo|text_relay|join_churn --seed N --seconds S --trace 0|1 "
               "[--ticks N] [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--ticks") a.ticks = std::stoi(val);
      else if (key == "--spans") a.spans = val;
      else usage("unknown option " + key);
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Linear-interpolated percentile (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Everything a pass must reproduce exactly on the same seed: virtual
/// metrics and deterministic counters.
std::map<std::string, double> virtual_signature(const PassResult& p) {
  std::map<std::string, double> sig = p.counters;
  sig["update_latency_ms_p50"] = percentile(p.latency_ms, 0.5);
  sig["update_latency_ms_p99"] = percentile(p.latency_ms, 0.99);
  sig["latency_samples"] = static_cast<double>(p.latency_ms.size());
  sig["join_first_frame_ms_p50"] = percentile(p.join_ms, 0.5);
  sig["join_first_frame_ms_p90"] = percentile(p.join_ms, 0.9);
  sig["joins_framed"] = static_cast<double>(p.join_ms.size());
  sig["viewer_bytes"] = static_cast<double>(p.viewer_bytes);
  sig["viewer_seconds"] = p.viewer_seconds;
  sig["warmup_ticks"] = p.warmup_ticks;
  sig["live_viewers"] = p.live_viewers;
  sig["excused_viewers"] = p.excused_viewers;
  return sig;
}

/// Names of signature entries that differ, for the failure message.
std::string signature_diff(const std::map<std::string, double>& a,
                           const std::map<std::string, double>& b) {
  std::string out;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != value) {
      out += " " + name + "(" + std::to_string(value) + " vs " +
             (it == b.end() ? std::string("-") : std::to_string(it->second)) + ")";
    }
  }
  return out;
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               const std::vector<double>& setups) {
  const PassResult& p0 = passes.front();
  std::vector<double> ticks;
  std::vector<double> viewer_load;
  std::vector<double> wall_per_sim;
  for (const PassResult& p : passes) {
    ticks.insert(ticks.end(), p.tick_ms.begin(), p.tick_ms.end());
    viewer_load.push_back(ratio(p.viewer_rx_ms, p.viewer_seconds));
    wall_per_sim.push_back(ratio(p.timed_wall_s, p.sim_s));
  }
  return {
      {"setup_s", percentile(setups, 0.5), "s"},
      {"ah_tick_ms_p50", percentile(ticks, 0.5), "ms"},
      {"ah_tick_ms_p90", percentile(ticks, 0.9), "ms"},
      {"viewer_ms_per_s", percentile(viewer_load, 0.5), "ms/s"},
      {"wall_s_per_sim_s", percentile(wall_per_sim, 0.5), "s/s"},
      {"update_latency_ms_p50", percentile(p0.latency_ms, 0.5), "ms"},
      {"update_latency_ms_p99", percentile(p0.latency_ms, 0.99), "ms"},
      {"join_first_frame_ms_p50", percentile(p0.join_ms, 0.5), "ms"},
      {"join_first_frame_ms_p90", percentile(p0.join_ms, 0.9), "ms"},
      {"kbytes_per_viewer_s",
       ratio(static_cast<double>(p0.viewer_bytes) / 1e3, p0.viewer_seconds), "kB/s"},
  };
}

std::vector<Metric> per_layer(const PassResult& untraced, const PassResult& t,
                              const ShadowResult& s) {
  const auto c = [&t](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : it->second;
  };
  const double tick_ms = mean(t.tick_ms);
  double tick_sum_ms = 0;
  for (double x : t.tick_ms) tick_sum_ms += x;
  const double lookups = c("cache.hits") + c("cache.misses");
  const double spans_ms = tick_sum_ms + t.viewer_rx_ms + t.relay_rx_ms + t.uplink_ms;
  return {
      {"core.tick_ms", tick_ms, "ms/tick"},
      // Tick minus the shadow stages: fan-out, packetise, transmit and the
      // rest. The AH encodes on kEncodeThreads workers, the shadow serially.
      {"core.tick_other_ms",
       tick_ms - s.paint_ms - s.capture_ms - s.scroll_detect_ms -
           s.encode_ms / static_cast<double>(kEncodeThreads) - s.fragment_us / 1e3,
       "ms/tick"},
      {"core.uplink_us", ratio(t.uplink_ms * 1e3, static_cast<double>(t.uplink_calls)),
       "us/call"},
      {"core.uplink_calls", static_cast<double>(t.uplink_calls), "count"},
      {"core.encoder.bands_encoded", c("encoder.bands_encoded"), "count"},
      {"core.cache.hit_ratio", ratio(c("cache.hits"), lookups), "ratio"},
      {"core.cache.lookups", lookups, "count"},
      {"core.fanout.encodes_shared", c("fanout.encodes_shared"), "count"},
      {"core.datapath.payload_bytes_copied", c("datapath.payload_bytes_copied"), "bytes"},
      {"core.rtp_packets_sent", c("ah.rtp_packets_sent"), "count"},
      {"core.retransmissions_sent", c("ah.retransmissions_sent"), "count"},
      {"core.frames_skipped_backlog", c("ah.frames_skipped_backlog"), "count"},
      {"core.move_rectangles_sent", c("ah.move_rectangles_sent"), "count"},
      {"core.participants_evicted", c("liveness.evictions"), "count"},
      {"capture.capture_ms", s.capture_ms, "ms/tick"},
      {"capture.damage_px", s.damage_px, "px/tick"},
      {"capture.paint_ms", s.paint_ms, "ms/tick"},
      {"image.scroll_detect_ms", s.scroll_detect_ms, "ms/tick"},
      {"codec.encode_ms", s.encode_ms, "ms/tick"},
      {"codec.encode_mb_s", s.encode_mb_s, "MB/s"},
      {"codec.ratio", s.ratio, "ratio"},
      {"codec.decode_ms", s.decode_ms, "ms/tick"},
      {"remoting.fragment_us", s.fragment_us, "us/tick"},
      {"remoting.fragments", s.fragments, "count/tick"},
      {"participant.rx_us",
       ratio(t.viewer_rx_ms * 1e3, static_cast<double>(t.viewer_rx_calls)), "us/call"},
      {"participant.rx_calls", static_cast<double>(t.viewer_rx_calls), "count"},
      {"participant.nacks_sent", c("participant.nacks_sent"), "count"},
      {"participant.plis_sent", c("participant.plis_sent"), "count"},
      {"participant.gaps_skipped", c("participant.gaps_skipped"), "count"},
      {"participant.decode_errors", c("participant.decode_errors"), "count"},
      {"relay.rx_us", ratio(t.relay_rx_ms * 1e3, static_cast<double>(t.relay_rx_calls)),
       "us/call"},
      {"relay.rx_calls", static_cast<double>(t.relay_rx_calls), "count"},
      {"relay.forwarded", c("relay.forwarded"), "count"},
      {"relay.nack_served_ratio", ratio(c("relay.rtx_served"), c("relay.nack_seqs")),
       "ratio"},
      {"relay.nack_seqs", c("relay.nack_seqs"), "count"},
      {"net.loop_ms", t.timed_wall_s * 1e3 - spans_ms, "ms"},
      {"net.udp.lost", c("net.udp.lost"), "count"},
      {"net.udp.queue_dropped", c("net.udp.queue_dropped"), "count"},
      {"net.udp.queue_delay_us_p50", c("net.udp.queue_delay_us_p50"), "us"},
      {"net.tcp.partial_writes", c("net.tcp.partial_writes"), "count"},
      {"snapshot.bundles_built", c("snapshot.bundles_built"), "count"},
      {"snapshot.bundles_served", c("snapshot.bundles_served"), "count"},
      {"snapshot.encodes_saved", c("snapshot.encodes_saved"), "count"},
      {"join.fallback_refreshes", c("join.fallback_refreshes"), "count"},
      {"buf.pool.allocations", c("datapath.pool.allocations"), "count"},
      {"buf.pool.hit_ratio", ratio(c("datapath.pool.hits"), c("datapath.pool.acquires")),
       "ratio"},
      {"trace.overhead_ratio", ratio(t.timed_wall_s, untraced.timed_wall_s) - 1, "ratio"},
  };
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_lines(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-36s %16s %s\n", kind, m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  WorkloadSpec spec;
  try {
    spec = workload_by_name(args.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const int ticks = args.ticks >= 1 ? args.ticks : spec.ticks;

  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  const auto account = [&](const PassResult& p, const std::string& label) {
    attempted += p.live_viewers;
    failed += p.failed_viewers;
    for (const std::string& f : p.failures) failures.push_back(label + ": " + f);
  };

  // Set-up-only passes first: they also warm the process (allocator, code
  // and data pages), so the timed passes below do not start cold.
  std::vector<double> setups;
  for (int i = 1; i < kSetupSamples; ++i) {
    Probe probe(false);
    const PassResult setup = run_session(spec, args.seed, 0, probe);
    setups.push_back(setup.setup_s);
    account(setup, "set-up pass " + std::to_string(i));
  }
  // Untraced passes, until their timed runs add up to --seconds.
  std::vector<PassResult> passes;
  double measured_s = 0;
  do {
    Probe probe(false);
    passes.push_back(run_session(spec, args.seed, ticks, probe));
    setups.push_back(passes.back().setup_s);
    measured_s += passes.back().timed_wall_s;
    account(passes.back(), "pass " + std::to_string(passes.size()));
  } while (!args.trace && measured_s < args.seconds);
  const auto signature = virtual_signature(passes.front());
  for (std::size_t i = 1; i < passes.size(); ++i) {
    const std::string diff = signature_diff(signature, virtual_signature(passes[i]));
    if (!diff.empty()) {
      failures.push_back("pass " + std::to_string(i + 1) + " diverged:" + diff);
    }
  }
  const std::vector<Metric> e2e = end_to_end(passes, setups);
  print_lines("e2e", e2e);
  const PassResult& p0 = passes.front();
  print_lines("info", {{"passes", static_cast<double>(passes.size()), "count"},
                       {"latency_samples", static_cast<double>(p0.latency_ms.size()), "count"},
                       {"joins_framed", static_cast<double>(p0.join_ms.size()), "count"},
                       {"live_viewers", static_cast<double>(p0.live_viewers), "count"},
                       {"excused_viewers", static_cast<double>(p0.excused_viewers),
                        "count"}});

  std::vector<Metric> reported = e2e;
  if (args.trace) {
    Probe probe(true);
    const PassResult traced = run_session(spec, args.seed, ticks, probe);
    account(traced, "traced pass");
    const std::string diff = signature_diff(signature, virtual_signature(traced));
    if (!diff.empty()) failures.push_back("traced pass diverged:" + diff);
    const ShadowResult shadow = run_shadow(spec, args.seed, traced.warmup_ticks + ticks, ticks);
    if (!shadow.decode_ok) failures.push_back("shadow: codec round trip failed");
    reported = per_layer(p0, traced, shadow);
    print_lines("layer", reported);
    if (!args.spans.empty() && !probe.write_spans(args.spans)) {
      std::fprintf(stderr, "ads_perfbench: could not write spans to %s\n",
                   args.spans.c_str());
    }
  }

  // viewer_fail_ratio is the result's failed / attempted over every pass.
  print_lines("e2e", {{"viewer_fail_ratio", ratio(failed, attempted), "ratio"}});
  for (const std::string& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
  const bool correct = failures.empty() && failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " +
            fmt(reported[i].value) + ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
