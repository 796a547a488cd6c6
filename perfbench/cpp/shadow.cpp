// Shadow AH pipeline: the capture side of AppHost::tick() replayed with the
// same painter seed, window layout and ticks, so each stage can be timed
// from outside through public calls. The codec runs serially on the same
// <=128-row damage bands the AH would encode.
#include <memory>

#include "bench.hpp"
#include "capture/apps.hpp"
#include "capture/screen_capturer.hpp"
#include "codec/registry.hpp"
#include "core/app_host.hpp"
#include "image/damage.hpp"
#include "image/metrics.hpp"
#include "image/scroll_detect.hpp"
#include "remoting/region_update.hpp"
#include "wm/window_manager.hpp"

namespace perfbench {
namespace {

using namespace ads;

std::vector<Rect> band_split(const std::vector<Rect>& rects, std::int64_t rows) {
  std::vector<Rect> bands;
  for (const Rect& r : rects) {
    if (r.empty()) continue;
    for (std::int64_t top = r.top; top < r.bottom(); top += rows) {
      bands.push_back(Rect{r.left, top, r.width, std::min(rows, r.bottom() - top)});
    }
  }
  return bands;
}

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

}  // namespace

ShadowResult run_shadow(const WorkloadSpec& spec, std::uint64_t seed,
                        int total_ticks, int timed_ticks) {
  const AppHostOptions ah;  // the defaults the session's AH runs with
  WindowManager wm;
  const WindowId win = wm.create(spec.window, 1);
  ScreenCapturer capturer(wm, spec.screen_w, spec.screen_h, ah.damage_tile);
  const std::uint64_t painter_seed = derive_seed(seed, kPainterStream);
  capturer.attach(win, make_app(spec.app, spec.window.width, spec.window.height,
                                painter_seed));
  // A twin painter ticked in lockstep times painting alone; capture()
  // paints internally, so its share is subtracted from capture_ms.
  auto twin = make_app(spec.app, spec.window.width, spec.window.height, painter_seed);
  const CodecRegistry codecs = CodecRegistry::with_defaults();
  const ImageCodec* codec = codecs.find(ah.codec);

  ShadowResult out;
  EncodeScratch scratch;
  Bytes encoded;
  Image band_img;
  Image previous;
  double raw_bytes = 0;
  double encoded_bytes = 0;
  double capture_total_ms = 0;
  for (int k = 0; k < total_ticks; ++k) {
    const bool timed = k >= total_ticks - timed_ticks;
    std::int64_t t0 = now_ns();
    twin->tick(static_cast<std::uint64_t>(k));
    const double paint = ms_since(t0);

    t0 = now_ns();
    const CaptureResult capture = capturer.capture();
    const double captured = ms_since(t0);
    const Image& frame = *capture.frame;

    // The AH's scroll pass and residual damage (AppHost::tick).
    std::vector<Rect> damage;
    double scroll_ms = 0;
    if (!previous.empty() && previous.width() == frame.width() &&
        previous.height() == frame.height()) {
      for (const Window& w : wm.shared_windows()) {
        const Rect area = intersect(w.frame, frame.bounds());
        t0 = now_ns();
        const auto match = detect_scroll(previous, frame, area);
        scroll_ms += ms_since(t0);
        if (!match) continue;
        const Rect dest = match->source.translated(0, match->dy);
        Image replay = previous;
        replay.move_rect(match->source, {dest.left, dest.top});
        if (hash_rect(replay, dest) != hash_rect(frame, dest)) continue;
        previous = std::move(replay);
      }
      damage = diff_rects(previous, frame, ah.damage_tile);
    } else {
      damage = {frame.bounds()};
    }
    previous = frame;
    if (!timed) continue;

    out.paint_ms += paint;
    capture_total_ms += captured;
    out.scroll_detect_ms += scroll_ms;
    for (const Rect& band : band_split(damage, ah.region_band_rows)) {
      out.damage_px += static_cast<double>(band.area());
      frame.crop_into(band, band_img);
      t0 = now_ns();
      codec->encode_into(band_img, encoded, scratch);
      out.encode_ms += ms_since(t0);
      raw_bytes += static_cast<double>(band.area()) * 4;
      encoded_bytes += static_cast<double>(encoded.size());

      t0 = now_ns();
      const auto decoded = codec->decode(encoded);
      out.decode_ms += ms_since(t0);
      if (!decoded.ok() || !(*decoded == band_img)) out.decode_ok = false;

      RegionUpdate msg;
      msg.window_id = win;
      msg.content_pt = static_cast<std::uint8_t>(codec->payload_type());
      msg.left = static_cast<std::uint32_t>(band.left);
      msg.top = static_cast<std::uint32_t>(band.top);
      msg.content = encoded;
      t0 = now_ns();
      const auto fragments = fragment_region_update(msg, ah.mtu_payload);
      out.fragment_us += ms_since(t0) * 1e3;
      out.fragments += static_cast<double>(fragments.size());
    }
  }

  const double n = timed_ticks > 0 ? timed_ticks : 1;
  out.capture_ms = (capture_total_ms - out.paint_ms) / n;
  out.paint_ms /= n;
  out.scroll_detect_ms /= n;
  out.damage_px /= n;
  out.encode_mb_s = out.encode_ms > 0 ? raw_bytes / 1e6 / (out.encode_ms / 1e3) : 0;
  out.ratio = encoded_bytes > 0 ? raw_bytes / encoded_bytes : 0;
  out.encode_ms /= n;
  out.decode_ms /= n;
  out.fragment_us /= n;
  out.fragments /= n;
  return out;
}

}  // namespace perfbench
