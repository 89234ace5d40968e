#include "core/placement_epoch.hpp"

namespace rlb::core {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

constexpr std::size_t kDeltaHeaderSize = 12;  // u64 epoch + u32 count
constexpr std::size_t kRemapSize = 16;        // u64 chunk + u32 from + u32 to

}  // namespace

void encode_placement_delta(const PlacementDelta& delta,
                            std::vector<std::uint8_t>& out) {
  put_u64(out, delta.epoch);
  put_u32(out, static_cast<std::uint32_t>(delta.remaps.size()));
  for (const ChunkRemap& remap : delta.remaps) {
    put_u64(out, remap.chunk);
    put_u32(out, remap.from);
    put_u32(out, remap.to);
  }
}

bool decode_placement_delta(const std::uint8_t* data, std::size_t size,
                            PlacementDelta& out) {
  if (size < kDeltaHeaderSize) return false;
  const std::uint64_t epoch = get_u64(data);
  const std::uint32_t count = get_u32(data + 8);
  if (size != kDeltaHeaderSize + static_cast<std::size_t>(count) * kRemapSize) {
    return false;
  }
  out.epoch = epoch;
  out.remaps.clear();
  out.remaps.reserve(count);
  const std::uint8_t* p = data + kDeltaHeaderSize;
  for (std::uint32_t i = 0; i < count; ++i, p += kRemapSize) {
    ChunkRemap remap;
    remap.chunk = get_u64(p);
    remap.from = get_u32(p + 8);
    remap.to = get_u32(p + 12);
    out.remaps.push_back(remap);
  }
  return true;
}

EpochedPlacement::EpochedPlacement(std::size_t servers, unsigned replication,
                                   std::uint64_t seed, PlacementMode mode)
    : base_(servers, replication, seed, mode),
      overlay_(std::make_shared<const Overlay>()) {}

std::shared_ptr<const EpochedPlacement::Overlay>
EpochedPlacement::load_overlay() const {
  std::lock_guard<std::mutex> lock(overlay_mu_);
  return overlay_;
}

ChoiceList EpochedPlacement::lookup(const Overlay& overlay,
                                    ChunkId chunk) const {
  if (!overlay.choices.empty()) {
    const auto it = overlay.choices.find(chunk);
    if (it != overlay.choices.end()) return it->second;
  }
  return base_.choices(chunk);
}

ChoiceList EpochedPlacement::choices(ChunkId chunk) const {
  return lookup(*load_overlay(), chunk);
}

std::uint64_t EpochedPlacement::epoch() const {
  return published_epoch_.load(std::memory_order_acquire);
}

EpochedPlacement::View::View(const EpochedPlacement& placement)
    : placement_(&placement), overlay_(placement.load_overlay()) {}

ChoiceList EpochedPlacement::View::choices(ChunkId chunk) {
  if (placement_->published_epoch_.load(std::memory_order_acquire) !=
      overlay_->epoch) {
    overlay_ = placement_->load_overlay();
  }
  return placement_->lookup(*overlay_, chunk);
}

std::uint64_t EpochedPlacement::View::epoch() const noexcept {
  return overlay_->epoch;
}

bool EpochedPlacement::apply(const PlacementDelta& delta) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  const std::shared_ptr<const Overlay> current = load_overlay();
  if (delta.epoch != current->epoch + 1) return false;

  // Build the successor off to the side; readers keep seeing `current`
  // until the single pointer store below.
  auto next = std::make_shared<Overlay>(*current);
  for (const ChunkRemap& remap : delta.remaps) {
    if (remap.from == remap.to) return false;
    auto it = next->choices.find(remap.chunk);
    ChoiceList old = it != next->choices.end() ? it->second
                                               : base_.choices(remap.chunk);
    if (old.contains(remap.to)) return false;
    ChoiceList updated;
    bool replaced = false;
    for (const ServerId server : old) {
      if (server == remap.from) {
        updated.push_back(remap.to);
        replaced = true;
      } else {
        updated.push_back(server);
      }
    }
    if (!replaced) return false;
    next->choices[remap.chunk] = updated;
  }
  next->epoch = delta.epoch;
  next->history.push_back(delta);
  const std::uint64_t epoch = next->epoch;
  {
    // `current` keeps the old overlay alive, so it is freed after the
    // readers' mutex is released, never while a reader waits on it.
    std::lock_guard<std::mutex> publish(overlay_mu_);
    overlay_ = std::move(next);
  }
  // After the swap: a View that sees this epoch reloads and finds it.
  published_epoch_.store(epoch, std::memory_order_release);
  return true;
}

std::vector<PlacementDelta> EpochedPlacement::history() const {
  return load_overlay()->history;
}

std::vector<PlacementDelta> EpochedPlacement::deltas_since(
    std::uint64_t epoch) const {
  const std::shared_ptr<const Overlay> overlay = load_overlay();
  std::vector<PlacementDelta> out;
  for (const PlacementDelta& delta : overlay->history) {
    if (delta.epoch > epoch) out.push_back(delta);
  }
  return out;
}

std::size_t EpochedPlacement::remapped_chunks() const {
  return load_overlay()->choices.size();
}

}  // namespace rlb::core
