#include "obs/probes.hpp"

#include <algorithm>

namespace rlb::obs {

namespace {

/// The histogram sample for a probe value: floored, with negative and NaN
/// values at 0 and anything past the uint64 range saturated.
std::uint64_t histogram_sample(double value) noexcept {
  if (!(value >= 1.0)) return 0;
  return value < 18446744073709551615.0
             ? static_cast<std::uint64_t>(value)
             : std::numeric_limits<std::uint64_t>::max();
}

}  // namespace

const char* to_string(ProbeKind kind) noexcept {
  switch (kind) {
    case ProbeKind::kCounter:
      return "counter";
    case ProbeKind::kGauge:
      return "gauge";
    case ProbeKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

double ProbeSnapshot::value() const noexcept {
  switch (kind) {
    case ProbeKind::kCounter:
      return sum;
    case ProbeKind::kGauge:
      return count ? max : 0.0;
    case ProbeKind::kHistogram:
      return mean();
  }
  return 0.0;
}

void ProbeRegistry::Cell::add(double value, bool histogram) {
  ++count;
  sum += value;
  min = std::min(min, value);
  max = std::max(max, value);
  if (histogram) {
    if (!hist) hist = std::make_unique<LogHistogram>();
    hist->record(histogram_sample(value));
  }
}

void ProbeRegistry::Cell::merge_into(Cell& target) const {
  if (count == 0) return;
  target.count += count;
  target.sum += sum;
  target.min = std::min(target.min, min);
  target.max = std::max(target.max, max);
  if (hist) {
    if (!target.hist) target.hist = std::make_unique<LogHistogram>();
    target.hist->merge(*hist);
  }
}

ProbeRegistry& ProbeRegistry::instance() {
  // Intentionally leaked: worker threads retiring their shards at thread
  // exit must find the registry alive regardless of static-destructor
  // ordering across translation units.
  static ProbeRegistry* registry = new ProbeRegistry();
  return *registry;
}

std::size_t ProbeRegistry::register_probe(const std::string& name,
                                          ProbeKind kind) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const std::size_t id = probes_.size();
  probes_.emplace_back(name, kind);
  index_.emplace(name, id);
  return id;
}

struct ProbeRegistry::ThreadShardHolder {
  Shard shard;
  ProbeRegistry* registry = nullptr;
  ~ThreadShardHolder() {
    if (registry != nullptr) registry->retire(&shard);
  }
};

ProbeRegistry::Shard& ProbeRegistry::local_shard() {
  thread_local ThreadShardHolder holder;
  if (holder.registry == nullptr) {
    holder.registry = this;
    std::lock_guard lock(mutex_);
    live_.push_back(&holder.shard);
  }
  return holder.shard;
}

void ProbeRegistry::retire(Shard* shard) {
  std::lock_guard lock(mutex_);
  for (std::size_t id = 0; id < shard->cells.size(); ++id) {
    if (retired_.cells.size() <= id) retired_.cells.resize(id + 1);
    shard->cells[id].merge_into(retired_.cells[id]);
  }
  live_.erase(std::remove(live_.begin(), live_.end(), shard), live_.end());
}

void ProbeRegistry::record(std::size_t id, double value, bool histogram) {
  Shard& shard = local_shard();
  if (shard.cells.size() <= id) shard.cells.resize(id + 1);
  shard.cells[id].add(value, histogram);
}

void ProbeRegistry::merge_shard_locked(const Shard& shard,
                                       std::vector<Cell>& into) const {
  for (std::size_t id = 0; id < shard.cells.size() && id < into.size();
       ++id) {
    shard.cells[id].merge_into(into[id]);
  }
}

std::vector<ProbeSnapshot> ProbeRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Cell> merged(probes_.size());
  merge_shard_locked(retired_, merged);
  for (const Shard* shard : live_) merge_shard_locked(*shard, merged);

  std::vector<ProbeSnapshot> out;
  out.reserve(probes_.size());
  for (std::size_t id = 0; id < probes_.size(); ++id) {
    ProbeSnapshot snap;
    snap.name = probes_[id].first;
    snap.kind = probes_[id].second;
    snap.count = merged[id].count;
    snap.sum = merged[id].sum;
    snap.min = merged[id].min;
    snap.max = merged[id].max;
    if (merged[id].hist) snap.hist = *merged[id].hist;
    out.push_back(std::move(snap));
  }
  return out;
}

bool ProbeRegistry::find(const std::string& name, ProbeSnapshot& out) const {
  for (ProbeSnapshot& snap : snapshot()) {
    if (snap.name == name) {
      out = std::move(snap);
      return true;
    }
  }
  return false;
}

void ProbeRegistry::reset() {
  std::lock_guard lock(mutex_);
  retired_ = Shard{};
  for (Shard* shard : live_) shard->cells.clear();
}

report::Table ProbeRegistry::to_table() const {
  report::Table table({"probe", "kind", "count", "value", "mean", "min",
                       "max", "p50", "p99"});
  for (const ProbeSnapshot& snap : snapshot()) {
    if (snap.count == 0) continue;
    table.row()
        .cell(snap.name)
        .cell(to_string(snap.kind))
        .cell(snap.count)
        .cell(snap.value())
        .cell(snap.mean())
        .cell(snap.min)
        .cell(snap.max)
        .cell(snap.kind == ProbeKind::kHistogram ? snap.quantile(0.50) : 0.0)
        .cell(snap.kind == ProbeKind::kHistogram ? snap.quantile(0.99) : 0.0);
  }
  return table;
}

}  // namespace rlb::obs
