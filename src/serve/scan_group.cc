#include "serve/scan_group.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/failpoint.h"

namespace hydra {

// Fires as a producer claims a shared chunk, before the generation pass:
// error(...) fails that member's request cleanly and resets the slot so the
// waiting members re-elect a producer; delay(ms) holds the slot in its
// loading state, stretching how long the group's waiters park.
HYDRA_FAILPOINT_DEFINE(g_fp_shared_chunk, "serve/shared_chunk");

SharedScanMetrics::SharedScanMetrics(const MetricScope& scope)
    : groups_formed(scope.Name("scan_groups_formed")),
      peak_fanout(scope.Name("peak_group_fanout")),
      fills(scope.Name("shared_chunk_fills")),
      hits(scope.Name("shared_chunk_hits")),
      catch_up(scope.Name("catch_up_batches")) {}

ScanGroup::ScanGroup(const std::string& metric_prefix, int64_t chunk_rows,
                     int num_slots, SharedScanMetrics* shared)
    : chunk_rows_(std::max<int64_t>(1, chunk_rows)),
      shared_(shared),
      fanout_(metric_prefix + "fanout"),
      fills_(metric_prefix + "fills"),
      hits_(metric_prefix + "hits"),
      catch_up_(metric_prefix + "catch_up"),
      pacing_waits_(metric_prefix + "pacing_waits"),
      slots_(std::max(1, num_slots)) {}

// How long a producer paces the frontier for a slow in-window member
// before evicting the chunk out from under it (degrading that member to a
// catch-up refill). The costs are asymmetric: an expired grace costs the
// straggler one bounded chunk_rows refill later, while pacing stalls every
// frontier member for the full wait — so the grace is sized to ride out a
// briefly descheduled client thread, not a wedged one.
constexpr auto kEvictGrace = std::chrono::milliseconds(15);

uint64_t ScanGroup::Join(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t member = next_member_++;
  members_.emplace(member, Member{session_id, -1});
  fanout_.Set(static_cast<int64_t>(members_.size()));
  // A group forms once: membership that dips to one and grows back is the
  // same group sharing again, not a new one.
  if (members_.size() >= 2 && !formed_) {
    formed_ = true;
    shared_->groups_formed.Inc();
  }
  return member;
}

void ScanGroup::Leave(uint64_t member) {
  std::lock_guard<std::mutex> lock(mu_);
  members_.erase(member);
  fanout_.Set(static_cast<int64_t>(members_.size()));
}

std::vector<uint64_t> ScanGroup::PeerSessions(uint64_t self_session) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> peers;
  for (const auto& [member, state] : members_) {
    if (state.session == self_session) continue;
    if (std::find(peers.begin(), peers.end(), state.session) == peers.end()) {
      peers.push_back(state.session);
    }
  }
  return peers;
}

bool ScanGroup::NeededLocked(int64_t chunk, uint64_t self) const {
  // Members below the window are stragglers regenerating their own missed
  // chunks; holding the frontier for them would stall the group behind an
  // entire catch-up, so only in-window members pace eviction.
  const int64_t window = top_chunk_ - static_cast<int64_t>(slots_.size());
  for (const auto& [member, state] : members_) {
    if (member == self) continue;
    if (state.pos >= window && state.pos < chunk) return true;
  }
  return false;
}

void ScanGroup::AdvanceMemberLocked(uint64_t member, int64_t chunk) {
  const auto it = members_.find(member);
  if (it == members_.end() || chunk <= it->second.pos) return;
  it->second.pos = chunk;
  published_cv_.notify_all();
}

void ScanGroup::HitLocked(Slot& slot, uint64_t member, ChunkResult* result) {
  slot.stamp = ++stamp_counter_;
  hits_.Inc();
  shared_->hits.Inc();
  AdvanceMemberLocked(member, slot.chunk);
  result->block = slot.block;
  result->produced = false;
}

bool ScanGroup::TryAcquireResident(uint64_t member, int64_t chunk,
                                   ChunkResult* result) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.chunk != chunk || slot.loading) continue;
    HitLocked(slot, member, result);
    return true;
  }
  return false;
}

Status ScanGroup::AcquireChunk(uint64_t member, int64_t chunk,
                               const CancelScope& scope,
                               const std::function<Status(RowBlock*)>& fill,
                               ChunkResult* result) {
  const auto evict_deadline = std::chrono::steady_clock::now() + kEvictGrace;
  Slot* claimed = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      HYDRA_RETURN_IF_ERROR(scope.Check());
      Slot* hit = nullptr;
      for (Slot& slot : slots_) {
        if (slot.chunk == chunk) {
          hit = &slot;
          break;
        }
      }
      if (hit != nullptr) {
        if (!hit->loading) {
          HitLocked(*hit, member, result);
          return Status::OK();
        }
        // Another member is generating this chunk right now: park until it
        // publishes (or fails, resetting the slot — then re-elect). The
        // periodic timeout bounds how stale a tripped cancel goes unseen.
        published_cv_.wait_for(lock, std::chrono::milliseconds(10));
        continue;
      }
      // Miss: claim an idle slot as producer — an empty one, else the
      // least-recently-used slot whose chunk no in-window member still
      // needs. Evicting a needed chunk would only push that member into a
      // catch-up refill of the very same ranks, so while every idle slot
      // is needed the producer waits, pacing the frontier to the slowest
      // in-window member — until the grace deadline, after which the LRU
      // needed slot goes anyway (a stalled member degrades to catch-up
      // instead of wedging the group). With every slot mid-load, wait for
      // one to settle rather than grow the ring.
      Slot* victim = nullptr;
      Slot* needed_lru = nullptr;
      for (Slot& slot : slots_) {
        if (slot.loading) continue;
        if (slot.chunk == -1) {
          victim = &slot;
          break;
        }
        if (NeededLocked(slot.chunk, member)) {
          if (needed_lru == nullptr || slot.stamp < needed_lru->stamp) {
            needed_lru = &slot;
          }
        } else if (victim == nullptr || slot.stamp < victim->stamp) {
          victim = &slot;
        }
      }
      if (victim == nullptr && needed_lru != nullptr &&
          std::chrono::steady_clock::now() >= evict_deadline) {
        victim = needed_lru;
      }
      if (victim == nullptr) {
        // Pacing: every idle slot is still needed by an in-window member
        // (needed_lru set) — the frontier waits for the slowest member.
        // With every slot mid-load instead, this is just producer backoff.
        if (needed_lru != nullptr) pacing_waits_.Inc();
        published_cv_.wait_for(lock, std::chrono::milliseconds(10));
        continue;
      }
      victim->chunk = chunk;
      victim->loading = true;
      victim->block = nullptr;
      claimed = victim;
      break;
    }
  }
  // Produce outside the lock: other members keep hitting resident chunks
  // (and other producers keep filling other slots) while this one runs.
  Status status;
  if (g_fp_shared_chunk.armed()) status = g_fp_shared_chunk.Fire();
  auto block = std::make_shared<RowBlock>();
  if (status.ok()) status = fill(block.get());
  std::lock_guard<std::mutex> lock(mu_);
  if (!status.ok()) {
    // Failed fill: free the slot so the waiters re-elect a producer; this
    // member's request reports the error.
    claimed->chunk = -1;
    claimed->loading = false;
    published_cv_.notify_all();
    return status;
  }
  claimed->block = std::move(block);
  claimed->loading = false;
  claimed->stamp = ++stamp_counter_;
  AdvanceMemberLocked(member, chunk);
  result->block = claimed->block;
  result->produced = true;
  fills_.Inc();
  shared_->fills.Inc();
  // A fill behind the frontier is a late joiner's bounded catch-up pass.
  if (chunk < top_chunk_) {
    catch_up_.Inc();
    shared_->catch_up.Inc();
  }
  top_chunk_ = std::max(top_chunk_, chunk);
  published_cv_.notify_all();
  return Status::OK();
}

ScanGroupInfo ScanGroup::Info() const {
  ScanGroupInfo info;
  info.fanout = static_cast<uint64_t>(fanout_.value());
  info.fills = fills_.value();
  info.hits = hits_.value();
  info.catch_up = catch_up_.value();
  info.pacing_waits = pacing_waits_.value();
  return info;
}

ScanGroupRegistry::ScanGroupRegistry(const MetricScope& scope,
                                     int64_t chunk_rows, int num_slots)
    : scope_(scope),
      chunk_rows_(chunk_rows),
      num_slots_(num_slots),
      metrics_(scope) {}

std::shared_ptr<ScanGroup> ScanGroupRegistry::Join(
    const std::string& summary_id, int relation, uint64_t session_id,
    uint64_t* member) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& group = groups_[{summary_id, relation}];
  if (group == nullptr) {
    const std::string name =
        "group/" + summary_id + "/" + std::to_string(relation) + "/";
    group = std::make_shared<ScanGroup>(scope_.Name(name), chunk_rows_,
                                        num_slots_, &metrics_);
  }
  *member = group->Join(session_id);
  // Joins serialize on mu_, so a plain compare-then-set keeps the peak.
  const int64_t fanout = group->member_count();
  if (fanout > metrics_.peak_fanout.value()) metrics_.peak_fanout.Set(fanout);
  return group;
}

void ScanGroupRegistry::Leave(const std::string& summary_id, int relation,
                              std::shared_ptr<ScanGroup>* group,
                              uint64_t member) {
  std::lock_guard<std::mutex> lock(mu_);
  (*group)->Leave(member);
  // Members hold the only other references, so an empty group's last
  // reference goes with the map entry and the reset below.
  if ((*group)->member_count() == 0) groups_.erase({summary_id, relation});
  group->reset();
}

std::vector<ScanGroupInfo> ScanGroupRegistry::Infos() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ScanGroupInfo> infos;
  infos.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    ScanGroupInfo info = group->Info();
    info.summary_id = key.first;
    info.relation = key.second;
    infos.push_back(std::move(info));
  }
  return infos;
}

}  // namespace hydra
