// Scan groups — shared-scan multicast regeneration (docs/serve.md).
//
// When many cursors stream the same (summary, relation), running one
// generation pass per cursor is pure waste: the paper's rank-addressed
// determinism means every cursor would generate the very same rows. A
// ScanGroup collapses that work: members share a small ring of columnar
// chunks, each covering one batch_rows-aligned rank range, and the first
// member to need a chunk generates it once (single-flight) while the rest
// wait and then fan out of the shared block with their own filter and
// projection kernels. Because generation is a pure function of (summary
// bytes, rank range), a cached chunk never goes stale — not across summary
// eviction and reload, not across generator instances — so the ring needs
// no invalidation protocol at all.
//
// Rank alignment is what keeps member streams byte-identical to their solo
// runs: chunk k covers exactly [k*chunk_rows, (k+1)*chunk_rows), any
// cursor's position falls inside exactly one chunk, and batch boundaries
// were never contractual (only the concatenated stream is). A late joiner
// whose rank trails the group simply generates its own missed chunks —
// each a bounded chunk_rows pass, counted as catch-up — until it reaches
// ranks the ring still holds.
//
// Lock order: a ScanGroup's mutex is taken after the owning session's lock
// and is never held across generation (the producer releases it around the
// fill) or across any scheduler call.

#ifndef HYDRA_SERVE_SCAN_GROUP_H_
#define HYDRA_SERVE_SCAN_GROUP_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/metrics.h"
#include "common/status.h"
#include "engine/row_block.h"

namespace hydra {

// One live group's introspection row (docs/observability.md): identity,
// current fan-out, and lifetime counters — plain reads of the group's
// "serve/group/<summary>/<relation>/..." metrics, which the GetMetrics
// snapshot carries while the group lives.
struct ScanGroupInfo {
  std::string summary_id;
  int relation = 0;
  uint64_t fanout = 0;        // members right now
  uint64_t fills = 0;         // generation passes into this group's chunks
  uint64_t hits = 0;          // grants served from a resident chunk
  uint64_t catch_up = 0;      // fills behind the group frontier
  uint64_t pacing_waits = 0;  // producer wait rounds pacing the frontier
                              // to a slow in-window member
};

// The server-wide shared-scan tallies (ServeStats' shared-scan block). The
// registry owns them; every group feeds them at the sites where it counts
// its own fills and hits, so they stay exact as groups come and go.
struct SharedScanMetrics {
  explicit SharedScanMetrics(const MetricScope& scope);

  Counter groups_formed;  // groups that ever reached two members
  Gauge peak_fanout;      // most members any group ever had
  Counter fills;          // generation passes into shared chunks
  Counter hits;           // member grants served from a resident chunk
  Counter catch_up;       // fills behind a group's frontier
};

class ScanGroup {
 public:
  // Registers the group's metrics as `metric_prefix` + name (the registry
  // passes "<scope>/group/<summary>/<relation>/"); `shared` is the
  // registry's.
  ScanGroup(const std::string& metric_prefix, int64_t chunk_rows,
            int num_slots, SharedScanMetrics* shared);

  ScanGroup(const ScanGroup&) = delete;
  ScanGroup& operator=(const ScanGroup&) = delete;

  // What AcquireChunk hands back: the shared block plus how it was served.
  struct ChunkResult {
    std::shared_ptr<const RowBlock> block;
    // This call generated the chunk (false: served from the ring — one
    // generation pass saved for this member).
    bool produced = false;
  };

  // Membership. Join returns a member token; Leave is idempotent on it.
  // One session may hold several memberships (one per cursor).
  uint64_t Join(uint64_t session_id);
  void Leave(uint64_t member);
  int member_count() const { return static_cast<int>(fanout_.value()); }
  // Distinct session ids of current members, excluding `self_session` —
  // the sessions a shared generation pass also served, for fairness
  // accounting.
  std::vector<uint64_t> PeerSessions(uint64_t self_session) const;

  // Returns the shared block for chunk index `chunk` (ranks
  // [chunk*chunk_rows, ...)) on behalf of `member`. Single-flight: the
  // first caller to miss claims the producer role and runs `fill` outside
  // the group lock; concurrent callers of the same chunk block until it
  // publishes, polling `scope` so a cancelled waiter leaves without
  // disturbing the group. A failed fill resets the slot and wakes the
  // waiters, which re-elect a producer among themselves.
  //
  // Eviction is position-aware: a resident chunk that a near-frontier
  // member has yet to consume is not evicted while any other idle slot
  // will do, and when every idle slot is still needed the producer waits —
  // pacing the frontier to the slowest in-window member — rather than
  // thrash the ring into one generation pass per member. The wait is
  // bounded (kEvictGraceMs): a member that stalls inside the window
  // degrades to catch-up refills instead of wedging the group, and members
  // already further behind than one ring never pace anyone.
  Status AcquireChunk(uint64_t member, int64_t chunk, const CancelScope& scope,
                      const std::function<Status(RowBlock*)>& fill,
                      ChunkResult* result);

  // Non-blocking probe: when `chunk` is resident (published, not mid-load)
  // hands it back exactly like a hit in AcquireChunk — LRU touch, member
  // position advance — and returns true. Returns false otherwise without
  // waiting, claiming, or producing anything.
  bool TryAcquireResident(uint64_t member, int64_t chunk, ChunkResult* result);

  int64_t chunk_rows() const { return chunk_rows_; }

  // This group's introspection row minus identity, read from its metrics.
  ScanGroupInfo Info() const;

 private:
  struct Slot {
    int64_t chunk = -1;  // -1 = empty
    bool loading = false;
    std::shared_ptr<const RowBlock> block;
    uint64_t stamp = 0;  // LRU clock
  };
  struct Member {
    uint64_t session = 0;
    int64_t pos = -1;  // highest chunk this member has acquired
  };

  // True when a member other than `self` still needs `chunk`: it has only
  // consumed up to pos < chunk and sits within one ring of the frontier,
  // so the ring — not a catch-up refill — is how it should get there.
  bool NeededLocked(int64_t chunk, uint64_t self) const;
  // Records that `member` acquired `chunk`; wakes paced producers whose
  // eviction this advance may have unblocked.
  void AdvanceMemberLocked(uint64_t member, int64_t chunk);
  // Hands `member` the resident block in `slot`: the one hit site.
  void HitLocked(Slot& slot, uint64_t member, ChunkResult* result);

  const int64_t chunk_rows_;
  SharedScanMetrics* const shared_;
  Gauge fanout_;  // members right now; written under mu_
  Counter fills_;
  Counter hits_;
  Counter catch_up_;
  Counter pacing_waits_;
  mutable std::mutex mu_;
  std::condition_variable published_cv_;
  std::vector<Slot> slots_;
  bool formed_ = false;  // reached two members once (counted in shared_)
  uint64_t stamp_counter_ = 0;
  int64_t top_chunk_ = -1;  // highest chunk ever published (the frontier)
  std::map<uint64_t, Member> members_;  // member token -> position
  uint64_t next_member_ = 1;
};

// The server-wide registry: one ScanGroup per (summary id, relation) with
// live members. Groups are created on first join and destroyed when the
// last member leaves, taking their metrics with them; the server-wide
// SharedScanMetrics survive their groups.
class ScanGroupRegistry {
 public:
  // `scope` (the owning server's) must outlive the registry.
  ScanGroupRegistry(const MetricScope& scope, int64_t chunk_rows,
                    int num_slots);

  // Joins (creating if absent) the group for (summary_id, relation);
  // returns the group and writes the member token.
  std::shared_ptr<ScanGroup> Join(const std::string& summary_id, int relation,
                                  uint64_t session_id, uint64_t* member);
  // Leaves the group and resets `*group`, the caller's reference. The last
  // member's leave destroys the group under the registry lock, so a group
  // re-forming on the same key never meets its predecessor's metric names.
  void Leave(const std::string& summary_id, int relation,
             std::shared_ptr<ScanGroup>* group, uint64_t member);

  const SharedScanMetrics& metrics() const { return metrics_; }
  // One ScanGroupInfo per live group, ordered by (summary id, relation).
  std::vector<ScanGroupInfo> Infos() const;

 private:
  const MetricScope& scope_;
  const int64_t chunk_rows_;
  const int num_slots_;
  SharedScanMetrics metrics_;
  mutable std::mutex mu_;
  std::map<std::pair<std::string, int>, std::shared_ptr<ScanGroup>> groups_;
};

}  // namespace hydra

#endif  // HYDRA_SERVE_SCAN_GROUP_H_
