// Failpoints — named fault-injection points for testing failure domains.
//
// A failpoint is a compiled-in hook at an interesting failure site (a disk
// read, a cache load, a scheduler grant). In production it is disabled and
// costs exactly one relaxed atomic load on the hot path. Tests arm points
// programmatically (Arm/Disarm) or through the HYDRA_FAILPOINTS environment
// variable, and an armed point can return an error Status, inject a delay,
// fail only its first N hits, or fire probabilistically — deterministically
// for a given seed — so chaos schedules are reproducible.
//
// Defining a point (namespace scope of the instrumented .cc):
//
//   HYDRA_FAILPOINT_DEFINE(g_fp_read, "summary_io/read");
//
//   Status ReadThing() {
//     HYDRA_FAILPOINT(g_fp_read);   // may return an injected Status
//     ...
//   }
//
// Sites without an error path (a void dispatch hook) use
// HYDRA_FAILPOINT_HIT, which applies delays but swallows injected errors.
//
// Spec grammar (HYDRA_FAILPOINTS and Failpoint::ArmFromString):
//
//   spec    := point (';' point)*
//   point   := name '=' action
//   action  := 'off'
//            | 'error(' CODE (',' arg)* ')'
//            | 'delay(' MILLIS (',' arg)* ')'
//   arg     := 'times=' N        fire only the first N hits, then disarm
//            | 'p=' FLOAT        fire each hit with probability p
//            | 'seed=' N         seed of the deterministic probability hash,
//                                which is keyed on the hit index since the
//                                point was last armed
//
// CODE is a StatusCode name (IO_ERROR, UNAVAILABLE, INTERNAL, ...).
// Example: HYDRA_FAILPOINTS='serve/summary_load=error(UNAVAILABLE,times=2);
// thread_pool/dispatch=delay(1,p=0.1,seed=7)'.
//
// Thread safety: all operations are thread-safe. Arming applies to points
// registered now or later (specs for unknown names are held pending), so
// static initialization order never drops an env-armed point.

#ifndef HYDRA_COMMON_FAILPOINT_H_
#define HYDRA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hydra {

// How an armed failpoint behaves when hit. Parsed from the spec grammar
// above or built directly in tests.
struct FailpointSpec {
  enum class Kind { kOff, kError, kDelay };
  Kind kind = Kind::kOff;
  StatusCode code = StatusCode::kInternal;  // kError: the injected code
  int64_t delay_ms = 0;                     // kDelay: sleep per fire
  int64_t times = -1;      // fire at most N times, then disarm; -1 = forever
  double probability = 1;  // chance each hit fires
  uint64_t seed = 0;       // determinizes the probability decision per hit

  // Parses one `action` production ("error(IO_ERROR,times=2)").
  static StatusOr<FailpointSpec> Parse(const std::string& action);
};

class Failpoint {
 public:
  // Registers the point under `name` (must be unique and outlive the
  // program — points are namespace-scope globals). If a spec for `name` is
  // already pending (env var or an earlier Arm-by-name), it applies now.
  explicit Failpoint(const char* name);
  ~Failpoint();

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  // The hot-path gate: a single relaxed atomic load when disabled.
  bool armed() const { return armed_.load(std::memory_order_relaxed) != 0; }

  // Slow path, call only when armed(): counts the hit, decides whether this
  // hit fires (probability / times budget), applies the delay, and returns
  // the injected error (or OK). Disarms itself when the times budget runs
  // out, restoring the zero-cost path.
  Status Fire();
  // Fire() for sites without an error path: delays apply, errors are
  // counted but swallowed.
  void FireIgnoreError();

  const std::string& name() const { return name_; }
  // Hits while armed (every Fire call) and hits that actually fired, over
  // the point's lifetime; re-arming does not reset them.
  uint64_t hits() const;
  uint64_t triggered() const;

  void Arm(const FailpointSpec& spec);
  void Disarm();

  // --- registry ----------------------------------------------------------
  // Arms by name; unknown names are held pending and apply on registration.
  static void ArmByName(const std::string& name, const FailpointSpec& spec);
  // Parses and applies a full spec string ("a=error(IO_ERROR);b=delay(5)").
  static Status ArmFromString(const std::string& specs);
  // Disarms every registered point and drops pending specs. Tests call this
  // in teardown so schedules never leak across cases.
  static void DisarmAll();
  // Registered point names, sorted (diagnostics / spec validation).
  static std::vector<std::string> ListRegistered();
  // Looks up a registered point; nullptr when absent.
  static Failpoint* Find(const std::string& name);

 private:
  void ArmLocked(const FailpointSpec& spec);

  const std::string name_;
  std::atomic<uint32_t> armed_{0};
  // Mutable state behind the registry mutex (Fire is off the fast path, so
  // one global lock keeps per-point state trivially consistent).
  FailpointSpec spec_;
  int64_t remaining_ = -1;
  uint64_t hits_ = 0;        // lifetime, for hits()
  uint64_t armed_hits_ = 0;  // since the last arm: keys the p= decision
  uint64_t triggered_ = 0;
};

}  // namespace hydra

// Defines a failpoint global. Place at namespace scope in the .cc that
// hosts the instrumented site.
#define HYDRA_FAILPOINT_DEFINE(var, name) ::hydra::Failpoint var{name}

// Returns the injected Status out of the enclosing function when `fp` is
// armed and fires. Usable in functions returning Status or StatusOr<T>.
#define HYDRA_FAILPOINT(fp)                         \
  do {                                              \
    if ((fp).armed()) {                             \
      ::hydra::Status _fp_status = (fp).Fire();     \
      if (!_fp_status.ok()) return _fp_status;      \
    }                                               \
  } while (0)

// Delay-only variant for sites with no error path.
#define HYDRA_FAILPOINT_HIT(fp)                \
  do {                                         \
    if ((fp).armed()) (fp).FireIgnoreError();  \
  } while (0)

#endif  // HYDRA_COMMON_FAILPOINT_H_
