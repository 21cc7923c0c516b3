#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace hydra {

namespace {

// splitmix64: a stateless 64-bit mixer, so each (seed, hit) pair gets an
// independent, reproducible probability decision with no generator state.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Registry {
  std::mutex mu;
  std::map<std::string, Failpoint*> points;
  // Specs armed before their point registered (env var parsed at startup,
  // instrumented .cc not yet initialized).
  std::map<std::string, FailpointSpec> pending;
};

// Leaked singleton: failpoints are namespace-scope globals whose
// destructors run at exit in unspecified order relative to any registry
// with a destructor — a leaked registry is valid for all of them. The
// initializer must NOT arm anything: arming goes through GetRegistry(),
// and re-entering a function-local static mid-initialization deadlocks.
Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Applies HYDRA_FAILPOINTS once, on the first point registration — early
// enough that every spec lands in `pending` before (or exactly when) its
// point exists, and late enough that ArmFromString's own GetRegistry()
// call finds a fully constructed registry. Callers must not hold the
// registry mutex. A malformed spec is a fatal configuration error:
// silently ignoring it would "pass" chaos runs that never injected
// anything.
void ApplyEnvSpecsOnce() {
  static const bool parsed = [] {
    if (const char* env = std::getenv("HYDRA_FAILPOINTS")) {
      const Status status = Failpoint::ArmFromString(env);
      HYDRA_CHECK_MSG(status.ok(),
                      "bad HYDRA_FAILPOINTS: " << status.ToString());
    }
    return true;
  }();
  (void)parsed;
}

bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// Applies the shared "times=/p=/seed=" arguments to `spec`.
Status ParseArgs(const std::vector<std::string>& args, size_t first,
                 FailpointSpec* spec) {
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint arg needs key=value: " + arg);
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "times") {
      if (!ParseInt64(value, &spec->times) || spec->times < 0) {
        return Status::InvalidArgument("bad failpoint times: " + value);
      }
    } else if (key == "p") {
      if (!ParseDouble(value, &spec->probability) || spec->probability < 0 ||
          spec->probability > 1) {
        return Status::InvalidArgument("bad failpoint probability: " + value);
      }
    } else if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt64(value, &seed)) {
        return Status::InvalidArgument("bad failpoint seed: " + value);
      }
      spec->seed = static_cast<uint64_t>(seed);
    } else {
      return Status::InvalidArgument("unknown failpoint arg: " + key);
    }
  }
  return Status::OK();
}

std::vector<std::string> SplitTrimmed(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= s.size()) {
    size_t end = s.find(sep, begin);
    if (end == std::string::npos) end = s.size();
    std::string piece = s.substr(begin, end - begin);
    const size_t lo = piece.find_first_not_of(" \t");
    const size_t hi = piece.find_last_not_of(" \t");
    out.push_back(lo == std::string::npos
                      ? ""
                      : piece.substr(lo, hi - lo + 1));
    begin = end + 1;
  }
  if (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

}  // namespace

StatusOr<FailpointSpec> FailpointSpec::Parse(const std::string& action) {
  FailpointSpec spec;
  if (action == "off") return spec;
  const size_t open = action.find('(');
  if (open == std::string::npos || action.back() != ')') {
    return Status::InvalidArgument("bad failpoint action: " + action);
  }
  const std::string verb = action.substr(0, open);
  const std::vector<std::string> args =
      SplitTrimmed(action.substr(open + 1, action.size() - open - 2), ',');
  if (verb == "error") {
    spec.kind = Kind::kError;
    if (args.empty() || !StatusCodeFromName(args[0], &spec.code) ||
        spec.code == StatusCode::kOk) {
      return Status::InvalidArgument("bad failpoint error code in: " + action);
    }
    HYDRA_RETURN_IF_ERROR(ParseArgs(args, 1, &spec));
  } else if (verb == "delay") {
    spec.kind = Kind::kDelay;
    if (args.empty() || !ParseInt64(args[0], &spec.delay_ms) ||
        spec.delay_ms < 0) {
      return Status::InvalidArgument("bad failpoint delay in: " + action);
    }
    HYDRA_RETURN_IF_ERROR(ParseArgs(args, 1, &spec));
  } else {
    return Status::InvalidArgument("unknown failpoint action: " + verb);
  }
  return spec;
}

Failpoint::Failpoint(const char* name) : name_(name) {
  ApplyEnvSpecsOnce();
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  HYDRA_CHECK_MSG(registry.points.emplace(name_, this).second,
                  "duplicate failpoint " << name_);
  const auto it = registry.pending.find(name_);
  if (it != registry.pending.end()) {
    ArmLocked(it->second);
    registry.pending.erase(it);
  }
}

Failpoint::~Failpoint() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.points.erase(name_);
}

void Failpoint::ArmLocked(const FailpointSpec& spec) {
  spec_ = spec;
  remaining_ = spec.times;
  armed_hits_ = 0;
  armed_.store(spec.kind == FailpointSpec::Kind::kOff ? 0 : 1,
               std::memory_order_relaxed);
}

void Failpoint::Arm(const FailpointSpec& spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  ArmLocked(spec);
}

void Failpoint::Disarm() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  armed_.store(0, std::memory_order_relaxed);
  spec_ = FailpointSpec();
}

Status Failpoint::Fire() {
  Registry& registry = GetRegistry();
  int64_t delay_ms = 0;
  Status injected;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    ++hits_;
    const uint64_t hit = armed_hits_++;
    if (spec_.kind == FailpointSpec::Kind::kOff) return Status::OK();
    bool fires = true;
    if (spec_.probability < 1) {
      // Deterministic per (seed, hit index since arming): re-arming a spec
      // replays the same fire schedule for a serialized hit sequence,
      // whatever the point saw before.
      const double u =
          static_cast<double>(Mix64(spec_.seed ^ Mix64(hit)) >> 11) *
          0x1p-53;
      fires = u < spec_.probability;
    }
    if (fires && remaining_ == 0) fires = false;
    if (!fires) return Status::OK();
    if (remaining_ > 0 && --remaining_ == 0) {
      // Budget exhausted after this fire: disarm to restore the zero-cost
      // fast path (and so fail-n-times sites succeed on retry n+1).
      armed_.store(0, std::memory_order_relaxed);
    }
    ++triggered_;
    if (spec_.kind == FailpointSpec::Kind::kError) {
      injected = Status(spec_.code, "injected by failpoint " + name_);
    } else {
      delay_ms = spec_.delay_ms;
    }
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return injected;
}

void Failpoint::FireIgnoreError() {
  const Status status = Fire();
  (void)status;
}

uint64_t Failpoint::hits() const {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return hits_;
}

uint64_t Failpoint::triggered() const {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return triggered_;
}

void Failpoint::ArmByName(const std::string& name, const FailpointSpec& spec) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.points.find(name);
  if (it != registry.points.end()) {
    it->second->ArmLocked(spec);
  } else {
    registry.pending[name] = spec;
  }
}

Status Failpoint::ArmFromString(const std::string& specs) {
  for (const std::string& point : SplitTrimmed(specs, ';')) {
    if (point.empty()) continue;
    const size_t eq = point.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint spec needs name=action: " +
                                     point);
    }
    HYDRA_ASSIGN_OR_RETURN(const FailpointSpec spec,
                           FailpointSpec::Parse(point.substr(eq + 1)));
    ArmByName(point.substr(0, eq), spec);
  }
  return Status::OK();
}

void Failpoint::DisarmAll() {
  ApplyEnvSpecsOnce();  // an unapplied env spec still counts as pending
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.pending.clear();
  for (auto& [name, point] : registry.points) {
    point->armed_.store(0, std::memory_order_relaxed);
    point->spec_ = FailpointSpec();
  }
}

std::vector<std::string> Failpoint::ListRegistered() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.points.size());
  for (const auto& [name, point] : registry.points) names.push_back(name);
  return names;
}

Failpoint* Failpoint::Find(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto it = registry.points.find(name);
  return it == registry.points.end() ? nullptr : it->second;
}

}  // namespace hydra
