// Order statistics and span accounting for the repository benchmark.
//
// Quartiles follow Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so the spreads this program prints are the ones a
// reader recomputes from the printed samples. Span accounting attributes a
// traced iteration's wall time to the spans that ran in it: at every
// instant the deepest active spans share that instant equally, so a span's
// share is its duration minus the part its children cover, split where
// parallel siblings overlap, and the shares of all spans add up to the
// root span's duration exactly.

#ifndef HYDRA_PERFBENCH_STATS_H_
#define HYDRA_PERFBENCH_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Python's statistics.quantiles(v, n=4): {Q1, Q2, Q3}. One sample repeats
// itself; an empty input gives zeros.
inline std::array<double, 3> Quartiles(std::vector<double> v) {
  std::array<double, 3> q{0, 0, 0};
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  const int64_t m = ld + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return q;
}

// Nearest-rank percentile: the smallest sample with at least a share `p`
// (0 < p <= 1) of the samples at or below it.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// One recorded call. `parent` is the id of the span that caused it (0 for
// a root); times are steady-clock nanoseconds.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;  // "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t iteration = -1;
};

inline std::string LayerOf(const std::string& span_name) {
  const size_t dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

// Wall-time share of every span in the tree under `root_id`, keyed by span
// id. Children are clipped to their parent's interval; spans outside the
// tree are ignored.
inline std::unordered_map<uint64_t, double> WallShares(
    const std::vector<Span>& spans, uint64_t root_id) {
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::unordered_map<uint64_t, double> share;
  auto root_it = by_id.find(root_id);
  if (root_it == by_id.end()) return share;

  // Collect the tree with clipped intervals.
  struct Clipped {
    uint64_t id, parent;
    int64_t begin, end;
  };
  std::vector<Clipped> tree;
  std::vector<Clipped> stack{{root_id, 0, root_it->second->start_ns,
                              root_it->second->end_ns}};
  while (!stack.empty()) {
    const Clipped c = stack.back();
    stack.pop_back();
    tree.push_back(c);
    share[c.id] = 0;
    for (const Span* child : children[c.id]) {
      const int64_t b = std::max(c.begin, child->start_ns);
      const int64_t e = std::min(c.end, child->end_ns);
      if (e > b) stack.push_back({child->id, c.id, b, e});
    }
  }

  // Sweep: events sorted by time, ends before begins at equal times.
  struct Event {
    int64_t t;
    int kind;  // 0 = end, 1 = begin
    size_t node;
  };
  std::vector<Event> events;
  events.reserve(tree.size() * 2);
  for (size_t i = 0; i < tree.size(); ++i) {
    events.push_back({tree[i].begin, 1, i});
    events.push_back({tree[i].end, 0, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.kind < b.kind;
  });
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < tree.size(); ++i) index_of[tree[i].id] = i;
  std::vector<int> active_children(tree.size(), 0);
  std::vector<char> active(tree.size(), 0);
  std::vector<size_t> deepest;  // active nodes with no active child
  auto remove_deepest = [&](size_t node) {
    auto it = std::find(deepest.begin(), deepest.end(), node);
    if (it != deepest.end()) {
      *it = deepest.back();
      deepest.pop_back();
    }
  };
  int64_t last_t = events.empty() ? 0 : events.front().t;
  for (const Event& ev : events) {
    if (ev.t > last_t && !deepest.empty()) {
      const double each =
          static_cast<double>(ev.t - last_t) / 1e9 / deepest.size();
      for (size_t node : deepest) share[tree[node].id] += each;
    }
    last_t = ev.t;
    const Clipped& c = tree[ev.node];
    const bool has_parent = c.parent != 0 && index_of.count(c.parent) > 0;
    const size_t parent = has_parent ? index_of[c.parent] : 0;
    if (ev.kind == 1) {
      active[ev.node] = 1;
      // A child that began at the same instant may already be active.
      if (active_children[ev.node] == 0) deepest.push_back(ev.node);
      if (has_parent && active_children[parent]++ == 0) remove_deepest(parent);
    } else {
      active[ev.node] = 0;
      remove_deepest(ev.node);
      if (has_parent && --active_children[parent] == 0 && active[parent]) {
        deepest.push_back(parent);
      }
    }
  }
  return share;
}

// Wall-time accounting over traced iterations: for each iteration's root
// span, the share of every span name and every layer, summed. The root's
// own share (the benchmark's code between calls) is the "bench" layer, so
// the layers add up to the summed root durations.
struct SpanAccounting {
  int iterations = 0;
  std::map<std::string, double> by_name;
  std::map<std::string, double> by_layer;
  double wall = 0;

  void AddIteration(const std::vector<Span>& spans, uint64_t root_id) {
    std::unordered_map<uint64_t, const Span*> by_id;
    for (const Span& s : spans) by_id[s.id] = &s;
    auto root = by_id.find(root_id);
    if (root == by_id.end()) return;
    for (const auto& [id, seconds] : WallShares(spans, root_id)) {
      const Span* s = by_id[id];
      by_name[s->name] += seconds;
      by_layer[id == root_id ? std::string("bench") : LayerOf(s->name)] +=
          seconds;
    }
    wall += static_cast<double>(root->second->end_ns -
                                root->second->start_ns) /
            1e9;
    ++iterations;
  }

  // Mean share per iteration of the spans named `name`.
  double MeanName(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() || iterations == 0 ? 0
                                                  : it->second / iterations;
  }
};

}  // namespace perfbench

#endif  // HYDRA_PERFBENCH_STATS_H_
