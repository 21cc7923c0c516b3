// hydra_perfbench: runs one benchmark workload and prints its metrics.
//
//   hydra_perfbench --workload <regen_wlc|materialize_wls|serve_wire>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--git-sha <sha>]
//
// Prints a machine record, the workload's sizes, the host's CPU steal during
// the run, one line per metric (name, value, unit, samples, and for a median
// the quartile spread of its samples), and as its last line a JSON object
// with the keys correct, attempted, failed and metrics. --trace 1 reports the
// per-layer metrics and writes the recorded spans to <work-dir>-spans.json.
// Scratch files go under <work-dir>, which is removed at exit. Exits 0 when
// every output check passed, 3 when one failed, 1 on a set-up error or bad
// arguments (without a result line).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Steal and total jiffies of the machine so far, from /proc/stat's "cpu"
// line; {0, 0} where it is absent.
std::pair<unsigned long long, unsigned long long> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long field = 0, total = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 10 && (in >> field); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    if (i < 8) total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hydra_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--git-sha <sha>]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".bench_build/work", git_sha = "unknown";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || workload.empty() || seed < 0 || seconds < 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  auto config = perfbench::BenchmarkConfig(workload, work_dir);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir + "/tables", ec);
  std::filesystem::create_directories(work_dir + "/traced_tables", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::printf("machine: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s "
              "git=%s seed=%lld date=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, git_sha.c_str(), seed,
              UtcNow().c_str());
  std::printf("workload: %s  seconds=%g  trace=%d\n", workload.c_str(),
              seconds, trace);
  std::fflush(stdout);

  const auto jiffies_before = CpuJiffies();
  perfbench::SpanRecorder recorder;
  auto report = perfbench::RunWorkload(*config, static_cast<uint64_t>(seed),
                                       seconds, trace ? &recorder : nullptr);
  std::string spans_path;
  if (trace) {
    spans_path = work_dir + "-spans.json";
    if (!recorder.WriteJson(spans_path)) spans_path = "(not written)";
  }
  std::filesystem::remove_all(work_dir, ec);
  if (!report.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  for (const std::string& note : report->notes) {
    std::printf("%s\n", note.c_str());
  }
  const auto jiffies_after = CpuJiffies();
  const unsigned long long total = jiffies_after.second - jiffies_before.second;
  if (total > 0) {
    std::printf("steal: %.1f%% of the machine's CPU time during the run\n",
                100.0 * (jiffies_after.first - jiffies_before.first) / total);
  } else {
    std::printf("steal: unknown\n");
  }
  if (trace) std::printf("spans: %s\n", spans_path.c_str());
  std::printf("%-36s %18s  %-9s %-9s %s\n", "metric", "value", "unit",
              "samples", "spread");
  for (const perfbench::Metric& m : report->metrics) {
    char spread[32] = "";
    if (m.spread >= 0) std::snprintf(spread, sizeof(spread), "%.3f", m.spread);
    std::printf("%-36s %18.6f  %-9s %-9llu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                spread);
  }
  const double failed_frac =
      report->attempted == 0
          ? 0
          : static_cast<double>(report->failed) / report->attempted;
  std::printf("%-36s %18.6f  %-9s %llu\n", "failed_frac", failed_frac,
              "fraction", static_cast<unsigned long long>(report->attempted));
  for (const std::string& f : report->failures) {
    std::printf("failure: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report->checks_failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report->attempted);
  json += ", \"failed\": " + std::to_string(report->failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const perfbench::Metric& m : report->metrics) {
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report->checks_failed == 0 ? 0 : 3;
}
