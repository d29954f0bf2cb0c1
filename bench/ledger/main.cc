// rita_ledger: end-to-end + per-layer latency ledger for the RITA serving
// stack.
//
//   rita_ledger --workload <interactive|long_series|bulk|fleet|all> --seed N
//               [--seconds S] [--trace 0|1] [--json PATH] [--trace-dump PREFIX]
//
// Prints one `workload metric value unit` line per metric, then (last line)
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). `all` runs every
// workload in its own process (setup_s and peak_rss_mb are per process) with
// the per-layer phase on, and merges the results. Exits non-zero on any
// correctness failure.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "linalg/kernels/kernels.h"
#include "obs/trace.h"
#include "serve/telemetry.h"

#ifndef RITA_LEDGER_BUILD_TYPE
#define RITA_LEDGER_BUILD_TYPE "unknown"
#endif

namespace rita {
namespace ledger {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string json_path;
  std::string trace_dump;
};

int Usage() {
  std::fprintf(stderr,
               "usage: rita_ledger --workload <interactive|long_series|bulk|fleet|all> "
               "--seed N [--seconds S] [--trace 0|1] [--json PATH] "
               "[--trace-dump PREFIX]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--json") {
      args->json_path = value;
    } else if (flag == "--trace-dump") {
      args->trace_dump = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

std::string Trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' ')) {
    s.pop_back();
  }
  return s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Host fingerprint: every ledger number is tied to the machine, compiler,
/// build and kernel backend it ran on, and the commit it measured.
std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = Trim(line.substr(line.find(':') + 2));
      break;
    }
  }
  std::string rev;
  if (FILE* git = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), git) != nullptr) rev += buf;
    pclose(git);
  }
  rev = Trim(rev);
  std::ostringstream os;
  os << "{\"cpu\": " << JsonString(cpu) << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"compiler\": " << JsonString(__VERSION__)
     << ", \"build_type\": " << JsonString(RITA_LEDGER_BUILD_TYPE)
     << ", \"kernel_backend\": "
     << JsonString(kernels::BackendName(kernels::ActiveBackend()))
     << ", \"git_rev\": " << JsonString(rev.empty() ? "unknown" : rev) << "}";
  return os.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                       const std::string& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics + "}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

void PrintMetrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
}

int RunOne(const WorkloadSpec& spec, const Args& args) {
  // The end-to-end phase runs untraced whatever RITA_TRACE says.
  obs::SetTracingForTesting(0);
  Report report;
  const Inputs inputs(spec, args.seed);

  // Set up several times; the median is setup_s and the last stack serves.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();  // the previous setup shuts down untimed
    const Clock::time_point start = Clock::now();
    stack = Stack::Build(spec, inputs);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  report.EndToEnd("setup_s", Median(setup_s), "s");

  RunTimedPhase(spec, inputs, args.seed, args.seconds, stack.get(), &report);
  // Before the per-layer phase, so both --trace modes report the same peak.
  report.EndToEnd("peak_rss_mb", static_cast<double>(serve::PeakRssBytes()) / 1e6, "MB");
  RunLayerPhase(spec, inputs, stack.get(), args.trace, &report);
  if (args.trace && !args.trace_dump.empty() &&
      !obs::DumpTrace(args.trace_dump + "_" + spec.name + ".json")) {
    report.Fail("cannot write the trace dump");
  }
  stack->Shutdown();

  const std::string host = HostJson();
  std::printf("# host %s\n", host.c_str());
  PrintMetrics(spec.name, report.end_to_end);
  PrintMetrics(spec.name, report.per_layer);
  for (const std::string& f : report.failures) {
    std::printf("# FAILED %s: %s\n", spec.name.c_str(), f.c_str());
  }
  const bool correct = report.failures.empty();
  if (!args.json_path.empty()) {
    std::string failures = "[";
    for (size_t i = 0; i < report.failures.size(); ++i) {
      failures += (i > 0 ? ", " : "") + JsonString(report.failures[i]);
    }
    const std::string doc =
        "{\"workload\": " + JsonString(spec.name) + ", \"seed\": " +
        std::to_string(args.seed) + ", \"seconds\": " + Number(args.seconds) +
        ", \"host\": " + host + ", \"failures\": " + failures + "]" +
        ", \"end_to_end\": " + MetricsJson(report.end_to_end) +
        ", \"per_layer\": " + MetricsJson(report.per_layer) + "}\n";
    if (!WriteFile(args.json_path, doc)) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              ResultLine(correct, report.attempted, report.failed,
                         MetricsJson(args.trace ? report.per_layer : report.end_to_end))
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Re-execs this binary once per workload and merges the results; metric
/// names become `<workload>.<metric>`.
int RunAll(const Args& args) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return Usage();
  self[len] = '\0';

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::vector<Metric> merged;
  std::string workloads_json = "{";
  for (const WorkloadSpec& spec : AllWorkloads()) {
    std::string cmd = std::string("'") + self + "' --workload " + spec.name +
                      " --seed " + std::to_string(args.seed) + " --seconds " +
                      Number(args.seconds) + " --trace 1";
    if (!args.trace_dump.empty()) cmd += " --trace-dump '" + args.trace_dump + "'";
    FILE* child = popen(cmd.c_str(), "r");
    if (child == nullptr) return 1;
    std::string last, host;
    char buf[8192];
    while (std::fgets(buf, sizeof(buf), child) != nullptr) {
      const std::string line = Trim(buf);
      if (!line.empty() && line[0] == '{') {
        last = line;
        continue;
      }
      std::printf("%s\n", line.c_str());
      if (line.rfind("# host ", 0) == 0) host = line.substr(7);
      char workload[64], name[96], unit[32];
      double value = 0.0;
      if (std::sscanf(line.c_str(), "%63s %95s %lf %31s", workload, name, &value, unit) == 4 &&
          workload[0] != '#') {
        merged.push_back({std::string(workload) + "." + name, value, unit});
      }
    }
    std::fflush(stdout);
    const int status = pclose(child);
    long long child_attempted = 0, child_failed = 0;
    const char* a = std::strstr(last.c_str(), "\"attempted\": ");
    const char* f = std::strstr(last.c_str(), "\"failed\": ");
    if (a != nullptr) child_attempted = std::atoll(a + 13);
    if (f != nullptr) child_failed = std::atoll(f + 10);
    attempted += child_attempted;
    failed += child_failed;
    const bool ok = status == 0 && last.find("\"correct\": true") != std::string::npos;
    correct = correct && ok;
    if (workloads_json.size() > 1) workloads_json += ", ";
    workloads_json += JsonString(spec.name) + ": {\"correct\": " + (ok ? "true" : "false") +
                      ", \"host\": " + (host.empty() ? "null" : host) + "}";
  }
  workloads_json += "}";
  const std::string metrics = MetricsJson(merged);
  if (!args.json_path.empty()) {
    const std::string doc = "{\"seed\": " + std::to_string(args.seed) +
                            ", \"seconds\": " + Number(args.seconds) +
                            ", \"workloads\": " + workloads_json +
                            ", \"result\": " + ResultLine(correct, attempted, failed, metrics) +
                            "}\n";
    if (!WriteFile(args.json_path, doc)) return 1;
  }
  std::printf("%s\n", ResultLine(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger
}  // namespace rita

int main(int argc, char** argv) {
  using namespace rita::ledger;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.workload == "all") return RunAll(args);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage();
  return RunOne(*spec, args);
}
