// ccpi_check: run a constraint-checking workload from a script file.
//
//   ccpi_check workload.ccpi
//   ccpi_check --export-souffle workload.ccpi   # emit a .dl translation
//   ccpi_check --fault-rate=0.2 --stats workload.ccpi
//   ccpi_check --trace-out=run.trace.json --metrics-out=run.metrics.json \
//              workload.ccpi
//
// The script declares local predicates, named constraints (in the paper's
// datalog syntax), initial facts, and an insert/delete stream; the tool
// replays the stream through the tiered constraint manager and reports
// which updates were rejected, which tier resolved each check, and the
// simulated local/remote access cost. With --export-souffle it instead
// prints the constraints and facts as a Souffle program (one .decl/.output
// block per constraint). See src/manager/script.h for the format and
// examples/workloads/ for samples.
//
// stdout carries the machine-parseable per-update log (one verb line per
// update plus the final counts line); the human-oriented summary (tier
// table, access costs, --stats block) goes to stderr.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "datalog/souffle_export.h"
#include "manager/script.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

constexpr const char kUsageHead[] =
    "usage: ccpi_check [flags] <workload.ccpi>\n"
    "\n"
    "Flags are applied after the script's directives, so a flag wins over\n"
    "the directive of the same knob (shown as \"script: ...\").\n"
    "\n"
    "  --help                  print this help and exit\n"
    "  --export-souffle        print a Souffle .dl translation and exit\n";

constexpr const char kUsageTail[] =
    "\n"
    "Observability:\n"
    "  --trace-out=FILE        write a Chrome trace-event JSON of the run\n"
    "                          (load in chrome://tracing or ui.perfetto.dev)\n"
    "  --metrics-out=FILE      write the metrics-registry dump as JSON\n"
    "                          (counters, gauges, latency histograms)\n"
    "\n"
    "Output streams: stdout gets the per-update log and the final counts\n"
    "line; stderr gets the tier/access summary and --stats block.\n"
    "\n"
    "Exit codes:\n"
    "  0  all updates verified, nothing pending\n"
    "  1  parse or internal error\n"
    "  2  usage or I/O error, including flags that conflict with the\n"
    "     script's directives\n"
    "  3  at least one constraint violation (including late-detected\n"
    "     violations found when a deferred check was finally re-verified)\n"
    "  4  no violation, but some checks are still deferred pending the\n"
    "     remote site, or updates were refused under --fault-reject\n"
    "  5  no violation, but the execution budget shed checks, refused an\n"
    "     update at the queue cap, or dropped queued entries (only possible\n"
    "     when a budget flag is set)\n";

void PrintUsage(std::FILE* out) {
  std::fputs(kUsageHead, out);
  std::fputs(ccpi::ScriptKnobsHelp().c_str(), out);
  std::fputs(kUsageTail, out);
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool export_souffle = false;
  const char* path = nullptr;
  std::string trace_out;
  std::string metrics_out;
  std::vector<const char*> knob_flags;
  bool flags_ok = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string_view view = arg;
    if (view == "--help" || view == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (view == "--export-souffle") {
      export_souffle = true;
    } else if (view.starts_with("--trace-out=")) {
      trace_out = view.substr(view.find('=') + 1);
    } else if (view.starts_with("--metrics-out=")) {
      metrics_out = view.substr(view.find('=') + 1);
    } else if (view.starts_with("--")) {
      // Knob flags are parsed strictly here, against scratch options, so a
      // malformed value (e.g. --threads=abc) is a usage error before the
      // script is even read; they are applied for real after its
      // directives.
      ccpi::ScriptOptions scratch;
      bool matched = false;
      ccpi::Status st = ccpi::ApplyScriptFlag(arg, &scratch, &matched);
      if (!matched) {
        std::fprintf(stderr, "unknown flag %s\n", arg);
        flags_ok = false;
      } else if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        flags_ok = false;
      } else {
        knob_flags.push_back(arg);
      }
    } else {
      path = arg;
    }
  }
  if (path == nullptr || !flags_ok) {
    PrintUsage(stderr);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();

  ccpi::Result<ccpi::Script> script = ccpi::ParseScript(text.str());
  if (!script.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 script.status().ToString().c_str());
    return 1;
  }
  // Directives first, flags after: a flag wins over the directive of the
  // same knob. Every flag parsed cleanly above, so none fails here.
  for (const char* flag : knob_flags) {
    bool matched = false;
    (void)ccpi::ApplyScriptFlag(flag, &script->options, &matched);
  }
  ccpi::Status valid = ccpi::ValidateScriptOptions(script->options);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    PrintUsage(stderr);
    return 2;
  }
  if (export_souffle) {
    for (const auto& [name, program] : script->constraints) {
      std::printf("// constraint %s\n", name.c_str());
      ccpi::Result<std::string> dl =
          ccpi::ExportSouffle(program, &script->initial);
      if (!dl.ok()) {
        std::fprintf(stderr, "export error for %s: %s\n", name.c_str(),
                     dl.status().ToString().c_str());
        return 1;
      }
      std::fputs(dl->c_str(), stdout);
      std::printf("\n");
    }
    return 0;
  }

  // Observability sinks: tracing records one span per manager/eval/distsim
  // operation; metrics timing fills the latency histograms. Both are off
  // (one atomic branch per site) unless requested.
  ccpi::obs::TraceRecorder recorder;
  if (!trace_out.empty()) recorder.Install();
  if (!metrics_out.empty() || !trace_out.empty()) {
    ccpi::obs::SetTimingEnabled(true);
  }
  script->options.collect_metrics = !metrics_out.empty();

  ccpi::Result<ccpi::ScriptReport> report = ccpi::RunScript(*script);
  if (!report.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  recorder.Uninstall();

  std::fputs(report->log_text.c_str(), stdout);
  std::fputs(report->summary_text.c_str(), stderr);
  std::printf("%zu applied, %zu rejected, %zu deferred (%zu still pending)\n",
              report->updates_applied, report->updates_rejected,
              report->updates_deferred, report->deferred_pending);
  if (report->budget_armed) {
    // Machine-parseable budget accounting, printed only for budgeted runs
    // so unbudgeted stdout stays byte-identical to earlier releases.
    std::printf("budget: %zu shed, %zu exhausted, %zu dropped\n",
                report->shed_checks, report->budget_exhausted,
                report->deferred_dropped);
  }

  if (!trace_out.empty()) {
    ccpi::Status st = recorder.WriteChromeJson(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write error: %s\n", st.ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n", recorder.size(),
                 trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!WriteFile(metrics_out, report->metrics_json)) return 2;
    std::fprintf(stderr, "metrics -> %s\n", metrics_out.c_str());
  }

  // Violations (immediate or late-detected) dominate; then budget
  // exhaustion (the run was cut short, so "no violation" is qualified);
  // then checks still pending on the remote site — or updates refused
  // because it was unreachable — as their own signal.
  if (report->violations > 0) return 3;
  if (report->shed_checks > 0 || report->budget_exhausted > 0 ||
      report->deferred_dropped > 0) {
    return 5;
  }
  if (report->deferred_pending > 0 || report->updates_rejected > 0) return 4;
  return 0;
}
