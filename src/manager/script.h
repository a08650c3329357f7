#ifndef CCPI_MANAGER_SCRIPT_H_
#define CCPI_MANAGER_SCRIPT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/topology.h"
#include "manager/constraint_manager.h"
#include "relational/database.h"
#include "updates/update.h"
#include "util/status.h"

namespace ccpi {

/// Per-site overrides of the base FaultConfig, from the --site-fault-*
/// flags. Unset fields inherit the base (global) fault flags; outage
/// windows are appended to the inherited ones.
struct SiteFaultOverride {
  std::optional<double> transient_rate;
  std::optional<double> timeout_rate;
  std::optional<uint64_t> seed;
  std::vector<OutageWindow> outages;
};

/// Execution options of a script run: access pricing, fault injection on
/// the simulated remote site, the remote-site topology, and the manager's
/// degradation policy. A script's knob directives write here first;
/// `ccpi_check` flags are applied to the same struct afterwards, so a
/// flag wins over the directive it shares a knob with.
struct ScriptOptions {
  CostModel costs;
  /// Remote faults to inject; used only when enable_faults is true. With
  /// N sites this is the base config every site inherits: site 0 keeps
  /// the seed verbatim, site s derives seed + s * golden-ratio so the
  /// sites draw independent schedules by default.
  FaultConfig faults;
  bool enable_faults = false;
  /// Correlated-outage windows from --domain-outage=NAME:A:B, attached by
  /// name to the final failure domains when the run starts, so flag order
  /// never matters. A window naming a domain that does not exist is a
  /// validation error. Any entry implies fault injection (the expanded
  /// windows ride the per-site FaultInjectors). A script's own
  /// `domain_outage` lines attach to their domain as they are parsed.
  std::map<std::string, std::vector<OutageWindow>> domain_outages;
  /// Per-site fault overrides from --site-fault-rate=S:P and friends;
  /// any entry implies enable_faults.
  std::map<size_t, SiteFaultOverride> site_faults;
  /// The manager's configuration. The knobs write its fields:
  /// `threads` (--threads; reports are identical at any count),
  /// `remote_cache` (--remote-cache, and `hedge_after` / --hedge-after),
  /// `plan_cache` (`plan_cache` / --plan-cache), `pipeline`
  /// (`pipeline` / --pipeline-depth; the per-update log is byte-identical
  /// at any depth), `budget` (--deadline-ms, --max-fixpoint-rounds,
  /// --max-derived-tuples, --deferred-queue-cap, --overflow-policy; off by
  /// default), `resilience` (--fault-reject) and `topology` (`sites` /
  /// `site` / `site_latency` / `domain` / `domain_outage` directives, then
  /// --sites replaces the count, --placement overlays per predicate,
  /// --site-latency overlays per site and --domains replaces the domain
  /// list wholesale).
  ManagerConfig manager;
  /// Columnar read path (ccpi_check --columnar). On by default;
  /// semantically invisible either way — freezing a relation additionally
  /// builds a columnar segment that the RA evaluator's scan/join kernels
  /// use, with byte-identical reports and stats on or off.
  bool columnar = true;
  /// Append the full ManagerStats block (retries, deferred/recovered
  /// outcomes, breaker state) to the report text.
  bool print_stats = false;
  /// Fill ScriptReport::metrics_json with the manager's metrics-registry
  /// dump (ccpi_check --metrics-out). Enable timing (SetTimingEnabled)
  /// before the run if the latency histograms should be populated.
  bool collect_metrics = false;
};

/// A declarative constraint-checking workload, the input format of the
/// `ccpi_check` tool. Line-oriented:
///
///     # comments with '#' or '%'
///     local reserved emp            # predicates held at this site
///     constraint no-dual            # begins a named constraint...
///     panic :- assign(E,sales) & assign(E,accounting)
///     constraint referential        # ...until the next directive
///     panic :- emp(E,D,S) & not dept(D)
///     fact emp(ann, cs, 120)        # initial data (not checked)
///     insert emp(bob, ee, 90)       # update stream, checked in order
///     delete emp(ann, cs, 120)
///     sites 3                       # remote fault domains (default 1)
///     site 1 dept assign            # pin remote preds to a site; unpinned
///                                   # ones hash to a site deterministically
///     site_latency 1 twopoint:100:5000:0.1   # per-site latency model
///     domain rack0 0 1              # correlated failure domain
///     domain_outage rack0 4 10      # whole domain dark for trips 4..9
///     hedge_after 3                 # hedge batched reads past 3x EWMA
///     plan_cache off                # compiled-plan cache (default on)
///     pipeline 4                    # episode pipeline depth (default 1)
///
/// Rules may span lines exactly as in ParseProgram (break after `:-`, `&`
/// or `,`). The knob directives (`sites` through `pipeline`) are entries
/// of the ScriptKnobs() table, shared with the `ccpi_check` flags.
struct Script {
  std::set<std::string> local_preds;
  std::vector<std::pair<std::string, Program>> constraints;
  Database initial;
  std::vector<Update> updates;
  /// The run's knobs: the script's directives, plus whatever flags the
  /// caller applies on top with ApplyScriptFlag (flags win by coming
  /// later). Call ValidateScriptOptions again after applying flags.
  ScriptOptions options;
};

/// Parses a script and validates its options (ValidateScriptOptions).
Result<Script> ParseScript(std::string_view text);

/// The outcome of running a script through the ConstraintManager.
struct ScriptReport {
  /// Human-readable per-update log plus the tier/access summary —
  /// log_text followed by summary_text, kept whole for callers that want
  /// the full transcript.
  std::string text;
  /// The per-update log alone (constraint registrations, one verb line
  /// per update, recheck/PENDING lines).
  std::string log_text;
  /// The closing summary alone ("---", tier table, access line, optional
  /// stats block). `ccpi_check` routes this to stderr so stdout stays
  /// machine-parseable.
  std::string summary_text;
  /// MetricsRegistry::ToJson() of the run's manager, when
  /// ScriptOptions::collect_metrics was set; empty otherwise.
  std::string metrics_json;
  size_t updates_applied = 0;
  /// Updates refused: violations plus, under DeferredPolicy::kReject,
  /// updates that could not be verified during an outage.
  size_t updates_rejected = 0;
  /// Constraint violations detected (immediate or late via recheck).
  size_t violations = 0;
  /// Updates with at least one check deferred because the remote site was
  /// unreachable (they were applied optimistically or refused, per the
  /// DeferredPolicy).
  size_t updates_deferred = 0;
  /// Deferred checks re-verified as holding by end of run (including the
  /// shutdown drain).
  size_t deferred_recovered = 0;
  /// Deferred checks found violated late and compensated by rollback.
  size_t deferred_violations = 0;
  /// Deferred checks still unresolved at shutdown (remote never answered).
  size_t deferred_pending = 0;
  /// Outage→closed recovery events observed across all sites
  /// (ManagerStats::sites_recovered); always 0 with one site.
  size_t sites_recovered = 0;
  /// Poisoned cache entries revalidated during recoveries
  /// (ManagerStats::cache_revalidated).
  size_t cache_revalidated = 0;
  /// Whether any budget or queue bound was configured for this run; the
  /// three counters below can only be nonzero when it is, and `ccpi_check`
  /// prints its "budget:" stdout line (and uses the budget exit code) only
  /// then.
  bool budget_armed = false;
  /// Tier-3 checks shed with kResourceExhausted (ManagerStats::shed_checks).
  size_t shed_checks = 0;
  /// Budget-exhaustion events anywhere in the pipeline
  /// (ManagerStats::budget_exhausted).
  size_t budget_exhausted = 0;
  /// Queue entries dropped by OverflowPolicy::kShedOldest
  /// (ManagerStats::deferred_dropped).
  size_t deferred_dropped = 0;
  /// Hedged-read accounting (ManagerStats::hedges_*); all zero unless the
  /// effective hedge_after threshold is nonzero. issued == won + wasted.
  size_t hedges_issued = 0;
  size_t hedges_won = 0;
  size_t hedges_wasted = 0;
  /// Tier-3 checks shed because the worst member site's latency EWMA
  /// projected past the remaining episode deadline — a labeled subset of
  /// shed_checks (ManagerStats::latency_shed).
  size_t latency_shed = 0;
};

/// Runs the script with its own options. Fails with InvalidArgument if
/// they do not pass ValidateScriptOptions.
Result<ScriptReport> RunScript(const Script& script);

/// Which spelling of a knob the user typed.
enum class KnobForm { kDirective, kFlag };

/// One run knob, declared once for both spellings: the `ccpi_check` flag
/// `--<flag>=<value>` and, where there is one, the script directive
/// `<keyword> <words>`. The directive's words are converted to the flag's
/// value and go through the same apply function.
struct Knob {
  /// Flag name without the leading "--".
  std::string_view flag = {};
  /// The value as `--help` shows it ("N", "on|off"); empty for a bare
  /// switch such as --stats.
  std::string_view metavar = {};
  /// The value grammar; error messages read "--<flag> wants <wants>".
  std::string_view wants = {};
  /// `--help` heading printed before this entry, if any.
  std::string_view section = {};
  /// `--help` text, one '\n' per line break.
  std::string_view help = {};
  /// The directive as `--help` shows it ("site K PRED..."), its first word
  /// being the keyword; empty when the knob has no directive.
  std::string_view directive = {};
  /// Converts a directive's words (after the keyword) to the flag's value;
  /// null when the directive takes the flag's value verbatim.
  std::string (*words_to_value)(const std::vector<std::string>& words) =
      nullptr;
  /// Integer knobs: the value must lie in [min, max] and is handed to
  /// set_uint.
  uint64_t min = 0;
  uint64_t max = UINT64_MAX;
  void (*set_uint)(ScriptOptions* options, uint64_t value) = nullptr;
  /// on|off knobs.
  void (*set_on_off)(ScriptOptions* options, bool value) = nullptr;
  /// Every other knob: parses `value` and applies it, or returns false
  /// leaving `options` untouched.
  bool (*apply)(std::string_view value, KnobForm form,
                ScriptOptions* options) = nullptr;
};

/// The knob table, in `--help` order.
const std::vector<Knob>& ScriptKnobs();

/// The `--help` lines of every knob in ScriptKnobs(), grouped by section.
std::string ScriptKnobsHelp();

/// Applies one `ccpi_check`-style command-line flag to `options`.
///
/// Recognizes every flag of ScriptKnobs() and validates values *strictly*:
/// a malformed or out-of-range value (e.g. --threads=abc, --threads=-2,
/// --fault-rate=1.5) is an InvalidArgument error naming the flag, never a
/// silent fallback to a default, and leaves `options` untouched. Flags the
/// tool handles itself (--help, --export-souffle, --trace-out,
/// --metrics-out) are not recognized here.
///
/// On return, *matched says whether `arg` was one of the recognized flags;
/// the Status is non-OK only for a recognized flag with a bad value.
Status ApplyScriptFlag(std::string_view arg, ScriptOptions* options,
                       bool* matched);

/// Cross-knob validation, run at the end of ParseScript and again once
/// flags are applied: the fault probabilities (global and per-site
/// effective) must sum to at most 1; every site index named by a
/// placement, --site-fault-*, site latency or domain member must be
/// < sites; domain names must be unique with no site in two domains; and
/// every --domain-outage must name a domain.
Status ValidateScriptOptions(const ScriptOptions& options);

}  // namespace ccpi

#endif  // CCPI_MANAGER_SCRIPT_H_
