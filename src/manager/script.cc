#include "manager/script.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/strings.h"

namespace ccpi {

namespace {

// Caps that keep a typo from sizing per-site or per-lane state by the
// billions (and aborting on the allocation); every shipped workload,
// test and bench stays at 8 or below.
constexpr uint64_t kMaxSites = 1024;
constexpr uint64_t kMaxThreads = 256;
// One day. The deadline is added to a nanosecond clock, which overflows
// (undefined behaviour) past about 292 years.
constexpr uint64_t kMaxDeadlineMs = 86'400'000;

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool EndsWithContinuation(const std::string& line) {
  if (line.empty()) return false;
  char last = line.back();
  if (last == '&' || last == ',') return true;
  return line.size() >= 2 && line.substr(line.size() - 2) == ":-";
}

/// Splits a `sep`-separated list. False when the list or any element is
/// empty: "p:0," has an empty last element and is malformed, not short.
bool SplitList(std::string_view list, char sep,
               std::vector<std::string_view>* out) {
  out->clear();
  while (true) {
    size_t at = list.find(sep);
    out->push_back(list.substr(0, at));
    if (out->back().empty()) return false;
    if (at == std::string_view::npos) return true;
    list = list.substr(at + 1);
  }
}

/// Splits "HEAD:rest" at the first colon; HEAD must be non-empty.
bool SplitHead(std::string_view value, std::string_view* head,
               std::string_view* rest) {
  size_t colon = value.find(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  *head = value.substr(0, colon);
  *rest = value.substr(colon + 1);
  return true;
}

/// Splits "S:rest" into a site index and the remainder; the per-site
/// knobs all use this prefix.
bool SplitSitePrefix(std::string_view value, size_t* site,
                     std::string_view* rest) {
  std::string_view head;
  uint64_t s = 0;
  if (!SplitHead(value, &head, rest) || !ParseUint64(head, &s)) return false;
  *site = static_cast<size_t>(s);
  return true;
}

/// Parses an outage window "A:B" over a trip counter, half-open [A, B).
/// An inverted window would be a silent no-op, not an outage.
bool ParseWindow(std::string_view value, OutageWindow* window) {
  std::string_view head, rest;
  uint64_t begin = 0, end = 0;
  if (!SplitHead(value, &head, &rest) || !ParseUint64(head, &begin) ||
      !ParseUint64(rest, &end) || begin > end) {
    return false;
  }
  *window = OutageWindow{begin, end};
  return true;
}

/// Parses a latency-model spec — "fixed:U", "uniform:LO:HI" or
/// "twopoint:LO:HI:P". Microsecond parameters must be >= 1 (a zero or
/// negative latency is a config error, not a free network) and LO <= HI;
/// P is a probability in [0,1].
bool ParseLatencySpec(std::string_view spec, SiteLatencyOverride* out) {
  std::vector<std::string_view> parts;
  if (!SplitList(spec, ':', &parts)) return false;
  SiteLatencyOverride o;
  if (parts[0] == "fixed" && parts.size() == 2) {
    o.model = LatencyModel::kFixed;
    if (!ParseUint64(parts[1], &o.fixed_us) || o.fixed_us == 0) return false;
  } else {
    if (parts[0] == "uniform" && parts.size() == 3) {
      o.model = LatencyModel::kUniform;
    } else if (parts[0] == "twopoint" && parts.size() == 4) {
      o.model = LatencyModel::kTwoPoint;
      if (!ParseProbability(parts[3], &o.slow_share)) return false;
    } else {
      return false;
    }
    if (!ParseUint64(parts[1], &o.lo_us) ||
        !ParseUint64(parts[2], &o.hi_us) || o.lo_us == 0 ||
        o.lo_us > o.hi_us) {
      return false;
    }
  }
  *out = o;
  return true;
}

/// "site_latency K SPEC" -> "K:SPEC". Any other word count yields the
/// empty value, which the knob rejects.
std::string LatencyWords(const std::vector<std::string>& w) {
  return w.size() == 2 ? w[0] + ":" + w[1] : "";
}

/// "domain_outage NAME A B" -> "NAME:A:B", likewise.
std::string OutageWords(const std::vector<std::string>& w) {
  return w.size() == 3 ? w[0] + ":" + w[1] + ":" + w[2] : "";
}

/// "site K p q" -> "p:K,q:K". A word carrying the flag's own separators
/// yields the empty (rejected) value instead of a list the directive
/// never spelled.
std::string PlacementWords(const std::vector<std::string>& words) {
  std::string value;
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i].find_first_of(":,") != std::string::npos) return "";
    if (i > 0) value += (i > 1 ? "," : "") + words[i] + ":" + words[0];
  }
  return value;
}

/// "domain N 0 1" -> "N:0+1", with the same separator guard.
std::string DomainWords(const std::vector<std::string>& words) {
  std::string value;
  for (size_t i = 0; i < words.size(); ++i) {
    if (words[i].find_first_of(":,+") != std::string::npos) return "";
    value += (i == 0 ? "" : i == 1 ? ":" : "+") + words[i];
  }
  return value;
}

bool ApplyPlacement(std::string_view value, KnobForm,
                    ScriptOptions* options) {
  std::vector<std::string_view> pairs;
  if (!SplitList(value, ',', &pairs)) return false;
  std::map<std::string, size_t> placement = options->manager.topology.placement;
  for (std::string_view pair : pairs) {
    std::string_view pred, site_text;
    uint64_t site = 0;
    if (!SplitHead(pair, &pred, &site_text) ||
        !ParseUint64(site_text, &site)) {
      return false;
    }
    placement[std::string(pred)] = static_cast<size_t>(site);
  }
  options->manager.topology.placement = std::move(placement);
  return true;
}

/// --domains=NAME:S0+S1,... replaces the domain list; each `domain` line
/// appends one domain to it.
bool ApplyDomains(std::string_view value, KnobForm form,
                  ScriptOptions* options) {
  std::vector<std::string_view> specs, members;
  if (!SplitList(value, ',', &specs)) return false;
  std::vector<FailureDomain> domains;
  if (form == KnobForm::kDirective) domains = options->manager.topology.domains;
  for (std::string_view spec : specs) {
    std::string_view name, member_list;
    if (!SplitHead(spec, &name, &member_list) ||
        !SplitList(member_list, '+', &members)) {
      return false;
    }
    FailureDomain dom;
    dom.name = std::string(name);
    for (std::string_view member : members) {
      uint64_t m = 0;
      if (!ParseUint64(member, &m)) return false;
      dom.members.push_back(static_cast<size_t>(m));
    }
    domains.push_back(std::move(dom));
  }
  options->manager.topology.domains = std::move(domains);
  return true;
}

/// Sets one optional field of a site's fault override from "S:VALUE".
template <typename T>
bool ApplySiteFault(std::string_view value, ScriptOptions* options,
                    bool (*parse)(std::string_view, T*),
                    std::optional<T> SiteFaultOverride::*field) {
  size_t site = 0;
  std::string_view rest;
  T parsed{};
  if (!SplitSitePrefix(value, &site, &rest) || !parse(rest, &parsed)) {
    return false;
  }
  options->site_faults[site].*field = parsed;
  options->enable_faults = true;
  return true;
}

std::string_view Keyword(const Knob& knob) {
  return knob.directive.substr(0, knob.directive.find(' '));
}

/// The knob spelled `name` in the given form, or null.
const Knob* FindKnob(std::string_view name, KnobForm form) {
  for (const Knob& knob : ScriptKnobs()) {
    if ((form == KnobForm::kFlag ? knob.flag : Keyword(knob)) == name) {
      return &knob;
    }
  }
  return nullptr;
}

/// What the knob's value should look like, in the form the user typed.
std::string Wants(const Knob& knob, KnobForm form) {
  if (form == KnobForm::kDirective && knob.words_to_value != nullptr) {
    return std::string(knob.directive.substr(Keyword(knob).size() + 1));
  }
  if (knob.metavar.empty()) return "no value";
  if (knob.max == UINT64_MAX) return std::string(knob.wants);
  return std::string(knob.wants) + " (at most " + std::to_string(knob.max) +
         ")";
}

/// Parses `value` and applies it; false (options untouched) if malformed.
bool ApplyKnob(const Knob& knob, std::string_view value, KnobForm form,
               ScriptOptions* options) {
  if (knob.set_uint != nullptr) {
    uint64_t n = 0;
    if (!ParseUint64(value, &n) || n < knob.min || n > knob.max) return false;
    knob.set_uint(options, n);
    return true;
  }
  if (knob.set_on_off != nullptr) {
    if (value != "on" && value != "off") return false;
    knob.set_on_off(options, value == "on");
    return true;
  }
  return knob.apply(value, form, options);
}

/// Appends each named list of outage windows to its failure domain;
/// `knob` heads the error for a name no domain carries.
Status AttachDomainOutages(
    const std::string& knob,
    const std::map<std::string, std::vector<OutageWindow>>& outages,
    std::vector<FailureDomain>* domains) {
  for (const auto& [name, windows] : outages) {
    auto dom = std::find_if(
        domains->begin(), domains->end(),
        [&name = name](const FailureDomain& d) { return d.name == name; });
    if (dom == domains->end()) {
      return Status::InvalidArgument(knob + " names undefined domain \"" +
                                     name + "\"");
    }
    dom->outages.insert(dom->outages.end(), windows.begin(), windows.end());
  }
  return Status::OK();
}

/// Parses "pred(c1, c2, ...)" into a ground atom.
Result<std::pair<std::string, Tuple>> ParseGroundAtom(
    const std::string& text) {
  CCPI_ASSIGN_OR_RETURN(Rule rule, ParseRule(text));
  if (!rule.body.empty()) {
    return Status::InvalidArgument("expected a plain fact, got a rule: " +
                                   text);
  }
  Tuple t;
  t.reserve(rule.head.args.size());
  for (const Term& arg : rule.head.args) {
    if (!arg.is_const()) {
      return Status::InvalidArgument("fact arguments must be constants: " +
                                     text);
    }
    t.push_back(arg.constant());
  }
  return std::make_pair(rule.head.pred, std::move(t));
}

}  // namespace

const std::vector<Knob>& ScriptKnobs() {
  using O = ScriptOptions;
  static const std::vector<Knob> knobs = {
      {.flag = "stats",
       .help = "print retry/deferred/breaker statistics\n"
               "(to stderr, with the rest of the summary)",
       .apply = [](std::string_view, KnobForm, O* o) {
         o->print_stats = true;
         return true;
       }},
      {.flag = "threads",
       .metavar = "N",
       .wants = "a non-negative integer",
       .help = "checker threads for the per-constraint\n"
               "fan-out (default 1 = sequential; reports\n"
               "are identical at any thread count)",
       .max = kMaxThreads,
       .set_uint = [](O* o, uint64_t n) { o->manager.threads = n; }},
      {.flag = "remote-cache",
       .metavar = "on|off",
       .wants = "on or off",
       .help = "remote-read snapshot cache (default on;\n"
               "semantically invisible — only the access\n"
               "accounting changes)",
       .set_on_off = [](O* o, bool on) {
         o->manager.remote_cache.enabled = on;
       }},
      {.flag = "plan-cache",
       .metavar = "on|off",
       .wants = "on or off",
       .help = "compiled local-test plan cache (default on;\n"
               "semantically invisible — reports and stats\n"
               "are byte-identical either way)",
       .directive = "plan_cache on|off",
       .set_on_off = [](O* o, bool on) { o->manager.plan_cache = on; }},
      {.flag = "columnar",
       .metavar = "on|off",
       .wants = "on or off",
       .help = "columnar read path: frozen relations carry\n"
               "a columnar segment that the RA scan/join\n"
               "kernels use (default on; semantically\n"
               "invisible — reports and stats are\n"
               "byte-identical either way)",
       .set_on_off = [](O* o, bool on) { o->columnar = on; }},
      {.flag = "pipeline-depth",
       .metavar = "N",
       .wants = "a positive integer",
       .help = "episode pipeline depth (default 1 = serial;\n"
               "N>1 speculates check phases ahead while\n"
               "commits stay serialized in admission order,\n"
               "so stdout is byte-identical at any depth)",
       .directive = "pipeline N",
       .min = 1,
       .set_uint = [](O* o, uint64_t n) { o->manager.pipeline.depth = n; }},
      {.flag = "fault-rate",
       .metavar = "P",
       .wants = "a probability in [0,1]",
       .section = "Fault injection (simulated remote-site failures):",
       .help = "per-trip transient failure probability [0,1]",
       .apply = [](std::string_view v, KnobForm, O* o) {
         double p = 0;
         if (!ParseProbability(v, &p)) return false;
         o->faults.transient_rate = p;
         o->enable_faults = true;
         return true;
       }},
      {.flag = "fault-timeout-rate",
       .metavar = "P",
       .wants = "a probability in [0,1]",
       .help = "per-trip timeout probability [0,1]",
       .apply = [](std::string_view v, KnobForm, O* o) {
         double p = 0;
         if (!ParseProbability(v, &p)) return false;
         o->faults.timeout_rate = p;
         o->enable_faults = true;
         return true;
       }},
      {.flag = "fault-outage",
       .metavar = "A:B",
       .wants = "A:B with integer trips, A <= B",
       .help = "hard outage for remote trips A..B-1\n(repeatable)",
       .apply = [](std::string_view v, KnobForm, O* o) {
         OutageWindow w;
         if (!ParseWindow(v, &w)) return false;
         o->faults.outages.push_back(w);
         o->enable_faults = true;
         return true;
       }},
      {.flag = "fault-seed",
       .metavar = "N",
       .wants = "a non-negative integer",
       .help = "RNG seed of the failure schedule (default 1)",
       .set_uint = [](O* o, uint64_t n) { o->faults.seed = n; }},
      {.flag = "fault-reject",
       .help = "refuse undecided updates instead of applying\n"
               "them optimistically with a deferred re-check",
       .apply = [](std::string_view, KnobForm, O* o) {
         o->manager.resilience.on_unreachable = DeferredPolicy::kReject;
         return true;
       }},
      {.flag = "sites",
       .metavar = "N",
       .wants = "a positive integer",
       .section = "Topology (N remote sites, see docs/distsim.md):",
       .help = "number of remote fault domains (default 1);\n"
               "each site owns its own breaker, cache, and\n"
               "failure schedule, and checks touching only\n"
               "healthy sites keep completing during a\n"
               "single-site outage",
       .directive = "sites N",
       .min = 1,
       .max = kMaxSites,
       .set_uint = [](O* o, uint64_t n) { o->manager.topology.sites = n; }},
      {.flag = "placement",
       .metavar = "p:0,q:1",
       .wants = "pred:site pairs like p:0,q:1",
       .help = "pin remote predicates to sites; unpinned\n"
               "predicates hash to a site deterministically",
       .directive = "site K PRED...",
       .words_to_value = PlacementWords,
       .apply = ApplyPlacement},
      {.flag = "site-fault-rate",
       .metavar = "S:P",
       .wants = "SITE:PROBABILITY",
       .help = "per-site override of --fault-rate",
       .apply = [](std::string_view v, KnobForm, O* o) {
         return ApplySiteFault(v, o, ParseProbability,
                               &SiteFaultOverride::transient_rate);
       }},
      {.flag = "site-fault-timeout-rate",
       .metavar = "S:P",
       .wants = "SITE:PROBABILITY",
       .help = "per-site override of --fault-timeout-rate",
       .apply = [](std::string_view v, KnobForm, O* o) {
         return ApplySiteFault(v, o, ParseProbability,
                               &SiteFaultOverride::timeout_rate);
       }},
      {.flag = "site-fault-outage",
       .metavar = "S:A:B",
       .wants = "SITE:A:B with trips A <= B",
       .help = "outage for site S's trips A..B-1 (repeatable)",
       .apply = [](std::string_view v, KnobForm, O* o) {
         size_t site = 0;
         std::string_view rest;
         OutageWindow w;
         if (!SplitSitePrefix(v, &site, &rest) || !ParseWindow(rest, &w)) {
           return false;
         }
         o->site_faults[site].outages.push_back(w);
         o->enable_faults = true;
         return true;
       }},
      {.flag = "site-fault-seed",
       .metavar = "S:N",
       .wants = "SITE:SEED",
       .help = "per-site override of the derived seed",
       .apply = [](std::string_view v, KnobForm, O* o) {
         return ApplySiteFault(v, o, ParseUint64, &SiteFaultOverride::seed);
       }},
      {.flag = "site-latency",
       .metavar = "S:fixed:U | S:uniform:LO:HI | S:twopoint:LO:HI:P",
       .wants = "SITE:fixed:U, SITE:uniform:LO:HI or "
                "SITE:twopoint:LO:HI:P (microseconds >= 1, LO <= HI)",
       .help = "per-site trip-latency model (microseconds,\n"
               "all >= 1, LO <= HI; twopoint draws HI with\n"
               "probability P, else LO; draws are\n"
               "deterministic per seed; repeatable)",
       .directive = "site_latency K fixed:U|uniform:LO:HI|twopoint:LO:HI:P",
       .words_to_value = LatencyWords,
       .apply = [](std::string_view v, KnobForm, O* o) {
         size_t site = 0;
         std::string_view rest;
         SiteLatencyOverride latency;
         if (!SplitSitePrefix(v, &site, &rest) ||
             !ParseLatencySpec(rest, &latency)) {
           return false;
         }
         o->manager.topology.site_latency[site] = latency;
         return true;
       }},
      {.flag = "hedge-after",
       .metavar = "N",
       .wants = "a non-negative EWMA multiple (0 = off)",
       .help = "hedge a batched remote read whose drawn\n"
               "latency exceeds N x the site's observed\n"
               "EWMA with one deterministic backup trip\n"
               "(0 = off, default; each issued hedge bills\n"
               "one extra trip, tuples are counted once)",
       .directive = "hedge_after N",
       .set_uint = [](O* o, uint64_t n) {
         o->manager.remote_cache.hedge_after = n;
       }},
      {.flag = "domains",
       .metavar = "NAME:S0+S1,...",
       .wants = "NAME:S0+S1,... domain specs",
       .help = "correlated failure domains; a site may\n"
               "belong to at most one (replaces the\n"
               "script's domain directives wholesale)",
       .directive = "domain NAME S0 S1...",
       .words_to_value = DomainWords,
       .apply = ApplyDomains},
      {.flag = "domain-outage",
       .metavar = "NAME:A:B",
       .wants = "NAME:A:B with trips A <= B",
       .help = "outage for trips A..B of every member site\n"
               "of NAME (repeatable; implies fault\n"
               "injection)",
       .directive = "domain_outage NAME A B",
       .words_to_value = OutageWords,
       .apply = [](std::string_view v, KnobForm, O* o) {
         std::string_view name, rest;
         OutageWindow w;
         if (!SplitHead(v, &name, &rest) || !ParseWindow(rest, &w)) {
           return false;
         }
         o->domain_outages[std::string(name)].push_back(w);
         return true;
       }},
      {.flag = "deadline-ms",
       .metavar = "N",
       .wants = "a non-negative integer (0 = none)",
       .section = "Execution budgets and overload control (see "
                  "docs/budgets.md):",
       .help = "wall-clock budget per update episode; checks\n"
               "that would run past it are shed to the\n"
               "deferred queue (0 = no deadline, default)",
       .max = kMaxDeadlineMs,
       .set_uint = [](O* o, uint64_t n) {
         o->manager.budget.per_episode.deadline_ms = n;
       }},
      {.flag = "max-fixpoint-rounds",
       .metavar = "N",
       .wants = "a non-negative integer (0 = unlimited)",
       .help = "per-check cap on fixpoint rounds\n(0 = unlimited, default)",
       .set_uint = [](O* o, uint64_t n) {
         o->manager.budget.per_check.max_fixpoint_rounds = n;
       }},
      {.flag = "max-derived-tuples",
       .metavar = "N",
       .wants = "a non-negative integer (0 = unlimited)",
       .help = "per-check cap on derived tuples\n(0 = unlimited, default)",
       .set_uint = [](O* o, uint64_t n) {
         o->manager.budget.per_check.max_derived_tuples = n;
       }},
      {.flag = "deferred-queue-cap",
       .metavar = "N",
       .wants = "a non-negative integer (0 = unbounded)",
       .help = "bound on queued deferred re-checks\n(0 = unbounded, default)",
       .set_uint = [](O* o, uint64_t n) {
         o->manager.budget.deferred_queue_cap = n;
       }},
      {.flag = "overflow-policy",
       .metavar = "P",
       .wants = "reject-update, shed-oldest or block-recheck",
       .help = "reject-update | shed-oldest | block-recheck:\n"
               "what to do when the queue cap is hit\n"
               "(default reject-update)",
       .apply = [](std::string_view v, KnobForm, O* o) {
         if (v == "reject-update") {
           o->manager.budget.overflow = OverflowPolicy::kRejectUpdate;
         } else if (v == "shed-oldest") {
           o->manager.budget.overflow = OverflowPolicy::kShedOldest;
         } else if (v == "block-recheck") {
           o->manager.budget.overflow = OverflowPolicy::kBlockRecheck;
         } else {
           return false;
         }
         return true;
       }},
  };
  return knobs;
}

std::string ScriptKnobsHelp() {
  constexpr size_t kTextColumn = 26;
  const std::string indent(kTextColumn, ' ');
  std::string help;
  for (const Knob& knob : ScriptKnobs()) {
    if (!knob.section.empty()) help += "\n" + std::string(knob.section) + "\n";
    std::string name = "  --" + std::string(knob.flag);
    if (!knob.metavar.empty()) name += "=" + std::string(knob.metavar);
    // A name too long for the column gets the text on the next line.
    help += name.size() < kTextColumn
                ? name + std::string(kTextColumn - name.size(), ' ')
                : name + "\n" + indent;
    for (char c : knob.help) {
      help += c == '\n' ? "\n" + indent : std::string(1, c);
    }
    if (!knob.directive.empty()) {
      help += "\n" + indent + "(script: " + std::string(knob.directive) + ")";
    }
    help += "\n";
  }
  return help;
}

Result<Script> ParseScript(std::string_view text) {
  Script script;
  std::string current_name;
  std::string current_rules;
  auto flush_constraint = [&]() -> Status {
    if (current_name.empty()) return Status::OK();
    CCPI_ASSIGN_OR_RETURN(Program program, ParseProgram(current_rules));
    if (program.rules.empty()) {
      return Status::InvalidArgument("constraint " + current_name +
                                     " has no rules");
    }
    script.constraints.emplace_back(current_name, std::move(program));
    current_name.clear();
    current_rules.clear();
    return Status::OK();
  };

  std::istringstream in{std::string(text)};
  std::string raw;
  bool continuing = false;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    size_t comment = raw.find_first_of("#%");
    if (comment != std::string::npos) raw = raw.substr(0, comment);
    std::string line = Trim(raw);
    if (line.empty()) continue;

    // A continuation line of a multi-line rule inside a constraint block.
    if (continuing) {
      current_rules += " " + line + "\n";
      continuing = EndsWithContinuation(line);
      continue;
    }

    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    std::string rest = Trim(line.substr(keyword.size()));
    if (keyword == "local") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string pred;
      while (ls >> pred) script.local_preds.insert(pred);
    } else if (keyword == "constraint") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      if (rest.empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": constraint needs a name");
      }
      current_name = rest;
    } else if (keyword == "fact") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      CCPI_ASSIGN_OR_RETURN(auto fact, ParseGroundAtom(rest));
      CCPI_RETURN_IF_ERROR(
          script.initial.Insert(fact.first, std::move(fact.second)));
    } else if (keyword == "insert" || keyword == "delete") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      CCPI_ASSIGN_OR_RETURN(auto atom, ParseGroundAtom(rest));
      script.updates.push_back(keyword == "insert"
                                   ? Update::Insert(atom.first, atom.second)
                                   : Update::Delete(atom.first, atom.second));
    } else if (const Knob* knob = FindKnob(keyword, KnobForm::kDirective)) {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::vector<std::string> words;
      for (std::string word; ls >> word;) words.push_back(word);
      std::string value =
          knob->words_to_value != nullptr ? knob->words_to_value(words) : rest;
      std::string where = "line " + std::to_string(line_number) + ": " +
                          keyword;
      if (!ApplyKnob(*knob, value, KnobForm::kDirective, &script.options)) {
        return Status::InvalidArgument(where + " wants " +
                                       Wants(*knob, KnobForm::kDirective) +
                                       ", got \"" + rest + "\"");
      }
      // A `domain_outage` line attaches to a domain declared above it.
      Status attached =
          AttachDomainOutages(where, script.options.domain_outages,
                              &script.options.manager.topology.domains);
      script.options.domain_outages.clear();
      CCPI_RETURN_IF_ERROR(attached);
    } else {
      // A rule line of the current constraint.
      if (current_name.empty()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": rule outside a constraint block: " + line);
      }
      current_rules += line + "\n";
      continuing = EndsWithContinuation(line);
    }
  }
  CCPI_RETURN_IF_ERROR(flush_constraint());
  // Directive order is free (`sites` may follow `site`), so cross-knob
  // rules are checked once the whole script is in.
  CCPI_RETURN_IF_ERROR(ValidateScriptOptions(script.options));
  return script;
}

Status ApplyScriptFlag(std::string_view arg, ScriptOptions* options,
                       bool* matched) {
  *matched = false;
  if (arg.substr(0, 2) != "--") return Status::OK();
  std::string_view body = arg.substr(2);
  size_t eq = body.find('=');
  std::string_view name = body.substr(0, eq);
  const Knob* knob = FindKnob(name, KnobForm::kFlag);
  if (knob == nullptr) return Status::OK();
  *matched = true;
  // A bare switch takes no value; every other flag needs one.
  bool has_value = eq != std::string_view::npos;
  std::string_view value = has_value ? body.substr(eq + 1) : "";
  if (has_value == knob->metavar.empty() ||
      !ApplyKnob(*knob, value, KnobForm::kFlag, options)) {
    return Status::InvalidArgument("--" + std::string(name) + " wants " +
                                   Wants(*knob, KnobForm::kFlag) + ", got \"" +
                                   std::string(value) + "\"");
  }
  return Status::OK();
}

Status ValidateScriptOptions(const ScriptOptions& options) {
  // Messages name both spellings of a knob: the value may have come from
  // a directive, a flag, or (for the count) one of each.
  const TopologyConfig& topology = options.manager.topology;
  auto site_in_range = [&](size_t site, const std::string& who) {
    if (site < topology.sites) return Status::OK();
    return Status::InvalidArgument(who + " site " + std::to_string(site) +
                                   " but sites/--sites is " +
                                   std::to_string(topology.sites));
  };
  if (options.faults.transient_rate + options.faults.timeout_rate > 1.0) {
    return Status::InvalidArgument(
        "--fault-rate and --fault-timeout-rate must sum to <= 1");
  }
  for (const auto& [site, o] : options.site_faults) {
    CCPI_RETURN_IF_ERROR(site_in_range(site, "--site-fault-* names"));
    double transient =
        o.transient_rate.value_or(options.faults.transient_rate);
    double timeout = o.timeout_rate.value_or(options.faults.timeout_rate);
    if (transient + timeout > 1.0) {
      return Status::InvalidArgument(
          "site " + std::to_string(site) +
          ": effective fault rates must sum to <= 1");
    }
  }
  for (const auto& [pred, site] : topology.placement) {
    CCPI_RETURN_IF_ERROR(
        site_in_range(site, "site/--placement pins " + pred + " to"));
  }
  for (const auto& [site, o] : topology.site_latency) {
    CCPI_RETURN_IF_ERROR(
        site_in_range(site, "site_latency/--site-latency names"));
  }
  std::set<std::string> names;
  std::set<size_t> claimed;
  for (const FailureDomain& dom : topology.domains) {
    std::string who = "domain/--domains \"" + dom.name + "\"";
    if (!names.insert(dom.name).second) {
      return Status::InvalidArgument(who + " is declared twice");
    }
    for (size_t member : dom.members) {
      CCPI_RETURN_IF_ERROR(site_in_range(member, who + " claims"));
      if (!claimed.insert(member).second) {
        return Status::InvalidArgument(
            "site " + std::to_string(member) +
            " is a member of two failure domains");
      }
    }
  }
  std::vector<FailureDomain> domains = topology.domains;
  return AttachDomainOutages("--domain-outage", options.domain_outages,
                             &domains);
}

Result<ScriptReport> RunScript(const Script& script) {
  const ScriptOptions& options = script.options;
  const CostModel& costs = options.costs;
  // Validating here too turns a bad hand-built configuration into a
  // graceful error, not a Topology-constructor CHECK failure.
  CCPI_RETURN_IF_ERROR(ValidateScriptOptions(options));
  // --domain-outage windows attach by name only now, after every flag is
  // applied, so flag order never matters.
  ManagerConfig config = options.manager;
  CCPI_RETURN_IF_ERROR(
      AttachDomainOutages("--domain-outage", options.domain_outages,
                          &config.topology.domains));

  // Columnar read path: a process-wide switch on Relation, applied before
  // the manager freezes anything. Semantically invisible (byte-identical
  // reports either way); off forces every evaluator down the
  // row-at-a-time path.
  Relation::SetColumnarEnabled(options.columnar);

  ConstraintManager mgr(script.local_preds, costs, config);
  // Correlated failure domains ride the per-site injectors: each domain's
  // outage windows are copied to every member site, so the whole domain
  // goes dark (and recovers) together. Any expanded window arms fault
  // injection even without --fault-* flags.
  std::vector<std::vector<OutageWindow>> domain_windows =
      ExpandDomainOutages(config.topology);
  bool any_domain_outage = false;
  for (const std::vector<OutageWindow>& windows : domain_windows) {
    if (!windows.empty()) any_domain_outage = true;
  }
  // One injector per site, each with its own schedule. Site 0 inherits
  // the base config (and seed) verbatim — a 1-site faulted run is
  // bit-identical to the pre-topology tool — while site s>0 derives
  // seed + s * golden-ratio so sites fail independently unless a
  // --site-fault-seed pins them together.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (options.enable_faults || any_domain_outage) {
    for (size_t s = 0; s < config.topology.sites; ++s) {
      FaultConfig cfg = options.faults;
      if (s > 0) cfg.seed = cfg.seed + s * 0x9e3779b97f4a7c15ull;
      auto it = options.site_faults.find(s);
      if (it != options.site_faults.end()) {
        const SiteFaultOverride& o = it->second;
        if (o.transient_rate) cfg.transient_rate = *o.transient_rate;
        if (o.timeout_rate) cfg.timeout_rate = *o.timeout_rate;
        if (o.seed) cfg.seed = *o.seed;
        cfg.outages.insert(cfg.outages.end(), o.outages.begin(),
                           o.outages.end());
      }
      if (s < domain_windows.size()) {
        cfg.outages.insert(cfg.outages.end(), domain_windows[s].begin(),
                           domain_windows[s].end());
      }
      injectors.push_back(std::make_unique<FaultInjector>(cfg));
      mgr.site().set_site_fault_injector(s, injectors.back().get());
    }
  }
  std::ostringstream out;
  for (const auto& [name, program] : script.constraints) {
    CCPI_ASSIGN_OR_RETURN(bool subsumed, mgr.AddConstraint(name, program));
    out << "constraint " << name
        << (subsumed ? " (redundant: subsumed by earlier constraints)" : "")
        << "\n";
  }
  // Initial facts are installed without checking (the paper's standing
  // assumption is that constraints hold before the first update).
  for (const std::string& pred : script.initial.PredicateNames()) {
    // Get returns the stored relation whatever arity hint is passed.
    const Relation& rel = script.initial.Get(pred, 0);
    for (const Tuple& t : rel.rows()) {
      CCPI_RETURN_IF_ERROR(mgr.site().db().Insert(pred, t));
    }
  }

  bool reject_on_defer =
      config.resilience.on_unreachable == DeferredPolicy::kReject;
  ScriptReport report;
  auto log_update = [&](const Update& u,
                        const std::vector<CheckReport>& checks) {
    bool rejected = false;
    bool deferred = false;
    bool overflow = false;
    std::string detail;
    for (const CheckReport& c : checks) {
      if (c.outcome == Outcome::kViolated) {
        rejected = true;
        detail += " violates:" + c.constraint + "(" + TierToString(c.tier) +
                  ")";
      } else if (c.outcome == Outcome::kDeferred) {
        deferred = true;
        overflow = overflow || c.queue_overflow;
        // A budget-shed check reads "shed:", an unreachable-site deferral
        // "deferred:" — unbudgeted runs can never print the former.
        detail += (c.reason == StatusCode::kResourceExhausted ? " shed:"
                                                              : " deferred:") +
                  c.constraint;
      }
    }
    bool refused = deferred && (reject_on_defer || overflow);
    const char* verb = rejected   ? "REJECT "
                       : !deferred ? "apply  "
                       : refused   ? "REFUSE "
                                   : "DEFER  ";
    out << verb << u.ToString() << detail << "\n";
    if (deferred) ++report.updates_deferred;
    if (rejected || refused) {
      ++report.updates_rejected;
    } else {
      ++report.updates_applied;
    }
  };
  if (config.pipeline.depth > 1) {
    // Pipelined drive: admit the whole stream, then read results back in
    // admission order. Commits are serialized inside the manager, so the
    // verb lines below are byte-identical to the serial loop; the first
    // errored result aborts the run exactly where the serial
    // ASSIGN_OR_RETURN would have.
    for (const Update& u : script.updates) mgr.ApplyUpdateAsync(u);
    std::vector<Result<std::vector<CheckReport>>> results = mgr.Drain();
    for (size_t i = 0; i < results.size(); ++i) {
      CCPI_RETURN_IF_ERROR(results[i].status());
      log_update(script.updates[i], *results[i]);
    }
  } else {
    for (const Update& u : script.updates) {
      CCPI_ASSIGN_OR_RETURN(std::vector<CheckReport> checks,
                            mgr.ApplyUpdate(u));
      log_update(u, checks);
    }
  }

  // Shutdown drain: give the deferred queue a last chance to resolve (the
  // outage may have ended after the final update). Simulated time is free
  // at shutdown, so wait out the breaker cooldown between rounds; stop
  // when a round makes no progress (the site is still unreachable).
  while (!mgr.deferred_queue().empty()) {
    mgr.TickBreaker(config.resilience.breaker.cooldown_ticks + 1);
    CCPI_ASSIGN_OR_RETURN(std::vector<DeferredResolution> late,
                          mgr.RecheckDeferred());
    if (late.empty()) break;
    for (const DeferredResolution& r : late) {
      out << "recheck " << r.check.update.ToString() << " "
          << r.check.constraint << ": " << OutcomeToString(r.outcome)
          << (r.rolled_back ? " (rolled back)" : "") << "\n";
    }
  }
  for (const DeferredCheck& d : mgr.deferred_queue()) {
    out << "PENDING " << d.update.ToString() << " " << d.constraint
        << " (remote site never answered)\n";
  }
  const ManagerStats stats = mgr.stats();
  report.deferred_recovered = stats.deferred_recovered;
  report.deferred_violations = stats.deferred_violations;
  report.deferred_pending = mgr.deferred_queue().size();
  report.violations = stats.violations;
  report.budget_armed =
      config.budget.armed() || config.budget.deferred_queue_cap != 0;
  report.shed_checks = stats.shed_checks;
  report.budget_exhausted = stats.budget_exhausted;
  report.deferred_dropped = stats.deferred_dropped;
  report.sites_recovered = stats.sites_recovered;
  report.cache_revalidated = stats.cache_revalidated;
  report.hedges_issued = stats.hedges_issued;
  report.hedges_won = stats.hedges_won;
  report.hedges_wasted = stats.hedges_wasted;
  report.latency_shed = stats.latency_shed;

  std::ostringstream summary;
  summary << "---\n";
  for (const auto& [tier, count] : stats.resolved_by) {
    summary << "tier " << TierToString(tier) << ": " << count << " checks\n";
  }
  const AccessStats& access = stats.access;
  summary << "access: " << access.local_tuples << " local tuples, "
          << access.remote_tuples << " remote tuples in "
          << access.remote_trips << " trips (cost " << access.Cost(costs)
          << ")\n";
  if (config.remote_cache.enabled) {
    summary << "cache: " << access.cache_hits << " remote reads served ("
            << access.cached_tuples << " cached tuples)\n";
  }
  if (config.plan_cache && options.print_stats) {
    // Diagnostics only: plan.* counters live outside ManagerStats, so the
    // report proper stays byte-identical cache on/off; this line exists
    // only when the cache does.
    summary << "plans: " << mgr.metrics().GetCounter("plan.compiles")->value()
            << " compiles, " << mgr.metrics().GetCounter("plan.hits")->value()
            << " hits, "
            << mgr.metrics().GetCounter("plan.delta_tuples")->value()
            << " delta bindings\n";
  }
  if (options.print_stats) {
    summary << "remote: " << stats.remote_attempts << " attempts, "
            << stats.remote_retries << " retries, " << stats.remote_failures
            << " failed episodes, " << access.remote_failures
            << " failed trips\n";
    summary << "deferred: " << stats.deferred << " checks ("
            << stats.breaker_fast_fails << " breaker fast-fails), "
            << stats.deferred_recovered << " recovered, "
            << stats.deferred_violations << " late violations, "
            << report.deferred_pending << " pending\n";
    summary << "breaker: " << CircuitStateToString(mgr.breaker().state())
            << " (opened " << mgr.breaker().times_opened() << "x)\n";
    if (mgr.sites() > 1) {
      for (size_t s = 0; s < mgr.sites(); ++s) {
        const AccessStats& ss = mgr.site().site_stats(s);
        const CircuitBreaker& b = mgr.site_breaker(s);
        summary << "site" << s << ": breaker "
                << CircuitStateToString(b.state()) << " (opened "
                << b.times_opened() << "x), " << ss.remote_trips
                << " trips, " << ss.remote_failures << " failed, "
                << ss.cache_hits << " cache hits\n";
      }
      summary << "recovery: " << stats.sites_recovered
              << " site recoveries, " << stats.cache_revalidated
              << " cache entries revalidated\n";
    }
    // The hedge and latency lines exist only when their feature does, so
    // a default-config --stats block is byte-identical to earlier tools.
    if (config.remote_cache.hedge_after > 0) {
      summary << "hedge: " << stats.hedges_issued << " issued, "
              << stats.hedges_won << " won, " << stats.hedges_wasted
              << " wasted\n";
    }
    bool latency_models = costs.latency_model != LatencyModel::kFixed;
    for (const auto& [site, o] : config.topology.site_latency) {
      (void)site;
      if (o.model != LatencyModel::kFixed) latency_models = true;
    }
    if (latency_models) {
      summary << "latency: " << stats.latency_shed
              << " checks shed by EWMA projection\n";
    }
    if (report.budget_armed) {
      summary << "budget: " << stats.t3_admitted << " admitted, "
              << stats.shed_checks << " shed, " << stats.budget_exhausted
              << " exhausted, " << stats.deferred_dropped << " dropped\n";
    }
  }
  if (options.collect_metrics) {
    report.metrics_json = mgr.metrics().ToJson();
  }
  report.log_text = out.str();
  report.summary_text = summary.str();
  report.text = report.log_text + report.summary_text;
  return report;
}

}  // namespace ccpi
