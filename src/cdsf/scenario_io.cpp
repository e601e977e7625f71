#include "cdsf/scenario_io.hpp"

#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "cdsf/paper_example.hpp"
#include "util/names.hpp"

namespace cdsf::core {

namespace {

using Failure = sim::SimConfig::Failure;
using FailureKind = sim::SimConfig::FailureKind;
using MasterCheckpoint = sim::SimConfig::MasterCheckpoint;
using Quarantine = sim::SimConfig::Quarantine;

[[noreturn]] void parse_error(std::size_t line, const std::string& message) {
  throw std::runtime_error("scenario parse error (line " + std::to_string(line) + "): " +
                           message);
}

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> split_whitespace(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) out.push_back(token);
  return out;
}

/// A whole-token double (V = double) or integer (V = std::int64_t).
template <class V>
V parse_number(const std::string& text, std::size_t line) {
  constexpr bool kReal = std::is_floating_point_v<V>;
  const std::string what = kReal ? "number" : "integer";
  try {
    std::size_t pos = 0;
    V value{};
    if constexpr (kReal) {
      value = std::stod(text, &pos);
    } else {
      value = std::stoll(text, &pos);
    }
    if (pos != text.size()) parse_error(line, "trailing characters in " + what + " '" + text + "'");
    return value;
  } catch (const std::invalid_argument&) {
    parse_error(line, "expected " + std::string(kReal ? "a " : "an ") + what + ", got '" + text +
                          "'");
  } catch (const std::out_of_range&) {
    parse_error(line, what + " out of range: '" + text + "'");
  }
}

/// "value:probability" pulse.
pmf::Pulse parse_pulse(const std::string& token, std::size_t line) {
  const auto colon = token.find(':');
  if (colon == std::string::npos) {
    parse_error(line, "pulse must be 'availability:probability', got '" + token + "'");
  }
  return pmf::Pulse{parse_number<double>(token.substr(0, colon), line),
                    parse_number<double>(token.substr(colon + 1), line)};
}

// ---- vocabularies -----------------------------------------------------------

// Lowercase file names; workload::to_string keeps the capitalized display
// names that test and bench labels use.
constexpr util::NameTable<workload::TimeLawKind, 5> kTimeLawNames{{
    {workload::TimeLawKind::kNormal, "normal"},
    {workload::TimeLawKind::kLogNormal, "lognormal"},
    {workload::TimeLawKind::kGamma, "gamma"},
    {workload::TimeLawKind::kUniform, "uniform"},
    {workload::TimeLawKind::kExponential, "exponential"},
}};

constexpr util::NameTable<FailureKind, 5> kFailureKindNames{{
    {FailureKind::kDegrade, "degrade"},
    {FailureKind::kCrash, "crash"},
    {FailureKind::kCrashRecover, "crash-recover"},
    {FailureKind::kMasterCrashRestart, "master-restart"},
    {FailureKind::kSilentCorrupt, "silent-corrupt"},
}};

bool restarts(FailureKind kind) {
  return kind == FailureKind::kCrashRecover || kind == FailureKind::kMasterCrashRestart;
}

// ---- value domains ----------------------------------------------------------

/// The values a numeric key admits. Every test is written so that NaN
/// fails it. kAnyNumber has no test: the semantic resolution checks those
/// values (and throws std::invalid_argument).
struct Domain {
  const char* text;
  bool (*admits)(double);
};
constexpr Domain kAnyNumber{"", nullptr};
constexpr Domain kProbability{"in [0, 1]", [](double v) { return v >= 0.0 && v <= 1.0; }};
constexpr Domain kUnitInterval{"in (0, 1]", [](double v) { return v > 0.0 && v <= 1.0; }};
constexpr Domain kBelowOne{"in [0, 1)", [](double v) { return v >= 0.0 && v < 1.0; }};
constexpr Domain kPositive{"> 0", [](double v) { return v > 0.0; }};
constexpr Domain kNonNegative{">= 0", [](double v) { return v >= 0.0; }};
constexpr Domain kAtLeastOne{">= 1", [](double v) { return v >= 1.0; }};
constexpr Domain kAboveOne{"> 1", [](double v) { return v > 1.0; }};
constexpr Domain kFlag{"0 or 1", [](double v) { return v == 0.0 || v == 1.0; }};

// ---- keys and sections ------------------------------------------------------

/// One key of a section whose keys set fields of T: its name, how its text
/// sets the field, how the field is written back, and when the writer
/// emits it (always when `emitted` is null).
template <class T>
struct Key {
  const char* name;
  std::function<void(T&, const std::string&, std::size_t)> read;
  std::function<void(std::ostream&, const T&)> write;
  bool (*emitted)(const T&) = nullptr;
};

template <class T>
using EmitRule = std::type_identity_t<bool (*)(const T&)>;

/// A number, count or 0/1 flag (by the field's type) in `domain`.
template <class T, class V>
Key<T> number(const char* name, V T::*field, Domain domain, EmitRule<T> emitted = nullptr) {
  return {name,
          [name, field, domain](T& target, const std::string& text, std::size_t line) {
            using Parsed = std::conditional_t<std::is_floating_point_v<V>, double, std::int64_t>;
            const auto value = parse_number<Parsed>(text, line);
            if (domain.admits != nullptr && !domain.admits(static_cast<double>(value))) {
              parse_error(line, std::string(name) + " must be " + domain.text + ", got '" +
                                    text + "'");
            }
            target.*field = static_cast<V>(value);
          },
          [field](std::ostream& out, const T& source) { out << source.*field; }, emitted};
}

/// One name of a vocabulary.
template <class T, class E, std::size_t N>
Key<T> word(const char* name, E T::*field, const util::NameTable<E, N>& names) {
  return {name,
          [name, field, &names](T& target, const std::string& text, std::size_t line) {
            const std::optional<E> value = util::value_named(names, text);
            if (!value) {
              parse_error(line, std::string(name) + " must be one of " +
                                    util::joined_names(names) + ", got '" + text + "'");
            }
            target.*field = *value;
          },
          [field, &names](std::ostream& out, const T& source) {
            out << util::name_of(names, source.*field);
          }};
}

/// The rest of the line.
template <class T>
Key<T> verbatim(const char* name, std::string T::*field, EmitRule<T> emitted) {
  return {name, [field](T& target, const std::string& text, std::size_t) { target.*field = text; },
          [field](std::ostream& out, const T& source) { out << source.*field; }, emitted};
}

/// Whitespace-separated numbers.
template <class T>
Key<T> numbers(const char* name, std::vector<double> T::*field) {
  return {name,
          [field](T& target, const std::string& text, std::size_t line) {
            std::vector<double> values;
            for (const std::string& token : split_whitespace(text)) {
              values.push_back(parse_number<double>(token, line));
            }
            target.*field = std::move(values);
          },
          [field](std::ostream& out, const T& source) {
            const char* separator = "";
            for (const double value : source.*field) {
              out << separator << value;
              separator = " ";
            }
          }};
}

/// A section whose keys set the fields of one T.
template <class T>
struct Section {
  const char* name;
  /// The presence rule, applied when the header is read (null: none).
  void (*opened)(T&);
  /// Whether the writer emits the section (null: always).
  bool (*emitted)(const T&);
  /// In the order the writer emits them.
  std::vector<Key<T>> keys;
};

// An [application] section before semantic resolution.
struct RawApplication {
  std::string name;
  std::size_t line = 0;
  std::int64_t serial = -1;
  std::int64_t parallel = -1;
  std::vector<double> means;
  double cov = 0.1;
  workload::TimeLawKind law = workload::TimeLawKind::kNormal;
  workload::IterationProfile profile = workload::IterationProfile::kFlat;
};

/// The file format of every section but [platform] and [availability]:
/// one declaration per key, read by both parse_scenario and
/// scenario_to_text.
struct Schema {
  Section<RawApplication> application{
      "application", nullptr, nullptr,
      {number("serial", &RawApplication::serial, kAnyNumber),
       number("parallel", &RawApplication::parallel, kAnyNumber),
       numbers("mean", &RawApplication::means),
       number("cov", &RawApplication::cov, kAnyNumber),
       word("law", &RawApplication::law, kTimeLawNames),
       word("profile", &RawApplication::profile, workload::kIterationProfileNames)}};

  Section<Scenario> deadline{
      "deadline", nullptr, nullptr, {number("value", &Scenario::deadline, kAnyNumber)}};

  Section<Failure> failure{
      "failure", nullptr, nullptr,
      {number("worker", &Failure::worker, kNonNegative,
              [](const Failure& f) { return f.kind != FailureKind::kMasterCrashRestart; }),
       number("time", &Failure::time, kNonNegative),
       word("kind", &Failure::kind, kFailureKindNames),
       number("residual", &Failure::residual_availability, kUnitInterval,
              [](const Failure& f) { return f.kind == FailureKind::kDegrade; }),
       number("recovery", &Failure::recovery_time, kAnyNumber,
              [](const Failure& f) { return restarts(f.kind); }),
       number("probability", &Failure::corrupt_probability, kUnitInterval,
              [](const Failure& f) { return f.kind == FailureKind::kSilentCorrupt; })}};

  Section<sim::ChannelModel> channel{
      "channel", nullptr, [](const sim::ChannelModel& c) { return c.faulty(); },
      {number("drop-to-worker", &sim::ChannelModel::drop_to_worker, kProbability),
       number("drop-to-master", &sim::ChannelModel::drop_to_master, kProbability),
       number("duplicate-to-worker", &sim::ChannelModel::duplicate_to_worker, kProbability),
       number("duplicate-to-master", &sim::ChannelModel::duplicate_to_master, kProbability),
       number("reorder-to-worker", &sim::ChannelModel::reorder_to_worker, kProbability),
       number("reorder-to-master", &sim::ChannelModel::reorder_to_master, kProbability),
       number("reorder-delay", &sim::ChannelModel::reorder_delay, kPositive),
       number("burst-gap-mean", &sim::ChannelModel::burst_gap_mean, kNonNegative),
       number("burst-duration", &sim::ChannelModel::burst_duration, kNonNegative),
       number("rto", &sim::ChannelModel::rto, kPositive),
       number("rto-backoff", &sim::ChannelModel::rto_backoff, kAtLeastOne),
       number("max-retransmits", &sim::ChannelModel::max_retransmits, kNonNegative)}};

  Section<MasterCheckpoint> checkpoint{
      "checkpoint", [](MasterCheckpoint& c) { c.enabled = true; },
      [](const MasterCheckpoint& c) { return c.enabled; },
      {number("interval", &MasterCheckpoint::interval, kPositive),
       verbatim("json", &MasterCheckpoint::json_path,
                [](const MasterCheckpoint& c) { return !c.json_path.empty(); })}};

  // The section arms the EWMA tracker; 'fail-slow = 0' keeps only the
  // audit layer (audit-rate) active.
  Section<Quarantine> quarantine{
      "quarantine", [](Quarantine& q) { q.enabled = true; },
      [](const Quarantine& q) { return q.armed(); },
      {number("fail-slow", &Quarantine::enabled, kFlag),
       number("ewma-alpha", &Quarantine::ewma_alpha, kUnitInterval),
       number("slowdown-threshold", &Quarantine::slowdown_threshold, kAboveOne),
       number("min-observations", &Quarantine::min_observations, kAtLeastOne),
       number("probe-interval", &Quarantine::probe_interval, kPositive),
       number("probe-successes", &Quarantine::probe_successes, kAtLeastOne),
       number("audit-rate", &Quarantine::audit_rate, kProbability),
       number("audit-mismatch-limit", &Quarantine::audit_mismatch_limit, kAtLeastOne)}};

  Section<sim::ChannelModel> integrity{
      "integrity", nullptr,
      [](const sim::ChannelModel& c) {
        return c.corrupt_to_worker > 0.0 || c.corrupt_to_master > 0.0;
      },
      {number("corrupt-to-worker", &sim::ChannelModel::corrupt_to_worker, kProbability),
       number("corrupt-to-master", &sim::ChannelModel::corrupt_to_master, kProbability)}};

  // Presence enables: a bare [admission] with just a capacity means the
  // bounded policy.
  Section<AdmissionConfig> admission{
      "admission",
      [](AdmissionConfig& a) {
        if (!a.active()) a.policy = AdmissionPolicy::kBoundedQueue;
      },
      [](const AdmissionConfig& a) { return a.active(); },
      {word("policy", &AdmissionConfig::policy, kAdmissionPolicyNames),
       number("queue-capacity", &AdmissionConfig::queue_capacity, kAtLeastOne),
       word("order", &AdmissionConfig::queue_order, kQueueOrderNames),
       number("admit-floor", &AdmissionConfig::admit_floor, kProbability,
              [](const AdmissionConfig& a) { return a.admit_floor > 0.0; }),
       number("shed-floor", &AdmissionConfig::shed_floor, kProbability,
              [](const AdmissionConfig& a) { return a.shed_floor > 0.0; }),
       number("ladder", &AdmissionConfig::ladder, kFlag, laddered),
       number("ladder-alpha", &AdmissionConfig::ladder_alpha, kUnitInterval, laddered),
       number("overload-threshold", &AdmissionConfig::overload_threshold, kUnitInterval,
              laddered),
       number("recover-threshold", &AdmissionConfig::recover_threshold, kBelowOne,
              laddered)}};

  static bool laddered(const AdmissionConfig& a) { return a.ladder; }

  static const Schema& get() {
    static const Schema schema;
    return schema;
  }
};

// ---- reading ----------------------------------------------------------------

struct RawCase {
  std::string name;
  std::vector<std::pair<std::string, std::vector<pmf::Pulse>>> per_type;
  std::size_t line = 0;
};

/// The file as read, before semantic resolution; `scenario` already holds
/// every section that needs none.
struct Reading {
  std::vector<sysmodel::ProcessorType> types;
  std::vector<RawCase> cases;
  std::vector<RawApplication> applications;
  Scenario scenario;
};

/// Sets one key of the section being read.
using Assign = std::function<void(const std::string& key, const std::string& value,
                                  std::size_t line)>;

template <class T>
Assign open_keys(const Section<T>& section, T& target) {
  if (section.opened != nullptr) section.opened(target);
  return [&section, &target](const std::string& key, const std::string& value,
                             std::size_t line) {
    for (const Key<T>& entry : section.keys) {
      if (key == entry.name) return entry.read(target, value, line);
    }
    parse_error(line, "unknown " + std::string(section.name) + " key '" + key + "'");
  };
}

/// Applies the header rules of section `header[0]` (a required or a
/// forbidden name, the presence rule) and returns how its keys are set.
Assign open_section(Reading& reading, const std::vector<std::string>& header,
                    std::size_t line) {
  const Schema& schema = Schema::get();
  const std::string& name = header[0];
  const auto named = [&](const char* section) {
    if (name != section) return false;
    if (header.size() != 2) parse_error(line, "[" + name + " <name>] expected");
    return true;
  };
  const auto unnamed = [&](const char* section) {
    if (name != section) return false;
    if (header.size() != 1) parse_error(line, "[" + name + "] takes no name");
    return true;
  };

  // [platform] and [deadline] ignore a name.
  if (name == "platform") {
    return [&types = reading.types](const std::string& key, const std::string& value,
                                    std::size_t at) {
      if (key != "type") parse_error(at, "only 'type = name count' allowed in [platform]");
      const std::vector<std::string> parts = split_whitespace(value);
      if (parts.size() != 2) parse_error(at, "'type = name count' expected");
      const auto count = parse_number<std::int64_t>(parts[1], at);
      if (count <= 0) parse_error(at, "processor count must be positive");
      types.push_back({parts[0], static_cast<std::size_t>(count)});
    };
  }
  if (named("availability")) {
    reading.cases.push_back(RawCase{header[1], {}, line});
    return [&raw = reading.cases.back()](const std::string& key, const std::string& value,
                                         std::size_t at) {
      std::vector<pmf::Pulse> pulses;
      for (const std::string& token : split_whitespace(value)) {
        pulses.push_back(parse_pulse(token, at));
      }
      if (pulses.empty()) parse_error(at, "at least one pulse required");
      raw.per_type.emplace_back(key, std::move(pulses));
    };
  }
  if (named(schema.application.name)) {
    RawApplication& raw = reading.applications.emplace_back();
    raw.name = header[1];
    raw.line = line;
    return open_keys(schema.application, raw);
  }
  if (name == schema.deadline.name) return open_keys(schema.deadline, reading.scenario);
  if (unnamed(schema.failure.name)) {
    return open_keys(schema.failure, reading.scenario.failures.emplace_back());
  }
  if (unnamed(schema.channel.name)) return open_keys(schema.channel, reading.scenario.channel);
  if (unnamed(schema.checkpoint.name)) {
    return open_keys(schema.checkpoint, reading.scenario.checkpoint);
  }
  if (unnamed(schema.quarantine.name)) {
    return open_keys(schema.quarantine, reading.scenario.quarantine);
  }
  if (unnamed(schema.integrity.name)) {
    return open_keys(schema.integrity, reading.scenario.channel);
  }
  if (unnamed(schema.admission.name)) {
    return open_keys(schema.admission, reading.scenario.admission);
  }
  parse_error(line, "unknown section '" + name + "'");
}

// ---- writing ----------------------------------------------------------------

template <class T>
void write_section(std::ostream& out, const Section<T>& section, const T& source,
                   const std::string& label = "") {
  if (section.emitted != nullptr && !section.emitted(source)) return;
  out << "\n[" << section.name << (label.empty() ? "" : " ") << label << "]\n";
  for (const Key<T>& key : section.keys) {
    if (key.emitted != nullptr && !key.emitted(source)) continue;
    out << key.name << " = ";
    key.write(out, source);
    out << "\n";
  }
}

}  // namespace

Scenario parse_scenario(std::istream& in) {
  Reading reading;
  Assign assign = [](const std::string&, const std::string&, std::size_t line) {
    parse_error(line, "key outside of any section");
  };
  std::string text;
  std::size_t line = 0;
  while (std::getline(in, text)) {
    ++line;
    if (const auto hash = text.find('#'); hash != std::string::npos) text.resize(hash);
    text = trim(text);
    if (text.empty()) continue;
    if (text.front() == '[') {
      if (text.back() != ']') parse_error(line, "unterminated section header");
      const std::vector<std::string> header = split_whitespace(text.substr(1, text.size() - 2));
      if (header.empty()) parse_error(line, "empty section header");
      assign = open_section(reading, header, line);
      continue;
    }
    const auto eq = text.find('=');
    if (eq == std::string::npos) parse_error(line, "expected 'key = value'");
    assign(trim(text.substr(0, eq)), trim(text.substr(eq + 1)), line);
  }

  // ---- semantic resolution ------------------------------------------------
  Scenario& scenario = reading.scenario;
  if (reading.types.empty()) throw std::invalid_argument("scenario: [platform] defines no types");
  scenario.platform = sysmodel::Platform(reading.types);
  const sysmodel::Platform& platform = scenario.platform;
  auto type_index = [&](const std::string& name, std::size_t at_line) {
    for (std::size_t j = 0; j < platform.type_count(); ++j) {
      if (platform.type(j).name == name) return j;
    }
    parse_error(at_line, "unknown processor type '" + name + "'");
  };

  if (reading.cases.empty()) {
    throw std::invalid_argument("scenario: at least one [availability <name>] case required");
  }
  for (const RawCase& raw : reading.cases) {
    std::vector<pmf::Pmf> per_type(platform.type_count(), pmf::Pmf::delta(1.0));
    std::vector<bool> seen(platform.type_count(), false);
    for (const auto& [name, pulses] : raw.per_type) {
      const std::size_t j = type_index(name, raw.line);
      per_type[j] = pmf::Pmf::from_pulses(pulses);
      seen[j] = true;
    }
    for (std::size_t j = 0; j < platform.type_count(); ++j) {
      if (!seen[j]) {
        throw std::invalid_argument("scenario: availability case '" + raw.name +
                                    "' missing type '" + platform.type(j).name + "'");
      }
    }
    scenario.cases.emplace_back(raw.name, std::move(per_type));
  }

  if (reading.applications.empty()) {
    throw std::invalid_argument("scenario: no applications defined");
  }
  for (const RawApplication& raw : reading.applications) {
    if (raw.serial < 0 || raw.parallel < 0) {
      throw std::invalid_argument("scenario: application '" + raw.name +
                                  "' needs 'serial' and 'parallel'");
    }
    if (raw.means.size() != platform.type_count()) {
      throw std::invalid_argument("scenario: application '" + raw.name + "' needs " +
                                  std::to_string(platform.type_count()) + " mean values");
    }
    std::vector<workload::TimeLaw> laws;
    laws.reserve(raw.means.size());
    for (double mean : raw.means) laws.push_back({raw.law, mean, raw.cov});
    scenario.batch.add(workload::Application(raw.name, raw.serial, raw.parallel,
                                             std::move(laws), raw.profile));
  }

  if (!(scenario.deadline > 0.0)) {
    throw std::invalid_argument("scenario: [deadline] with a positive 'value' required");
  }

  std::size_t master_failures = 0;
  for (const Failure& failure : scenario.failures) {
    if (restarts(failure.kind)) {
      if (!std::isfinite(failure.recovery_time) || failure.recovery_time <= failure.time) {
        throw std::invalid_argument("scenario: [failure] with kind = " +
                                    std::string(util::name_of(kFailureKindNames, failure.kind)) +
                                    " needs 'recovery' > 'time'");
      }
    } else if (std::isfinite(failure.recovery_time)) {
      throw std::invalid_argument(
          "scenario: [failure] 'recovery' is only valid with kind = crash-recover or "
          "master-restart");
    }
    if (failure.kind != FailureKind::kSilentCorrupt && failure.corrupt_probability != 1.0) {
      throw std::invalid_argument(
          "scenario: [failure] 'probability' is only valid with kind = silent-corrupt");
    }
    if (failure.kind == FailureKind::kMasterCrashRestart) ++master_failures;
  }
  if (master_failures > 1) {
    throw std::invalid_argument("scenario: at most one master-restart [failure] per scenario");
  }
  // Contradictory [admission] knob combinations fail here, with the other
  // semantic checks, rather than at the first dynamic-manager run.
  validate_admission(scenario.admission);
  return std::move(reading.scenario);
}

Scenario parse_scenario_text(const std::string& text) {
  std::istringstream stream(text);
  return parse_scenario(stream);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("scenario: cannot open '" + path + "'");
  return parse_scenario(file);
}

std::string scenario_to_text(const Scenario& scenario) {
  const Schema& schema = Schema::get();
  std::ostringstream out;
  out << "[platform]\n";
  for (const auto& type : scenario.platform.types()) {
    out << "type = " << type.name << " " << type.count << "\n";
  }
  for (const auto& spec : scenario.cases) {
    out << "\n[availability " << spec.name() << "]\n";
    for (std::size_t j = 0; j < scenario.platform.type_count(); ++j) {
      out << scenario.platform.type(j).name << " =";
      for (const pmf::Pulse& pulse : spec.of_type(j).pulses()) {
        out << " " << pulse.value << ":" << pulse.probability;
      }
      out << "\n";
    }
  }
  for (const workload::Application& app : scenario.batch) {
    std::vector<double> means;
    for (std::size_t j = 0; j < app.type_count(); ++j) means.push_back(app.mean_time(j));
    const RawApplication raw{.name = app.name(),
                             .serial = app.serial_iterations(),
                             .parallel = app.parallel_iterations(),
                             .means = std::move(means),
                             .cov = app.time_law(0).cov,
                             .law = app.time_law(0).kind,
                             .profile = app.profile()};
    write_section(out, schema.application, raw, app.name());
  }
  write_section(out, schema.deadline, scenario);
  for (const Failure& failure : scenario.failures) write_section(out, schema.failure, failure);
  write_section(out, schema.channel, scenario.channel);
  write_section(out, schema.checkpoint, scenario.checkpoint);
  write_section(out, schema.quarantine, scenario.quarantine);
  write_section(out, schema.integrity, scenario.channel);
  write_section(out, schema.admission, scenario.admission);
  return out.str();
}

std::string paper_scenario_text() {
  const PaperExample example = make_paper_example();
  Scenario scenario;
  scenario.platform = example.platform;
  scenario.cases = example.cases;
  scenario.batch = example.batch;
  scenario.deadline = example.deadline;
  return scenario_to_text(scenario);
}

}  // namespace cdsf::core
