#include "svc/journal.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "obs/json.hpp"
#include "sim/wal_recovery.hpp"

namespace cdsf::svc {

namespace {

std::string digest_hex(std::uint64_t digest) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

/// Inverse of digest_hex; false on anything that is not 0x + 16 hex
/// digits (a torn digest must not salvage as a different value).
bool parse_digest_hex(const std::string& text, std::uint64_t& out) {
  if (text.size() != 18 || text[0] != '0' || text[1] != 'x') return false;
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

}  // namespace

std::vector<ScenarioRequest> RecoveredJournal::unfinished() const {
  std::unordered_set<std::uint64_t> done;
  done.reserve(completed.size());
  for (const JournalCompletion& completion : completed) done.insert(completion.id);
  std::vector<ScenarioRequest> replay;
  for (const ScenarioRequest& request : accepted) {
    if (done.count(request.id) != 0) continue;
    ScenarioRequest copy = request;
    copy.replayed = true;
    replay.push_back(std::move(copy));
  }
  return replay;
}

RecoveredJournal recover_journal_text(std::string_view text) {
  RecoveredJournal recovered;
  const std::vector<std::string_view> objects = sim::salvage_object_stream(text);
  std::unordered_set<std::uint64_t> seen_accepted;
  std::unordered_set<std::uint64_t> seen_completed;
  std::size_t salvaged_end = 0;
  for (const std::string_view object : objects) {
    try {
      const obs::Json record = obs::Json::parse(object);
      if (const obs::Json* schema = record.find("schema")) {
        // Header line. A wrong schema means this is some other JSONL
        // file, not a torn journal — salvage nothing past it either way.
        if (schema->as_string() != kServiceJournalSchema) break;
        recovered.header_ok = true;
      } else {
        const std::string& kind = record.at("kind").as_string();
        if (kind == "accepted") {
          ScenarioRequest request;
          request.id = static_cast<std::uint64_t>(record.at("id").as_int());
          request.arrival = record.at("arrival").as_double();
          request.seed = static_cast<std::uint64_t>(record.at("seed").as_int());
          request.scenario_text = record.at("scenario").as_string();
          if (seen_accepted.insert(request.id).second) {
            recovered.accepted.push_back(std::move(request));
          }
        } else if (kind == "completed") {
          JournalCompletion completion;
          completion.id = static_cast<std::uint64_t>(record.at("id").as_int());
          completion.outcome = request_outcome_from_name(record.at("outcome").as_string());
          if (!parse_digest_hex(record.at("digest").as_string(), completion.digest)) break;
          if (seen_completed.insert(completion.id).second) {
            recovered.completed.push_back(completion);
          }
        } else {
          break;  // unknown record kind: everything after it is untrusted
        }
      }
    } catch (const std::exception&) {
      break;  // malformed record: stop at the tear
    }
    salvaged_end =
        static_cast<std::size_t>(object.data() + object.size() - text.data());
  }
  for (std::size_t pos = salvaged_end; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
      recovered.torn = true;
      break;
    }
  }
  return recovered;
}

RecoveredJournal load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return RecoveredJournal{};  // fresh journal: nothing to replay
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("load_journal: cannot read " + path);
  }
  return recover_journal_text(buffer.str());
}

void RequestJournal::open(const std::string& path, bool truncate) {
  bool write_header = truncate;
  if (!truncate) {
    std::ifstream existing(path, std::ios::binary | std::ios::ate);
    write_header = !existing || existing.tellg() <= 0;
  }
  out_.open(path, truncate ? std::ios::binary | std::ios::trunc
                           : std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("RequestJournal: cannot open " + path);
  }
  path_ = path;
  if (write_header) {
    obs::Json header = obs::Json::object();
    header.set("schema", kServiceJournalSchema);
    append_line(header.dump());
  }
}

void RequestJournal::append_accepted(const ScenarioRequest& request) {
  if (!active()) return;
  obs::Json record = obs::Json::object();
  record.set("kind", "accepted");
  record.set("id", request.id);
  record.set("arrival", request.arrival);
  record.set("seed", request.seed);
  record.set("scenario", request.scenario_text);
  append_line(record.dump());
}

void RequestJournal::append_completed(std::uint64_t id, RequestOutcome outcome,
                                      std::uint64_t digest) {
  if (!active()) return;
  obs::Json record = obs::Json::object();
  record.set("kind", "completed");
  record.set("id", id);
  record.set("outcome", request_outcome_name(outcome));
  record.set("digest", digest_hex(digest));
  append_line(record.dump());
}

void RequestJournal::append_line(const std::string& line) {
  out_ << line << '\n';
  out_.flush();  // the ack barrier: acked means on its way to disk
  // Checked after the flush: a full disk fails the write itself, and a
  // record that never reached the file must never be acked.
  if (!out_) throw std::runtime_error("RequestJournal: cannot append to " + path_);
}

}  // namespace cdsf::svc
