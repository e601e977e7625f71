#include "sim/wal_recovery.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace cdsf::sim {

namespace {

constexpr std::string_view kSchema = "cdsf.master_checkpoint/1";

WalRecord record_from_json(const obs::Json& json) {
  WalRecord record;
  record.kind = wal_kind_from_name(json.at("kind").as_string());
  record.time = json.at("time").as_double();
  record.worker = static_cast<std::size_t>(json.at("worker").as_int());
  record.seq = static_cast<std::uint64_t>(json.at("seq").as_int());
  record.first = json.at("first").as_int();
  record.count = json.at("count").as_int();
  return record;
}

/// Salvages a scalar number field from a torn document: the value after
/// `"key":` is trusted only when its digits are TERMINATED inside the text
/// (a tear mid-number would otherwise silently shorten the value). Returns
/// false when the field (or its terminator) did not survive.
bool salvage_number(std::string_view text, std::string_view key, double& out) {
  // Built with += rather than an operator+ chain: GCC 12's -Wrestrict
  // misfires on the chain's inlined copies in optimized builds.
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return false;
  std::size_t pos = at + needle.size();
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  const std::size_t start = pos;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 || text[pos] == '-' ||
          text[pos] == '+' || text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E')) {
    ++pos;
  }
  if (pos == start || pos == text.size()) return false;  // absent or torn mid-number
  const std::string digits(text.substr(start, pos - start));
  char* end = nullptr;
  const double value = std::strtod(digits.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool salvage_counter(std::string_view text, std::string_view key, std::uint64_t& out) {
  double value = 0.0;
  if (!salvage_number(text, key, value) || value < 0.0) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Walks the `"wal": [...]` array of a torn document and appends every
/// record whose braces closed before the tear (salvage_object_stream does
/// the balanced-object scan); each balanced {...} substring was emitted
/// whole by the writer, so it parses — the salvaged log is a prefix by
/// construction.
void salvage_wal_prefix(std::string_view text, std::vector<WalRecord>& wal) {
  std::size_t pos = text.find("\"wal\":");
  if (pos == std::string_view::npos) return;
  pos = text.find('[', pos);
  if (pos == std::string_view::npos) return;
  for (const std::string_view object : salvage_object_stream(text, pos + 1)) {
    try {
      wal.push_back(record_from_json(obs::Json::parse(object)));
    } catch (const std::exception&) {
      return;  // malformed record: everything after it is untrusted
    }
  }
}

}  // namespace

std::vector<std::string_view> salvage_object_stream(std::string_view text, std::size_t from) {
  std::vector<std::string_view> objects;
  std::size_t pos = from;
  while (true) {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r' ||
            text[pos] == ',')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != '{') return objects;  // ']' or tear: done
    const std::size_t open = pos;
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    std::size_t close = std::string_view::npos;
    for (std::size_t scan = open; scan < text.size(); ++scan) {
      const char c = text[scan];
      if (in_string) {
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          close = scan;
          break;
        }
      }
    }
    if (close == std::string_view::npos) return objects;  // object torn mid-write
    objects.push_back(text.substr(open, close - open + 1));
    pos = close + 1;
  }
}

const char* wal_kind_name(WalRecord::Kind kind) {
  switch (kind) {
    case WalRecord::Kind::kAssign:
      return "assign";
    case WalRecord::Kind::kAck:
      return "ack";
    case WalRecord::Kind::kComplete:
      return "complete";
    case WalRecord::Kind::kSnapshot:
      return "snapshot";
    case WalRecord::Kind::kRestart:
      return "restart";
  }
  return "record";
}

WalRecord::Kind wal_kind_from_name(const std::string& name) {
  if (name == "assign") return WalRecord::Kind::kAssign;
  if (name == "ack") return WalRecord::Kind::kAck;
  if (name == "complete") return WalRecord::Kind::kComplete;
  if (name == "snapshot") return WalRecord::Kind::kSnapshot;
  if (name == "restart") return WalRecord::Kind::kRestart;
  throw std::invalid_argument("wal_kind_from_name: unknown WAL record kind '" + name + "'");
}

RecoveredCheckpoint recover_checkpoint_json(std::string_view text) {
  RecoveredCheckpoint recovered;
  try {
    const obs::Json doc = obs::Json::parse(text);
    if (doc.at("schema").as_string() != kSchema) {
      throw std::runtime_error("recover_checkpoint_json: not a master checkpoint (schema '" +
                               doc.at("schema").as_string() + "')");
    }
    recovered.complete = true;
    recovered.makespan = doc.at("makespan").as_double();
    recovered.wal_records = static_cast<std::uint64_t>(doc.at("wal_records").as_int());
    recovered.snapshots = static_cast<std::uint64_t>(doc.at("snapshots").as_int());
    recovered.master_restarts = static_cast<std::uint64_t>(doc.at("master_restarts").as_int());
    for (const obs::Json& item : doc.at("wal").items()) {
      recovered.wal.push_back(record_from_json(item));
    }
    return recovered;
  } catch (const std::invalid_argument&) {
    // Malformed document: fall through to prefix salvage.
  }
  recovered.torn = true;
  // The header precedes the WAL array, so restrict scalar salvage to the
  // bytes before it — "time"/"count" inside records must never shadow a
  // torn-away header field.
  const std::size_t wal_at = text.find("\"wal\":");
  const std::string_view header =
      wal_at == std::string_view::npos ? text : text.substr(0, wal_at);
  salvage_number(header, "makespan", recovered.makespan);
  salvage_counter(header, "wal_records", recovered.wal_records);
  salvage_counter(header, "snapshots", recovered.snapshots);
  salvage_counter(header, "master_restarts", recovered.master_restarts);
  salvage_wal_prefix(text, recovered.wal);
  return recovered;
}

RecoveredCheckpoint load_checkpoint_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint_json: cannot read " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return recover_checkpoint_json(buffer.str());
}

void write_checkpoint_json(const std::string& path, const RunResult& run) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", std::string(kSchema));
  doc.set("makespan", run.makespan);
  doc.set("wal_records", run.checkpoint.wal_records);
  doc.set("snapshots", run.checkpoint.snapshots);
  doc.set("master_restarts", run.checkpoint.master_restarts);
  obs::Json wal = obs::Json::array();
  for (const WalRecord& rec : run.wal) {
    obs::Json r = obs::Json::object();
    r.set("kind", wal_kind_name(rec.kind));
    r.set("time", rec.time);
    r.set("worker", rec.worker);
    r.set("seq", rec.seq);
    r.set("first", rec.first);
    r.set("count", rec.count);
    wal.push_back(std::move(r));
  }
  doc.set("wal", std::move(wal));
  std::ofstream out(path);
  if (out) {
    out << doc.dump(2) << '\n';
    out.flush();  // so a full disk fails here, not silently at close
  }
  if (!out) {
    throw std::runtime_error("simulate_loop_mpi: cannot write checkpoint JSON to " + path);
  }
}

WalScan scan_wal(const std::vector<WalRecord>& wal, std::size_t workers) {
  WalScan scan{std::vector<WalMarks>(workers)};
  for (const WalRecord& rec : wal) {
    if (rec.kind == WalRecord::Kind::kSnapshot || rec.kind == WalRecord::Kind::kRestart) continue;
    WalMarks& marks = scan.workers.at(rec.worker);
    std::uint64_t& mark = rec.kind == WalRecord::Kind::kAssign ? marks.assigned
                          : rec.kind == WalRecord::Kind::kAck  ? marks.acked
                                                               : marks.completed;
    mark = std::max(mark, rec.seq);
    if (rec.kind == WalRecord::Kind::kComplete) scan.completions += 1;
  }
  return scan;
}

}  // namespace cdsf::sim
