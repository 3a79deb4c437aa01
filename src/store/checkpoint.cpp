#include "store/checkpoint.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/span.hpp"
#include "store/log.hpp"
#include "store/record_io.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"

namespace intooa::store {

namespace {

/// Version 1 was a text format; it is not read, so its runs are recomputed.
constexpr LogFormat kFormat{"intooa-evalckpnt", /*version=*/2,
                            /*max_payload=*/1u << 26,
                            "an evaluator checkpoint"};

/// Frame 0: what the record frames must add up to.
struct Manifest {
  std::string token;
  std::uint64_t records = 0;
  std::uint64_t simulations = 0;
};

std::optional<Manifest> decode_manifest(std::string_view payload) {
  util::WireReader reader(payload);
  Manifest manifest;
  if (!reader.str(manifest.token) || !reader.u64(manifest.records) ||
      !reader.u64(manifest.simulations) || !reader.done()) {
    return std::nullopt;
  }
  return manifest;
}

/// Every record of the checkpoint at `path`, or std::runtime_error naming
/// the first defect. Reads nothing into `evaluator`.
std::vector<core::EvalRecord> read_checkpoint(
    const std::string& path, const std::string& token,
    const core::TopologyEvaluator& evaluator) {
  LogFile file(kFormat, path, LogFile::Mode::ReadOnly);
  file.verify_header();
  std::optional<Manifest> manifest;
  std::vector<core::EvalRecord> records;
  std::unordered_set<std::size_t> topologies;
  std::uint64_t simulations = 0;
  std::string defect = "torn or corrupt frame";
  const auto reject = [&defect](const char* why) {
    defect = why;
    return false;
  };
  const std::uint64_t end = file.scan(
      kLogHeaderSize, [&](const LogFile::Frame&, std::string_view payload) {
        if (!manifest) {
          manifest = decode_manifest(payload);
          if (!manifest) return reject("undecodable manifest");
          return manifest->token == token || reject("different token");
        }
        auto stored = decode_record(payload);
        if (!stored) return reject("undecodable record");
        const core::EvalRecord& record = stored->record;
        const core::EvalKey key =
            evaluator.key_context().key_for(record.topology);
        if (stored->key.digest != key.digest ||
            stored->key.fingerprint != key.fingerprint) {
          return reject("record key differs from the evaluator's");
        }
        if (evaluator.visited(record.topology) ||
            !topologies.insert(record.topology.index()).second) {
          return reject("duplicate topology");
        }
        simulations += record.sized.simulations;
        records.push_back(std::move(stored->record));
        return true;
      });
  if (end != file.size()) {
    throw std::runtime_error(defect + " at byte " + std::to_string(end));
  }
  if (!manifest) throw std::runtime_error("no manifest frame");
  if (records.size() != manifest->records ||
      simulations != manifest->simulations) {
    throw std::runtime_error(
        "record count or simulation total disagrees with the manifest");
  }
  return records;
}

}  // namespace

void save_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               const core::TopologyEvaluator& evaluator) {
  INTOOA_SPAN("checkpoint.save");
  std::string bytes = log_header(kFormat);
  std::string payload;
  util::WireWriter manifest(payload);
  manifest.str(token);
  manifest.u64(evaluator.history().size());
  manifest.u64(evaluator.total_simulations());
  append_frame(bytes, payload);
  for (const auto& record : evaluator.history()) {
    append_frame(bytes,
                 encode_record(evaluator.key_context().key_for(record.topology),
                               record));
  }
  // Durable atomic publish (temp file + fsync + rename + directory fsync):
  // a crash at any point leaves the previous checkpoint or the complete new
  // one — and once save returns, the record contents survive power loss.
  try {
    util::atomic_write_file(path, bytes);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("checkpoint: ") + e.what());
  }
}

bool load_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               core::TopologyEvaluator& evaluator) {
  INTOOA_SPAN("checkpoint.load");
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;
  std::vector<core::EvalRecord> records;
  try {
    records = read_checkpoint(path, token, evaluator);
  } catch (const std::exception& e) {
    util::log_warn("ignoring unusable checkpoint " + path,
                   {{"reason", e.what()}});
    return false;
  }
  for (auto& record : records) evaluator.restore(std::move(record));
  return true;
}

}  // namespace intooa::store
