#pragma once
// Checkpoint/resume for optimization campaigns: serializes the complete
// TopologyEvaluator state — every evaluated topology, its sized result
// (best values, best point, per-simulation history) and the simulation
// counters — so an interrupted campaign can restore a finished run from
// disk instead of re-simulating it.
//
// A checkpoint is a store/log.hpp file with its own magic: frame 0 holds
// the caller's token, the record count and the total simulations; every
// further frame is one record in the evaluation store's record_io encoding
// under the evaluator's key, so doubles are raw IEEE-754 bits and a
// restored evaluator reproduces FoM curves, best-design selection and every
// downstream aggregate byte-for-byte. Files are published whole with
// util::atomic_write_file (temp file + fsync + rename + directory fsync): a
// crash at any point leaves either the previous complete checkpoint or the
// new complete one. The format is documented in docs/PERSISTENCE.md.

#include <string>

#include "core/evaluator.hpp"

namespace intooa::store {

/// Writes `evaluator`'s full history plus the caller's `token` (an
/// identity stamp: spec, method, protocol params, seed) to `path`.
/// Parent directories are created. Throws std::runtime_error on I/O
/// failure.
void save_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               const core::TopologyEvaluator& evaluator);

/// Restores a checkpoint written by save_evaluator_checkpoint into
/// `evaluator`, which must be freshly constructed for the same spec and
/// sizing config. All or nothing: returns false — leaving `evaluator`
/// untouched — when the file is missing, is not a checkpoint of this format
/// (an old text checkpoint included), has a torn or corrupt frame or
/// trailing bytes, disagrees with its own record count or simulation total,
/// is stamped with a different `token`, or holds a record whose key differs
/// from the evaluator's. Every rejection but a missing file logs a warning.
bool load_evaluator_checkpoint(const std::string& path,
                               const std::string& token,
                               core::TopologyEvaluator& evaluator);

}  // namespace intooa::store
