// Versioned, checksummed session snapshots (DESIGN.md §14).
//
// Durability is what turns the sans-IO sessions of §13 into a serving
// substrate: an interactive episode accumulates 20+ user answers over
// minutes or days, and a process restart must not ask a human to start
// over. Every persistent byte in the project flows through this one codec
// layer (tools/lint.py bans ad-hoc binary IO elsewhere):
//
//   frame   = "ISRL" | kind | version | payload-size | payload | CRC32
//   payload = fixed-width little-endian scalars via Writer/Reader
//
// The frame makes the failure modes of real storage first-class: a wrong
// kind, a version skew, a truncation, and a corrupted byte each surface as
// a distinct InvalidArgument Status — never undefined behaviour, never a
// crash. Payload doubles are finiteness-checked on decode so a NaN smuggled
// into a snapshot cannot poison a restored session's geometry.
//
// On top of the scalar layer sit codecs for the state the six algorithm
// sessions actually carry: Rng engines (restored mid-stream so the draw
// order continues bit-identically), Vec, Polyhedron H-rep + vertex
// sets (adopted verbatim, validated, never re-enumerated), deadlines
// (persisted as remaining seconds and re-armed at restore), interaction
// results, in-flight questions, and trace history vectors.
#ifndef ISRL_CORE_SNAPSHOT_H_
#define ISRL_CORE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/vec.h"
#include "core/aa_state.h"
#include "core/algorithm.h"
#include "geometry/halfspace.h"
#include "geometry/polyhedron.h"

namespace isrl::snapshot {

/// CRC-32 (reflected, polynomial 0xEDB88320 — the zlib/PNG CRC) of `bytes`,
/// computed eight bytes per step (slicing-by-8).
uint32_t Crc32(std::string_view bytes);

/// Wraps `payload` in the versioned frame: magic, kind tag, format version,
/// payload size, payload bytes, CRC32 of the payload.
std::string WrapFrame(const std::string& kind, uint32_t version,
                      const std::string& payload);

/// Validates a frame and returns its payload. Every mismatch is a distinct
/// InvalidArgument: bad magic ("not a snapshot"), wrong kind (e.g. an AA
/// snapshot handed to EA), version skew, truncation, CRC failure.
Result<std::string> UnwrapFrame(const std::string& kind, uint32_t version,
                                const std::string& bytes);

/// Appends fixed-width little-endian scalars to a byte string. Writers
/// cannot fail; all validation lives on the read side.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v);
  /// Length-prefixed byte string.
  void Str(const std::string& s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads Writer output with a sticky failure flag: after the first
/// malformed field every further read returns a zero value, and status()
/// reports the first failure — decode code can run straight-line and check
/// once at the end.
class Reader {
 public:
  /// `bytes` must outlive the reader.
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  bool Bool() { return U8() != 0; }
  double F64();
  /// F64 that additionally fails the reader on NaN/Inf — the default for
  /// every payload double so corrupted numerics cannot enter a session.
  double FiniteF64();
  std::string Str();

  /// Marks the reader failed (first message wins).
  void Fail(const std::string& message);
  bool failed() const { return failed_; }
  /// True when every byte has been consumed (and no read failed).
  bool AtEnd() const { return !failed_ && pos_ == bytes_.size(); }
  /// Ok, or InvalidArgument describing the first failure.
  Status status() const;

 private:
  bool Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
  std::string message_;
};

// ---- Value codecs. --------------------------------------------------------
// Encode* appends to a Writer; Decode* reads from a Reader and returns a
// descriptive Status on malformed input (all of them also fail the reader,
// so a forgotten status check is still caught by the final reader check).

/// Element-count ceiling for every decoded container (vectors, matrices,
/// index lists): a truncated/garbage length field must not turn into a
/// multi-gigabyte allocation before validation can reject it.
inline constexpr uint64_t kMaxElements = uint64_t{1} << 24;

void EncodeRng(const Rng& rng, Writer* w);
/// Restores both the construction seed (basis of Split()) and the exact
/// engine state — its 312 words and position, stored as U64s — so the draw
/// sequence continues where the saved generator left off. A position past
/// the state is InvalidArgument.
Status DecodeRng(Reader* r, Rng* out);

void EncodeVec(const Vec& v, Writer* w);
Status DecodeVec(Reader* r, Vec* out);

void EncodeHalfspace(const Halfspace& h, Writer* w);
Status DecodeHalfspace(Reader* r, Halfspace* out);

void EncodeLearnedHalfspace(const LearnedHalfspace& lh, Writer* w);
/// `max_index` bounds winner/loser (the dataset size); pass the live
/// dataset's size so a snapshot from a different dataset is rejected.
Status DecodeLearnedHalfspace(Reader* r, LearnedHalfspace* out,
                              uint64_t max_index);

void EncodePolyhedron(const Polyhedron& p, Writer* w);
/// Validates via Polyhedron::FromSnapshotParts: the H-rep is adopted and
/// every vertex is containment-checked, but vertices are NOT re-enumerated —
/// restore must be bit-identical, not merely equivalent.
Result<Polyhedron> DecodePolyhedron(Reader* r);

/// Deadlines persist as (armed, remaining seconds) and re-arm at decode:
/// time spent crashed does not count against the session.
void EncodeDeadline(const Deadline& d, Writer* w);
Status DecodeDeadline(Reader* r, Deadline* out);

void EncodeInteractionResult(const InteractionResult& result, Writer* w);
Status DecodeInteractionResult(Reader* r, InteractionResult* out);

void EncodeSessionQuestion(const SessionQuestion& q, Writer* w);
Status DecodeSessionQuestion(Reader* r, SessionQuestion* out);

/// Index vectors (candidate sets, stream orders); every entry must be
/// < `bound`.
void EncodeIndexVector(const std::vector<size_t>& v, Writer* w);
Status DecodeIndexVector(Reader* r, std::vector<size_t>* out, uint64_t bound);

/// Trace history (the Figures 7/8 vectors). The trace object itself lives
/// with the driver, so the codec restores into bare vectors that the
/// restoring driver hands to its trace, if it attached one.
void EncodeTrace(const InteractionTrace& trace, Writer* w);
Status DecodeTrace(Reader* r, std::vector<double>* max_regret,
                   std::vector<double>* cumulative_seconds,
                   std::vector<size_t>* best_index);

// ---- Session core. --------------------------------------------------------

/// Where a saved session's state machine stood.
inline constexpr uint8_t kStageScoring = 0;   ///< EA/AA: candidates staged
inline constexpr uint8_t kStageAsking = 1;    ///< question emitted, unanswered
inline constexpr uint8_t kStageFinished = 2;  ///< terminated

/// The per-episode state every algorithm session shares: identity (algorithm
/// name + dataset shape, cross-checked at restore), the running result, the
/// effective budget, the re-armable deadline, the state-machine stage with
/// its in-flight question, and the session's Rng. Restored sessions always
/// own their Rng — even when the original drew from the algorithm's member
/// generator — which is what makes a restored episode self-contained.
struct SessionCore {
  std::string algorithm;
  uint64_t data_size = 0;
  uint64_t data_dim = 0;
  InteractionResult result;
  uint64_t max_rounds = 0;
  Deadline deadline;
  uint8_t stage = kStageFinished;
  SessionQuestion question;
  bool has_rng = false;
  Rng rng{0};
  /// Encode side: the session's attached trace, if any — its history rides
  /// in the core so a restored run's figure vectors stay bit-identical.
  const InteractionTrace* trace = nullptr;
  /// Decode side: the history carried by the snapshot (empty vectors when
  /// the saved session had no trace attached).
  bool has_trace = false;
  std::vector<double> trace_max_regret;
  std::vector<double> trace_seconds;
  std::vector<size_t> trace_best_index;
};

void EncodeSessionCore(const SessionCore& core, Writer* w);
Status DecodeSessionCore(Reader* r, SessionCore* out);

/// Cross-checks a decoded core against the restoring algorithm instance:
/// algorithm kind, dataset size and dimension. FailedPrecondition on any
/// mismatch (the snapshot is intact but belongs elsewhere).
Status ValidateSessionCore(const SessionCore& core,
                           const std::string& algorithm_name,
                           size_t data_size, size_t data_dim);

// ---- Multi-frame scan. ----------------------------------------------------

/// Incremental frame scan for multi-frame files (the append-mode session
/// store): parses one frame starting at `*pos`, validates its magic and
/// CRC, returns its kind/version/payload, and advances `*pos` past it.
/// Unlike UnwrapFrame it accepts any kind and tolerates further frames
/// after this one; a truncated or corrupted frame returns InvalidArgument
/// and leaves `*pos` untouched (the caller decides whether a torn tail is
/// recoverable).
Status ReadFrameAt(const std::string& bytes, size_t* pos, std::string* kind,
                   uint32_t* version, std::string* payload);

// ---- Files. ---------------------------------------------------------------
// The only sanctioned binary file IO in the tree (see the raw-serialization
// lint rule): snapshots travel as opaque byte strings and land on disk here.

/// Atomically replaces `path` with `bytes`: writes a temp file in the same
/// directory, fsyncs it, then rename()s it over the target (and fsyncs the
/// directory). A crash at any point leaves either the old file or the new
/// one, never a torn mixture — the previous good snapshot survives a
/// failed save.
Status WriteFileBytes(const std::string& path, const std::string& bytes);

/// Appends `bytes` to `path` (which must exist) and fsyncs. NOT atomic: a
/// crash mid-append leaves a torn tail, so appended data must be framed and
/// the reader must treat an unparseable tail as absent (see
/// SessionStore::SyncFile / LoadFile).
Status AppendFileBytes(const std::string& path, const std::string& bytes);

Result<std::string> ReadFileBytes(const std::string& path);

/// Test-only crash injection for the durability suite: the next
/// WriteFileBytes/AppendFileBytes call writes at most `max_bytes` bytes,
/// then fails with IoError as if the process died mid-write (the hook
/// disarms itself). Pass kNoShortWrite to disarm explicitly.
inline constexpr size_t kNoShortWrite = static_cast<size_t>(-1);
void SetShortWriteForTesting(size_t max_bytes);

}  // namespace isrl::snapshot

#endif  // ISRL_CORE_SNAPSHOT_H_
