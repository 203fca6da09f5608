#include "core/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/strings.h"

namespace isrl::snapshot {

namespace {

constexpr char kMagic[4] = {'I', 'S', 'R', 'L'};
constexpr uint32_t kCrcPoly = 0xEDB88320u;

// Slicing-by-8 tables: table[0] is the classic bytewise table, and
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight table
// lookups fold eight input bytes into the running CRC at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kCrcPoly ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  const CrcTables& t = Crc32Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---- Frame. ---------------------------------------------------------------

std::string WrapFrame(const std::string& kind, uint32_t version,
                      const std::string& payload) {
  Writer w;
  for (char m : kMagic) w.U8(static_cast<uint8_t>(m));
  w.Str(kind);
  w.U32(version);
  w.U64(payload.size());
  std::string frame = w.Take();
  frame += payload;
  Writer crc;
  crc.U32(Crc32(payload));
  frame += crc.bytes();
  return frame;
}

Result<std::string> UnwrapFrame(const std::string& kind, uint32_t version,
                                const std::string& bytes) {
  Reader r(bytes);
  char magic[4] = {};
  for (char& m : magic) m = static_cast<char>(r.U8());
  if (r.failed() || magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    return Status::InvalidArgument(
        "snapshot frame: bad magic (not an ISRL snapshot)");
  }
  std::string got_kind = r.Str();
  if (r.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated kind tag");
  }
  if (got_kind != kind) {
    return Status::InvalidArgument(Format(
        "snapshot frame: kind mismatch (snapshot holds a '%s', expected "
        "'%s')",
        got_kind.c_str(), kind.c_str()));
  }
  uint32_t got_version = r.U32();
  if (r.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated version field");
  }
  if (got_version != version) {
    return Status::InvalidArgument(
        Format("snapshot frame: version skew ('%s' version %u, this build "
               "reads version %u)",
               kind.c_str(), got_version, version));
  }
  uint64_t payload_size = r.U64();
  if (r.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated size field");
  }
  // Header = magic(4) + kind(8 + len) + version(4) + size(8).
  const size_t header = 4 + 8 + got_kind.size() + 4 + 8;
  if (payload_size > bytes.size() || bytes.size() - header < payload_size + 4) {
    return Status::InvalidArgument(Format(
        "snapshot frame: truncated ('%s' payload of %llu bytes does not fit "
        "in %llu remaining)",
        kind.c_str(), static_cast<unsigned long long>(payload_size),
        static_cast<unsigned long long>(
            bytes.size() > header ? bytes.size() - header : 0)));
  }
  if (bytes.size() != header + payload_size + 4) {
    return Status::InvalidArgument(
        Format("snapshot frame: %llu trailing bytes after '%s' frame",
               static_cast<unsigned long long>(bytes.size() - header -
                                               payload_size - 4),
               kind.c_str()));
  }
  // Read the stored CRC from the final four bytes.
  uint32_t stored = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<uint8_t>(bytes[header + payload_size + i]))
              << (8 * i);
  }
  const uint32_t computed =
      Crc32(std::string_view(bytes).substr(header, payload_size));
  if (stored != computed) {
    return Status::InvalidArgument(
        Format("snapshot frame: CRC mismatch on '%s' payload (stored "
               "%08x, computed %08x) — snapshot is corrupted",
               kind.c_str(), stored, computed));
  }
  return bytes.substr(header, payload_size);
}

Status ReadFrameAt(const std::string& bytes, size_t* pos, std::string* kind,
                   uint32_t* version, std::string* payload) {
  const size_t start = *pos;
  if (start > bytes.size()) {
    return Status::InvalidArgument("snapshot frame: scan position past end");
  }
  // The Reader has no seek, so parse a view of the remaining bytes.
  const std::string_view rest = std::string_view(bytes).substr(start);
  Reader rr(rest);
  char magic[4] = {};
  for (char& m : magic) m = static_cast<char>(rr.U8());
  if (rr.failed() || magic[0] != kMagic[0] || magic[1] != kMagic[1] ||
      magic[2] != kMagic[2] || magic[3] != kMagic[3]) {
    return Status::InvalidArgument(
        "snapshot frame: bad magic (not an ISRL snapshot)");
  }
  std::string got_kind = rr.Str();
  if (rr.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated kind tag");
  }
  uint32_t got_version = rr.U32();
  if (rr.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated version field");
  }
  uint64_t payload_size = rr.U64();
  if (rr.failed()) {
    return Status::InvalidArgument("snapshot frame: truncated size field");
  }
  const size_t header = 4 + 8 + got_kind.size() + 4 + 8;
  if (payload_size > rest.size() || rest.size() - header < payload_size + 4) {
    return Status::InvalidArgument(Format(
        "snapshot frame: truncated ('%s' payload of %llu bytes does not fit "
        "in %llu remaining)",
        got_kind.c_str(), static_cast<unsigned long long>(payload_size),
        static_cast<unsigned long long>(
            rest.size() > header ? rest.size() - header : 0)));
  }
  const std::string_view got_payload = rest.substr(header, payload_size);
  uint32_t stored = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<uint8_t>(rest[header + payload_size + i]))
              << (8 * i);
  }
  const uint32_t computed = Crc32(got_payload);
  if (stored != computed) {
    return Status::InvalidArgument(
        Format("snapshot frame: CRC mismatch on '%s' payload (stored "
               "%08x, computed %08x) — snapshot is corrupted",
               got_kind.c_str(), stored, computed));
  }
  *pos = start + header + payload_size + 4;
  *kind = std::move(got_kind);
  *version = got_version;
  payload->assign(got_payload);
  return Status::Ok();
}

// ---- Writer. --------------------------------------------------------------

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void Writer::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void Writer::Str(const std::string& s) {
  U64(s.size());
  out_.append(s);
}

// ---- Reader. --------------------------------------------------------------

bool Reader::Need(size_t n) {
  if (failed_) return false;
  if (bytes_.size() - pos_ < n) {
    Fail("unexpected end of payload");
    return false;
  }
  return true;
}

void Reader::Fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    message_ = message;
  }
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(bytes_[pos_++]);
}

uint32_t Reader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
         << (8 * i);
  }
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
         << (8 * i);
  }
  return v;
}

double Reader::F64() { return std::bit_cast<double>(U64()); }

double Reader::FiniteF64() {
  double v = F64();
  if (!failed_ && !std::isfinite(v)) {
    Fail("non-finite value in payload");
    return 0.0;
  }
  return v;
}

std::string Reader::Str() {
  uint64_t n = U64();
  if (failed_) return std::string();
  if (!Need(n)) return std::string();
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

Status Reader::status() const {
  if (!failed_) return Status::Ok();
  return Status::InvalidArgument("snapshot payload: " + message_);
}

// ---- Value codecs. --------------------------------------------------------

namespace {

/// Shared epilogue: surface the reader's sticky failure as the codec Status.
Status Finish(const Reader& r, const char* what) {
  if (r.failed()) {
    return Status::InvalidArgument(std::string(what) + ": " +
                                   r.status().message());
  }
  return Status::Ok();
}

}  // namespace

void EncodeRng(const Rng& rng, Writer* w) {
  w->U64(rng.seed());
  for (uint64_t word : rng.engine().state()) w->U64(word);
  w->U64(rng.engine().position());
}

Status DecodeRng(Reader* r, Rng* out) {
  const uint64_t seed = r->U64();
  std::array<uint64_t, Mt19937_64::kStateSize> state;
  for (uint64_t& word : state) word = r->U64();
  const uint64_t position = r->U64();
  ISRL_RETURN_IF_ERROR(Finish(*r, "rng snapshot"));
  if (position > Mt19937_64::kStateSize) {
    r->Fail("engine position past the state");
    return Status::InvalidArgument(
        Format("rng snapshot: engine position %llu past the %zu-word state",
               static_cast<unsigned long long>(position),
               Mt19937_64::kStateSize));
  }
  Rng restored(seed);
  restored.engine().Restore(state, static_cast<size_t>(position));
  *out = restored;
  return Status::Ok();
}

void EncodeVec(const Vec& v, Writer* w) {
  w->U64(v.dim());
  for (size_t i = 0; i < v.dim(); ++i) w->F64(v[i]);
}

Status DecodeVec(Reader* r, Vec* out) {
  uint64_t dim = r->U64();
  if (!r->failed() && dim > kMaxElements) {
    r->Fail("vector dimension exceeds the element ceiling");
  }
  std::vector<double> data;
  if (!r->failed()) {
    data.reserve(dim);
    for (uint64_t i = 0; i < dim && !r->failed(); ++i) {
      data.push_back(r->FiniteF64());
    }
  }
  ISRL_RETURN_IF_ERROR(Finish(*r, "vector snapshot"));
  *out = Vec(std::move(data));
  return Status::Ok();
}

void EncodeHalfspace(const Halfspace& h, Writer* w) {
  EncodeVec(h.normal, w);
  w->F64(h.offset);
}

Status DecodeHalfspace(Reader* r, Halfspace* out) {
  Vec normal;
  ISRL_RETURN_IF_ERROR(DecodeVec(r, &normal));
  double offset = r->FiniteF64();
  ISRL_RETURN_IF_ERROR(Finish(*r, "halfspace snapshot"));
  out->normal = std::move(normal);
  out->offset = offset;
  return Status::Ok();
}

void EncodeLearnedHalfspace(const LearnedHalfspace& lh, Writer* w) {
  w->U64(lh.winner);
  w->U64(lh.loser);
  EncodeHalfspace(lh.h, w);
}

Status DecodeLearnedHalfspace(Reader* r, LearnedHalfspace* out,
                              uint64_t max_index) {
  uint64_t winner = r->U64();
  uint64_t loser = r->U64();
  Halfspace h;
  ISRL_RETURN_IF_ERROR(DecodeHalfspace(r, &h));
  if (winner >= max_index || loser >= max_index) {
    r->Fail("learned halfspace pair index out of range");
    return Status::InvalidArgument(
        "learned halfspace snapshot: pair index out of dataset range");
  }
  out->winner = static_cast<size_t>(winner);
  out->loser = static_cast<size_t>(loser);
  out->h = std::move(h);
  return Status::Ok();
}

void EncodePolyhedron(const Polyhedron& p, Writer* w) {
  w->U64(p.dim());
  w->U64(p.cuts().size());
  for (const Halfspace& h : p.cuts()) EncodeHalfspace(h, w);
  w->U64(p.vertices().size());
  for (const Vec& v : p.vertices()) EncodeVec(v, w);
}

Result<Polyhedron> DecodePolyhedron(Reader* r) {
  uint64_t dim = r->U64();
  uint64_t num_cuts = r->U64();
  if (!r->failed() && (dim > kMaxElements || num_cuts > kMaxElements)) {
    r->Fail("polyhedron shape exceeds the element ceiling");
  }
  std::vector<Halfspace> cuts;
  for (uint64_t i = 0; i < num_cuts && !r->failed(); ++i) {
    Halfspace h;
    ISRL_RETURN_IF_ERROR(DecodeHalfspace(r, &h));
    cuts.push_back(std::move(h));
  }
  uint64_t num_vertices = r->U64();
  if (!r->failed() && num_vertices > kMaxElements) {
    r->Fail("polyhedron vertex count exceeds the element ceiling");
  }
  std::vector<Vec> vertices;
  for (uint64_t i = 0; i < num_vertices && !r->failed(); ++i) {
    Vec v;
    ISRL_RETURN_IF_ERROR(DecodeVec(r, &v));
    vertices.push_back(std::move(v));
  }
  ISRL_RETURN_IF_ERROR(Finish(*r, "polyhedron snapshot"));
  Result<Polyhedron> p =
      Polyhedron::FromSnapshotParts(dim, std::move(cuts), std::move(vertices));
  if (!p.ok()) r->Fail(p.status().message());
  return p;
}

void EncodeDeadline(const Deadline& d, Writer* w) {
  w->Bool(d.armed());
  w->F64(d.armed() ? d.RemainingSeconds() : 0.0);
}

Status DecodeDeadline(Reader* r, Deadline* out) {
  bool armed = r->Bool();
  double remaining = r->FiniteF64();
  ISRL_RETURN_IF_ERROR(Finish(*r, "deadline snapshot"));
  *out = armed ? Deadline::After(remaining) : Deadline();
  return Status::Ok();
}

void EncodeInteractionResult(const InteractionResult& result, Writer* w) {
  w->U64(result.best_index);
  w->U64(result.rounds);
  w->F64(result.seconds);
  w->U8(static_cast<uint8_t>(result.termination));
  w->U64(result.dropped_answers);
  w->U64(result.no_answers);
  w->U8(static_cast<uint8_t>(result.status.code()));
  w->Str(result.status.message());
}

Status DecodeInteractionResult(Reader* r, InteractionResult* out) {
  InteractionResult result;
  result.best_index = static_cast<size_t>(r->U64());
  result.rounds = static_cast<size_t>(r->U64());
  result.seconds = r->FiniteF64();
  uint8_t termination = r->U8();
  if (!r->failed() && termination > static_cast<uint8_t>(Termination::kAborted)) {
    r->Fail("termination enum out of range");
  }
  result.dropped_answers = static_cast<size_t>(r->U64());
  result.no_answers = static_cast<size_t>(r->U64());
  uint8_t code = r->U8();
  if (!r->failed() && code > static_cast<uint8_t>(StatusCode::kUnbounded)) {
    r->Fail("status code out of range");
  }
  std::string message = r->Str();
  ISRL_RETURN_IF_ERROR(Finish(*r, "interaction result snapshot"));
  result.termination = static_cast<Termination>(termination);
  result.converged = result.termination == Termination::kConverged;
  result.status = Status(static_cast<StatusCode>(code), std::move(message));
  *out = result;
  return Status::Ok();
}

void EncodeSessionQuestion(const SessionQuestion& q, Writer* w) {
  EncodeVec(q.first, w);
  EncodeVec(q.second, w);
  w->U64(q.pair.i);
  w->U64(q.pair.j);
  w->Bool(q.synthetic);
}

Status DecodeSessionQuestion(Reader* r, SessionQuestion* out) {
  SessionQuestion q;
  ISRL_RETURN_IF_ERROR(DecodeVec(r, &q.first));
  ISRL_RETURN_IF_ERROR(DecodeVec(r, &q.second));
  q.pair.i = static_cast<size_t>(r->U64());
  q.pair.j = static_cast<size_t>(r->U64());
  q.synthetic = r->Bool();
  ISRL_RETURN_IF_ERROR(Finish(*r, "session question snapshot"));
  *out = std::move(q);
  return Status::Ok();
}

void EncodeIndexVector(const std::vector<size_t>& v, Writer* w) {
  w->U64(v.size());
  for (size_t idx : v) w->U64(idx);
}

Status DecodeIndexVector(Reader* r, std::vector<size_t>* out, uint64_t bound) {
  uint64_t n = r->U64();
  if (!r->failed() && n > kMaxElements) {
    r->Fail("index vector length exceeds the element ceiling");
  }
  std::vector<size_t> v;
  if (!r->failed()) {
    v.reserve(n);
    for (uint64_t i = 0; i < n && !r->failed(); ++i) {
      uint64_t idx = r->U64();
      if (!r->failed() && idx >= bound) {
        r->Fail("index vector entry out of range");
      }
      v.push_back(static_cast<size_t>(idx));
    }
  }
  ISRL_RETURN_IF_ERROR(Finish(*r, "index vector snapshot"));
  *out = std::move(v);
  return Status::Ok();
}

void EncodeTrace(const InteractionTrace& trace, Writer* w) {
  w->U64(trace.rounds());
  for (double v : trace.max_regret()) w->F64(v);
  for (double v : trace.cumulative_seconds()) w->F64(v);
  for (size_t v : trace.best_index()) w->U64(v);
}

Status DecodeTrace(Reader* r, std::vector<double>* max_regret,
                   std::vector<double>* cumulative_seconds,
                   std::vector<size_t>* best_index) {
  uint64_t rounds = r->U64();
  if (!r->failed() && rounds > kMaxElements) {
    r->Fail("trace length exceeds the element ceiling");
  }
  std::vector<double> mr, cs;
  std::vector<size_t> bi;
  if (!r->failed()) {
    mr.reserve(rounds);
    cs.reserve(rounds);
    bi.reserve(rounds);
    for (uint64_t i = 0; i < rounds && !r->failed(); ++i) {
      mr.push_back(r->FiniteF64());
    }
    for (uint64_t i = 0; i < rounds && !r->failed(); ++i) {
      cs.push_back(r->FiniteF64());
    }
    for (uint64_t i = 0; i < rounds && !r->failed(); ++i) {
      bi.push_back(static_cast<size_t>(r->U64()));
    }
  }
  ISRL_RETURN_IF_ERROR(Finish(*r, "trace snapshot"));
  *max_regret = std::move(mr);
  *cumulative_seconds = std::move(cs);
  *best_index = std::move(bi);
  return Status::Ok();
}

// ---- Session core. --------------------------------------------------------

void EncodeSessionCore(const SessionCore& core, Writer* w) {
  w->Str(core.algorithm);
  w->U64(core.data_size);
  w->U64(core.data_dim);
  EncodeInteractionResult(core.result, w);
  w->U64(core.max_rounds);
  EncodeDeadline(core.deadline, w);
  w->U8(core.stage);
  EncodeSessionQuestion(core.question, w);
  w->Bool(core.has_rng);
  if (core.has_rng) EncodeRng(core.rng, w);
  w->Bool(core.trace != nullptr);
  if (core.trace != nullptr) EncodeTrace(*core.trace, w);
}

Status DecodeSessionCore(Reader* r, SessionCore* out) {
  SessionCore core;
  core.algorithm = r->Str();
  core.data_size = r->U64();
  core.data_dim = r->U64();
  ISRL_RETURN_IF_ERROR(DecodeInteractionResult(r, &core.result));
  core.max_rounds = r->U64();
  ISRL_RETURN_IF_ERROR(DecodeDeadline(r, &core.deadline));
  core.stage = r->U8();
  if (!r->failed() && core.stage > kStageFinished) {
    r->Fail("session stage out of range");
  }
  ISRL_RETURN_IF_ERROR(DecodeSessionQuestion(r, &core.question));
  core.has_rng = r->Bool();
  if (core.has_rng) ISRL_RETURN_IF_ERROR(DecodeRng(r, &core.rng));
  core.has_trace = r->Bool();
  if (core.has_trace) {
    ISRL_RETURN_IF_ERROR(DecodeTrace(r, &core.trace_max_regret,
                                     &core.trace_seconds,
                                     &core.trace_best_index));
  }
  ISRL_RETURN_IF_ERROR(Finish(*r, "session core snapshot"));
  if (core.result.best_index >= core.data_size) {
    return Status::InvalidArgument(
        "session core snapshot: best_index out of dataset range");
  }
  *out = std::move(core);
  return Status::Ok();
}

Status ValidateSessionCore(const SessionCore& core,
                           const std::string& algorithm_name,
                           size_t data_size, size_t data_dim) {
  if (core.algorithm != algorithm_name) {
    return Status::FailedPrecondition(
        Format("session snapshot belongs to algorithm '%s', cannot restore "
               "under '%s'",
               core.algorithm.c_str(), algorithm_name.c_str()));
  }
  if (core.data_size != data_size || core.data_dim != data_dim) {
    return Status::FailedPrecondition(Format(
        "session snapshot was taken on a %llu-point, %llu-dimensional "
        "dataset; this algorithm serves %llu points in %llu dimensions",
        static_cast<unsigned long long>(core.data_size),
        static_cast<unsigned long long>(core.data_dim),
        static_cast<unsigned long long>(data_size),
        static_cast<unsigned long long>(data_dim)));
  }
  return Status::Ok();
}

// ---- Files. ---------------------------------------------------------------

namespace {

/// One-shot short-write budget for the durability suite (kNoShortWrite =
/// disarmed). Consumed by the next WriteFileBytes/AppendFileBytes call.
std::atomic<size_t> g_short_write_budget{kNoShortWrite};

size_t ConsumeShortWriteBudget() {
  return g_short_write_budget.exchange(kNoShortWrite);
}

/// Writes all of `bytes` to `fd`, honouring an armed short-write budget
/// (which simulates the process dying after `budget` bytes hit the file).
Status WriteAllFd(int fd, const std::string& bytes, const std::string& path,
                  size_t budget) {
  const bool injected = budget < bytes.size();
  size_t limit = injected ? budget : bytes.size();
  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::write(fd, bytes.data() + written, limit - written);
    if (n < 0) {
      return Status::IoError("write failure on '" + path + "'");
    }
    written += static_cast<size_t>(n);
  }
  if (injected) {
    return Status::IoError("short write to '" + path +
                           "' (injected crash for testing)");
  }
  return Status::Ok();
}

/// fsyncs the directory containing `path` so a just-renamed file's
/// directory entry is durable too. Best-effort: some filesystems refuse
/// directory fsync; the rename itself is already atomic.
void SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

}  // namespace

void SetShortWriteForTesting(size_t max_bytes) {
  g_short_write_budget.store(max_bytes);
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  // Write-to-temp + rename: the target is replaced atomically, so a crash
  // (or an injected short write) at any byte leaves the previous file
  // intact instead of a torn, CRC-failing mixture.
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing");
  }
  Status written = WriteAllFd(fd, bytes, tmp, ConsumeShortWriteBudget());
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::IoError("fsync failure on '" + tmp + "'");
  }
  if (::close(fd) != 0 && written.ok()) {
    written = Status::IoError("close failure on '" + tmp + "'");
  }
  if (!written.ok()) {
    (void)::unlink(tmp.c_str());
    return written;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)::unlink(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  SyncParentDir(path);
  return Status::Ok();
}

Status AppendFileBytes(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for appending");
  }
  Status written = WriteAllFd(fd, bytes, path, ConsumeShortWriteBudget());
  if (written.ok() && ::fsync(fd) != 0) {
    written = Status::IoError("fsync failure on '" + path + "'");
  }
  if (::close(fd) != 0 && written.ok()) {
    written = Status::IoError("close failure on '" + path + "'");
  }
  return written;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failure on '" + path + "'");
  }
  return buffer.str();
}

}  // namespace isrl::snapshot
