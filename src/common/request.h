#ifndef QUASII_COMMON_REQUEST_H_
#define QUASII_COMMON_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/query.h"
#include "common/query_stats.h"
#include "common/spatial_index.h"
#include "geometry/box.h"

namespace quasii {

/// Everything a client can ask an index to do — the single typed vocabulary
/// shared by the wire protocol, the workload recorder, the bench op streams
/// and the in-process executor, so there is exactly one validation and one
/// serialization path no matter how a request arrives.
///
///  - kQuery:    one `Query<D>` (range/point/count/kNN/conjunction);
///  - kJoin:     an index-vs-stream join whose box stream the request OWNS
///               (a serialized request cannot borrow caller memory);
///  - kInsert:   add object `id` with MBB `box`;
///  - kErase:    remove object `id`;
///  - kStats:    merged work counters + live population of the index;
///  - kSnapshot: force a durable snapshot now (admin; needs a server hook);
///  - kPing:     liveness/epoch probe, no work.
enum class RequestKind : std::uint8_t {
  kQuery = 1,
  kJoin = 2,
  kInsert = 3,
  kErase = 4,
  kStats = 5,
  kSnapshot = 6,
  kPing = 7,
};

inline const char* RequestKindName(RequestKind k) {
  switch (k) {
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kJoin:
      return "join";
    case RequestKind::kInsert:
      return "insert";
    case RequestKind::kErase:
      return "erase";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kSnapshot:
      return "snapshot";
    case RequestKind::kPing:
      return "ping";
  }
  return "?";
}

/// Sanity caps applied when parsing untrusted request bytes. Generous —
/// real workloads sit orders of magnitude below — but they turn a hostile
/// length field into a typed parse failure instead of an allocation storm.
inline constexpr std::size_t kMaxRequestJoinStream = std::size_t{1} << 20;
inline constexpr std::size_t kMaxRequestTerms = std::size_t{1} << 16;
inline constexpr std::size_t kMaxRequestK = std::size_t{1} << 20;

/// One request against one index, as a validated sum type. Construction is
/// factory-only, extending `Query<D>`'s `Make*`/`Try*` pattern to mutations
/// and admin ops: `Try*` returns `std::nullopt` on an invalid description
/// (the wire parser's path), `Make*` aborts with a clear message (the
/// in-process caller's path). `Serialize`/`TryParse` round-trip through the
/// `bytes.h` codec; every value a factory accepts re-parses to an equal
/// request, and every byte string `TryParse` rejects is rejected with
/// `std::nullopt`, never UB.
///
/// Reads (`kQuery`/`kJoin`) may additionally be *pinned* to an
/// `ObjectStore::version()` epoch: execution refuses (typed
/// `kEpochMismatch`) unless the store still sits at exactly that mutation
/// epoch, which gives clients snapshot-read semantics without the server
/// retaining historical versions.
template <int D>
class Request {
 public:
  /// A default-constructed request is a valid degenerate query (empty range,
  /// matches nothing) — exists so containers can default-construct and
  /// overwrite, mirroring `Query<D>`.
  Request() = default;

  RequestKind kind() const { return kind_; }
  /// kQuery: the query description (never `QueryType::kJoin` — joins are
  /// their own request kind, with an owned stream).
  const Query<D>& query() const { return query_; }
  /// kJoin: the owned right-hand box stream (pair rights are positions).
  const std::vector<Box<D>>& join_stream() const { return join_stream_; }
  /// kInsert / kErase: the object id.
  ObjectId id() const { return id_; }
  /// kInsert: the object's MBB.
  const Box<D>& box() const { return box_; }
  /// Reads only: the pinned store epoch; 0 means unpinned.
  std::uint64_t pin_epoch() const { return pin_epoch_; }

  bool is_read() const {
    return kind_ == RequestKind::kQuery || kind_ == RequestKind::kJoin ||
           kind_ == RequestKind::kStats || kind_ == RequestKind::kPing;
  }
  bool is_mutation() const {
    return kind_ == RequestKind::kInsert || kind_ == RequestKind::kErase;
  }

  /// Wraps a single-index query. Rejects `QueryType::kJoin` (its stream or
  /// index pointer is borrowed — use `TryStreamJoin`) and non-finite
  /// coordinates (unserializable: the parser would refuse them).
  static std::optional<Request> TryQuery(Query<D> query) {
    switch (query.type()) {
      case QueryType::kRange:
      case QueryType::kCount:
        if (!IsFinite(query.box())) return std::nullopt;
        break;
      case QueryType::kPoint:
      case QueryType::kKNearest:
        if (!IsFinite(query.point())) return std::nullopt;
        break;
      case QueryType::kConjunction:
        for (const ConjunctiveTerm<D>& t : query.terms()) {
          if (!IsFinite(t.box)) return std::nullopt;
        }
        break;
      case QueryType::kJoin:
        return std::nullopt;
    }
    Request r;
    r.kind_ = RequestKind::kQuery;
    r.query_ = std::move(query);
    return r;
  }

  static Request MakeQuery(Query<D> query) {
    auto r = TryQuery(std::move(query));
    if (!r) QueryApiAbort("request cannot carry this query (join or NaN?)");
    return *std::move(r);
  }

  /// Join against an OWNED box stream (the request outlives any borrow).
  /// Rejects non-finite boxes; an empty stream is a valid join matching
  /// nothing.
  static std::optional<Request> TryStreamJoin(std::vector<Box<D>> stream) {
    for (const Box<D>& b : stream) {
      if (!IsFinite(b)) return std::nullopt;
    }
    Request r;
    r.kind_ = RequestKind::kJoin;
    r.join_stream_ = std::move(stream);
    return r;
  }

  static Request MakeStreamJoin(std::vector<Box<D>> stream) {
    auto r = TryStreamJoin(std::move(stream));
    if (!r) QueryApiAbort("stream join requires finite boxes");
    return *std::move(r);
  }

  /// Rejects an empty or non-finite box — `SpatialIndex::Insert` would
  /// refuse the former anyway; failing at construction keeps "accepted
  /// request" meaning "well-formed request".
  static std::optional<Request> TryInsert(ObjectId id, const Box<D>& box) {
    if (box.IsEmpty() || !IsFinite(box)) return std::nullopt;
    Request r;
    r.kind_ = RequestKind::kInsert;
    r.id_ = id;
    r.box_ = box;
    return r;
  }

  static Request MakeInsert(ObjectId id, const Box<D>& box) {
    auto r = TryInsert(id, box);
    if (!r) QueryApiAbort("insert requires a non-empty finite box");
    return *std::move(r);
  }

  static Request MakeErase(ObjectId id) {
    Request r;
    r.kind_ = RequestKind::kErase;
    r.id_ = id;
    return r;
  }

  static Request MakeStats() {
    Request r;
    r.kind_ = RequestKind::kStats;
    return r;
  }

  static Request MakeSnapshot() {
    Request r;
    r.kind_ = RequestKind::kSnapshot;
    return r;
  }

  static Request MakePing() {
    Request r;
    r.kind_ = RequestKind::kPing;
    return r;
  }

  /// Pins a result-bearing read (`kQuery`/`kJoin`) to store epoch `epoch`
  /// (non-zero). Returns false — request unchanged — for any other kind:
  /// mutations move the epoch themselves and admin ops have no snapshot to
  /// protect.
  bool TryPinEpoch(std::uint64_t epoch) {
    if (epoch == 0) return false;
    if (kind_ != RequestKind::kQuery && kind_ != RequestKind::kJoin) {
      return false;
    }
    pin_epoch_ = epoch;
    return true;
  }

  /// Appends the canonical byte encoding:
  ///
  ///   [u8 kind] [u64 pin_epoch] [body]
  ///   kQuery body:  [u8 qtag] + per-type payload (boxes/points via
  ///                 `PutBox`/`F`, predicates as u8, k as u64, terms as
  ///                 u32 count + entries)
  ///   kJoin body:   [u32 n] n × box
  ///   kInsert body: [u32 id] [box]     kErase body: [u32 id]
  ///   admin bodies: empty
  void Serialize(ByteWriter* w) const {
    w->U8(static_cast<std::uint8_t>(kind_));
    w->U64(pin_epoch_);
    switch (kind_) {
      case RequestKind::kQuery:
        SerializeQuery(w);
        break;
      case RequestKind::kJoin:
        w->U32(static_cast<std::uint32_t>(join_stream_.size()));
        for (const Box<D>& b : join_stream_) PutBox<D>(w, b);
        break;
      case RequestKind::kInsert:
        w->U32(id_);
        PutBox<D>(w, box_);
        break;
      case RequestKind::kErase:
        w->U32(id_);
        break;
      case RequestKind::kStats:
      case RequestKind::kSnapshot:
      case RequestKind::kPing:
        break;
    }
  }

  /// Decodes one request from `r`, validating through the `Try*` factories:
  /// unknown kinds/tags/predicates, non-finite coordinates, k == 0, empty
  /// plans, hostile counts and truncation all yield `std::nullopt` with `r`
  /// in its sticky-failed state or mid-buffer — callers that require exact
  /// framing check `r->ok()` and `r->remaining()`.
  static std::optional<Request> TryParse(ByteReader* r) {
    const std::uint8_t kind_byte = r->U8();
    const std::uint64_t pin = r->U64();
    if (!r->ok()) return std::nullopt;
    std::optional<Request> out;
    switch (kind_byte) {
      case static_cast<std::uint8_t>(RequestKind::kQuery):
        out = ParseQuery(r);
        break;
      case static_cast<std::uint8_t>(RequestKind::kJoin): {
        const std::uint32_t n = r->U32();
        if (!r->ok() || n > kMaxRequestJoinStream ||
            n > r->remaining() / (2 * D * sizeof(Scalar))) {
          return std::nullopt;
        }
        std::vector<Box<D>> stream;
        stream.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) stream.push_back(GetBox<D>(r));
        if (!r->ok()) return std::nullopt;
        out = TryStreamJoin(std::move(stream));
        break;
      }
      case static_cast<std::uint8_t>(RequestKind::kInsert): {
        const ObjectId id = r->U32();
        const Box<D> box = GetBox<D>(r);
        if (!r->ok()) return std::nullopt;
        out = TryInsert(id, box);
        break;
      }
      case static_cast<std::uint8_t>(RequestKind::kErase): {
        const ObjectId id = r->U32();
        if (!r->ok()) return std::nullopt;
        out = MakeErase(id);
        break;
      }
      case static_cast<std::uint8_t>(RequestKind::kStats):
        out = MakeStats();
        break;
      case static_cast<std::uint8_t>(RequestKind::kSnapshot):
        out = MakeSnapshot();
        break;
      case static_cast<std::uint8_t>(RequestKind::kPing):
        out = MakePing();
        break;
      default:
        return std::nullopt;
    }
    if (!out) return std::nullopt;
    if (pin != 0 && !out->TryPinEpoch(pin)) return std::nullopt;
    return out;
  }

  /// Whole-buffer convenience: the encoding must consume `bytes` exactly.
  static std::optional<Request> TryParse(std::string_view bytes) {
    ByteReader r(bytes);
    auto out = TryParse(&r);
    if (!out || !r.ok() || r.remaining() != 0) return std::nullopt;
    return out;
  }

 private:
  // Wire tags for the query sum inside a kQuery body. Fixed independent of
  // the in-memory `QueryType` enum order so the wire format cannot drift
  // with a refactor.
  static constexpr std::uint8_t kTagRange = 1;
  static constexpr std::uint8_t kTagPoint = 2;
  static constexpr std::uint8_t kTagCount = 3;
  static constexpr std::uint8_t kTagKNearest = 4;
  static constexpr std::uint8_t kTagConjunction = 5;

  static void PutPoint(ByteWriter* w, const Point<D>& p) {
    for (int d = 0; d < D; ++d) w->F(p[d]);
  }

  static Point<D> GetPoint(ByteReader* r) {
    Point<D> p;
    for (int d = 0; d < D; ++d) p[d] = r->F();
    return p;
  }

  void SerializeQuery(ByteWriter* w) const {
    switch (query_.type()) {
      case QueryType::kRange:
        w->U8(kTagRange);
        w->U8(static_cast<std::uint8_t>(query_.predicate()));
        PutBox<D>(w, query_.box());
        break;
      case QueryType::kPoint:
        w->U8(kTagPoint);
        PutPoint(w, query_.point());
        break;
      case QueryType::kCount:
        w->U8(kTagCount);
        w->U8(static_cast<std::uint8_t>(query_.predicate()));
        PutBox<D>(w, query_.box());
        break;
      case QueryType::kKNearest:
        w->U8(kTagKNearest);
        PutPoint(w, query_.point());
        w->U64(query_.k());
        break;
      case QueryType::kConjunction: {
        w->U8(kTagConjunction);
        const std::vector<ConjunctiveTerm<D>>& terms = query_.terms();
        w->U32(static_cast<std::uint32_t>(terms.size()));
        for (const ConjunctiveTerm<D>& t : terms) {
          w->U8(static_cast<std::uint8_t>(t.predicate));
          PutBox<D>(w, t.box);
        }
        break;
      }
      case QueryType::kJoin:
        // Unreachable: TryQuery refuses joins.
        break;
    }
  }

  static std::optional<RangePredicate> ParsePredicate(ByteReader* r) {
    const std::uint8_t p = r->U8();
    if (!r->ok() || p > static_cast<std::uint8_t>(RangePredicate::kContainedBy))
      return std::nullopt;
    return static_cast<RangePredicate>(p);
  }

  static std::optional<Request> ParseQuery(ByteReader* r) {
    const std::uint8_t tag = r->U8();
    if (!r->ok()) return std::nullopt;
    std::optional<Query<D>> q;
    switch (tag) {
      case kTagRange: {
        const auto pred = ParsePredicate(r);
        const Box<D> box = GetBox<D>(r);
        if (!pred || !r->ok()) return std::nullopt;
        q = Query<D>::TryRange(box, *pred);
        break;
      }
      case kTagPoint: {
        const Point<D> p = GetPoint(r);
        if (!r->ok()) return std::nullopt;
        q = Query<D>::TryPoint(p);
        break;
      }
      case kTagCount: {
        const auto pred = ParsePredicate(r);
        const Box<D> box = GetBox<D>(r);
        if (!pred || !r->ok()) return std::nullopt;
        q = Query<D>::TryCount(box, *pred);
        break;
      }
      case kTagKNearest: {
        const Point<D> p = GetPoint(r);
        const std::uint64_t k = r->U64();
        if (!r->ok() || k > kMaxRequestK) return std::nullopt;
        q = Query<D>::TryKNearest(p, static_cast<std::size_t>(k));
        break;
      }
      case kTagConjunction: {
        const std::uint32_t n = r->U32();
        constexpr std::size_t kTermBytes = 1 + 2 * D * sizeof(Scalar);
        if (!r->ok() || n == 0 || n > kMaxRequestTerms ||
            n > r->remaining() / kTermBytes) {
          return std::nullopt;
        }
        std::vector<ConjunctiveTerm<D>> terms;
        terms.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          ConjunctiveTerm<D> t;
          const auto pred = ParsePredicate(r);
          t.box = GetBox<D>(r);
          if (!pred || !r->ok()) return std::nullopt;
          t.predicate = *pred;
          terms.push_back(t);
        }
        q = Query<D>::TryConjunction(std::move(terms));
        break;
      }
      default:
        return std::nullopt;
    }
    if (!q) return std::nullopt;
    return TryQuery(*std::move(q));
  }

  RequestKind kind_ = RequestKind::kQuery;
  Query<D> query_;
  std::vector<Box<D>> join_stream_;
  ObjectId id_ = 0;
  Box<D> box_;
  std::uint64_t pin_epoch_ = 0;
};

using Request2 = Request<2>;
using Request3 = Request<3>;

/// How a request concluded. Everything except `kOk` carries an empty body;
/// the status byte IS the typed error the wire contract promises for every
/// malformed or refused input.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,     ///< admission queue full; retry later
  kMalformed = 2,      ///< frame was sound but the request bytes were not
  kEpochMismatch = 3,  ///< pinned epoch no longer current (`epoch` = now)
  kUnsupported = 4,    ///< request valid, operation not available here
  kFailed = 5,         ///< operation attempted and failed (e.g. I/O)
};

inline const char* ResponseStatusName(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kOverloaded:
      return "overloaded";
    case ResponseStatus::kMalformed:
      return "malformed";
    case ResponseStatus::kEpochMismatch:
      return "epoch_mismatch";
    case ResponseStatus::kUnsupported:
      return "unsupported";
    case ResponseStatus::kFailed:
      return "failed";
  }
  return "?";
}

/// Parse-time cap mirroring `kMaxRequestJoinStream`: no response to a
/// request within the caps can exceed the id count of a full scan of the
/// largest population a u32 id space addresses, but a hostile length field
/// must still die in the parser, bounded by the actual bytes present.
template <int D>
struct Response {
  static_assert(sizeof(ObjectId) == 4, "the id array is a u32 array");

  ResponseStatus status = ResponseStatus::kOk;
  RequestKind kind = RequestKind::kPing;  ///< echo of the request kind
  std::uint64_t epoch = 0;  ///< store version observed at completion
  std::uint64_t count = 0;  ///< matches (kQuery) or pairs (kJoin)
  std::vector<ObjectId> ids;         ///< kQuery (empty for kCount queries)
  std::vector<IdPair> pairs;         ///< kJoin
  bool accepted = false;             ///< kInsert / kErase store verdict
  QueryStats stats;                  ///< kStats: merged work counters
  std::uint64_t live_count = 0;      ///< kStats: live population
  std::uint64_t snapshot_lsn = 0;    ///< kSnapshot: captured epoch

  /// Appends the canonical encoding: [u8 status][u8 kind][u64 epoch], then
  /// a kind-specific body only when `status == kOk`.
  void Serialize(ByteWriter* w) const {
    w->U8(static_cast<std::uint8_t>(status));
    w->U8(static_cast<std::uint8_t>(kind));
    w->U64(epoch);
    if (status != ResponseStatus::kOk) return;
    switch (kind) {
      case RequestKind::kQuery:
        w->U64(count);
        w->U32(static_cast<std::uint32_t>(ids.size()));
        // One append: `ByteWriter::U32` is a host-order memcpy, so the
        // array's bytes are the per-id encoding back to back.
        w->Bytes(ids.data(), ids.size() * sizeof(ObjectId));
        break;
      case RequestKind::kJoin:
        w->U64(count);
        w->U32(static_cast<std::uint32_t>(pairs.size()));
        for (const IdPair& p : pairs) {
          w->U32(p.first);
          w->U32(p.second);
        }
        break;
      case RequestKind::kInsert:
      case RequestKind::kErase:
        w->U8(accepted ? 1 : 0);
        break;
      case RequestKind::kStats:
        w->U64(stats.objects_tested);
        w->U64(stats.partitions_visited);
        w->U64(stats.cracks);
        w->U64(stats.objects_moved);
        w->U64(stats.duplicates_removed);
        w->U64(stats.intervals);
        w->U64(stats.bytes_scanned);
        w->U64(live_count);
        break;
      case RequestKind::kSnapshot:
        w->U64(snapshot_lsn);
        break;
      case RequestKind::kPing:
        break;
    }
  }

  static std::optional<Response> TryParse(ByteReader* r) {
    Response out;
    const std::uint8_t status_byte = r->U8();
    const std::uint8_t kind_byte = r->U8();
    out.epoch = r->U64();
    if (!r->ok() ||
        status_byte > static_cast<std::uint8_t>(ResponseStatus::kFailed) ||
        kind_byte < static_cast<std::uint8_t>(RequestKind::kQuery) ||
        kind_byte > static_cast<std::uint8_t>(RequestKind::kPing)) {
      return std::nullopt;
    }
    out.status = static_cast<ResponseStatus>(status_byte);
    out.kind = static_cast<RequestKind>(kind_byte);
    if (out.status != ResponseStatus::kOk) return out;
    switch (out.kind) {
      case RequestKind::kQuery: {
        out.count = r->U64();
        const std::uint32_t n = r->U32();
        if (!r->ok() || n > r->remaining() / sizeof(ObjectId)) {
          return std::nullopt;
        }
        out.ids.resize(n);
        r->Bytes(out.ids.data(), n * sizeof(ObjectId));
        break;
      }
      case RequestKind::kJoin: {
        out.count = r->U64();
        const std::uint32_t n = r->U32();
        if (!r->ok() || n > r->remaining() / 8) return std::nullopt;
        out.pairs.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const ObjectId left = r->U32();
          const ObjectId right = r->U32();
          out.pairs.emplace_back(left, right);
        }
        break;
      }
      case RequestKind::kInsert:
      case RequestKind::kErase:
        out.accepted = r->U8() != 0;
        break;
      case RequestKind::kStats:
        out.stats.objects_tested = r->U64();
        out.stats.partitions_visited = r->U64();
        out.stats.cracks = r->U64();
        out.stats.objects_moved = r->U64();
        out.stats.duplicates_removed = r->U64();
        out.stats.intervals = r->U64();
        out.stats.bytes_scanned = r->U64();
        out.live_count = r->U64();
        break;
      case RequestKind::kSnapshot:
        out.snapshot_lsn = r->U64();
        break;
      case RequestKind::kPing:
        break;
    }
    if (!r->ok()) return std::nullopt;
    return out;
  }

  static std::optional<Response> TryParse(std::string_view bytes) {
    ByteReader r(bytes);
    auto out = TryParse(&r);
    if (!out || !r.ok() || r.remaining() != 0) return std::nullopt;
    return out;
  }
};

using Response2 = Response<2>;
using Response3 = Response<3>;

/// Optional capabilities the execution environment grants a request —
/// everything `ExecuteRequest` cannot do with just the index. Absent hooks
/// make the corresponding admin op answer `kUnsupported`.
template <int D>
struct RequestHooks {
  /// kSnapshot handler: capture a durable snapshot of `index`, fill the
  /// captured LSN, return success. Wired to `persist::WriteSnapshot` by the
  /// server; absent in bare in-process replay unless the caller provides it.
  std::function<bool(SpatialIndex<D>&, std::uint64_t*)> snapshot_now;
};

/// The single execution entry point behind every transport: the server's
/// exec thread, in-process replay, and tests all funnel here, so a request
/// means the same thing no matter how it arrived. Not thread-safe with
/// respect to `index` stats/epoch reads — callers serialize requests per
/// index (the server runs every request on its one exec thread). Which lock
/// a read takes is the index's own decision inside `Execute`.
template <int D>
Response<D> ExecuteRequest(SpatialIndex<D>* index, const Request<D>& req,
                           const RequestHooks<D>* hooks = nullptr) {
  Response<D> resp;
  resp.kind = req.kind();
  if (req.pin_epoch() != 0 &&
      index->store().version() != req.pin_epoch()) {
    resp.status = ResponseStatus::kEpochMismatch;
    resp.epoch = index->store().version();
    return resp;
  }
  switch (req.kind()) {
    case RequestKind::kQuery:
      if (req.query().type() == QueryType::kCount) {
        CountSink sink;
        index->Execute(req.query(), sink);
        resp.count = sink.count();
      } else {
        VectorSink sink(&resp.ids);
        index->Execute(req.query(), sink);
        resp.count = resp.ids.size();
      }
      break;
    case RequestKind::kJoin: {
      const Query<D> join = Query<D>::MakeJoin(req.join_stream());
      VectorPairSink sink(&resp.pairs);
      index->Execute(join, sink);
      resp.count = resp.pairs.size();
      break;
    }
    case RequestKind::kInsert:
      resp.accepted = index->Insert(req.id(), req.box());
      break;
    case RequestKind::kErase:
      resp.accepted = index->Erase(req.id());
      break;
    case RequestKind::kStats:
      resp.stats = index->stats();
      resp.live_count = index->store().live_count();
      break;
    case RequestKind::kSnapshot: {
      if (hooks == nullptr || !hooks->snapshot_now) {
        resp.status = ResponseStatus::kUnsupported;
        break;
      }
      std::uint64_t lsn = 0;
      if (!hooks->snapshot_now(*index, &lsn)) {
        resp.status = ResponseStatus::kFailed;
        break;
      }
      resp.snapshot_lsn = lsn;
      break;
    }
    case RequestKind::kPing:
      break;
  }
  resp.epoch = index->store().version();
  return resp;
}

/// FNV-1a fold step — the checksum primitive shared by the replay
/// determinism machinery (response-stream checksums client-side, final
/// index-content checksums server-side).
inline std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Folds a byte string into a running FNV-1a hash.
inline std::uint64_t FnvBytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = FnvMix(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

/// Deterministic digest of an index's observable content: the store's
/// mutation epoch plus every live (id, box) pair in id order. Two indexes
/// that processed the same accepted mutation sequence agree bit-for-bit,
/// which is the "final index checksum" the replay gate compares.
template <int D>
std::uint64_t IndexContentChecksum(const SpatialIndex<D>& index) {
  const ObjectStore<D>& store = index.store();
  std::uint64_t h = kFnvBasis;
  h = FnvMix(h, store.version());
  h = FnvMix(h, store.live_count());
  store.ForEachLive([&h](ObjectId id, const Box<D>& b) {
    h = FnvMix(h, id);
    for (int d = 0; d < D; ++d) {
      std::uint32_t lo_bits, hi_bits;
      static_assert(sizeof(Scalar) == 4, "checksum assumes 32-bit Scalar");
      const Scalar lo = b.lo[d];
      const Scalar hi = b.hi[d];
      std::memcpy(&lo_bits, &lo, 4);
      std::memcpy(&hi_bits, &hi, 4);
      h = FnvMix(h, (static_cast<std::uint64_t>(lo_bits) << 32) | hi_bits);
    }
  });
  return h;
}

}  // namespace quasii

#endif  // QUASII_COMMON_REQUEST_H_
