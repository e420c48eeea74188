// Serving-layer suite (src/server/ + src/common/request.h): typed request
// envelope round trips and rejection cases, the CRC-framed wire codec's
// torn/corrupt/oversized/fuzz behavior over real socketpairs through both
// `ReadFrame` and the burst `FrameReader` (every malformed input is a typed
// error, never UB — the ASan/UBSan CI job runs this file too),
// a `ParallelFor` batch vs direct execution, `ExecuteRequest` against
// direct-execution oracles, epoch-pinned snapshot reads, workload
// record/replay determinism in-process AND over the socket, admission
// control, and the exec thread's drained runs.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/workload.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/request.h"
#include "common/rng.h"
#include "common/spatial_index.h"
#include "common/task_scheduler.h"
#include "geometry/box.h"
#include "persist/snapshot.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/recorder.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::ByteReader;
using quasii::ByteWriter;
using quasii::Dataset3;
using quasii::ExecuteRequest;
using quasii::FnvBytes;
using quasii::IndexContentChecksum;
using quasii::kFnvBasis;
using quasii::ObjectId;
using quasii::Point;
using quasii::RangePredicate;
using quasii::QuasiiIndex;
using quasii::Query3;
using quasii::QueryType;
using quasii::Request;
using quasii::Request3;
using quasii::RequestHooks;
using quasii::RequestKind;
using quasii::Response;
using quasii::ResponseStatus;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::SpatialIndex;
using quasii::server::ClientReply;
using quasii::server::FrameReader;
using quasii::server::QueryServer;
using quasii::server::ReadFrame;
using quasii::server::ReadWorkloadLog;
using quasii::server::ReplayWorkload;
using quasii::server::WireClient;
using quasii::server::WireError;
using quasii::server::WorkloadRecorder;
using quasii::server::WriteFrame;

// ---------------------------------------------------------------------------
// Deterministic inputs

std::string TempPath(const std::string& name) {
  static std::string dir = [] {
    char tmpl[] = "/tmp/quasii_server_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    CHECK(made != nullptr);
    return std::string(made);
  }();
  return dir + "/" + name;
}

Box3 MakeBox(Scalar lo0, Scalar hi0) {
  Box3 b;
  for (int d = 0; d < 3; ++d) {
    b.lo[d] = lo0;
    b.hi[d] = hi0;
  }
  return b;
}

Dataset3 MakeData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset3 data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const double lo = rng.Uniform(0.0, 95.0);
      b.lo[d] = static_cast<Scalar>(lo);
      b.hi[d] = static_cast<Scalar>(lo + rng.Uniform(0.5, 5.0));
    }
    data.push_back(b);
  }
  return data;
}

std::string SerializeRequest(const Request3& req) {
  std::string out;
  ByteWriter w(&out);
  req.Serialize(&w);
  return out;
}

std::string SerializeResponse(const Response<3>& resp) {
  std::string out;
  ByteWriter w(&out);
  resp.Serialize(&w);
  return out;
}

/// The full request menu, one of each kind/query-tag, used by round-trip
/// and transport tests.
std::vector<Request3> RequestMenu() {
  std::vector<Request3> menu;
  menu.push_back(Request3::MakeQuery(quasii::RangeQuery<3>(MakeBox(10, 30))));
  menu.push_back(Request3::MakeQuery(
      Query3::MakeRange(MakeBox(20, 60), RangePredicate::kContains)));
  Point<3> p;
  for (int d = 0; d < 3; ++d) p.coords[d] = 42;
  menu.push_back(Request3::MakeQuery(quasii::PointQuery<3>(p)));
  menu.push_back(Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(5, 50))));
  menu.push_back(Request3::MakeQuery(quasii::KNearestQuery<3>(p, 7)));
  menu.push_back(Request3::MakeQuery(quasii::ConjunctiveQuery<3>(
      {{MakeBox(0, 70), RangePredicate::kIntersects},
       {MakeBox(10, 60), RangePredicate::kIntersects}})));
  auto join = Request3::TryStreamJoin({MakeBox(10, 20), MakeBox(40, 55)});
  CHECK(join.has_value());
  menu.push_back(*join);
  auto insert = Request3::TryInsert(9001, MakeBox(33, 34));
  CHECK(insert.has_value());
  menu.push_back(*insert);
  menu.push_back(Request3::MakeErase(17));
  menu.push_back(Request3::MakeStats());
  menu.push_back(Request3::MakeSnapshot());
  menu.push_back(Request3::MakePing());
  return menu;
}

// ---------------------------------------------------------------------------
// Request/Response codec

void TestRequestRoundTrip() {
  for (const Request3& req : RequestMenu()) {
    const std::string bytes = SerializeRequest(req);
    auto parsed = Request3::TryParse(std::string_view(bytes));
    CHECK(parsed.has_value());
    CHECK_EQ(SerializeRequest(*parsed), bytes);
    CHECK(parsed->kind() == req.kind());
  }
  // Pinned variants of the pinnable reads (kQuery/kJoin — admin reads
  // carry no data to pin) round-trip with the pin intact.
  for (Request3 req : RequestMenu()) {
    if (req.kind() != RequestKind::kQuery &&
        req.kind() != RequestKind::kJoin) {
      continue;
    }
    CHECK(req.TryPinEpoch(123456789));
    const std::string bytes = SerializeRequest(req);
    auto parsed = Request3::TryParse(std::string_view(bytes));
    CHECK(parsed.has_value());
    CHECK_EQ(parsed->pin_epoch(), 123456789u);
    CHECK_EQ(SerializeRequest(*parsed), bytes);
  }
}

void TestRequestFactoryRejects() {
  // Join queries cannot ride in a kQuery request (they borrow an index).
  Dataset3 data = MakeData(8, 1);
  ScanIndex<3> other(data);
  auto join_query = Query3::TryJoin(&other);
  CHECK(join_query.has_value());
  CHECK(!Request3::TryQuery(*join_query).has_value());

  // Non-finite geometry is refused by the Try* factories.
  Box3 nan_box = MakeBox(0, 1);
  nan_box.lo[1] = std::numeric_limits<Scalar>::quiet_NaN();
  CHECK(!Query3::TryRange(nan_box, RangePredicate::kIntersects).has_value());
  CHECK(!Query3::TryCount(nan_box, RangePredicate::kIntersects).has_value());
  Point<3> nan_point;
  nan_point.coords[0] = std::numeric_limits<Scalar>::infinity();
  CHECK(!Query3::TryPoint(nan_point).has_value());
  CHECK(!Query3::TryKNearest(nan_point, 5).has_value());
  CHECK(!Request3::TryStreamJoin({MakeBox(0, 1), nan_box}).has_value());
  CHECK(!Request3::TryInsert(1, nan_box).has_value());
  Box3 empty;  // default box is empty
  CHECK(!Request3::TryInsert(1, empty).has_value());

  // Pins apply to reads only, and zero is not a valid epoch.
  Request3 read = Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(0, 1)));
  CHECK(!read.TryPinEpoch(0));
  CHECK(read.TryPinEpoch(7));
  Request3 write = *Request3::TryInsert(5, MakeBox(0, 1));
  CHECK(!write.TryPinEpoch(7));
  Request3 admin = Request3::MakeStats();
  CHECK(!admin.TryPinEpoch(7));
}

void TestRequestParseRejects() {
  const std::string good =
      SerializeRequest(Request3::MakeQuery(quasii::RangeQuery<3>(
          MakeBox(1, 2))));

  // Every strict prefix must be rejected, never crash.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    CHECK(!Request3::TryParse(std::string_view(good.data(), cut))
               .has_value());
  }
  // Trailing garbage is rejected by the whole-buffer parse.
  CHECK(!Request3::TryParse(good + "x").has_value());

  auto corrupt_byte = [&](std::size_t at, char value) {
    std::string bad = good;
    bad[at] = value;
    return Request3::TryParse(std::string_view(bad));
  };
  // Unknown request kind.
  CHECK(!corrupt_byte(0, 99).has_value());
  // Unknown query tag (byte 9: after kind + u64 pin).
  CHECK(!corrupt_byte(9, 99).has_value());
  // Unknown predicate (byte 10).
  CHECK(!corrupt_byte(10, 99).has_value());

  // k = 0 kNN refuses at parse as at construction.
  Point<3> p;
  for (int d = 0; d < 3; ++d) p.coords[d] = 1;
  std::string knn =
      SerializeRequest(Request3::MakeQuery(quasii::KNearestQuery<3>(p, 3)));
  // k is the trailing u64; zero it.
  for (std::size_t i = knn.size() - 8; i < knn.size(); ++i) knn[i] = 0;
  CHECK(!Request3::TryParse(std::string_view(knn)).has_value());

  // A pinned mutation on the wire is rejected (pins are read-only).
  std::string pinned_insert =
      SerializeRequest(*Request3::TryInsert(3, MakeBox(0, 1)));
  pinned_insert[1] = 1;  // low byte of the little-endian pin field
  CHECK(!Request3::TryParse(std::string_view(pinned_insert)).has_value());

  // NaN geometry on the wire is rejected even though the frame is intact.
  std::string nan_range = good;
  const std::uint32_t nan_bits = 0x7FC00000u;
  std::memcpy(nan_range.data() + 11, &nan_bits, 4);
  CHECK(!Request3::TryParse(std::string_view(nan_range)).has_value());

  // A hostile element count cannot drive allocation past the buffer.
  std::string huge_join;
  {
    ByteWriter w(&huge_join);
    w.U8(static_cast<std::uint8_t>(RequestKind::kJoin));
    w.U64(0);
    w.U32(0x7FFFFFFFu);  // claims ~2B boxes, carries none
  }
  CHECK(!Request3::TryParse(std::string_view(huge_join)).has_value());
}

void TestResponseRoundTrip() {
  Response<3> resp;
  resp.status = ResponseStatus::kOk;
  resp.kind = RequestKind::kQuery;
  resp.epoch = 42;
  resp.ids = {3, 1, 4, 1, 5};
  resp.count = resp.ids.size();
  const std::string bytes = SerializeResponse(resp);
  auto parsed = Response<3>::TryParse(std::string_view(bytes));
  CHECK(parsed.has_value());
  CHECK_EQ(SerializeResponse(*parsed), bytes);
  CHECK(parsed->ids == resp.ids);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    CHECK(!Response<3>::TryParse(std::string_view(bytes.data(), cut))
               .has_value());
  }
  std::string bad_status = bytes;
  bad_status[0] = 99;
  CHECK(!Response<3>::TryParse(std::string_view(bad_status)).has_value());
  std::string bad_kind = bytes;
  bad_kind[1] = 0;
  CHECK(!Response<3>::TryParse(std::string_view(bad_kind)).has_value());
}

void TestRequestFuzz() {
  // Random byte soup must always be a typed rejection or a value that
  // re-serializes canonically — and never UB (the sanitizer job enforces
  // the "never" part).
  Rng rng(0xF00D);
  std::string bytes;
  for (int iter = 0; iter < 5000; ++iter) {
    const std::size_t len =
        static_cast<std::size_t>(rng.Uniform(0.0, 64.0));
    bytes.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[i] = static_cast<char>(
          static_cast<int>(rng.Uniform(0.0, 256.0)));
    }
    auto parsed = Request3::TryParse(std::string_view(bytes));
    if (parsed.has_value()) {
      auto reparsed =
          Request3::TryParse(std::string_view(SerializeRequest(*parsed)));
      CHECK(reparsed.has_value());
    }
    auto resp = Response<3>::TryParse(std::string_view(bytes));
    if (resp.has_value()) {
      CHECK(Response<3>::TryParse(
                std::string_view(SerializeResponse(*resp)))
                .has_value());
    }
  }
}

// ---------------------------------------------------------------------------
// Wire frame codec over real socketpairs

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  int ReleaseA() {
    const int fd = a;
    a = -1;
    return fd;
  }
};

void TestFrameRoundTrip() {
  SocketPair sp;
  const std::string payloads[] = {"", "x", std::string(100000, 'q')};
  for (const std::string& payload : payloads) {
    CHECK(WriteFrame(sp.a, payload));
    std::string got;
    CHECK(ReadFrame(sp.b, &got) == WireError::kNone);
    CHECK(got == payload);
  }
  ::close(sp.a);
  sp.a = -1;
  std::string got;
  CHECK(ReadFrame(sp.b, &got) == WireError::kClosed);
}

/// Reads one frame from `fd` either way a frame can be read: `ReadFrame`,
/// or a fresh `FrameReader`. Both must give the same typed outcomes.
std::vector<std::function<WireError(int, std::string*)>> FrameReadPaths() {
  return {[](int fd, std::string* got) { return ReadFrame(fd, got); },
          [](int fd, std::string* got) {
            FrameReader reader(fd);
            std::string_view view;
            const WireError err = reader.Next(&view);
            got->assign(view);
            return err;
          }};
}

void TestFrameTornAndCorrupt() {
  for (const auto& read : FrameReadPaths()) {
    {  // EOF between frames
      SocketPair sp;
      ::close(sp.a);
      sp.a = -1;
      std::string got;
      CHECK(read(sp.b, &got) == WireError::kClosed);
    }
    {  // EOF inside the header
      SocketPair sp;
      const char partial[3] = {1, 2, 3};
      CHECK(quasii::server::WriteFull(sp.a, partial, sizeof(partial)));
      ::close(sp.a);
      sp.a = -1;
      std::string got;
      CHECK(read(sp.b, &got) == WireError::kTorn);
    }
    {  // EOF inside the payload
      SocketPair sp;
      std::string frame;
      ByteWriter w(&frame);
      w.U32(100);  // promises 100 payload bytes
      w.U32(0);
      w.Bytes("short", 5);
      CHECK(quasii::server::WriteFull(sp.a, frame.data(), frame.size()));
      ::close(sp.a);
      sp.a = -1;
      std::string got;
      CHECK(read(sp.b, &got) == WireError::kTorn);
    }
    {  // flipped payload byte -> CRC mismatch
      SocketPair sp;
      std::string frame;
      ByteWriter w(&frame);
      const std::string payload = "hello frames";
      w.U32(static_cast<std::uint32_t>(payload.size()));
      w.U32(quasii::persist::Crc32c(payload.data(), payload.size()));
      std::string damaged = payload;
      damaged[4] ^= 0x20;
      w.Bytes(damaged.data(), damaged.size());
      CHECK(quasii::server::WriteFull(sp.a, frame.data(), frame.size()));
      std::string got;
      CHECK(read(sp.b, &got) == WireError::kBadCrc);
    }
    {  // hostile length field -> typed oversize, no allocation storm
      SocketPair sp;
      std::string header;
      ByteWriter w(&header);
      w.U32(0xFFFFFFFFu);
      w.U32(0);
      CHECK(quasii::server::WriteFull(sp.a, header.data(), header.size()));
      std::string got;
      CHECK(read(sp.b, &got) == WireError::kOversized);
    }
  }
}

void TestFrameReaderBurst() {
  // 50 frames in one write: one reader hands back every one, in order, and
  // says a whole frame is buffered before each but the first.
  SocketPair sp;
  std::string burst;
  for (int i = 0; i < 50; ++i) {
    const std::size_t at = quasii::server::BeginFrame(&burst);
    burst.append(static_cast<std::size_t>(i * 7),
                 static_cast<char>('a' + i % 26));
    quasii::server::EndFrame(&burst, at);
  }
  CHECK(quasii::server::WriteFull(sp.a, burst.data(), burst.size()));
  ::close(sp.a);
  sp.a = -1;
  FrameReader reader(sp.b);
  CHECK(!reader.Buffered());
  std::string_view got;
  for (int i = 0; i < 50; ++i) {
    if (i > 0) CHECK(reader.Buffered());
    CHECK(reader.Next(&got) == WireError::kNone);
    CHECK(got == std::string(static_cast<std::size_t>(i * 7),
                             static_cast<char>('a' + i % 26)));
  }
  CHECK(!reader.Buffered());
  CHECK(reader.Next(&got) == WireError::kClosed);
}

void TestFrameReaderByteAtATime() {
  // One frame dribbled in a byte per send, larger than the reader's first
  // buffer: the reader waits out every partial header and payload and
  // returns it whole, then the next frame behind it.
  SocketPair sp;
  std::string frames;
  const std::string big(100000, 'z');
  for (const std::string& payload : {std::string("dribbled frame"), big}) {
    const std::size_t at = quasii::server::BeginFrame(&frames);
    frames.append(payload);
    quasii::server::EndFrame(&frames, at);
  }
  const std::size_t first = quasii::server::kFrameHeaderBytes + 14;
  std::thread writer([&] {
    for (std::size_t i = 0; i < first; ++i) {
      CHECK(quasii::server::WriteFull(sp.a, frames.data() + i, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    CHECK(quasii::server::WriteFull(sp.a, frames.data() + first,
                                    frames.size() - first));
  });
  FrameReader reader(sp.b);
  std::string_view got;
  CHECK(reader.Next(&got) == WireError::kNone);
  CHECK(got == "dribbled frame");
  CHECK(reader.Next(&got) == WireError::kNone);
  CHECK(got == big);
  writer.join();
}

void TestFrameFuzz() {
  // Garbage streams of every flavor must come back as SOME typed error (or
  // a valid frame in the astronomically unlikely CRC-collision case) —
  // never a hang, crash, or unbounded allocation — through either reader.
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len =
        static_cast<std::size_t>(rng.Uniform(0.0, 200.0));
    std::string junk(len, '\0');
    for (std::size_t i = 0; i < len; ++i) {
      junk[i] = static_cast<char>(static_cast<int>(rng.Uniform(0.0, 256.0)));
    }
    // Keep claimed lengths small-ish so the in-cap reads hit EOF quickly.
    if (len >= 4) junk[3] = 0;
    {
      SocketPair sp;
      CHECK(quasii::server::WriteFull(sp.a, junk.data(), junk.size()));
      ::close(sp.a);
      sp.a = -1;
      std::string got;
      while (ReadFrame(sp.b, &got) == WireError::kNone) {
      }
    }
    {
      SocketPair sp;
      CHECK(quasii::server::WriteFull(sp.a, junk.data(), junk.size()));
      ::close(sp.a);
      sp.a = -1;
      FrameReader reader(sp.b);
      std::string_view got;
      while (reader.Next(&got) == WireError::kNone) {
      }
    }
  }
}

void TestParallelBatchMatchesDirectExecution() {
  Dataset3 data = MakeData(400, 3);
  ScanIndex<3> index(data);
  std::vector<quasii::Query<3>> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(
        quasii::RangeQuery<3>(MakeBox(static_cast<Scalar>(i), 60)));
  }
  quasii::TaskScheduler scheduler(2);
  std::vector<std::vector<ObjectId>> results(queries.size());
  quasii::ParallelFor(&scheduler, 0, queries.size(), 6,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          quasii::VectorSink sink(&results[i]);
                          index.Execute(queries[i], sink);
                        }
                      });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::vector<ObjectId> direct;
    quasii::VectorSink sink(&direct);
    index.Execute(queries[i], sink);
    CHECK(results[i] == direct);
  }
}

// ---------------------------------------------------------------------------
// ExecuteRequest semantics

void TestExecuteRequestOracle() {
  Dataset3 data = MakeData(600, 5);
  QuasiiIndex<3> index(data);
  QuasiiIndex<3> oracle(data);
  for (const Request3& req : RequestMenu()) {
    if (req.kind() == RequestKind::kSnapshot) continue;  // needs hooks
    const Response<3> got = ExecuteRequest<3>(&index, req);
    const Response<3> want = ExecuteRequest<3>(&oracle, req);
    CHECK_EQ(SerializeResponse(got), SerializeResponse(want));
    CHECK(got.status == ResponseStatus::kOk);
  }
  // Spot-check a query against the raw engine.
  std::vector<ObjectId> direct;
  quasii::VectorSink sink(&direct);
  const auto q = quasii::RangeQuery<3>(MakeBox(10, 30));
  oracle.Execute(q, sink);
  const Response<3> resp =
      ExecuteRequest<3>(&index, Request3::MakeQuery(q));
  CHECK(resp.ids == direct);
}

void TestEpochPinning() {
  Dataset3 data = MakeData(100, 6);
  ScanIndex<3> index(data);
  // A fresh store sits at epoch 0 — the unpinned sentinel — so move it
  // first; every pinnable epoch is a post-mutation one.
  CHECK(ExecuteRequest<3>(&index, *Request3::TryInsert(40000, MakeBox(2, 4)))
            .accepted);
  const std::uint64_t epoch = index.store().version();
  CHECK_GT(epoch, 0u);

  Request3 pinned = Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(0, 99)));
  CHECK(pinned.TryPinEpoch(epoch));
  Response<3> ok = ExecuteRequest<3>(&index, pinned);
  CHECK(ok.status == ResponseStatus::kOk);
  CHECK_EQ(ok.epoch, epoch);

  // A mutation moves the epoch; the stale pin now refuses with the current
  // epoch so the client can re-pin.
  CHECK(ExecuteRequest<3>(&index, *Request3::TryInsert(50000, MakeBox(1, 2)))
            .accepted);
  Response<3> stale = ExecuteRequest<3>(&index, pinned);
  CHECK(stale.status == ResponseStatus::kEpochMismatch);
  CHECK_EQ(stale.epoch, index.store().version());
  CHECK_NE(stale.epoch, epoch);

  Request3 repinned =
      Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(0, 99)));
  CHECK(repinned.TryPinEpoch(stale.epoch));
  CHECK(ExecuteRequest<3>(&index, repinned).status == ResponseStatus::kOk);
}

void TestSnapshotHook() {
  Dataset3 data = MakeData(120, 7);
  ScanIndex<3> index(data);
  // No hooks: typed kUnsupported, not a crash.
  CHECK(ExecuteRequest<3>(&index, Request3::MakeSnapshot()).status ==
        ResponseStatus::kUnsupported);

  const std::string path = TempPath("hook.snapshot");
  RequestHooks<3> hooks;
  hooks.snapshot_now = [&path](SpatialIndex<3>& idx, std::uint64_t* lsn) {
    if (quasii::persist::WriteSnapshot<3>(idx, path) !=
        quasii::persist::PersistError::kNone) {
      return false;
    }
    *lsn = idx.store().version();
    return true;
  };
  const Response<3> resp =
      ExecuteRequest<3>(&index, Request3::MakeSnapshot(), &hooks);
  CHECK(resp.status == ResponseStatus::kOk);
  CHECK_EQ(resp.snapshot_lsn, index.store().version());
  const auto snap = quasii::persist::ReadSnapshot<3>(path);
  CHECK(snap.exists);
  CHECK(snap.error == quasii::persist::PersistError::kNone);
  CHECK_EQ(snap.lsn, resp.snapshot_lsn);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Workload log + in-process replay

/// A small mixed read/write stream through the bench generator — the same
/// typed requests the server records.
std::vector<Request3> MixedOps(std::size_t n_data, int count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Box3> boxes;
  for (int i = 0; i < count; ++i) {
    Box3 b;
    for (int d = 0; d < 3; ++d) {
      const double lo = rng.Uniform(0.0, 80.0);
      b.lo[d] = static_cast<Scalar>(lo);
      b.hi[d] = static_cast<Scalar>(lo + rng.Uniform(2.0, 15.0));
    }
    boxes.push_back(b);
  }
  quasii::bench::WorkloadSpec spec;
  spec.mix.range = 0.5;
  spec.mix.point = 0.1;
  spec.mix.count = 0.15;
  spec.mix.knn = 0.05;
  spec.mix.insert = 0.12;
  spec.mix.erase = 0.08;
  spec.seed = seed + 2;
  return quasii::bench::MakeOpWorkload<3>(boxes, spec, n_data);
}

void TestWorkloadLogRoundTrip() {
  const std::string path = TempPath("roundtrip.workload");
  const std::vector<Request3> ops = MixedOps(200, 60, 11);
  {
    WorkloadRecorder<3> rec;
    CHECK(rec.Open(path) == quasii::persist::PersistError::kNone);
    std::uint64_t client = 0;
    for (const Request3& op : ops) {
      CHECK(rec.Append(client++ % 3, 1, op) ==
            quasii::persist::PersistError::kNone);
    }
    CHECK_EQ(rec.records(), ops.size());
    rec.Close();
  }
  auto log = ReadWorkloadLog<3>(path);
  CHECK(log.exists);
  CHECK(log.error == quasii::persist::PersistError::kNone);
  CHECK(!log.truncated_tail);
  CHECK_EQ(log.records.size(), ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    CHECK_EQ(log.records[i].client, i % 3);
    CHECK_EQ(log.records[i].target, 1);
    CHECK_EQ(SerializeRequest(log.records[i].request),
             SerializeRequest(ops[i]));
  }

  // Torn tail: chop mid-frame; the intact prefix still replays.
  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() - 5));
  }
  auto torn = ReadWorkloadLog<3>(path);
  CHECK(torn.error == quasii::persist::PersistError::kNone);
  CHECK(torn.truncated_tail);
  CHECK_EQ(torn.records.size(), ops.size() - 1);

  // A mid-log bit flip is corruption, refused with a typed error.
  {
    std::string damaged = raw;
    damaged[damaged.size() / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }
  auto bad = ReadWorkloadLog<3>(path);
  CHECK(bad.error == quasii::persist::PersistError::kWalRecordCorrupt);

  // Header damage is typed too.
  {
    std::string damaged = raw;
    damaged[0] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }
  CHECK(ReadWorkloadLog<3>(path).error ==
        quasii::persist::PersistError::kBadMagic);

  // A crash inside `Open` leaves an empty file or a partial header. As with
  // the WAL, that reads as an empty log, not as an error.
  for (const std::size_t size : {std::size_t{0}, std::size_t{7}}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(raw.data(), static_cast<std::streamsize>(size));
    }
    auto residue = ReadWorkloadLog<3>(path);
    CHECK(residue.exists);
    CHECK(residue.error == quasii::persist::PersistError::kNone);
    CHECK_EQ(residue.truncated_tail, size > 0);
    CHECK(residue.records.empty());
  }
  std::remove(path.c_str());
}

void TestInProcessReplayDeterminism() {
  const std::string path = TempPath("replay.workload");
  const std::size_t n = 300;
  Dataset3 data = MakeData(n, 13);
  const std::vector<Request3> ops = MixedOps(n, 80, 13);
  {
    WorkloadRecorder<3> rec;
    CHECK(rec.Open(path) == quasii::persist::PersistError::kNone);
    for (const Request3& op : ops) {
      CHECK(rec.Append(1, 0, op) == quasii::persist::PersistError::kNone);
    }
    rec.Close();
  }
  auto log = ReadWorkloadLog<3>(path);
  CHECK(log.error == quasii::persist::PersistError::kNone);

  auto run_once = [&] {
    ScanIndex<3> scan(data);
    QuasiiIndex<3> quasii_idx(data);
    std::vector<SpatialIndex<3>*> roster = {&scan, &quasii_idx};
    // Only target 0 was recorded, but the roster shape matches the server's.
    return ReplayWorkload<3>(std::span<SpatialIndex<3>* const>(roster),
                             log.records);
  };
  const auto first = run_once();
  const auto second = run_once();
  CHECK(first.ok);
  CHECK(second.ok);
  CHECK_EQ(first.requests, ops.size());
  CHECK_EQ(first.response_checksum, second.response_checksum);
  CHECK(first.index_checksums == second.index_checksums);

  // Out-of-roster target: typed refusal.
  auto bad_records = log.records;
  bad_records.front().target = 9;
  ScanIndex<3> scan(data);
  std::vector<SpatialIndex<3>*> roster = {&scan};
  const auto rejected = ReplayWorkload<3>(
      std::span<SpatialIndex<3>* const>(roster), bad_records);
  CHECK(!rejected.ok);
  CHECK(rejected.error == quasii::persist::PersistError::kReplayRejected);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end server over socketpairs

struct ServerFixture {
  Dataset3 data;
  ScanIndex<3> scan;
  QuasiiIndex<3> quasii_idx;
  QueryServer<3> server;
  WireClient<3> client;

  explicit ServerFixture(QueryServer<3>::Options options,
                         std::size_t n = 400, std::uint64_t seed = 21,
                         bool start = true)
      : data(MakeData(n, seed)),
        scan(data),
        quasii_idx(data),
        server({&scan, &quasii_idx}, options) {
    if (start) {
      std::string error;
      CHECK(server.Start(&error));
    }
    SocketPair sp;
    server.AddConnection(sp.ReleaseA());
    const int client_fd = sp.b;
    sp.b = -1;
    client.Adopt(client_fd);
    CHECK(client.Handshake());
  }
};

void TestServerEndToEnd() {
  ServerFixture fx({});
  // An oracle roster receives the identical request sequence in-process.
  Dataset3 data = MakeData(400, 21);
  ScanIndex<3> oracle_scan(data);
  QuasiiIndex<3> oracle_quasii(data);
  std::vector<SpatialIndex<3>*> oracle = {&oracle_scan, &oracle_quasii};

  for (std::uint8_t target = 0; target < 2; ++target) {
    for (const Request3& req : RequestMenu()) {
      if (req.kind() == RequestKind::kSnapshot) continue;  // no path set
      auto reply = fx.client.Call(target, req);
      CHECK(reply.has_value());
      const Response<3> want = ExecuteRequest<3>(oracle[target], req);
      CHECK_EQ(reply->body, SerializeResponse(want));
    }
  }
  // Snapshot without a configured path answers kUnsupported, typed.
  auto snap = fx.client.Call(0, Request3::MakeSnapshot());
  CHECK(snap.has_value());
  CHECK(snap->response.status == ResponseStatus::kUnsupported);

  fx.server.Stop();
  CHECK(fx.server.IndexChecksums() ==
        std::vector<std::uint64_t>({IndexContentChecksum(oracle_scan),
                                    IndexContentChecksum(oracle_quasii)}));
}

void TestServerMalformedInputs() {
  ServerFixture fx({});
  // Valid frame, garbage request bytes: typed kMalformed, connection lives.
  {
    std::string envelope;
    ByteWriter w(&envelope);
    w.U64(77);
    w.U8(0);
    w.U8(250);  // unknown request kind
    CHECK(WriteFrame(fx.client.fd(), envelope));
    auto reply = fx.client.Recv();
    CHECK(reply.has_value());
    CHECK_EQ(reply->seq, 77u);
    CHECK(reply->response.status == ResponseStatus::kMalformed);
  }
  // Out-of-roster target: also kMalformed, and the connection still works.
  {
    std::string envelope;
    ByteWriter w(&envelope);
    w.U64(78);
    w.U8(9);
    Request3::MakePing().Serialize(&w);
    CHECK(WriteFrame(fx.client.fd(), envelope));
    auto reply = fx.client.Recv();
    CHECK(reply.has_value());
    CHECK(reply->response.status == ResponseStatus::kMalformed);
  }
  auto ping = fx.client.Call(0, Request3::MakePing());
  CHECK(ping.has_value());
  CHECK(ping->response.status == ResponseStatus::kOk);

  // A corrupt frame is unrecoverable: the server drops the connection.
  {
    std::string frame;
    ByteWriter w(&frame);
    const std::string payload = "not a real envelope";
    w.U32(static_cast<std::uint32_t>(payload.size()));
    w.U32(quasii::persist::Crc32c(payload.data(), payload.size()) ^ 1);
    w.Bytes(payload.data(), payload.size());
    CHECK(quasii::server::WriteFull(fx.client.fd(), frame.data(),
                                    frame.size()));
    CHECK(!fx.client.Recv().has_value());
  }
  fx.server.Stop();
  const auto counters = fx.server.counters();
  CHECK_EQ(counters.malformed, 2u);
  CHECK_GE(counters.frame_errors, 1u);
}

void TestServerOverloadAndDrain() {
  // Exec thread deliberately NOT started: the queue fills to max_inflight,
  // the excess is refused with typed kOverloaded, and a late Start() drains
  // every accepted request — none is dropped.
  QueryServer<3>::Options options;
  options.max_inflight = 4;
  ServerFixture fx(options, 200, 23, /*start=*/false);
  const Request3 req =
      Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(0, 99)));
  const int total = 10;
  for (int i = 0; i < total; ++i) {
    CHECK(fx.client.Send(0, req).has_value());
  }
  // Overload rejections come back immediately, before any execution.
  int overloaded = 0;
  for (int i = 0; i < total - 4; ++i) {
    auto reply = fx.client.Recv();
    CHECK(reply.has_value());
    CHECK(reply->response.status == ResponseStatus::kOverloaded);
    ++overloaded;
  }
  std::string error;
  CHECK(fx.server.Start(&error));
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    auto reply = fx.client.Recv();
    CHECK(reply.has_value());
    CHECK(reply->response.status == ResponseStatus::kOk);
    ++ok;
  }
  fx.server.Stop();
  const auto counters = fx.server.counters();
  CHECK_EQ(counters.accepted, 4u);
  CHECK_EQ(counters.overloaded, static_cast<std::uint64_t>(overloaded));
  CHECK_EQ(ok, 4);
}

void TestServerDrainedRun() {
  // Delayed start again, under the cap: a mixed run queues up, then the exec
  // thread's first wake drains it as ONE run. Replies arrive in admission
  // order with bodies byte-identical to serial execution on a twin roster
  // (the pinned read sees the insert ahead of it in the run), the malformed
  // frame is refused at the reader, and the log replays to the same
  // checksums.
  const std::string path = TempPath("drained.workload");
  const std::size_t n = 500;
  const std::uint64_t seed = 29;
  QueryServer<3>::Options options;
  options.record_path = path;
  ServerFixture fx(options, n, seed, /*start=*/false);
  Dataset3 data = MakeData(n, seed);
  ScanIndex<3> twin_scan(data);
  QuasiiIndex<3> twin_quasii(data);
  std::vector<SpatialIndex<3>*> twin = {&twin_scan, &twin_quasii};

  struct Sent {
    std::uint8_t target;
    Request3 request;
  };
  std::vector<Sent> run;
  run.push_back({1, *Request3::TryInsert(70000, MakeBox(40, 42))});
  for (int i = 0; i < 12; ++i) {  // every fourth range goes to Scan
    run.push_back({static_cast<std::uint8_t>(i % 4 == 3 ? 0 : 1),
                   Request3::MakeQuery(quasii::RangeQuery<3>(
                       MakeBox(static_cast<Scalar>(i * 7 % 60), 70)))});
  }
  run.push_back(
      {1, Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(5, 50)))});
  Point<3> p;
  for (int d = 0; d < 3; ++d) p.coords[d] = 33;
  run.push_back({1, Request3::MakeQuery(quasii::KNearestQuery<3>(p, 9))});
  // The epoch before the second insert: a read pinned to it, queued behind
  // that insert, must be refused.
  Request3 pinned =
      Request3::MakeQuery(quasii::RangeQuery<3>(MakeBox(20, 40)));
  std::vector<std::string> want;
  for (const Sent& s : run) {
    want.push_back(
        SerializeResponse(ExecuteRequest<3>(twin[s.target], s.request)));
  }
  CHECK(pinned.TryPinEpoch(twin_quasii.store().version()));
  const std::vector<Sent> tail = {
      {1, *Request3::TryInsert(70001, MakeBox(60, 61))},
      {1, pinned},
      {1, Request3::MakeStats()}};
  for (const Sent& s : tail) {
    run.push_back(s);
    want.push_back(
        SerializeResponse(ExecuteRequest<3>(twin[s.target], s.request)));
  }
  CHECK(Response<3>::TryParse(std::string_view(want[want.size() - 2]))
            ->status == ResponseStatus::kEpochMismatch);

  for (const Sent& s : run) CHECK(fx.client.Send(s.target, s.request));
  // The malformed frame goes last: its refusal comes back from the reader,
  // after every frame ahead of it was admitted, before anything executes.
  std::string envelope;
  ByteWriter w(&envelope);
  w.U64(999);
  w.U8(1);
  w.U8(250);  // unknown request kind
  CHECK(WriteFrame(fx.client.fd(), envelope));
  auto refused = fx.client.Recv();
  CHECK(refused.has_value());
  CHECK_EQ(refused->seq, 999u);
  CHECK(refused->response.status == ResponseStatus::kMalformed);

  std::string error;
  CHECK(fx.server.Start(&error));
  std::uint64_t live_checksum = kFnvBasis;
  std::uint64_t expect_seq = 1;
  for (const std::string& body : want) {
    auto reply = fx.client.Recv();
    CHECK(reply.has_value());
    CHECK_EQ(reply->seq, expect_seq++);  // admission order preserved
    CHECK(reply->body == body);
    live_checksum = FnvBytes(live_checksum, reply->body);
  }
  fx.server.Stop();
  const auto counters = fx.server.counters();
  CHECK_EQ(counters.accepted, run.size());
  CHECK_EQ(counters.malformed, 1u);
  CHECK_EQ(counters.batches, 1u);
  CHECK_EQ(counters.batched_queries, run.size());
  CHECK(fx.server.IndexChecksums() ==
        std::vector<std::uint64_t>({IndexContentChecksum(twin_scan),
                                    IndexContentChecksum(twin_quasii)}));

  auto log = ReadWorkloadLog<3>(path);
  CHECK(log.error == quasii::persist::PersistError::kNone);
  CHECK_EQ(log.records.size(), run.size());
  ScanIndex<3> replay_scan(data);
  QuasiiIndex<3> replay_quasii(data);
  std::vector<SpatialIndex<3>*> roster = {&replay_scan, &replay_quasii};
  const auto replay = ReplayWorkload<3>(
      std::span<SpatialIndex<3>* const>(roster), log.records);
  CHECK(replay.ok);
  CHECK_EQ(replay.response_checksum, live_checksum);
  CHECK(replay.index_checksums == fx.server.IndexChecksums());
  std::remove(path.c_str());
}

void TestServerEpochPinningOverWire() {
  ServerFixture fx({});
  // Move the store off the unpinned-sentinel epoch 0 first.
  CHECK(fx.client.Call(0, *Request3::TryInsert(59999, MakeBox(2, 4)))
            ->response.accepted);
  auto stats = fx.client.Call(0, Request3::MakeStats());
  CHECK(stats.has_value());
  const std::uint64_t epoch = stats->response.epoch;
  CHECK_GT(epoch, 0u);

  Request3 pinned = Request3::MakeQuery(quasii::CountQuery<3>(MakeBox(0, 99)));
  CHECK(pinned.TryPinEpoch(epoch));
  auto ok = fx.client.Call(0, pinned);
  CHECK(ok.has_value());
  CHECK(ok->response.status == ResponseStatus::kOk);

  CHECK(fx.client.Call(0, *Request3::TryInsert(60000, MakeBox(1, 3)))
            ->response.accepted);
  auto stale = fx.client.Call(0, pinned);
  CHECK(stale.has_value());
  CHECK(stale->response.status == ResponseStatus::kEpochMismatch);
  CHECK_NE(stale->response.epoch, epoch);
  fx.server.Stop();
}

void TestServerSnapshotRequest() {
  QueryServer<3>::Options options;
  options.snapshot_path = TempPath("served.snapshot");
  ServerFixture fx(options);
  // Mutate first so the captured LSN is a real post-mutation epoch.
  CHECK(fx.client.Call(1, *Request3::TryInsert(61000, MakeBox(5, 6)))
            ->response.accepted);
  auto reply = fx.client.Call(1, Request3::MakeSnapshot());
  CHECK(reply.has_value());
  CHECK(reply->response.status == ResponseStatus::kOk);
  CHECK_GT(reply->response.snapshot_lsn, 0u);
  const std::string path = options.snapshot_path + ".1";
  const auto snap = quasii::persist::ReadSnapshot<3>(path);
  CHECK(snap.exists);
  CHECK(snap.error == quasii::persist::PersistError::kNone);
  CHECK_EQ(snap.lsn, reply->response.snapshot_lsn);
  std::remove(path.c_str());
  fx.server.Stop();
}

void TestServedRunReplaysBitIdentically() {
  // The acceptance gate in miniature: record a served mixed run, then
  // reproduce it (a) in-process and (b) over a fresh server socket, and
  // require bit-identical response streams and final index checksums.
  const std::string path = TempPath("served.workload");
  const std::size_t n = 300;
  const std::vector<Request3> ops = MixedOps(n, 90, 31);

  std::uint64_t live_checksum = kFnvBasis;
  std::vector<std::uint64_t> live_index_checksums;
  {
    QueryServer<3>::Options options;
    options.record_path = path;
    ServerFixture fx(options, n, 31);
    for (const Request3& op : ops) {
      auto reply = fx.client.Call(0, op);
      CHECK(reply.has_value());
      live_checksum = FnvBytes(live_checksum, reply->body);
    }
    fx.server.Stop();
    CHECK_EQ(fx.server.recorded(), ops.size());
    live_index_checksums = fx.server.IndexChecksums();
  }

  auto log = ReadWorkloadLog<3>(path);
  CHECK(log.error == quasii::persist::PersistError::kNone);
  CHECK_EQ(log.records.size(), ops.size());

  // (a) in-process replay.
  {
    Dataset3 data = MakeData(n, 31);
    ScanIndex<3> scan(data);
    QuasiiIndex<3> quasii_idx(data);
    std::vector<SpatialIndex<3>*> roster = {&scan, &quasii_idx};
    const auto replay = ReplayWorkload<3>(
        std::span<SpatialIndex<3>* const>(roster), log.records);
    CHECK(replay.ok);
    CHECK_EQ(replay.response_checksum, live_checksum);
    CHECK(replay.index_checksums == live_index_checksums);
  }

  // (b) over-the-socket replay against a fresh server.
  {
    ServerFixture fx({}, n, 31);
    std::uint64_t socket_checksum = kFnvBasis;
    for (const auto& rec : log.records) {
      auto reply = fx.client.Call(rec.target, rec.request);
      CHECK(reply.has_value());
      socket_checksum = FnvBytes(socket_checksum, reply->body);
    }
    fx.server.Stop();
    CHECK_EQ(socket_checksum, live_checksum);
    CHECK(fx.server.IndexChecksums() == live_index_checksums);
  }
  std::remove(path.c_str());
}

void TestServerConcurrentClients() {
  // Several pipelining clients at once: per-client responses arrive in that
  // client's admission order with matching seq numbers, and shutdown drains
  // every accepted request.
  QueryServer<3>::Options options;
  options.max_inflight = 1024;
  ServerFixture fx(options, 400, 37);
  const int extra_clients = 3;
  std::vector<std::unique_ptr<WireClient<3>>> clients;
  for (int c = 0; c < extra_clients; ++c) {
    SocketPair sp;
    fx.server.AddConnection(sp.ReleaseA());
    auto client = std::make_unique<WireClient<3>>();
    const int fd = sp.b;
    sp.b = -1;
    client->Adopt(fd);
    CHECK(client->Handshake());
    clients.push_back(std::move(client));
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < extra_clients; ++c) {
    threads.emplace_back([&, c] {
      WireClient<3>& client = *clients[c];
      for (int i = 0; i < 40; ++i) {
        const std::uint8_t target = static_cast<std::uint8_t>(i % 2);
        auto reply = client.Call(
            target, Request3::MakeQuery(quasii::CountQuery<3>(
                        MakeBox(static_cast<Scalar>(c * 10 + i % 10), 80))));
        if (!reply || reply->response.status != ResponseStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK_EQ(failures.load(), 0);
  fx.server.Stop();
  CHECK_EQ(fx.server.counters().accepted, 3u * 40u);
}

}  // namespace

int main() {
  RUN_TEST(TestRequestRoundTrip);
  RUN_TEST(TestRequestFactoryRejects);
  RUN_TEST(TestRequestParseRejects);
  RUN_TEST(TestResponseRoundTrip);
  RUN_TEST(TestRequestFuzz);
  RUN_TEST(TestFrameRoundTrip);
  RUN_TEST(TestFrameTornAndCorrupt);
  RUN_TEST(TestFrameReaderBurst);
  RUN_TEST(TestFrameReaderByteAtATime);
  RUN_TEST(TestFrameFuzz);
  RUN_TEST(TestParallelBatchMatchesDirectExecution);
  RUN_TEST(TestExecuteRequestOracle);
  RUN_TEST(TestEpochPinning);
  RUN_TEST(TestSnapshotHook);
  RUN_TEST(TestWorkloadLogRoundTrip);
  RUN_TEST(TestInProcessReplayDeterminism);
  RUN_TEST(TestServerEndToEnd);
  RUN_TEST(TestServerMalformedInputs);
  RUN_TEST(TestServerOverloadAndDrain);
  RUN_TEST(TestServerDrainedRun);
  RUN_TEST(TestServerEpochPinningOverWire);
  RUN_TEST(TestServerSnapshotRequest);
  RUN_TEST(TestServedRunReplaysBitIdentically);
  RUN_TEST(TestServerConcurrentClients);
  std::printf("test_server: all tests passed\n");
  return 0;
}
