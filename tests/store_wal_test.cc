/// \file
/// Tests for the semantic WAL codec: record round trips, the torn-tail
/// contract (a crash mid-append is detected and logically truncated, never an
/// error), corruption stopping the scan at the last whole record, and the
/// bounds-checked tuple-delta payload codec under truncation and garbage.

#include "store/wal.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "store/fault_env.h"

namespace kbt::store {
namespace {

/// Writes a WAL with `records` into the fault env (no faults armed) and
/// returns the resulting file image.
std::string BuildWal(const std::vector<WalRecord>& records, uint64_t start_lsn) {
  FaultInjectionEnv env;
  auto file = env.NewAppendableFile("wal");
  EXPECT_TRUE(file.ok());
  auto writer = WalWriter::Create(std::move(*file), 0, start_lsn);
  EXPECT_TRUE(writer.ok());
  for (const WalRecord& r : records) {
    EXPECT_TRUE((*writer)->Append(r).ok());
  }
  EXPECT_TRUE((*writer)->Sync().ok());
  EXPECT_TRUE((*writer)->Close().ok());
  auto image = env.ReadFile("wal");
  EXPECT_TRUE(image.ok());
  return *image;
}

std::vector<WalRecord> SampleRecords() {
  return {
      {WalRecordKind::kTransform, "tau{forall x: P(x) -> Q(x, x)} >> glb"},
      {WalRecordKind::kInsert,
       EncodeTupleDelta("Q", 2, {{"a", "b"}, {"b", "c"}})},
      {WalRecordKind::kDelete, EncodeTupleDelta("P", 1, {{"a"}})},
      {WalRecordKind::kTransform, ""},  // Empty payload is legal at this layer.
  };
}

TEST(WalTest, EmptyWalIsJustTheHeader) {
  std::string image = BuildWal({}, 42);
  EXPECT_EQ(image.size(), kWalHeaderSize);
  auto contents = ReadWal(image);
  ASSERT_TRUE(contents.ok()) << contents.status().message();
  EXPECT_EQ(contents->start_lsn, 42u);
  EXPECT_TRUE(contents->records.empty());
  EXPECT_EQ(contents->valid_bytes, kWalHeaderSize);
}

TEST(WalTest, RecordsRoundTrip) {
  std::vector<WalRecord> records = SampleRecords();
  std::string image = BuildWal(records, 7);
  auto contents = ReadWal(image);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->start_lsn, 7u);
  EXPECT_EQ(contents->records, records);
  EXPECT_EQ(contents->valid_bytes, image.size());
}

TEST(WalTest, ReopenForAppendDoesNotRewriteHeader) {
  std::vector<WalRecord> records = SampleRecords();
  FaultInjectionEnv env;
  {
    auto file = env.NewAppendableFile("wal");
    ASSERT_TRUE(file.ok());
    auto writer = WalWriter::Create(std::move(*file), 0, 3);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(records[0]).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto first = env.ReadFile("wal");
  ASSERT_TRUE(first.ok());
  {
    auto file = env.NewAppendableFile("wal");
    ASSERT_TRUE(file.ok());
    auto writer = WalWriter::Create(std::move(*file), first->size(), 3);
    ASSERT_TRUE(writer.ok());
    for (size_t i = 1; i < records.size(); ++i) {
      ASSERT_TRUE((*writer)->Append(records[i]).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto image = env.ReadFile("wal");
  ASSERT_TRUE(image.ok());
  auto contents = ReadWal(*image);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->start_lsn, 3u);
  EXPECT_EQ(contents->records, records);
}

TEST(WalTest, TornTailAtEveryByteBoundaryIsTruncatedNotFatal) {
  std::vector<WalRecord> records = SampleRecords();
  std::string image = BuildWal(records, 0);
  // Whole-record prefix sizes, so each cut maps to an expected record count.
  std::vector<size_t> prefix_sizes = {kWalHeaderSize};
  size_t at = kWalHeaderSize;
  for (const WalRecord& r : records) {
    at += kWalRecordHeadSize + r.payload.size();
    prefix_sizes.push_back(at);
  }
  ASSERT_EQ(at, image.size());

  for (size_t cut = kWalHeaderSize; cut <= image.size(); ++cut) {
    auto contents = ReadWal(std::string_view(image).substr(0, cut));
    ASSERT_TRUE(contents.ok()) << "cut at " << cut;
    // The valid prefix is the largest whole-record boundary at or below cut.
    size_t expect_records = 0;
    size_t expect_bytes = kWalHeaderSize;
    for (size_t i = 1; i < prefix_sizes.size(); ++i) {
      if (prefix_sizes[i] <= cut) {
        expect_records = i;
        expect_bytes = prefix_sizes[i];
      }
    }
    EXPECT_EQ(contents->records.size(), expect_records) << "cut at " << cut;
    EXPECT_EQ(contents->valid_bytes, expect_bytes) << "cut at " << cut;
    for (size_t i = 0; i < contents->records.size(); ++i) {
      EXPECT_EQ(contents->records[i], records[i]);
    }
  }
}

TEST(WalTest, CorruptMiddleRecordStopsTheScanThere) {
  std::vector<WalRecord> records = SampleRecords();
  std::string image = BuildWal(records, 0);
  // Flip a byte inside the second record's payload.
  size_t rec1 = kWalHeaderSize + kWalRecordHeadSize + records[0].payload.size();
  size_t target = rec1 + kWalRecordHeadSize + 2;
  image[target] = static_cast<char>(image[target] ^ 0x40);
  auto contents = ReadWal(image);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], records[0]);
  EXPECT_EQ(contents->valid_bytes, rec1);
}

TEST(WalTest, BadHeaderIsDataLoss) {
  std::string image = BuildWal(SampleRecords(), 0);
  {
    std::string bad = image;
    bad[0] = 'X';  // Magic.
    auto contents = ReadWal(bad);
    ASSERT_FALSE(contents.ok());
    EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
  }
  {
    std::string bad = image;
    bad[6] = static_cast<char>(0xFF);  // Version.
    auto contents = ReadWal(bad);
    ASSERT_FALSE(contents.ok());
    EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
  }
  {
    // A header cut short is unreadable at this layer (recovery treats a
    // shorter-than-header file as "no record ever committed" before calling).
    auto contents = ReadWal(std::string_view(image).substr(0, 5));
    ASSERT_FALSE(contents.ok());
    EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
  }
}

TEST(WalTest, ByteFlipFuzzNeverCrashesAndNeverInventsRecords) {
  std::vector<WalRecord> records = SampleRecords();
  std::string image = BuildWal(records, 5);
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<size_t> pos(0, image.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutant = image;
    mutant[pos(rng)] ^= static_cast<char>(1 << bit(rng));
    auto contents = ReadWal(mutant);
    if (!contents.ok()) continue;  // Header flips: clean error.
    // A flip can only shorten the accepted prefix (CRC catches the body) —
    // never yield more records than were written or overrun the image.
    EXPECT_LE(contents->records.size(), records.size());
    EXPECT_LE(contents->valid_bytes, mutant.size());
  }
}

TEST(WalTest, RandomGarbageFailsCleanly) {
  std::mt19937_64 rng(123);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 200; ++trial) {
    std::uniform_int_distribution<size_t> len(0, 256);
    std::string garbage(len(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(byte(rng));
    auto contents = ReadWal(garbage);  // Must not crash; outcome is free.
    if (contents.ok()) {
      EXPECT_LE(contents->valid_bytes, garbage.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Tuple-delta payload codec: EncodeTupleDelta, and ParseTupleDelta reading a
// payload straight into a relation of a schema.
// ---------------------------------------------------------------------------

/// The schema every TupleDeltaTest payload is decoded against.
Schema DeltaSchema() {
  return *Schema::Of({{"Q", 2}, {"P", 1}, {"Marker", 0}, {"R", 3}, {"Huge", 1}});
}

StatusOr<DecodedDelta> Parse(std::string_view payload) {
  PayloadNames names;
  return ParseTupleDelta(payload, DeltaSchema(), &names);
}

TEST(TupleDeltaTest, RoundTrips) {
  struct Case {
    std::string relation;
    size_t arity;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Case> cases = {
      {"Q", 2, {{"a", "b"}, {"long name with spaces", "naïve-ütf8"}}},
      {"P", 1, {}},
      {"Marker", 0, {{}}},  // Zero-ary relation holding the empty tuple.
      {"R", 3, {{"", "x", std::string("nul\0byte", 8)}}},
  };
  const Schema schema = DeltaSchema();
  for (const Case& c : cases) {
    std::string payload = EncodeTupleDelta(c.relation, c.arity, c.rows);
    auto delta = Parse(payload);
    ASSERT_TRUE(delta.ok()) << delta.status().message();
    EXPECT_EQ(delta->pos, *schema.PositionOf(Name(c.relation)));
    Relation::Builder expected(c.arity);
    for (const auto& row : c.rows) {
      std::vector<Value> values;
      for (const std::string& v : row) values.push_back(Name(v));
      expected.Append(TupleView(values.data(), values.size()));
    }
    EXPECT_EQ(delta->rows, expected.Build()) << c.relation;
  }
}

TEST(TupleDeltaTest, RepeatedNamesInternOncePerPayload) {
  // One PayloadNames serves a whole checkpoint payload: a name met again in
  // a later block resolves to the same symbol.
  std::string first = EncodeTupleDelta("Q", 2, {{"a", "b"}, {"b", "a"}});
  std::string second = EncodeTupleDelta("P", 1, {{"b"}, {"a"}});
  PayloadNames names;
  auto q = ParseTupleDelta(first, DeltaSchema(), &names);
  auto p = ParseTupleDelta(second, DeltaSchema(), &names);
  ASSERT_TRUE(q.ok() && p.ok());
  EXPECT_EQ(q->rows, Relation(2, {Tuple({Name("a"), Name("b")}),
                                  Tuple({Name("b"), Name("a")})}));
  EXPECT_EQ(p->rows, Relation(1, {Tuple({Name("a")}), Tuple({Name("b")})}));
}

TEST(TupleDeltaTest, TruncationAtEveryBoundaryFailsCleanly) {
  std::string payload =
      EncodeTupleDelta("Q", 2, {{"alpha", "beta"}, {"gamma", "delta"}});
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto delta = Parse(std::string_view(payload).substr(0, cut));
    EXPECT_FALSE(delta.ok()) << "cut at " << cut;
    EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
  // Trailing garbage is rejected too: a payload is exactly one delta.
  auto delta = Parse(payload + "x");
  EXPECT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss);
}

TEST(TupleDeltaTest, HugeCountsRejectedBeforeAllocation) {
  // name_len = 4 "Huge", arity = 0xFFFFFFFF: must fail fast, not allocate.
  std::string payload;
  auto put_u32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>(v >> (8 * i)));
  };
  put_u32(4);
  payload += "Huge";
  put_u32(0xFFFFFFFFu);  // arity
  put_u32(0xFFFFFFFFu);  // rows
  auto delta = Parse(payload);
  EXPECT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss);
  // A declared arity with a row count the payload cannot hold fails the same
  // way, before the builder reserves.
  payload.clear();
  put_u32(4);
  payload += "Huge";
  put_u32(1);            // arity
  put_u32(0xFFFFFFFFu);  // rows
  delta = Parse(payload);
  EXPECT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss);
}

TEST(TupleDeltaTest, ZeroAryHugeRowCountRejectedBeforeAllocation) {
  // arity = 0 sidesteps the rows*arity bound, so the zero-ary rule (at most
  // the empty tuple) must reject the count before the reserve.
  std::string payload;
  auto put_u32 = [&payload](uint32_t v) {
    for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>(v >> (8 * i)));
  };
  put_u32(6);
  payload += "Marker";
  put_u32(0);            // arity
  put_u32(0xFFFFFFFFu);  // rows
  auto delta = Parse(payload);
  EXPECT_FALSE(delta.ok());
  EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss);
}

TEST(TupleDeltaTest, ZeroAryDuplicateRowsCanonicalizeToOne) {
  // Duplicate empty tuples carry no information; the encoder drops them so
  // every encodable delta stays decodable under the zero-ary bound.
  std::string payload = EncodeTupleDelta("Marker", 0, {{}, {}, {}});
  auto delta = Parse(payload);
  ASSERT_TRUE(delta.ok()) << delta.status().message();
  EXPECT_EQ(delta->rows.arity(), 0u);
  EXPECT_EQ(delta->rows.size(), 1u);
}

TEST(TupleDeltaTest, UndeclaredRelationAndArityMismatchAreDataLoss) {
  for (const std::string& payload :
       {EncodeTupleDelta("Unknown", 1, {{"a"}}),
        EncodeTupleDelta("Q", 1, {{"a"}}),
        EncodeTupleDelta("Marker", 1, {}),
        EncodeTupleDelta("P", 0, {{}})}) {
    auto delta = Parse(payload);
    EXPECT_FALSE(delta.ok());
    EXPECT_EQ(delta.status().code(), StatusCode::kDataLoss);
  }
}

TEST(TupleDeltaTest, GarbageFuzzNeverCrashes) {
  std::mt19937_64 rng(77);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 500; ++trial) {
    std::uniform_int_distribution<size_t> len(0, 128);
    std::string garbage(len(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(byte(rng));
    auto delta = Parse(garbage);
    (void)delta;  // Either outcome, as long as it returns.
  }
}

}  // namespace
}  // namespace kbt::store
