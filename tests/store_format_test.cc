/// \file
/// The bytes the store puts on disk and on the wire stay readable across
/// versions. CRC-32C is checked against the RFC 3720 §B.4 known answers and a
/// bitwise reference; a checkpoint and a WAL written by an earlier version's
/// encoder are checked in as byte literals and must decode to the expected
/// knowledgebase and lsn, and re-encode byte for byte. A checksum or decoder
/// change that is merely self-consistent passes round-trip tests but fails
/// these.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "core/kbt.h"
#include "store/checkpoint.h"
#include "store/crc32.h"
#include "store/fault_env.h"
#include "store/recovery.h"
#include "store/wal.h"

namespace kbt::store {
namespace {

// ---------------------------------------------------------------------------
// CRC-32C.
// ---------------------------------------------------------------------------

/// CRC-32C one bit at a time: the definition, with no table.
uint32_t BitwiseCrc32c(const unsigned char* p, size_t n, uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1)));
  }
  return ~crc;
}

TEST(Crc32cTest, MatchesRfc3720KnownAnswers) {
  std::string zeros(32, '\x00');
  std::string ones(32, '\xFF');
  std::string ascending, descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(descending), 0x113FDB5Cu);
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 rng(3720);
  std::vector<unsigned char> bytes(70 + 8);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 70; ++len) {
      const unsigned char* p = bytes.data() + offset;
      const uint32_t expected = BitwiseCrc32c(p, len);
      EXPECT_EQ(Crc32c(p, len), expected) << "offset " << offset << " len " << len;
      // Two chained calls checksum the same stream.
      for (size_t cut : {size_t{0}, len / 3, len / 2, len}) {
        EXPECT_EQ(Crc32c(p + cut, len - cut, Crc32c(p, cut)), expected)
            << "offset " << offset << " len " << len << " cut " << cut;
      }
    }
  }
  // Over 64 KiB of random bytes every entry of every slicing table is read
  // (about 8,000 reads per table of 256 entries), so a single wrong entry
  // shows.
  std::vector<unsigned char> large(64 * 1024);
  for (unsigned char& b : large) b = static_cast<unsigned char>(rng());
  EXPECT_EQ(Crc32c(large.data(), large.size()),
            BitwiseCrc32c(large.data(), large.size()));
}

// ---------------------------------------------------------------------------
// Golden store images.
// ---------------------------------------------------------------------------

/// Interns the golden names in the order the images were written with, so
/// rows sort as they did there: relation rows are ordered by interned id.
/// No other test uses these names.
void PinGoldenNames() {
  for (const char* n : {"GoldenEdge", "GoldenNode", "GoldenMark", "golden_a",
                        "golden_b", "golden_c", "golden_d"}) {
    Name(n);
  }
}

Database GoldenWorld(const std::vector<std::pair<const char*, const char*>>& edges,
                     const std::vector<const char*>& nodes, bool mark) {
  Relation::Builder e(2), n(1), m(0);
  for (const auto& [from, to] : edges) e.Append({Name(from), Name(to)});
  for (const char* v : nodes) n.Append({Name(v)});
  if (mark) m.Append(TupleView());
  Schema schema =
      *Schema::Of({{"GoldenEdge", 2}, {"GoldenNode", 1}, {"GoldenMark", 0}});
  return *Database::Create(schema, {e.Build(), n.Build(), m.Build()});
}

/// Four worlds over a binary, a unary and a nullary relation; in canonical
/// order one world's overlay adds tuples and deletes none.
std::vector<Database> GoldenWorlds() {
  return {
      GoldenWorld({{"golden_a", "golden_b"}, {"golden_b", "golden_c"}},
                  {"golden_a", "golden_b"}, false),
      GoldenWorld({{"golden_a", "golden_b"},
                   {"golden_b", "golden_c"},
                   {"golden_c", "golden_d"}},
                  {"golden_a", "golden_b"}, true),
      GoldenWorld({{"golden_b", "golden_c"}},
                  {"golden_a", "golden_b", "golden_d"}, false),
      GoldenWorld({{"golden_a", "golden_b"}}, {"golden_a"}, true),
  };
}

/// EncodeCheckpoint(FromDatabases(GoldenWorlds()), 7), as written before
/// checkpoint decoding read blocks in place and CRC-32C went slicing-by-8.
const std::string& GoldenCheckpoint() {
  static const std::string bytes(
    "\x4b\x42\x54\x43\x4b\x50\x54\x02\x07\x00\x00\x00\x00\x00\x00\x00"
    "\x97\x8f\xfb\xc4\xda\x02\x00\x00\x04\x00\x00\x00\x7a\x00\x00\x00"
    "\x05\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x45\x64"
    "\x67\x65\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4e\x6f\x64\x65"
    "\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4d\x61\x72\x6b\x08\x00"
    "\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x61\x08\x00\x00\x00\x67\x6f"
    "\x6c\x64\x65\x6e\x5f\x62\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00"
    "\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00"
    "\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x01\x00"
    "\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00"
    "\x00\x00\x2e\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e"
    "\x45\x64\x67\x65\x02\x00\x00\x00\x01\x00\x00\x00\x08\x00\x00\x00"
    "\x67\x6f\x6c\x64\x65\x6e\x5f\x62\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x63\x16\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64"
    "\x65\x6e\x45\x64\x67\x65\x02\x00\x00\x00\x00\x00\x00\x00\x22\x00"
    "\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4e\x6f\x64\x65"
    "\x01\x00\x00\x00\x01\x00\x00\x00\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x62\x16\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64"
    "\x65\x6e\x4e\x6f\x64\x65\x01\x00\x00\x00\x00\x00\x00\x00\x16\x00"
    "\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4d\x61\x72\x6b"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00\x0a\x00\x00\x00"
    "\x47\x6f\x6c\x64\x65\x6e\x4d\x61\x72\x6b\x00\x00\x00\x00\x01\x00"
    "\x00\x00\x02\x00\x00\x00\x46\x00\x00\x00\x0a\x00\x00\x00\x47\x6f"
    "\x6c\x64\x65\x6e\x45\x64\x67\x65\x02\x00\x00\x00\x02\x00\x00\x00"
    "\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x62\x08\x00\x00\x00"
    "\x67\x6f\x6c\x64\x65\x6e\x5f\x63\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x63\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x64"
    "\x16\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x45\x64"
    "\x67\x65\x02\x00\x00\x00\x00\x00\x00\x00\x22\x00\x00\x00\x0a\x00"
    "\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4e\x6f\x64\x65\x01\x00\x00\x00"
    "\x01\x00\x00\x00\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x62"
    "\x16\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4e\x6f"
    "\x64\x65\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x2e\x00"
    "\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x45\x64\x67\x65"
    "\x02\x00\x00\x00\x01\x00\x00\x00\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x62\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x63"
    "\x2e\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x45\x64"
    "\x67\x65\x02\x00\x00\x00\x01\x00\x00\x00\x08\x00\x00\x00\x67\x6f"
    "\x6c\x64\x65\x6e\x5f\x61\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e"
    "\x5f\x62\x2e\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e"
    "\x4e\x6f\x64\x65\x01\x00\x00\x00\x02\x00\x00\x00\x08\x00\x00\x00"
    "\x67\x6f\x6c\x64\x65\x6e\x5f\x62\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x64\x16\x00\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64"
    "\x65\x6e\x4e\x6f\x64\x65\x01\x00\x00\x00\x00\x00\x00\x00\x16\x00"
    "\x00\x00\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4d\x61\x72\x6b"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00\x0a\x00\x00\x00"
    "\x47\x6f\x6c\x64\x65\x6e\x4d\x61\x72\x6b\x00\x00\x00\x00\x01\x00"
    "\x00\x00",
      754);
  return bytes;
}

/// A WAL starting at lsn 7 with one transform, one insert and one delete
/// record, written by the same version.
const std::string& GoldenWal() {
  static const std::string bytes(
    "\x4b\x42\x54\x57\x41\x4c\x01\x00\x07\x00\x00\x00\x00\x00\x00\x00"
    "\xc0\xde\xf6\x65\x19\x00\x00\x00\x01\x74\x61\x75\x7b\x47\x6f\x6c"
    "\x64\x65\x6e\x4e\x6f\x64\x65\x28\x67\x6f\x6c\x64\x65\x6e\x5f\x63"
    "\x29\x7d\xe2\x3c\xde\x09\x2e\x00\x00\x00\x02\x0a\x00\x00\x00\x47"
    "\x6f\x6c\x64\x65\x6e\x45\x64\x67\x65\x02\x00\x00\x00\x01\x00\x00"
    "\x00\x08\x00\x00\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x64\x08\x00\x00"
    "\x00\x67\x6f\x6c\x64\x65\x6e\x5f\x61\x8e\xc4\x68\x3c\x22\x00\x00"
    "\x00\x03\x0a\x00\x00\x00\x47\x6f\x6c\x64\x65\x6e\x4e\x6f\x64\x65"
    "\x01\x00\x00\x00\x01\x00\x00\x00\x08\x00\x00\x00\x67\x6f\x6c\x64"
    "\x65\x6e\x5f\x61",
      148);
  return bytes;
}

TEST(StoreGoldenBytesTest, CheckpointDecodesAndReencodesByteForByte) {
  PinGoldenNames();
  Knowledgebase expected = *Knowledgebase::FromDatabases(GoldenWorlds());
  ASSERT_EQ(expected.size(), 4u);
  bool adds_only = false;
  bool nullary = false;
  for (const WorldOverlay& overlay : expected.overlays()) {
    bool dels = false;
    for (const RelationDelta& d : overlay.deltas()) {
      dels = dels || !d.dels.empty();
      nullary = nullary || d.adds.arity() == 0;
    }
    adds_only = adds_only || (!overlay.identity() && !dels);
  }
  ASSERT_TRUE(adds_only && nullary);

  StatusOr<CheckpointContents> decoded = DecodeCheckpoint(GoldenCheckpoint());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->lsn, 7u);
  EXPECT_EQ(decoded->kb, expected);
  EXPECT_EQ(EncodeCheckpoint(decoded->kb, decoded->lsn), GoldenCheckpoint());
  EXPECT_EQ(EncodeCheckpoint(expected, 7), GoldenCheckpoint());
}

TEST(StoreGoldenBytesTest, WalReplaysAndReencodesByteForByte) {
  PinGoldenNames();
  FaultInjectionEnv env;
  ASSERT_TRUE(env.CreateDir("db").ok());
  for (const auto& [path, bytes] :
       {std::pair<std::string, std::string>{"db/checkpoint-7", GoldenCheckpoint()},
        {"db/wal-7", GoldenWal()}}) {
    auto file = env.NewTruncatedFile(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(bytes).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  Engine engine;
  StatusOr<RecoveredStore> recovered = RecoverStore(&env, "db", engine);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->checkpoint_lsn, 7u);
  EXPECT_EQ(recovered->lsn, 10u);
  EXPECT_EQ(recovered->wal_valid_bytes, GoldenWal().size());

  // The expected state, built without the store: the transform through the
  // engine, then the insert and the delete applied to every flat world.
  Knowledgebase kb = *Knowledgebase::FromDatabases(GoldenWorlds());
  kb = *Engine().Apply("tau{GoldenNode(golden_c)}", kb);
  std::vector<Database> worlds;
  for (size_t i = 0; i < kb.size(); ++i) {
    Database world = kb.World(i);
    world = *world.WithRelation(
        "GoldenEdge", world.FindRelation(Name("GoldenEdge"))
                          ->WithTuple(Tuple({Name("golden_d"), Name("golden_a")})));
    world = *world.WithRelation(
        "GoldenNode", world.FindRelation(Name("GoldenNode"))
                          ->WithoutTuple(Tuple({Name("golden_a")})));
    worlds.push_back(std::move(world));
  }
  EXPECT_EQ(recovered->kb, *Knowledgebase::FromDatabases(std::move(worlds)));

  StatusOr<WalContents> contents = ReadWal(GoldenWal());
  ASSERT_TRUE(contents.ok()) << contents.status();
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0].kind, WalRecordKind::kTransform);
  EXPECT_EQ(contents->records[1].kind, WalRecordKind::kInsert);
  EXPECT_EQ(contents->records[2].kind, WalRecordKind::kDelete);
  auto file = env.NewTruncatedFile("rewritten");
  ASSERT_TRUE(file.ok());
  auto writer = WalWriter::Create(std::move(*file), 0, contents->start_lsn);
  ASSERT_TRUE(writer.ok());
  for (const WalRecord& record : contents->records) {
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ(*env.ReadFile("rewritten"), GoldenWal());
}

}  // namespace
}  // namespace kbt::store
