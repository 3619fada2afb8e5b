/// \file
/// Tests for binary checkpoint files: encode/decode round trips on random
/// knowledgebases, the all-or-nothing corruption contract (any payload defect
/// is kDataLoss, unlike the WAL's tolerated torn tail; counts are bounded
/// before allocation), and the atomic tmp+rename write path leaving no
/// debris. The BinaryIoTest suite covers the binary encoding of databases and
/// knowledgebases itself, which is the checkpoint payload (its relation
/// blocks are the WAL's, store/wal.h): round-trip properties over random
/// schemas (empty schemas, nullary and empty relations and empty
/// knowledgebases included), byte stability (encode ∘ decode ∘ encode is the
/// identity on bytes), agreement with the text form, and CRC-valid malformed
/// payloads failing cleanly.

#include "store/checkpoint.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/little_endian.h"
#include "rel/io.h"
#include "store/crc32.h"
#include "store/fault_env.h"
#include "testutil.h"

namespace kbt::store {
namespace {

/// Random schema of 0..4 relations with arities 0..3 and distinct names.
Schema RandomSchema(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> count(0, 4);
  std::uniform_int_distribution<int> arity(0, 3);
  std::vector<RelationDecl> decls;
  int n = count(*rng);
  for (int i = 0; i < n; ++i) {
    decls.push_back(RelationDecl{Name("Ckpt" + std::to_string(i)),
                                 static_cast<size_t>(arity(*rng))});
  }
  return *Schema::FromDecls(std::move(decls));
}

/// Random database over `schema`: each relation empty with probability ~1/3,
/// otherwise a handful of rows over a small constant pool.
Database RandomDatabaseOver(const Schema& schema, std::mt19937_64* rng) {
  std::uniform_int_distribution<int> rows(0, 5);
  std::uniform_int_distribution<int> constant(0, 5);
  std::vector<Relation> relations;
  for (const RelationDecl& d : schema.decls()) {
    std::vector<Tuple> tuples;
    int n = d.arity == 0 ? rows(*rng) % 2 : rows(*rng);
    for (int r = 0; r < n; ++r) {
      std::vector<Value> values;
      for (size_t i = 0; i < d.arity; ++i) {
        values.push_back(Name("c" + std::to_string(constant(*rng))));
      }
      tuples.emplace_back(std::move(values));
    }
    relations.emplace_back(d.arity, std::move(tuples));
  }
  return *Database::Create(schema, std::move(relations));
}

/// A checkpoint image of the current version around `payload`, with an
/// honest CRC, so only the payload's semantics are under test.
std::string ImageOf(const std::string& payload) {
  std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
  out.push_back(static_cast<char>(kCheckpointVersion));
  AppendU64(&out, 1);
  AppendU32(&out, Crc32c(payload));
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  return out + payload;
}

/// Encodes `kb`, checks that the image decodes to `kb` at `lsn`, and returns
/// the decoded kb after checking that it re-encodes byte for byte.
Knowledgebase ExpectRoundTrip(const Knowledgebase& kb, uint64_t lsn) {
  std::string image = EncodeCheckpoint(kb, lsn);
  auto decoded = DecodeCheckpoint(image);
  EXPECT_TRUE(decoded.ok()) << decoded.status().message();
  if (!decoded.ok()) return kb;
  EXPECT_EQ(decoded->lsn, lsn);
  EXPECT_EQ(decoded->kb, kb);
  EXPECT_EQ(decoded->kb.schema(), kb.schema());
  // Canonical values: re-encoding reproduces the exact bytes.
  EXPECT_EQ(EncodeCheckpoint(decoded->kb, decoded->lsn), image);
  return decoded->kb;
}

TEST(CheckpointTest, RoundTripsRandomKnowledgebases) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    ExpectRoundTrip(testutil::RandomKnowledgebase(&rng), trial * 37u);
  }
}

TEST(CheckpointTest, EmptyKnowledgebaseRoundTrips) {
  Knowledgebase kb(*Schema::Of({{"Edge", 2}}));
  std::string image = EncodeCheckpoint(kb, 0);
  auto decoded = DecodeCheckpoint(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->kb, kb);
  EXPECT_TRUE(decoded->kb.empty());
}

TEST(CheckpointTest, NullaryBaseRelationRoundTrips) {
  // A nullary relation holds the empty tuple or nothing; both base states
  // survive, beside a unary relation.
  Schema schema = *Schema::Of({{"Flag", 0}, {"R", 1}});
  for (bool present : {true, false}) {
    Database db(schema);
    if (present) db = *db.WithRelation("Flag", Relation(0, {Tuple()}));
    db = *db.WithRelation("R", Relation(1, {Tuple{Name("a")}}));
    Knowledgebase kb = Knowledgebase::Singleton(db);
    std::string image = EncodeCheckpoint(kb, 5);
    auto decoded = DecodeCheckpoint(image);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->kb, kb);
    EXPECT_EQ(decoded->kb.World(0).relation_at(0).size(), present ? 1u : 0u);
    EXPECT_EQ(EncodeCheckpoint(decoded->kb, 5), image);
  }
}

TEST(CheckpointTest, HugeDeclarationCountIsDataLossBeforeAllocation) {
  // A declaration count of 2^31 over a 4-byte remainder must fail on the
  // bound, not try to reserve gigabytes of relations.
  std::string payload;
  AppendU32(&payload, 1);            // One world.
  AppendU32(&payload, 0x7FFFFFFFu);  // Declarations.
  AppendU32(&payload, 0);
  auto decoded = DecodeCheckpoint(ImageOf(payload));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(),
            "checkpoint declaration count exceeds payload size");
}

TEST(CheckpointTest, TruncationAtEveryBoundaryIsDataLoss) {
  std::mt19937_64 rng(1);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  std::string image = EncodeCheckpoint(kb, 9);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    auto decoded = DecodeCheckpoint(std::string_view(image).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut at " << cut;
  }
  // Trailing bytes are a size mismatch, not silently ignored.
  auto decoded = DecodeCheckpoint(image + "x");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, MagicVersionAndPayloadCorruptionAreDataLoss) {
  std::mt19937_64 rng(2);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  std::string image = EncodeCheckpoint(kb, 12);
  auto flipped = [&image](size_t i) {
    std::string bad = image;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    return bad;
  };
  // Magic (bytes 0..6) and version (byte 7).
  for (size_t i = 0; i < 8; ++i) {
    auto decoded = DecodeCheckpoint(flipped(i));
    ASSERT_FALSE(decoded.ok()) << "byte " << i;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  // Every payload byte is under the CRC. (The lsn field is not — recovery
  // cross-checks it against the file name instead.)
  for (size_t i = 24; i < image.size(); ++i) {
    auto decoded = DecodeCheckpoint(flipped(i));
    ASSERT_FALSE(decoded.ok()) << "byte " << i;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

/// The payload of a checkpoint of `kb`: everything after the 24-byte header.
std::string PayloadOf(const Knowledgebase& kb) {
  return EncodeCheckpoint(kb, 0).substr(24);
}

/// Decodes `payload` behind an honest CRC: it either decodes or fails with
/// kDataLoss, and never crashes or allocates unboundedly (ASan runs this too).
void ExpectCleanDecode(const std::string& payload) {
  auto decoded = DecodeCheckpoint(ImageOf(payload));
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status();
  }
}

TEST(BinaryIoTest, DatabaseRoundTripProperty) {
  // A database is the base of a singleton kb: one block per declaration.
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    Schema schema = RandomSchema(&rng);
    Database db = RandomDatabaseOver(schema, &rng);
    Knowledgebase decoded = ExpectRoundTrip(Knowledgebase::Singleton(db), iter);
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded.World(0), db);
  }
}

TEST(BinaryIoTest, KnowledgebaseRoundTripProperty) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<int> members(0, 4);
  for (int iter = 0; iter < 200; ++iter) {
    Schema schema = RandomSchema(&rng);
    Knowledgebase kb(schema);
    if (int n = members(rng); n > 0) {
      std::vector<Database> dbs;
      for (int i = 0; i < n; ++i) {
        dbs.push_back(RandomDatabaseOver(schema, &rng));
      }
      kb = *Knowledgebase::FromDatabases(std::move(dbs));
    }
    ExpectRoundTrip(kb, iter);
  }
}

TEST(BinaryIoTest, EmptyEdgeCases) {
  // The empty (inconsistent) kb is distinct from the singleton holding an
  // empty database; both survive the trip, over a non-empty schema and over
  // the empty one.
  for (const Schema& schema : {*Schema::Of({{"R", 2}}), Schema()}) {
    Knowledgebase empty(schema);
    Knowledgebase singleton = Knowledgebase::Singleton(Database(schema));
    for (const Knowledgebase& kb : {empty, singleton}) {
      Knowledgebase decoded = ExpectRoundTrip(kb, 3);
      EXPECT_EQ(decoded.empty(), kb.empty());
    }
    EXPECT_NE(empty, singleton);
  }
}

TEST(BinaryIoTest, TruncationAtEveryBoundaryFailsCleanly) {
  // Behind an honest CRC, every truncation of a real payload reaches the
  // payload decoder itself, which must refuse it.
  std::mt19937_64 rng(44);
  const std::string payload = PayloadOf(testutil::RandomKnowledgebase(&rng));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeCheckpoint(ImageOf(payload.substr(0, cut)));
    ASSERT_FALSE(decoded.ok()) << "cut at " << cut << " of " << payload.size();
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(BinaryIoTest, ByteFlipFuzzNeverCrashes) {
  // Either a clean decode (the flip hit a byte that still decodes) or a clean
  // error.
  std::mt19937_64 rng(45);
  const std::string payload = PayloadOf(testutil::RandomKnowledgebase(&rng));
  std::uniform_int_distribution<size_t> pos(0, payload.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string corrupted = payload;
    corrupted[pos(rng)] = static_cast<char>(byte(rng));
    ExpectCleanDecode(corrupted);
  }
}

TEST(BinaryIoTest, RandomGarbageFailsCleanly) {
  std::mt19937_64 rng(46);
  std::uniform_int_distribution<int> len(0, 64);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string garbage;
    for (int i = len(rng); i > 0; --i) {
      garbage.push_back(static_cast<char>(byte(rng)));
    }
    ExpectCleanDecode(garbage);
    // Without the header the magic refuses it.
    EXPECT_FALSE(DecodeCheckpoint(garbage).ok());
  }
}

TEST(BinaryIoTest, AgreesWithTextFormOnTestUtilDatabases) {
  std::mt19937_64 rng(47);
  for (int iter = 0; iter < 20; ++iter) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Knowledgebase via_binary = ExpectRoundTrip(kb, iter);
    StatusOr<Knowledgebase> via_text =
        ParseKnowledgebase(FormatKnowledgebase(kb));
    ASSERT_TRUE(via_text.ok()) << via_text.status();
    EXPECT_EQ(via_binary, *via_text);
    EXPECT_EQ(via_binary, kb);
  }
}

TEST(CheckpointTest, WriteIsAtomicAndLeavesNoTmpFile) {
  FaultInjectionEnv env;
  std::mt19937_64 rng(3);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  ASSERT_TRUE(env.CreateDir("store").ok());
  ASSERT_TRUE(
      WriteCheckpoint(&env, "store", "store/checkpoint-5", kb, 5).ok());
  EXPECT_FALSE(env.FileExists("store/checkpoint-5.tmp"));
  auto decoded = ReadCheckpoint(&env, "store/checkpoint-5");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 5u);
  EXPECT_EQ(decoded->kb, kb);
  // The write is crash-proof the moment it returns: no further sync needed.
  env.Crash();
  env.RecoverFromCrash();
  decoded = ReadCheckpoint(&env, "store/checkpoint-5");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kb, kb);
}

TEST(CheckpointTest, CrashDuringWriteLeavesOldStateIntact) {
  std::mt19937_64 rng(4);
  Knowledgebase old_kb = testutil::RandomKnowledgebase(&rng);
  Knowledgebase new_kb = testutil::RandomKnowledgebase(&rng);
  // Crash at every write-side syscall of the checkpoint write; the real name
  // must afterwards hold either the old image or the complete new one.
  for (uint64_t op = 1;; ++op) {
    FaultInjectionEnv env;
    ASSERT_TRUE(env.CreateDir("store").ok());
    ASSERT_TRUE(
        WriteCheckpoint(&env, "store", "store/checkpoint-1", old_kb, 1).ok());
    uint64_t before = env.op_count();
    env.FailAt(op, FaultKind::kCrashBefore);
    Status s = WriteCheckpoint(&env, "store", "store/checkpoint-2", new_kb, 2);
    if (s.ok()) {
      // The failpoint was beyond the write's syscalls: the matrix is done.
      ASSERT_GT(before + op, env.op_count());
      break;
    }
    env.RecoverFromCrash();
    auto old_decoded = ReadCheckpoint(&env, "store/checkpoint-1");
    ASSERT_TRUE(old_decoded.ok()) << "op " << op;
    EXPECT_EQ(old_decoded->kb, old_kb);
    if (env.FileExists("store/checkpoint-2")) {
      auto new_decoded = ReadCheckpoint(&env, "store/checkpoint-2");
      ASSERT_TRUE(new_decoded.ok()) << "op " << op;
      EXPECT_EQ(new_decoded->kb, new_kb);
    }
  }
}

TEST(CheckpointTest, ReadReportsMissingFileAsNotFound) {
  FaultInjectionEnv env;
  auto decoded = ReadCheckpoint(&env, "store/none");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kbt::store
