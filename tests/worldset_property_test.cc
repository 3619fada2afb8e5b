/// \file
/// The observational-identity contract of delta-structured world-sets: a
/// knowledgebase built as overlays over a shared base (FromBaseAndOverlays) is
/// indistinguishable — equality, flat member sequence, printing, lattice ops,
/// membership, projection/extension, and μ/τ results — from the same world set
/// built flat (FromDatabases), over randomized delta workloads. Plus the store
/// side: version-3 base+overlay checkpoints round-trip bit-identically, legacy
/// version-1 and version-2 images are refused (by decode, recovery and fsck),
/// and non-canonical payloads are rejected even when the CRC is intact.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/kbt.h"
#include "store/checkpoint.h"
#include "store/crc32.h"
#include "store/fault_env.h"
#include "store/fsck.h"
#include "store/recovery.h"
#include "store/wal.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::RandomDatabase;
using testutil::RandomKnowledgebase;
using testutil::RandomSentenceGenerator;

/// Random worlds that are genuine deltas of one another: start from a seed
/// world and apply a few random symmetric-difference edits per sibling, so
/// overlays stay sparse the way τ results are.
std::vector<Database> RandomDeltaWorkload(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> world_count(2, 8);
  std::uniform_int_distribution<int> edit_count(0, 3);
  Database seed = RandomDatabase(rng);
  std::vector<Database> worlds;
  int k = world_count(*rng);
  for (int w = 0; w < k; ++w) {
    Database world = seed;
    int edits = edit_count(*rng);
    for (int e = 0; e < edits; ++e) {
      Database other = RandomDatabase(rng);
      std::uniform_int_distribution<size_t> pick(0, world.schema().size() - 1);
      size_t pos = pick(*rng);
      world.ReplaceRelation(
          pos, world.relation_at(pos).SymmetricDifference(
                   other.relation_at(pos)));
    }
    worlds.push_back(std::move(world));
  }
  return worlds;
}

/// The same world set built the two ways under test.
struct TwoConstructions {
  Knowledgebase flat;
  Knowledgebase overlayed;
};

TwoConstructions BuildBothWays(std::vector<Database> worlds,
                               std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick(0, worlds.size() - 1);
  // Any member may anchor the overlays, not just the one FromDatabases picks.
  auto base = std::make_shared<const Database>(worlds[pick(*rng)]);
  std::vector<WorldOverlay> overlays;
  overlays.reserve(worlds.size());
  for (const Database& w : worlds) {
    overlays.push_back(WorldOverlay::FromDiff(*base, w));
  }
  TwoConstructions out;
  out.flat = *Knowledgebase::FromDatabases(std::move(worlds));
  out.overlayed =
      *Knowledgebase::FromBaseAndOverlays(std::move(base), std::move(overlays));
  return out;
}

TEST(WorldsetPropertyTest, OverlayBackedIsObservationallyFlat) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 60; ++trial) {
    TwoConstructions kbs = BuildBothWays(RandomDeltaWorkload(&rng), &rng);
    const Knowledgebase& a = kbs.flat;
    const Knowledgebase& b = kbs.overlayed;

    ASSERT_EQ(a, b) << "trial " << trial;
    ASSERT_EQ(a.size(), b.size());
    // Identical canonical member sequence, world by world.
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.World(i), b.World(i)) << "trial " << trial << " world " << i;
    }
    ASSERT_EQ(a.ToString(), b.ToString());
    ASSERT_EQ(a.Glb(), b.Glb());
    ASSERT_EQ(a.Lub(), b.Lub());
    // Membership agrees on members and on fresh random probes.
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(b.Contains(a.World(i)));
    }
    Database probe = RandomDatabase(&rng);
    ASSERT_EQ(a.Contains(probe), b.Contains(probe));
    // Subsetting, projection and extension preserve the identity.
    std::vector<size_t> evens;
    for (size_t i = 0; i < a.size(); i += 2) evens.push_back(i);
    ASSERT_EQ(a.SelectWorlds(evens), b.SelectWorlds(evens));
    std::vector<Symbol> proj = {Name("Dom"), Name("P")};
    ASSERT_EQ(*a.ProjectTo(proj), *b.ProjectTo(proj));
    Schema super = *a.schema().Union(*Schema::Of({{"Extra", 2}}));
    ASSERT_EQ(*a.ExtendTo(super), *b.ExtendTo(super));
  }
}

TEST(WorldsetPropertyTest, TransformsAgreeAcrossConstructions) {
  std::mt19937_64 rng(424242);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.35);
  int compared = 0;
  for (int trial = 0; trial < 25; ++trial) {
    TwoConstructions kbs = BuildBothWays(RandomDeltaWorkload(&rng), &rng);
    Formula phi = gen.Generate(2);

    // Satisfaction reads worlds through the overlays; it must not notice.
    StatusOr<bool> sat_flat = KbSatisfies(kbs.flat, phi);
    StatusOr<bool> sat_overlay = KbSatisfies(kbs.overlayed, phi);
    ASSERT_EQ(sat_flat.ok(), sat_overlay.ok());
    if (sat_flat.ok()) ASSERT_EQ(*sat_flat, *sat_overlay);

    // τ across strategies (auto dispatch and forced SAT), sequential and
    // 4-way parallel: equal inputs give equal canonical outputs.
    for (MuStrategy strategy : {MuStrategy::kAuto, MuStrategy::kSat}) {
      for (size_t threads : {1u, 4u}) {
        TauOptions options;
        options.mu.strategy = strategy;
        options.threads = threads;
        StatusOr<Knowledgebase> from_flat = Tau(phi, kbs.flat, options);
        StatusOr<Knowledgebase> from_overlay = Tau(phi, kbs.overlayed, options);
        ASSERT_EQ(from_flat.ok(), from_overlay.ok()) << "trial " << trial;
        if (!from_flat.ok()) continue;
        ASSERT_EQ(*from_flat, *from_overlay)
            << "trial " << trial << " strategy "
            << static_cast<int>(strategy) << " threads " << threads;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(WorldsetPropertyTest, MuAgreesOnSingletonConstructions) {
  // μ on a world reached through an overlay vs the same world flat.
  std::mt19937_64 rng(777);
  RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  for (int trial = 0; trial < 20; ++trial) {
    Database base = RandomDatabase(&rng);
    Database edited = RandomDatabase(&rng);
    WorldOverlay overlay = WorldOverlay::FromDiff(base, edited);
    Database via_overlay = overlay.ApplyTo(base);
    ASSERT_EQ(via_overlay, edited);
    Formula phi = gen.Generate(2);
    StatusOr<Knowledgebase> a = Mu(phi, edited);
    StatusOr<Knowledgebase> b = Mu(phi, via_overlay);
    ASSERT_EQ(a.ok(), b.ok()) << "trial " << trial;
    if (a.ok()) ASSERT_EQ(*a, *b) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Store: version-3 checkpoints and legacy decode.

/// A checkpoint image with an arbitrary version byte and payload (the CRC is
/// computed honestly, so only the payload semantics are under test).
std::string MakeImage(uint8_t version, uint64_t lsn, const std::string& payload) {
  auto put_u32 = [](std::string& out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  std::string out(store::kCheckpointMagic, sizeof(store::kCheckpointMagic));
  out.push_back(static_cast<char>(version));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((lsn >> (8 * i)) & 0xff));
  }
  put_u32(out, store::Crc32c(payload));
  put_u32(out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

TEST(WorldsetPropertyTest, CheckpointRoundTripIsBitIdentical) {
  std::mt19937_64 rng(5150);
  for (int trial = 0; trial < 30; ++trial) {
    TwoConstructions kbs = BuildBothWays(RandomDeltaWorkload(&rng), &rng);
    std::string image = store::EncodeCheckpoint(kbs.overlayed, trial);
    auto decoded = store::DecodeCheckpoint(image);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(decoded->kb, kbs.flat);
    // And re-encoding reproduces the checkpoint image byte for byte.
    ASSERT_EQ(store::EncodeCheckpoint(decoded->kb, trial), image);
  }
}

/// The payload of `EncodeCheckpoint(kb, 0)`: the image past its header.
std::string CurrentPayload(const Knowledgebase& kb) {
  return store::EncodeCheckpoint(kb, 0).substr(24);
}

TEST(WorldsetPropertyTest, LegacyVersion1CheckpointsAreRefused) {
  // Version-1 images (the flat member list, written before the overlay
  // representation) and version-2 images (the base in a dictionary format)
  // are refused with a typed error, whatever they hold: the version byte
  // alone decides, so even a current payload under an old version fails.
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Knowledgebase kb = RandomKnowledgebase(&rng);
    for (uint8_t version : {1, 2}) {
      auto decoded =
          store::DecodeCheckpoint(MakeImage(version, 7, CurrentPayload(kb)));
      ASSERT_FALSE(decoded.ok());
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(decoded.status().message(),
                "unsupported checkpoint version " + std::to_string(version));
    }
  }
}

TEST(WorldsetPropertyTest, RejectsNonCanonicalOverlayPayload) {
  // Syntactically well-formed v3 payloads that no EncodeCheckpoint writes
  // must be kDataLoss even though the CRC is valid: an overlay that breaks
  // the canonical invariant (adds overlapping the base; WorldOverlay::Validate
  // gates acceptance), a base that declares one relation twice, and a
  // non-empty base under no worlds.
  auto put_u32 = [](std::string& out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put_block = [&put_u32](std::string& out, const std::string& block) {
    put_u32(out, static_cast<uint32_t>(block.size()));
    out += block;
  };
  std::vector<std::string> payloads;
  {
    std::string payload;
    put_u32(payload, 1);  // One world.
    put_u32(payload, 1);  // Base: P = {a}.
    put_block(payload, store::EncodeTupleDelta("P", 1, {{"a"}}));
    put_u32(payload, 1);  // One delta.
    // adds = {a} which is already in the base: invariant violation.
    put_block(payload, store::EncodeTupleDelta("P", 1, {{"a"}}));
    put_block(payload, store::EncodeTupleDelta("P", 1, {}));
    payloads.push_back(payload);
  }
  for (size_t second_arity : {1, 2}) {
    std::string payload;
    put_u32(payload, 1);  // One world.
    put_u32(payload, 2);  // Base: P declared twice.
    put_block(payload, store::EncodeTupleDelta("P", 1, {{"a"}}));
    put_block(payload, store::EncodeTupleDelta("P", second_arity, {}));
    put_u32(payload, 0);  // No deltas.
    payloads.push_back(payload);
  }
  {
    std::string payload;
    put_u32(payload, 0);  // No worlds.
    put_u32(payload, 1);  // Base: P = {a}.
    put_block(payload, store::EncodeTupleDelta("P", 1, {{"a"}}));
    payloads.push_back(payload);
  }

  for (const std::string& payload : payloads) {
    auto decoded = store::DecodeCheckpoint(
        MakeImage(store::kCheckpointVersion, 3, payload));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status();
  }
}

TEST(WorldsetPropertyTest, RecoveryAndFsckRefuseLegacyVersion1Store) {
  // A store directory whose checkpoint an older encoder wrote (v1: a flat
  // member list; v2: the base in a dictionary format), followed by a
  // tuple-delta WAL suffix, does not open: recovery fails with kDataLoss and
  // fsck reports the same cause, rather than either silently starting from
  // an empty or partial state.
  std::mt19937_64 rng(31337);
  Knowledgebase kb = RandomKnowledgebase(&rng);

  for (uint8_t version : {1, 2}) {
    SCOPED_TRACE("version " + std::to_string(version));
    store::FaultInjectionEnv env;
    ASSERT_TRUE(env.CreateDir("store").ok());
    {
      auto file = env.NewTruncatedFile("store/checkpoint-4");
      ASSERT_TRUE(file.ok());
      ASSERT_TRUE(
          (*file)->Append(MakeImage(version, 4, CurrentPayload(kb))).ok());
      ASSERT_TRUE((*file)->Sync().ok());
      ASSERT_TRUE((*file)->Close().ok());
    }
    {
      auto file = env.NewTruncatedFile("store/wal-4");
      ASSERT_TRUE(file.ok());
      auto writer = store::WalWriter::Create(std::move(*file), 0, 4);
      ASSERT_TRUE(writer.ok());
      store::WalRecord record;
      record.kind = store::WalRecordKind::kInsert;
      record.payload = store::EncodeTupleDelta("P", 1, {{"b"}, {"c"}});
      ASSERT_TRUE((*writer)->Append(record).ok());
      ASSERT_TRUE((*writer)->Sync().ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
    const std::string cause =
        "unsupported checkpoint version " + std::to_string(version);

    Engine engine;
    auto recovered = store::RecoverStore(&env, "store", engine);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(recovered.status().message().find(cause), std::string::npos)
        << recovered.status().message();

    store::FsckOptions options;
    options.deep = true;
    auto report = store::CheckStore(&env, "store", options);
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_FALSE(report->clean());
    EXPECT_EQ(report->checkpoints_seen, 1u);
    EXPECT_EQ(report->checkpoints_valid, 0u);
    // The newest (only) checkpoint's finding names the version; deep mode
    // replays recovery and reports its kDataLoss cause.
    std::vector<std::string> expected = {
        "checkpoint-4: " + cause + " (newest checkpoint)",
        "no checkpoint decodes; recovery would fail",
        "deep replay: " + recovered.status().message()};
    for (const std::string& finding : expected) {
      EXPECT_NE(
          std::find(report->errors.begin(), report->errors.end(), finding),
          report->errors.end())
          << finding << "\n" << store::FormatFsckReport(*report);
    }
  }
}

}  // namespace
}  // namespace kbt
