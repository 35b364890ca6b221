// Unit tests for the checkpoint subsystem: bit-exact scalar encodings
// (including the values plain JSON cannot carry), GP-tree and RNG state
// round trips (differential fuzz against randomly generated inputs), full
// snapshot round trips through JSON and through the file layer, and strict
// rejection of malformed headers and bodies.

#include "carbon/core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "carbon/common/rng.hpp"
#include "carbon/gp/generate.hpp"
#include "common/temp_dir.hpp"

namespace carbon::core {
namespace {

/// Unique-per-test file path (tests/common/temp_dir.hpp), so parallel ctest
/// shards never race on a shared "roundtrip.ckpt".
std::string temp_path(const std::string& name) {
  return carbon::test::test_temp_dir() + name;
}

// ---- Scalar encodings ------------------------------------------------------

TEST(CheckpointEncoding, U64RoundTripsFullRange) {
  EXPECT_EQ(encode_u64(0), "0000000000000000");
  EXPECT_EQ(encode_u64(0xFF), "00000000000000ff");
  EXPECT_EQ(encode_u64(~0ULL), "ffffffffffffffff");
  common::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    // Full-range draws include values above 2^53, which the decimal JSON
    // number path (through double) could not round-trip.
    const std::uint64_t v = rng();
    EXPECT_EQ(decode_u64(encode_u64(v)), v);
  }
  EXPECT_EQ(decode_u64(encode_u64(9007199254740993ULL)),  // 2^53 + 1
            9007199254740993ULL);
}

TEST(CheckpointEncoding, U64DecodeIsStrict) {
  EXPECT_THROW((void)decode_u64(""), CheckpointError);
  EXPECT_THROW((void)decode_u64("123"), CheckpointError);              // short
  EXPECT_THROW((void)decode_u64("00000000000000zz"), CheckpointError);
  EXPECT_THROW((void)decode_u64("00000000000000ff "), CheckpointError);
  EXPECT_THROW((void)decode_u64("0x00000000000000f"), CheckpointError);
}

TEST(CheckpointEncoding, I64RoundTripsNegatives) {
  for (const long long v : {0LL, -1LL, 42LL, std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max()}) {
    EXPECT_EQ(decode_i64(encode_i64(v)), v);
  }
}

TEST(CheckpointEncoding, F64RoundTripsEveryBitPattern) {
  const double inf = std::numeric_limits<double>::infinity();
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, 1.0, -1.5, 1e308, 5e-324, inf, -inf,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon()}) {
    const double back = decode_f64(encode_f64(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v));
  }
  // NaN round-trips including its payload bits.
  const double nan_back = decode_f64(encode_f64(qnan));
  EXPECT_TRUE(std::isnan(nan_back));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(nan_back),
            std::bit_cast<std::uint64_t>(qnan));
  // -0.0 stays signed.
  EXPECT_TRUE(std::signbit(decode_f64(encode_f64(-0.0))));
}

TEST(CheckpointEncoding, DoubleVectorsRoundTrip) {
  common::Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.gauss() * std::pow(10.0, rng.uniform(-30.0, 30.0)));
  }
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-0.0);
  const std::vector<double> back = decode_doubles(encode_doubles(values));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
  EXPECT_TRUE(decode_doubles("").empty());
}

TEST(CheckpointEncoding, BytesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(decode_bytes(encode_bytes(bytes)), bytes);
  EXPECT_TRUE(decode_bytes("").empty());
  EXPECT_THROW((void)decode_bytes("abc"), CheckpointError);   // odd length
  EXPECT_THROW((void)decode_bytes("zz"), CheckpointError);
}

// ---- GP tree round trip (differential fuzz) --------------------------------

TEST(CheckpointEncoding, TreeRoundTripFuzz) {
  common::Rng rng(2018);
  gp::GenerateConfig gen;
  for (int i = 0; i < 300; ++i) {
    gen.use_constants = (i % 2 == 1);  // exercise the c<hex16> token path too
    const gp::Tree tree = gp::generate_ramped(rng, gen);
    ASSERT_TRUE(tree.valid());
    const gp::Tree back = decode_tree(encode_tree(tree));
    EXPECT_EQ(back, tree) << "iteration " << i << ": "
                          << tree.to_string();
  }
}

TEST(CheckpointEncoding, TreeRoundTripPreservesConstantBits) {
  const gp::Tree tree = gp::Tree::apply(
      gp::OpCode::kDiv, gp::Tree::constant(0.1),  // 0.1 is not exact in binary
      gp::Tree::apply(gp::OpCode::kAdd,
                      gp::Tree::terminal(gp::Terminal::kCost),
                      gp::Tree::constant(-0.0)));
  const gp::Tree back = decode_tree(encode_tree(tree));
  EXPECT_EQ(back, tree);  // Node::operator== compares doubles exactly
}

TEST(CheckpointEncoding, TreeDecodeRejectsMalformedInput) {
  EXPECT_THROW((void)decode_tree(""), CheckpointError);          // no root
  EXPECT_THROW((void)decode_tree("+ t0"), CheckpointError);      // arity
  EXPECT_THROW((void)decode_tree("t0 t1"), CheckpointError);     // two roots
  EXPECT_THROW((void)decode_tree("t99"), CheckpointError);       // bad index
  EXPECT_THROW((void)decode_tree("t"), CheckpointError);
  EXPECT_THROW((void)decode_tree("t4294967296"), CheckpointError);  // wraps to t0
  EXPECT_THROW((void)decode_tree("t4294967297"), CheckpointError);  // wraps to t1
  EXPECT_THROW((void)decode_tree("t01"), CheckpointError);  // not canonical
  EXPECT_THROW((void)decode_tree("q"), CheckpointError);         // unknown
  EXPECT_THROW((void)decode_tree("c123"), CheckpointError);      // short hex
}

// ---- RNG state -------------------------------------------------------------

TEST(CheckpointRng, SaveRestoreReproducesDrawSequence) {
  common::Rng rng(42);
  for (int i = 0; i < 37; ++i) (void)rng.uniform();  // advance arbitrarily

  const common::RngState saved = rng.state();
  std::vector<double> first;
  std::vector<std::uint64_t> first_ints;
  for (int i = 0; i < 100; ++i) {
    first.push_back(rng.uniform());
    first_ints.push_back(rng.below(1'000'000));
  }

  rng.set_state(saved);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform(), first[i]);  // bitwise
    EXPECT_EQ(rng.below(1'000'000), first_ints[i]);
  }
}

TEST(CheckpointRng, SpawnStreamsSurviveSaveRestore) {
  // seed_mix is part of the state: spawn(i) after restore must match.
  common::Rng rng(7);
  (void)rng.uniform();
  const common::RngState saved = rng.state();
  common::Rng spawned_before = rng.spawn(3);
  const double want = spawned_before.uniform();

  common::Rng other(999);  // a different generator restored to the state
  other.set_state(saved);
  common::Rng spawned_after = other.spawn(3);
  EXPECT_EQ(spawned_after.uniform(), want);
}

// ---- Snapshot round trips --------------------------------------------------

bcpop::Evaluation make_eval(double base) {
  bcpop::Evaluation e;
  e.ll_feasible = true;
  e.ul_objective = base;
  e.ll_objective = base * 0.1;
  e.lower_bound = base * 0.09;
  e.gap_percent = 3.14;
  e.selection = {1, 0, 1, 1, 0};
  return e;
}

CarbonCheckpoint make_carbon_checkpoint() {
  common::Rng rng(11);
  CarbonCheckpoint ck;
  ck.seed = 0xDEADBEEFCAFEF00DULL;
  ck.progress.rng = rng.state();
  ck.progress.generation = 17;
  ck.progress.consumed_ul = 1234;
  ck.progress.consumed_ll = 56789;
  ck.progress.backend.relaxation_cache_hits = 10;
  ck.progress.backend.relaxation_cache_misses = 20;
  ck.progress.backend.relaxation_cache_evictions = 3;
  ck.progress.backend.heuristic_dedup_hits = 40;
  ck.progress.result.best_ul_objective = 123.456;
  ck.progress.result.best_gap = 0.75;
  ck.progress.result.best_pricing = {1.5, 2.5, 3.5};
  ck.progress.result.best_evaluation = make_eval(123.456);
  ck.progress.result.ul_evaluations = 1234;
  ck.progress.result.ll_evaluations = 56789;
  ck.progress.result.generations = 17;
  core::ConvergencePoint pt;
  pt.generation = 16;
  pt.ul_evaluations = 1200;
  pt.ll_evaluations = 50000;
  pt.best_ul_so_far = 123.456;
  pt.best_gap_so_far = 0.75;
  pt.current_best_ul = 120.0;
  pt.current_mean_gap = 1.25;
  pt.gp_unique_fraction = 0.875;
  pt.gp_mean_tree_size = 9.5;
  pt.phase = "carbon";
  ck.progress.result.convergence.push_back(pt);

  gp::GenerateConfig gen;
  for (int i = 0; i < 4; ++i) {
    ck.ul_pop.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    ck.gp_pop.push_back(gp::generate_ramped(rng, gen));
  }
  ck.solution_archive.push_back({{9.0, 8.0, 7.0}, make_eval(50.0), 50.0});
  ck.solution_archive.push_back({{6.0, 5.0, 4.0}, make_eval(40.0), 40.0});
  ck.heuristic_archive.push_back({gp::generate_ramped(rng, gen), 1.5});
  return ck;
}

CobraCheckpoint make_cobra_checkpoint() {
  common::Rng rng(13);
  CobraCheckpoint ck;
  ck.seed = 77;
  ck.progress.rng = rng.state();
  ck.progress.generation = 9;
  ck.progress.consumed_ul = 400;
  ck.progress.consumed_ll = 4000;
  ck.progress.result.best_ul_objective = 55.5;
  ck.progress.result.best_gap = 2.5;
  ck.progress.result.best_pricing = {4.0, 5.0};
  ck.progress.result.best_evaluation = make_eval(55.5);
  for (int i = 0; i < 3; ++i) {
    ck.ul_pop.push_back({rng.uniform(), rng.uniform()});
    ck.ll_pop.push_back({1, 0, 1, 0, 1});
  }
  ck.upper_archive.push_back({{1.0, 2.0}, {1, 1, 0, 0, 1}, make_eval(30.0), 30.0});
  ck.lower_archive.push_back({{3.0, 4.0}, {0, 0, 1, 1, 0}, make_eval(20.0), 2.0});
  ck.paired_pricing = {4.0, 5.0};
  ck.paired_basket = {1, 0, 0, 1, 1};
  return ck;
}

/// Sets the ten counters make_carbon_checkpoint leaves at zero, so all 14
/// carry distinct non-zero values.
void set_optional_counters(obs::BackendStats& b) {
  b.score_cache_hits = 5;
  b.score_cache_evictions = 6;
  b.guard_trips = 7;
  b.guard_degraded_evals = 9;
  b.guard_budget_exhausted = 2;
  b.lp_family_rebinds = 11;
  b.lp_warm_start_rejects = 12;
  b.lp_pool_hits = 13;
  b.lp_pool_rejects = 14;
  b.lp_pivots_saved = 15;
}

TEST(CheckpointSnapshot, CarbonJsonRoundTripIsExact) {
  const CarbonCheckpoint ck = make_carbon_checkpoint();
  const CarbonCheckpoint back =
      CarbonCheckpoint::from_json(obs::parse_json(ck.to_json()));
  EXPECT_EQ(back, ck);  // field-wise, doubles bitwise
}

TEST(CheckpointSnapshot, CarbonJsonRoundTripCarriesNonFiniteResultFields) {
  // A checkpoint written before the first feasible solution holds ±inf in
  // the best-so-far fields; the hex encoding must carry them (the JSON
  // number path would collapse them to null).
  CarbonCheckpoint ck = make_carbon_checkpoint();
  ck.progress.result.best_ul_objective =
      -std::numeric_limits<double>::infinity();
  ck.progress.result.best_gap = std::numeric_limits<double>::infinity();
  const CarbonCheckpoint back =
      CarbonCheckpoint::from_json(obs::parse_json(ck.to_json()));
  EXPECT_EQ(back, ck);
}

TEST(CheckpointSnapshot, CobraJsonRoundTripIsExact) {
  const CobraCheckpoint ck = make_cobra_checkpoint();
  const CobraCheckpoint back =
      CobraCheckpoint::from_json(obs::parse_json(ck.to_json()));
  EXPECT_EQ(back, ck);
}

TEST(CheckpointSnapshot, GuardOutcomeAndCountersRoundTripExactly) {
  CarbonCheckpoint ck = make_carbon_checkpoint();
  set_optional_counters(ck.progress.backend);
  ck.progress.result.best_evaluation.guard.rung = guard::Rung::kLagrangian;
  ck.progress.result.best_evaluation.guard.trip = guard::Trip::kInjected;
  ck.progress.result.best_evaluation.guard.construction_capped = true;
  ck.solution_archive[0].evaluation.guard.rung = guard::Rung::kGreedyOnly;
  ck.solution_archive[0].evaluation.guard.trip = guard::Trip::kNodeBudget;
  ck.solution_archive[0].evaluation.guard.budget_exhausted = true;
  const CarbonCheckpoint back =
      CarbonCheckpoint::from_json(obs::parse_json(ck.to_json()));
  EXPECT_EQ(back, ck);
}

TEST(CheckpointSnapshot, GuardFieldsAreOptionalForOldFiles) {
  // Guard fields are emitted only when non-default, so (a) an unguarded
  // checkpoint's bytes carry no guard keys at all — the pre-guard format —
  // and (b) such a body reads back with default guard state. Together these
  // prove schema version 1 stays backward and forward compatible.
  const CarbonCheckpoint ck = make_carbon_checkpoint();
  const std::string body = ck.to_json();
  EXPECT_EQ(body.find("grng"), std::string::npos);
  EXPECT_EQ(body.find("gtr"), std::string::npos);
  const CarbonCheckpoint back =
      CarbonCheckpoint::from_json(obs::parse_json(body));
  EXPECT_EQ(back.progress.backend.guard_trips, 0);
  EXPECT_EQ(back.progress.result.best_evaluation.guard, guard::Outcome{});
}

TEST(CheckpointSnapshot, BodyBytesMatchTheRecordedWireFormat) {
  // Body hashes recorded from the hand-written codec that preceded the
  // counter list: key names, key order and the omission of all-zero
  // optional counter groups are pinned byte for byte.
  CarbonCheckpoint ck = make_carbon_checkpoint();
  EXPECT_EQ(encode_u64(fnv1a64(ck.to_json())), "5ccd3471550e0eae");
  set_optional_counters(ck.progress.backend);
  const std::string body = ck.to_json();
  EXPECT_EQ(encode_u64(fnv1a64(body)), "ecc6b10d99e7aaec");
  EXPECT_NE(
      body.find(
          R"("backend":{"rch":"000000000000000a","rcm":"0000000000000014",)"
          R"("rce":"0000000000000003","ddh":"0000000000000028",)"
          R"("xgh":"0000000000000005","xge":"0000000000000006",)"
          R"("gtr":"0000000000000007","gde":"0000000000000009",)"
          R"("gex":"0000000000000002","lpf":"000000000000000b",)"
          R"("wsr":"000000000000000c","lph":"000000000000000d",)"
          R"("lpr":"000000000000000e","lps":"000000000000000f"})"),
      std::string::npos);
}

TEST(CheckpointSnapshot, OutOfRangeGuardEnumsAreRejected) {
  CarbonCheckpoint ck = make_carbon_checkpoint();
  ck.progress.result.best_evaluation.guard.rung = guard::Rung::kLagrangian;
  std::string body = ck.to_json();
  const std::string needle = "\"grng\":1";
  const std::size_t at = body.find(needle);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, needle.size(), "\"grng\":9");
  EXPECT_THROW((void)CarbonCheckpoint::from_json(obs::parse_json(body)),
               CheckpointError);
}

TEST(CheckpointSnapshot, SaveLoadRoundTripsThroughTheFileLayer) {
  const std::string path = temp_path("roundtrip.ckpt");
  const CarbonCheckpoint ck = make_carbon_checkpoint();
  ck.save(path);
  EXPECT_EQ(CarbonCheckpoint::load(path), ck);

  const CobraCheckpoint cobra_ck = make_cobra_checkpoint();
  const std::string cobra_path = temp_path("roundtrip-cobra.ckpt");
  cobra_ck.save(cobra_path);
  EXPECT_EQ(CobraCheckpoint::load(cobra_path), cobra_ck);

  std::remove(path.c_str());
  std::remove(cobra_path.c_str());
}

TEST(CheckpointSnapshot, SaveOverwritesAtomically) {
  const std::string path = temp_path("overwrite.ckpt");
  CarbonCheckpoint ck = make_carbon_checkpoint();
  ck.save(path);
  ck.progress.generation = 18;
  ck.save(path);  // rename over the previous file
  EXPECT_EQ(CarbonCheckpoint::load(path).progress.generation, 18);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

// ---- File-layer rejection --------------------------------------------------

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -jN runs sibling cases of this fixture
    // concurrently, and a shared path makes one case's TearDown delete the
    // file under another.
    path_ = temp_path(std::string("reject-") +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".ckpt");
    make_carbon_checkpoint().save(path_);
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    file_ = buf.str();
    ASSERT_FALSE(file_.empty());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_raw(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  std::string path_;
  std::string file_;
};

TEST_F(CheckpointFileTest, MissingFileIsRejected) {
  EXPECT_THROW((void)CarbonCheckpoint::load(temp_path("nonexistent.ckpt")),
               CheckpointError);
}

TEST_F(CheckpointFileTest, WrongMagicIsRejected) {
  write_raw("{\"magic\":\"other\",\"version\":1,\"algo\":\"carbon\","
            "\"body_bytes\":2,\"body_fnv1a\":\"0000000000000000\"}\n{}\n");
  EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
}

TEST_F(CheckpointFileTest, WrongVersionIsRejected) {
  const std::size_t pos = file_.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  std::string bumped = file_;
  bumped.replace(pos, 11, "\"version\":2");
  write_raw(bumped);
  EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
}

TEST_F(CheckpointFileTest, WrongAlgorithmIsRejected) {
  EXPECT_THROW((void)CobraCheckpoint::load(path_), CheckpointError);
}

TEST_F(CheckpointFileTest, EveryTruncationIsRejected) {
  // Any prefix of the file must fail cleanly — header cut, body cut, or
  // the final newline missing a byte.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, file_.size() / 4, file_.size() / 2,
        file_.size() - 2}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    write_raw(file_.substr(0, keep));
    EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
  }
}

TEST_F(CheckpointFileTest, BodyBitFlipsAreRejectedByTheContentHash) {
  const std::size_t body_start = file_.find('\n') + 1;
  for (const std::size_t offset :
       {body_start, body_start + (file_.size() - body_start) / 2,
        file_.size() - 3}) {
    SCOPED_TRACE("offset=" + std::to_string(offset));
    std::string corrupted = file_;
    corrupted[offset] ^= 0x01;
    write_raw(corrupted);
    EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
  }
}

TEST_F(CheckpointFileTest, AppendedGarbageIsRejected) {
  write_raw(file_ + "extra");
  EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
}

TEST_F(CheckpointFileTest, MissingBodyFieldIsRejected) {
  // Rebuild the file with a body missing a required key; the header is
  // recomputed so the hash check passes and the schema check must catch it.
  const std::string body = "{\"algo\":\"carbon\",\"seed\":\"0000000000000001\"}";
  save_checkpoint_file(path_, "carbon", body);
  EXPECT_THROW((void)CarbonCheckpoint::load(path_), CheckpointError);
}

TEST_F(CheckpointFileTest, Fnv1a64MatchesReferenceVectors) {
  // Reference vectors for 64-bit FNV-1a.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST_F(CheckpointFileTest, AtomicWriteFailsLoudlyOnBadDirectory) {
  EXPECT_THROW(
      write_file_atomic(temp_path("no/such/dir/x.ckpt"), "contents"),
      CheckpointError);
}

}  // namespace
}  // namespace carbon::core
