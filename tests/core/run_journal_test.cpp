#include "carbon/obs/run_journal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "carbon/obs/json.hpp"

namespace carbon::obs {
namespace {

std::vector<JsonValue> parse_lines(const std::string& text) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(parse_json(line));
  }
  return out;
}

GenerationRecord sample_record(int generation) {
  GenerationRecord rec;
  rec.generation = generation;
  rec.phase = "carbon";
  rec.best_ul = 743.25;
  rec.mean_ul = 100.125;
  rec.std_ul = 2.5;
  rec.best_gap = 5.75;
  rec.mean_gap = 30.5;
  rec.std_gap = 1.25;
  rec.best_ul_so_far = 743.25;
  rec.best_gap_so_far = 5.75;
  rec.archive_size = 10;
  rec.ll_archive_size = 12;
  rec.ul_evals = 20;
  rec.ll_evals = 120;
  rec.backend.relaxation_cache_hits = 40;
  rec.backend.relaxation_cache_misses = 10;
  rec.backend.relaxation_cache_evictions = 3;
  rec.backend.heuristic_dedup_hits = 7;
  rec.backend.score_cache_hits = 8;
  rec.backend.score_cache_evictions = 9;
  rec.backend.guard_trips = 11;
  rec.backend.guard_degraded_evals = 12;
  rec.backend.guard_budget_exhausted = 13;
  rec.backend.lp_family_rebinds = 14;
  rec.backend.lp_warm_start_rejects = 15;
  rec.backend.lp_pool_hits = 16;
  rec.backend.lp_pool_rejects = 17;
  rec.backend.lp_pivots_saved = 18;
  return rec;
}

TEST(RunJournal, EmitsStartGenerationsAndSummaryAsParsableJsonl) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("carbon", 42, 4, "baseline", "avx2");
  journal.write_generation(sample_record(0));
  journal.write_generation(sample_record(1));
  RunSummary summary;
  summary.generations = 2;
  summary.ul_evals = 20;
  summary.ll_evals = 120;
  summary.best_ul = 743.25;
  summary.best_gap = 5.75;
  journal.finish_run(summary);

  EXPECT_EQ(journal.records_written(), 4);
  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].at("type").as_string(), "run_start");
  EXPECT_EQ(records[1].at("type").as_string(), "generation");
  EXPECT_EQ(records[2].at("type").as_string(), "generation");
  EXPECT_EQ(records[3].at("type").as_string(), "summary");
  for (const auto& rec : records) {
    EXPECT_EQ(rec.at("algo").as_string(), "carbon");
  }
}

TEST(RunJournal, ResumeRecordCarriesTheRestoredState) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("carbon", 7, 1, "baseline", "scalar");
  ResumeRecord rec;
  rec.generation = 12;
  rec.ul_evals = 960;
  rec.ll_evals = 4800;
  rec.checkpoint_path = "/tmp/run3.ckpt";
  journal.write_resume(rec);

  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 2u);
  const JsonValue& resume = records[1];
  EXPECT_EQ(resume.at("type").as_string(), "resume");
  EXPECT_EQ(resume.at("algo").as_string(), "carbon");
  EXPECT_EQ(resume.at("generation").as_integer(), 12);
  EXPECT_EQ(resume.at("ul_evals").as_integer(), 960);
  EXPECT_EQ(resume.at("ll_evals").as_integer(), 4800);
  EXPECT_EQ(resume.at("from").as_string(), "/tmp/run3.ckpt");
}

TEST(RunJournal, RunStartEchoesTheConfig) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("cobra", 1234567890123ULL, 8, "pool", "scalar");
  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 1u);
  const JsonValue& start = records[0];
  EXPECT_EQ(start.at("v").as_integer(), 1);
  EXPECT_EQ(start.at("algo").as_string(), "cobra");
  EXPECT_EQ(start.at("seed").as_integer(), 1234567890123LL);
  EXPECT_EQ(start.at("eval_threads").as_integer(), 8);
  EXPECT_EQ(start.at("lp_warm").as_string(), "pool");
  EXPECT_EQ(start.at("simd").as_string(), "scalar");
}

TEST(RunJournal, GenerationRecordRoundTripsEveryField) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("carbon", 1, 1, "baseline", "avx2");
  journal.write_generation(sample_record(3));
  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 2u);
  const JsonValue& g = records[1];
  EXPECT_EQ(g.at("generation").as_integer(), 3);
  EXPECT_EQ(g.at("phase").as_string(), "carbon");
  EXPECT_DOUBLE_EQ(g.at("best_ul").as_number(), 743.25);
  EXPECT_DOUBLE_EQ(g.at("mean_ul").as_number(), 100.125);
  EXPECT_DOUBLE_EQ(g.at("std_ul").as_number(), 2.5);
  EXPECT_DOUBLE_EQ(g.at("best_gap").as_number(), 5.75);
  EXPECT_DOUBLE_EQ(g.at("mean_gap").as_number(), 30.5);
  EXPECT_DOUBLE_EQ(g.at("std_gap").as_number(), 1.25);
  EXPECT_DOUBLE_EQ(g.at("best_ul_so_far").as_number(), 743.25);
  EXPECT_DOUBLE_EQ(g.at("best_gap_so_far").as_number(), 5.75);
  EXPECT_EQ(g.at("archive_size").as_integer(), 10);
  EXPECT_EQ(g.at("ll_archive_size").as_integer(), 12);
  EXPECT_EQ(g.at("ul_evals").as_integer(), 20);
  EXPECT_EQ(g.at("ll_evals").as_integer(), 120);
  // Every backend key, in emission order (bench/e2e parses several of them
  // by name).
  const std::pair<const char*, long long> keys[] = {
      {"relax_cache_hits", 40},  {"relax_cache_misses", 10},
      {"relax_cache_evictions", 3}, {"dedup_hits", 7},
      {"xgen_hits", 8},          {"xgen_evictions", 9},
      {"guard_trips", 11},       {"guard_degraded", 12},
      {"guard_exhausted", 13},   {"lp_family_rebinds", 14},
      {"lp_warm_rejects", 15},   {"lp_pool_hits", 16},
      {"lp_pool_rejects", 17},   {"lp_pivots_saved", 18},
  };
  const JsonValue& backend = g.at("backend");
  EXPECT_EQ(backend.object.size(), std::size(keys));
  const std::string line = sink.str().substr(sink.str().find('\n') + 1);
  std::size_t last = line.find("\"backend\"");
  for (const auto& [key, value] : keys) {
    EXPECT_EQ(backend.at(key).as_integer(), value) << key;
    const std::size_t at = line.find('"' + std::string(key) + "\":", last);
    ASSERT_NE(at, std::string::npos) << key;
    last = at;
  }
  // Without a registry the timings object is present but empty.
  EXPECT_TRUE(g.at("timings_s").is_object());
  EXPECT_TRUE(g.at("timings_s").object.empty());
}

TEST(RunJournal, TimingsCarryPerGenerationDeltasAndCumulativeSummary) {
  MetricsRegistry metrics;
  std::ostringstream sink;
  RunJournal journal(sink, &metrics);
  journal.begin_run("carbon", 1, 1, "baseline", "avx2");

  metrics.record_timer("time/ll_solve", 1.0);
  journal.write_generation(sample_record(0));
  metrics.record_timer("time/ll_solve", 0.5);
  journal.write_generation(sample_record(1));
  journal.finish_run(RunSummary{});

  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_DOUBLE_EQ(
      records[1].at("timings_s").at("time/ll_solve").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(
      records[2].at("timings_s").at("time/ll_solve").as_number(), 0.5);
  // The summary totals the whole run.
  EXPECT_DOUBLE_EQ(
      records[3].at("timings_s").at("time/ll_solve").as_number(), 1.5);
  EXPECT_GE(records[3].at("wall_s").as_number(), 0.0);
}

TEST(RunJournal, TimingsExcludeActivityBeforeBeginRun) {
  MetricsRegistry metrics;
  metrics.record_timer("time/ll_solve", 100.0);  // previous run's cost
  std::ostringstream sink;
  RunJournal journal(sink, &metrics);
  journal.begin_run("carbon", 1, 1, "baseline", "avx2");
  metrics.record_timer("time/ll_solve", 0.25);
  journal.write_generation(sample_record(0));
  RunSummary summary;
  journal.finish_run(summary);

  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(
      records[1].at("timings_s").at("time/ll_solve").as_number(), 0.25);
  EXPECT_DOUBLE_EQ(
      records[2].at("timings_s").at("time/ll_solve").as_number(), 0.25);
}

TEST(RunJournal, NonFiniteValuesBecomeNull) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("carbon", 1, 1, "baseline", "avx2");
  GenerationRecord rec = sample_record(0);
  rec.best_ul = -std::numeric_limits<double>::infinity();
  rec.mean_gap = std::numeric_limits<double>::quiet_NaN();
  journal.write_generation(rec);
  const auto records = parse_lines(sink.str());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[1].at("best_ul").is_null());
  EXPECT_TRUE(records[1].at("mean_gap").is_null());
  EXPECT_DOUBLE_EQ(records[1].at("best_gap").as_number(), 5.75);
}

TEST(RunJournal, ThrowsWhenTheFileCannotBeOpened) {
  EXPECT_THROW(RunJournal("/nonexistent-dir/journal.jsonl"),
               std::runtime_error);
}

TEST(RunJournal, DoublesRoundTripAtFullPrecision) {
  std::ostringstream sink;
  RunJournal journal(sink);
  journal.begin_run("carbon", 1, 1, "baseline", "avx2");
  GenerationRecord rec = sample_record(0);
  rec.best_ul = 742.32863999633457;  // not exactly representable in decimal
  rec.mean_gap = 1.0 / 3.0;
  journal.write_generation(rec);
  const auto records = parse_lines(sink.str());
  EXPECT_EQ(records[1].at("best_ul").as_number(), 742.32863999633457);
  EXPECT_EQ(records[1].at("mean_gap").as_number(), 1.0 / 3.0);
}

// ---- JSON layer ----------------------------------------------------------

TEST(Json, ParsesEscapesAndUnicode) {
  const JsonValue v = parse_json(
      R"({"s":"a\"b\\c\n\tA","n":-1.5e3,"t":true,"f":false,"z":null})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\n\tA");
  EXPECT_DOUBLE_EQ(v.at("n").as_number(), -1500.0);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("z").is_null());
}

TEST(Json, ParsesUnicodeEscapes) {
  const JsonValue v = parse_json("{\"u\":\"\\u0041\\u00e9\\u20ac\"}");
  EXPECT_EQ(v.at("u").as_string(), "A\xC3\xA9\xE2\x82\xAC");  // A, é, €
}

TEST(Json, ParsesNestedObjectsAndArrays) {
  const JsonValue v = parse_json(R"({"a":{"b":[1,2,{"c":3}]},"d":[]})");
  const JsonValue& arr = v.at("a").at("b");
  ASSERT_EQ(arr.array.size(), 3u);
  EXPECT_EQ(arr.array[0].as_integer(), 1);
  EXPECT_EQ(arr.array[2].at("c").as_integer(), 3);
  EXPECT_TRUE(v.at("d").array.empty());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json(R"({"a":})"), std::runtime_error);
  EXPECT_THROW(parse_json(R"({"a":1,})"), std::runtime_error);
  EXPECT_THROW(parse_json("nul"), std::runtime_error);
}

TEST(Json, AccessorsThrowOnKindMismatch) {
  const JsonValue v = parse_json(R"({"n":1})");
  EXPECT_THROW((void)v.at("n").as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("missing"), std::runtime_error);
  EXPECT_THROW((void)v.at("n").at("x"), std::runtime_error);
}

TEST(Json, WriterEscapesControlCharactersAndQuotes) {
  JsonObjectWriter w;
  w.field("k", std::string_view("a\"b\\c\x01", 6));
  const std::string line = w.finish();
  const JsonValue v = parse_json(line);
  EXPECT_EQ(v.at("k").as_string(), std::string("a\"b\\c\x01", 6));
}

}  // namespace
}  // namespace carbon::obs
