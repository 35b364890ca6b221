// Negative-path fuzz for the obs/json recursive-descent parser.
//
// The parser sits on two trust boundaries — run journals read back by tools
// and checkpoint files read at resume — so malformed input must throw
// std::runtime_error, never crash, hang, or silently mis-parse:
//   * truncated documents (every strict prefix of valid records),
//   * pathological nesting ("[[[[..." past the recursion limit),
//   * non-finite number literals ("1e999" overflowing to infinity),
//   * duplicate object keys (a corrupted record smuggling a second value),
//   * random mutations of valid journal lines (differential fuzz: parse
//     either throws or yields a value that re-survives a round trip).

#include "carbon/obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "carbon/common/rng.hpp"

namespace carbon::obs {
namespace {

JsonValue parse(const std::string& text) { return parse_json(text); }

TEST(JsonFuzz, EveryPrefixOfValidRecordsIsRejectedOrValid) {
  const std::string docs[] = {
      R"({"type":"generation","gen":3,"best_ul":1.5,"flags":[true,false]})",
      R"({"a":{"b":{"c":[1,2,3],"d":"x\u00e9y"}},"e":null})",
      R"([{"k":"v"},[],-12.5e-3,"\n\t\\"])",
  };
  for (const std::string& doc : docs) {
    EXPECT_NO_THROW((void)parse(doc)) << doc;
    // No strict prefix of a complete document is itself complete: the
    // parser must throw on every one rather than accept a truncation.
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
      const std::string prefix = doc.substr(0, cut);
      EXPECT_THROW((void)parse(prefix), std::runtime_error)
          << "accepted truncation at " << cut << ": " << prefix;
    }
  }
}

TEST(JsonFuzz, DeepNestingIsRejectedNotStackOverflow) {
  // Just inside the limit parses fine...
  {
    std::string ok;
    for (int i = 0; i < 250; ++i) ok.push_back('[');
    ok.push_back('1');
    for (int i = 0; i < 250; ++i) ok.push_back(']');
    EXPECT_NO_THROW((void)parse(ok));
  }
  // ...while adversarial depth (far past it) throws instead of smashing
  // the stack. 100k unclosed brackets would recurse 100k deep unguarded.
  for (const char open : {'[', '{'}) {
    std::string evil(100'000, open);
    if (open == '{') {
      // Objects need a key before recursing into the value.
      evil.clear();
      for (int i = 0; i < 100'000; ++i) evil += "{\"k\":";
    }
    EXPECT_THROW((void)parse(evil), std::runtime_error);
  }
  // Balanced-but-too-deep is rejected too (depth, not truncation).
  std::string deep;
  for (int i = 0; i < 5'000; ++i) deep.push_back('[');
  deep.push_back('0');
  for (int i = 0; i < 5'000; ++i) deep.push_back(']');
  EXPECT_THROW((void)parse(deep), std::runtime_error);
}

TEST(JsonFuzz, NonFiniteNumberLiteralsAreRejected) {
  // The writer nulls non-finite doubles, so any literal that overflows to
  // +/-inf (or parses to nan) cannot come from a healthy producer.
  for (const std::string bad :
       {"1e999", "-1e999", "1e99999", "[1,2,1e999]", R"({"x":-2.5e308})"}) {
    EXPECT_THROW((void)parse(bad), std::runtime_error) << bad;
  }
  // Large-but-finite values still parse.
  EXPECT_DOUBLE_EQ(parse("1.5e308").as_number(), 1.5e308);
  EXPECT_DOUBLE_EQ(parse("-4e-320").as_number(), -4e-320);  // subnormal ok
}

TEST(JsonFuzz, DuplicateObjectKeysAreRejected) {
  EXPECT_THROW((void)parse(R"({"a":1,"a":2})"), std::runtime_error);
  EXPECT_THROW((void)parse(R"({"a":1,"b":{"x":1,"x":2}})"),
               std::runtime_error);
  EXPECT_THROW((void)parse(R"([{"k":0,"k":0}])"), std::runtime_error);
  // Same key at different depths is fine.
  EXPECT_NO_THROW((void)parse(R"({"a":{"a":{"a":1}}})"));
  // Escapes are resolved before comparison: "\u0061" IS "a".
  EXPECT_THROW((void)parse(R"({"a":1,"\u0061":2})"), std::runtime_error);
}

TEST(JsonFuzz, AssortedMalformedDocumentsThrow) {
  const std::string bad[] = {
      "",          " ",          "tru",          "falsey",     "nul",
      "+1",        "-",          "1.2.3",        "0x10",       "1e",
      "\"ab",      "\"\\q\"",    "\"\\u12\"",    "\"\\u12zq\"", "\"\x01\"",
      "{",         "}",          "{\"a\"}",      "{\"a\":}",   "{\"a\":1,}",
      "{a:1}",     "[1,]",       "[1 2]",        "[,1]",       "1 2",
      "{} []",     "[1]]",       "{\"a\":1}}",
  };
  for (const std::string& doc : bad) {
    EXPECT_THROW((void)parse(doc), std::runtime_error) << "accepted: " << doc;
  }
}

TEST(JsonFuzz, RandomMutationsNeverCrashAndSurvivorsRoundTrip) {
  // Differential fuzz: mutate a valid journal-like record at random
  // positions. Every mutant must either throw std::runtime_error or parse
  // to a value whose re-serialization (via the accessors) is consistent —
  // no crashes, no hangs, no partially-initialized values.
  const std::string seed_doc =
      R"({"type":"generation","algo":"carbon","generation":12,)"
      R"("best_ul":123.456,"flags":[true,false,null],)"
      R"("backend":{"hits":10,"misses":3},"note":"a\"b\\c"})";
  common::Rng rng(2026);
  int accepted = 0;
  for (int iter = 0; iter < 5'000; ++iter) {
    std::string doc = seed_doc;
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng() % doc.size();
      switch (rng() % 4) {
        case 0:  // flip to a random printable byte
          doc[pos] = static_cast<char>(' ' + rng() % 95);
          break;
        case 1:  // delete
          doc.erase(pos, 1);
          break;
        case 2:  // duplicate
          doc.insert(pos, 1, doc[pos]);
          break;
        default:  // truncate
          doc.resize(pos + 1);
          break;
      }
      if (doc.empty()) doc.push_back('x');
    }
    try {
      const JsonValue v = parse(doc);
      ++accepted;
      // Whatever survived must be internally consistent: walking it cannot
      // throw, and any number it contains is finite.
      struct Walk {
        static void check(const JsonValue& n) {
          if (n.kind == JsonValue::Kind::kNumber) {
            EXPECT_TRUE(std::isfinite(n.as_number()));
          }
          for (const JsonValue& c : n.array) check(c);
          for (const auto& [k, c] : n.object) check(c);
        }
      };
      Walk::check(v);
    } catch (const std::runtime_error&) {
      // expected for most mutants
    }
  }
  // Sanity: the harness itself works — some mutants (e.g. digit tweaks)
  // must still parse, else the mutation operator is broken.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace carbon::obs
