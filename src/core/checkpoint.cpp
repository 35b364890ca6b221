#include "carbon/core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace carbon::core {

namespace {

constexpr std::string_view kMagic = "carbon-checkpoint";
constexpr char kHexDigits[] = "0123456789abcdef";

[[noreturn]] void fail(const std::string& what) { throw CheckpointError(what); }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

// ---- Bit-exact scalar/sequence encoding ------------------------------------

std::string encode_u64(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

std::uint64_t decode_u64(std::string_view text) {
  if (text.size() != 16) {
    fail("checkpoint: expected 16 hex digits, got '" + std::string(text) +
         "'");
  }
  std::uint64_t v = 0;
  for (const char c : text) {
    const int d = hex_value(c);
    if (d < 0) {
      fail("checkpoint: bad hex digit in '" + std::string(text) + "'");
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

std::string encode_i64(long long v) {
  return encode_u64(static_cast<std::uint64_t>(v));
}

long long decode_i64(std::string_view text) {
  return static_cast<long long>(decode_u64(text));
}

std::string encode_f64(double v) {
  return encode_u64(std::bit_cast<std::uint64_t>(v));
}

double decode_f64(std::string_view text) {
  return std::bit_cast<double>(decode_u64(text));
}

std::string encode_doubles(std::span<const double> values) {
  std::string out;
  out.reserve(values.size() * 17);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out += encode_f64(values[i]);
  }
  return out;
}

std::vector<double> decode_doubles(std::string_view text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(' ', pos), text.size());
    out.push_back(decode_f64(text.substr(pos, end - pos)));
    pos = end == text.size() ? end : end + 1;
  }
  return out;
}

std::string encode_bytes(std::span<const std::uint8_t> bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> decode_bytes(std::string_view text) {
  if (text.size() % 2 != 0) fail("checkpoint: odd-length byte string");
  std::vector<std::uint8_t> out;
  out.reserve(text.size() / 2);
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const int hi = hex_value(text[i]);
    const int lo = hex_value(text[i + 1]);
    if (hi < 0 || lo < 0) fail("checkpoint: bad hex digit in byte string");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string encode_tree(const gp::Tree& tree) {
  std::string out;
  out.reserve(tree.size() * 4);
  for (const gp::Node& n : tree.nodes()) {
    if (!out.empty()) out.push_back(' ');
    switch (n.op) {
      case gp::OpCode::kAdd:
        out.push_back('+');
        break;
      case gp::OpCode::kSub:
        out.push_back('-');
        break;
      case gp::OpCode::kMul:
        out.push_back('*');
        break;
      case gp::OpCode::kDiv:
        out.push_back('/');
        break;
      case gp::OpCode::kMod:
        out.push_back('%');
        break;
      case gp::OpCode::kTerminal:
        out.push_back('t');
        out += std::to_string(static_cast<unsigned>(n.terminal));
        break;
      case gp::OpCode::kConst:
        out.push_back('c');
        out += encode_f64(n.value);
        break;
    }
  }
  return out;
}

gp::Tree decode_tree(std::string_view text) {
  std::vector<gp::Node> nodes;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(' ', pos), text.size());
    const std::string_view tok = text.substr(pos, end - pos);
    pos = end == text.size() ? end : end + 1;
    if (tok.empty()) fail("checkpoint: empty tree token");
    gp::Node n;
    if (tok == "+") {
      n.op = gp::OpCode::kAdd;
    } else if (tok == "-") {
      n.op = gp::OpCode::kSub;
    } else if (tok == "*") {
      n.op = gp::OpCode::kMul;
    } else if (tok == "/") {
      n.op = gp::OpCode::kDiv;
    } else if (tok == "%") {
      n.op = gp::OpCode::kMod;
    } else if (tok[0] == 't') {
      // Only encode_tree's canonical form: decimal digits without a leading
      // zero. Every prefix is range-checked, so idx can never wrap.
      const std::string_view digits = tok.substr(1);
      if (digits.empty() || (digits.size() > 1 && digits[0] == '0')) {
        fail("checkpoint: bad terminal token");
      }
      unsigned idx = 0;
      for (const char c : digits) {
        if (c < '0' || c > '9') fail("checkpoint: bad terminal token");
        idx = idx * 10 + static_cast<unsigned>(c - '0');
        if (idx >= gp::kNumTerminals) {
          fail("checkpoint: terminal index out of range");
        }
      }
      n.op = gp::OpCode::kTerminal;
      n.terminal = static_cast<std::uint8_t>(idx);
    } else if (tok[0] == 'c') {
      n.op = gp::OpCode::kConst;
      n.value = decode_f64(tok.substr(1));
    } else {
      fail("checkpoint: unknown tree token '" + std::string(tok) + "'");
    }
    nodes.push_back(n);
  }
  gp::Tree tree(std::move(nodes));
  if (!tree.valid()) fail("checkpoint: structurally invalid tree");
  return tree;
}

// ---- Shared component (de)serializers --------------------------------------

namespace {

const std::vector<obs::JsonValue>& as_array(const obs::JsonValue& v,
                                            const char* what) {
  if (v.kind != obs::JsonValue::Kind::kArray) {
    fail(std::string("checkpoint: '") + what + "' is not an array");
  }
  return v.array;
}

std::string rng_to_string(const common::RngState& s) {
  // Five words, space-separated. Appended piecewise: no temporary string
  // concatenation (GCC 12 misreads one as an overlapping memcpy).
  std::string out;
  out.reserve(5 * 17);
  for (const std::uint64_t word : s.xoshiro) {
    out.append(encode_u64(word));
    out.push_back(' ');
  }
  out.append(encode_u64(s.seed_mix));
  return out;
}

common::RngState rng_from_string(std::string_view text) {
  std::vector<std::uint64_t> words;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(' ', pos), text.size());
    words.push_back(decode_u64(text.substr(pos, end - pos)));
    pos = end == text.size() ? end : end + 1;
  }
  if (words.size() != 5) fail("checkpoint: rng state must have 5 words");
  common::RngState s;
  for (int i = 0; i < 4; ++i) s.xoshiro[static_cast<std::size_t>(i)] = words[static_cast<std::size_t>(i)];
  s.seed_mix = words[4];
  return s;
}

obs::JsonObjectWriter write_evaluation(const bcpop::Evaluation& e) {
  obs::JsonObjectWriter w;
  w.field("feasible", e.ll_feasible)
      .field("ul", encode_f64(e.ul_objective))
      .field("ll", encode_f64(e.ll_objective))
      .field("lb", encode_f64(e.lower_bound))
      .field("gap", encode_f64(e.gap_percent))
      .field("sel", encode_bytes(e.selection));
  // Guard outcome fields are emitted only when the evaluation left the
  // full-fidelity path, so checkpoints of unguarded runs keep their exact
  // historical bytes (and schema version 1 stays honest: old files simply
  // read back a default Outcome).
  if (e.guard != guard::Outcome{}) {
    w.field("grng", static_cast<long long>(e.guard.rung))
        .field("gtrip", static_cast<long long>(e.guard.trip))
        .field("gcap", e.guard.construction_capped)
        .field("gex", e.guard.budget_exhausted);
  }
  return w;
}

bcpop::Evaluation read_evaluation(const obs::JsonValue& v) {
  bcpop::Evaluation e;
  e.ll_feasible = v.at("feasible").as_bool();
  e.ul_objective = decode_f64(v.at("ul").as_string());
  e.ll_objective = decode_f64(v.at("ll").as_string());
  e.lower_bound = decode_f64(v.at("lb").as_string());
  e.gap_percent = decode_f64(v.at("gap").as_string());
  e.selection = decode_bytes(v.at("sel").as_string());
  if (v.has("grng")) {
    const long long rung = v.at("grng").as_integer();
    const long long trip = v.at("gtrip").as_integer();
    if (rung < 0 || rung > static_cast<long long>(guard::Rung::kGreedyOnly) ||
        trip < 0 || trip > static_cast<long long>(guard::Trip::kInjected)) {
      fail("checkpoint: guard outcome out of range");
    }
    e.guard.rung = static_cast<guard::Rung>(rung);
    e.guard.trip = static_cast<guard::Trip>(trip);
    e.guard.construction_capped = v.at("gcap").as_bool();
    e.guard.budget_exhausted = v.at("gex").as_bool();
  }
  return e;
}

obs::JsonObjectWriter write_point(const ConvergencePoint& p) {
  obs::JsonObjectWriter w;
  w.field("gen", p.generation)
      .field("ule", encode_i64(p.ul_evaluations))
      .field("lle", encode_i64(p.ll_evaluations))
      .field("bu", encode_f64(p.best_ul_so_far))
      .field("bg", encode_f64(p.best_gap_so_far))
      .field("cu", encode_f64(p.current_best_ul))
      .field("cg", encode_f64(p.current_mean_gap))
      .field("uf", encode_f64(p.gp_unique_fraction))
      .field("ts", encode_f64(p.gp_mean_tree_size))
      .field("phase", p.phase);
  return w;
}

ConvergencePoint read_point(const obs::JsonValue& v) {
  ConvergencePoint p;
  p.generation = static_cast<int>(v.at("gen").as_integer());
  p.ul_evaluations = decode_i64(v.at("ule").as_string());
  p.ll_evaluations = decode_i64(v.at("lle").as_string());
  p.best_ul_so_far = decode_f64(v.at("bu").as_string());
  p.best_gap_so_far = decode_f64(v.at("bg").as_string());
  p.current_best_ul = decode_f64(v.at("cu").as_string());
  p.current_mean_gap = decode_f64(v.at("cg").as_string());
  p.gp_unique_fraction = decode_f64(v.at("uf").as_string());
  p.gp_mean_tree_size = decode_f64(v.at("ts").as_string());
  p.phase = v.at("phase").as_string();
  return p;
}

/// First checkpoint key of `group`: an optional group is present in a file
/// iff this key is.
std::string_view group_key(obs::CheckpointGroup group) {
  return std::ranges::find(obs::kBackendCounters, group,
                           &obs::BackendCounter::group)
      ->checkpoint_key;
}

obs::JsonObjectWriter write_progress(const SolverProgress& p) {
  // An optional counter group is omitted when all its counters are zero, so
  // checkpoints of runs without that mechanism keep their historical bytes.
  const auto written = [&](obs::CheckpointGroup group) {
    return group == obs::CheckpointGroup::kAlways ||
           std::ranges::any_of(obs::kBackendCounters,
                               [&](const obs::BackendCounter& c) {
                                 return c.group == group &&
                                        p.backend.*c.member != 0;
                               });
  };
  obs::JsonObjectWriter backend;
  for (const obs::BackendCounter& c : obs::kBackendCounters) {
    if (written(c.group)) {
      backend.field(c.checkpoint_key, encode_i64(p.backend.*c.member));
    }
  }

  obs::JsonObjectWriter result;
  result.field("best_ul", encode_f64(p.result.best_ul_objective))
      .field("best_gap", encode_f64(p.result.best_gap))
      .field("best_pricing", encode_doubles(p.result.best_pricing))
      .object_field("best_evaluation",
                    write_evaluation(p.result.best_evaluation))
      .field("ul_evaluations", encode_i64(p.result.ul_evaluations))
      .field("ll_evaluations", encode_i64(p.result.ll_evaluations))
      .field("generations", p.result.generations);
  obs::JsonArrayWriter trace;
  for (const ConvergencePoint& pt : p.result.convergence) {
    trace.raw_item(write_point(pt).finish());
  }
  result.raw_field("convergence", trace.finish());

  obs::JsonObjectWriter w;
  w.field("rng", rng_to_string(p.rng))
      .field("generation", p.generation)
      .field("consumed_ul", encode_i64(p.consumed_ul))
      .field("consumed_ll", encode_i64(p.consumed_ll))
      .object_field("backend", std::move(backend))
      .object_field("result", std::move(result));
  return w;
}

SolverProgress read_progress(const obs::JsonValue& v) {
  SolverProgress p;
  p.rng = rng_from_string(v.at("rng").as_string());
  p.generation = static_cast<int>(v.at("generation").as_integer());
  p.consumed_ul = decode_i64(v.at("consumed_ul").as_string());
  p.consumed_ll = decode_i64(v.at("consumed_ll").as_string());
  // Absent optional groups read back as zero.
  const obs::JsonValue& b = v.at("backend");
  for (const obs::BackendCounter& c : obs::kBackendCounters) {
    if (c.group == obs::CheckpointGroup::kAlways || b.has(group_key(c.group))) {
      p.backend.*c.member = decode_i64(b.at(c.checkpoint_key).as_string());
    }
  }
  const obs::JsonValue& r = v.at("result");
  p.result.best_ul_objective = decode_f64(r.at("best_ul").as_string());
  p.result.best_gap = decode_f64(r.at("best_gap").as_string());
  p.result.best_pricing = decode_doubles(r.at("best_pricing").as_string());
  p.result.best_evaluation = read_evaluation(r.at("best_evaluation"));
  p.result.ul_evaluations = decode_i64(r.at("ul_evaluations").as_string());
  p.result.ll_evaluations = decode_i64(r.at("ll_evaluations").as_string());
  p.result.generations = static_cast<int>(r.at("generations").as_integer());
  for (const obs::JsonValue& pt : as_array(r.at("convergence"), "convergence")) {
    p.result.convergence.push_back(read_point(pt));
  }
  return p;
}

std::string pricings_to_json(const std::vector<bcpop::Pricing>& pop) {
  obs::JsonArrayWriter a;
  for (const bcpop::Pricing& x : pop) a.item(encode_doubles(x));
  return a.finish();
}

std::vector<bcpop::Pricing> pricings_from_json(const obs::JsonValue& v,
                                               const char* what) {
  std::vector<bcpop::Pricing> pop;
  for (const obs::JsonValue& x : as_array(v, what)) {
    pop.push_back(decode_doubles(x.as_string()));
  }
  return pop;
}

std::string pair_archive_to_json(const std::vector<ArchivedPairState>& arch) {
  obs::JsonArrayWriter a;
  for (const ArchivedPairState& e : arch) {
    obs::JsonObjectWriter w;
    w.field("p", encode_doubles(e.pricing))
        .field("b", encode_bytes(e.basket))
        .object_field("e", write_evaluation(e.evaluation))
        .field("fit", encode_f64(e.fitness));
    a.raw_item(w.finish());
  }
  return a.finish();
}

std::vector<ArchivedPairState> pair_archive_from_json(const obs::JsonValue& v,
                                                      const char* what) {
  std::vector<ArchivedPairState> arch;
  for (const obs::JsonValue& e : as_array(v, what)) {
    ArchivedPairState s;
    s.pricing = decode_doubles(e.at("p").as_string());
    s.basket = decode_bytes(e.at("b").as_string());
    s.evaluation = read_evaluation(e.at("e"));
    s.fitness = decode_f64(e.at("fit").as_string());
    arch.push_back(std::move(s));
  }
  return arch;
}

/// Wraps JsonValue accessor errors (std::runtime_error) into CheckpointError
/// so callers see one failure type for every malformed file.
template <typename Fn>
auto guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    throw CheckpointError(std::string("checkpoint: malformed body: ") +
                          e.what());
  }
}

}  // namespace

// ---- CarbonCheckpoint ------------------------------------------------------

std::string CarbonCheckpoint::to_json() const {
  obs::JsonObjectWriter w;
  w.field("algo", "carbon")
      .field("seed", encode_u64(seed))
      .object_field("progress", write_progress(progress))
      .raw_field("ul_pop", pricings_to_json(ul_pop));

  obs::JsonArrayWriter trees;
  for (const gp::Tree& t : gp_pop) trees.item(encode_tree(t));
  w.raw_field("gp_pop", trees.finish());

  obs::JsonArrayWriter sol;
  for (const ArchivedPricingState& e : solution_archive) {
    obs::JsonObjectWriter entry;
    entry.field("p", encode_doubles(e.pricing))
        .object_field("e", write_evaluation(e.evaluation))
        .field("fit", encode_f64(e.fitness));
    sol.raw_item(entry.finish());
  }
  w.raw_field("solution_archive", sol.finish());

  obs::JsonArrayWriter heur;
  for (const ArchivedHeuristicState& e : heuristic_archive) {
    obs::JsonObjectWriter entry;
    entry.field("tree", encode_tree(e.tree)).field("fit", encode_f64(e.fitness));
    heur.raw_item(entry.finish());
  }
  w.raw_field("heuristic_archive", heur.finish());
  return w.finish();
}

CarbonCheckpoint CarbonCheckpoint::from_json(const obs::JsonValue& body) {
  return guard([&] {
    CarbonCheckpoint ck;
    if (body.at("algo").as_string() != "carbon") {
      fail("checkpoint: body algorithm is not 'carbon'");
    }
    ck.seed = decode_u64(body.at("seed").as_string());
    ck.progress = read_progress(body.at("progress"));
    ck.ul_pop = pricings_from_json(body.at("ul_pop"), "ul_pop");
    for (const obs::JsonValue& t : as_array(body.at("gp_pop"), "gp_pop")) {
      ck.gp_pop.push_back(decode_tree(t.as_string()));
    }
    for (const obs::JsonValue& e :
         as_array(body.at("solution_archive"), "solution_archive")) {
      ArchivedPricingState s;
      s.pricing = decode_doubles(e.at("p").as_string());
      s.evaluation = read_evaluation(e.at("e"));
      s.fitness = decode_f64(e.at("fit").as_string());
      ck.solution_archive.push_back(std::move(s));
    }
    for (const obs::JsonValue& e :
         as_array(body.at("heuristic_archive"), "heuristic_archive")) {
      ArchivedHeuristicState s;
      s.tree = decode_tree(e.at("tree").as_string());
      s.fitness = decode_f64(e.at("fit").as_string());
      ck.heuristic_archive.push_back(std::move(s));
    }
    return ck;
  });
}

void CarbonCheckpoint::save(const std::string& path) const {
  save_checkpoint_file(path, "carbon", to_json());
}

CarbonCheckpoint CarbonCheckpoint::load(const std::string& path) {
  return from_json(load_checkpoint_file(path, "carbon"));
}

// ---- CobraCheckpoint -------------------------------------------------------

std::string CobraCheckpoint::to_json() const {
  obs::JsonObjectWriter w;
  w.field("algo", "cobra")
      .field("seed", encode_u64(seed))
      .object_field("progress", write_progress(progress))
      .raw_field("ul_pop", pricings_to_json(ul_pop));

  obs::JsonArrayWriter baskets;
  for (const std::vector<std::uint8_t>& y : ll_pop) {
    baskets.item(encode_bytes(y));
  }
  w.raw_field("ll_pop", baskets.finish())
      .raw_field("upper_archive", pair_archive_to_json(upper_archive))
      .raw_field("lower_archive", pair_archive_to_json(lower_archive))
      .field("paired_pricing", encode_doubles(paired_pricing))
      .field("paired_basket", encode_bytes(paired_basket));
  return w.finish();
}

CobraCheckpoint CobraCheckpoint::from_json(const obs::JsonValue& body) {
  return guard([&] {
    CobraCheckpoint ck;
    if (body.at("algo").as_string() != "cobra") {
      fail("checkpoint: body algorithm is not 'cobra'");
    }
    ck.seed = decode_u64(body.at("seed").as_string());
    ck.progress = read_progress(body.at("progress"));
    ck.ul_pop = pricings_from_json(body.at("ul_pop"), "ul_pop");
    for (const obs::JsonValue& y : as_array(body.at("ll_pop"), "ll_pop")) {
      ck.ll_pop.push_back(decode_bytes(y.as_string()));
    }
    ck.upper_archive =
        pair_archive_from_json(body.at("upper_archive"), "upper_archive");
    ck.lower_archive =
        pair_archive_from_json(body.at("lower_archive"), "lower_archive");
    ck.paired_pricing = decode_doubles(body.at("paired_pricing").as_string());
    ck.paired_basket = decode_bytes(body.at("paired_basket").as_string());
    return ck;
  });
}

void CobraCheckpoint::save(const std::string& path) const {
  save_checkpoint_file(path, "cobra", to_json());
}

CobraCheckpoint CobraCheckpoint::load(const std::string& path) {
  return from_json(load_checkpoint_file(path, "cobra"));
}

// ---- File layer ------------------------------------------------------------

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    fail("checkpoint: cannot open '" + tmp + "': " + std::strerror(errno));
  }
  const bool wrote =
      contents.empty() ||
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  const bool flushed = std::fflush(f) == 0;
  const bool synced = ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !flushed || !synced || !closed) {
    std::remove(tmp.c_str());
    fail("checkpoint: write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(tmp.c_str());
    fail("checkpoint: rename to '" + path + "' failed: " + reason);
  }
  // Best-effort directory fsync so the rename itself is durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void save_checkpoint_file(const std::string& path, std::string_view algo,
                          std::string_view body_json) {
  obs::JsonObjectWriter header;
  header.field("magic", kMagic)
      .field("version", kCheckpointSchemaVersion)
      .field("algo", algo)
      .field("body_bytes", body_json.size())
      .field("body_fnv1a", encode_u64(fnv1a64(body_json)));
  std::string file = header.finish();
  file.push_back('\n');
  file += body_json;
  file.push_back('\n');
  write_file_atomic(path, file);
}

obs::JsonValue load_checkpoint_file(const std::string& path,
                                    std::string_view expect_algo) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("checkpoint: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string file = std::move(buf).str();

  const std::size_t nl = file.find('\n');
  if (nl == std::string::npos) {
    fail("checkpoint: '" + path + "' is truncated (no header line)");
  }
  obs::JsonValue header;
  try {
    header = obs::parse_json(std::string_view(file).substr(0, nl));
  } catch (const std::exception& e) {
    fail("checkpoint: '" + path + "' has a malformed header: " + e.what());
  }
  return guard([&]() -> obs::JsonValue {
    if (header.at("magic").as_string() != kMagic) {
      fail("checkpoint: '" + path + "' is not a carbon checkpoint");
    }
    const long long version = header.at("version").as_integer();
    if (version != kCheckpointSchemaVersion) {
      fail("checkpoint: '" + path + "' has unsupported schema version " +
           std::to_string(version) + " (expected " +
           std::to_string(kCheckpointSchemaVersion) + ")");
    }
    const std::string& algo = header.at("algo").as_string();
    if (algo != expect_algo) {
      fail("checkpoint: '" + path + "' was written by algorithm '" + algo +
           "', not '" + std::string(expect_algo) + "'");
    }
    const long long body_bytes = header.at("body_bytes").as_integer();
    std::string_view body = std::string_view(file).substr(nl + 1);
    if (!body.empty() && body.back() == '\n') body.remove_suffix(1);
    if (static_cast<long long>(body.size()) != body_bytes) {
      fail("checkpoint: '" + path + "' is truncated (body is " +
           std::to_string(body.size()) + " bytes, header promises " +
           std::to_string(body_bytes) + ")");
    }
    const std::uint64_t want_hash =
        decode_u64(header.at("body_fnv1a").as_string());
    if (fnv1a64(body) != want_hash) {
      fail("checkpoint: '" + path + "' is corrupted (content hash mismatch)");
    }
    try {
      return obs::parse_json(body);
    } catch (const std::exception& e) {
      fail("checkpoint: '" + path + "' has a malformed body: " + e.what());
    }
  });
}

}  // namespace carbon::core
