// Randomized differential sweep over the bidding-program language.
// Generated programs run twice, on identical databases: once through the
// compiled executor (src/lang/) and once through the reference tree walker
// in lang_reference_interpreter.h. Both must return the same Status (code
// and message) and leave bitwise-identical tables. Programs built only from
// well-typed, resolvable constructs must also succeed. Mangled sources must
// fail to parse cleanly, never crash.

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lang/interpreter.h"
#include "lang/parser.h"
#include "lang/plan.h"
#include "lang_reference_interpreter.h"
#include "util/rng.h"

namespace ssa {
namespace lang {
namespace {

// Schema: T(a, b, name) and U(c, d); `name` holds strings. Scalars s and t
// are provided; u is a declared slot left empty, which reads as an unknown
// identifier exactly like a name the reference walker was never given.
struct Scope {
  std::string alias;
  std::string table;  // "T" or "U"
};

class ProgramGenerator {
 public:
  ProgramGenerator(Rng* rng, bool risky) : rng_(*rng), risky_(risky) {}

  std::string Program() {
    std::string body;
    const int num_statements = 1 + static_cast<int>(rng_.NextBounded(4));
    for (int s = 0; s < num_statements; ++s) {
      // Statements are whitespace-separated, never glued: "ENDIF" followed
      // directly by "UPDATE" would lex as one identifier.
      if (!body.empty()) body += ' ';
      body += Statement(2);
    }
    return "CREATE TRIGGER f AFTER INSERT ON Query {" + body + "}";
  }

 private:
  bool Chance(double p) { return rng_.Bernoulli(p); }
  template <size_t N>
  const char* Pick(const char* const (&options)[N]) {
    return options[rng_.NextBounded(N)];
  }

  /// A construct that may fail to resolve or type-check when evaluated.
  std::string RiskyLeaf() {
    static const char* const kRisky[] = {
        "zz",   "u",    "Q.a", "'x'",
        "name", "T.zz", "(SELECT MAX(v) FROM Nowhere)",
    };
    return Pick(kRisky);
  }

  std::string Leaf() {
    if (risky_ && Chance(0.08)) return RiskyLeaf();
    const uint64_t pick = rng_.NextBounded(scope_.empty() ? 2 : 4);
    if (pick == 0) return std::to_string(rng_.UniformInt(0, 9));
    if (pick == 1) return Chance(0.5) ? "s" : "t";
    // A column of a row in scope: unqualified names resolve innermost-first,
    // qualified ones may reach an outer row (a correlated reference).
    const Scope& row = scope_[rng_.NextBounded(scope_.size())];
    const std::string column = Column(row);
    return pick == 2 ? column : row.alias + "." + column;
  }

  std::string Column(const Scope& row) {
    if (row.table == "T") return Chance(0.5) ? "a" : "b";
    return Chance(0.5) ? "c" : "d";
  }

  std::string Subquery(int depth) {
    static const char* const kAggs[] = {"MAX", "MIN", "SUM", "COUNT", "AVG"};
    static const char* const kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
    Scope row{"", Chance(0.6) ? "T" : "U"};
    // Half the subqueries inside a row scope are correlated: they compare
    // their own row with an outer one, qualified by the outer alias (their
    // own alias is then distinct, so it cannot shadow the outer name).
    const bool correlated = !scope_.empty() && Chance(0.5);
    const bool aliased = correlated || Chance(0.6);
    row.alias = aliased ? "K" + std::to_string(scope_.size()) : row.table;
    std::string column = Column(row);
    if (risky_ && row.table == "T" && Chance(0.1)) column = "name";
    std::string sql = std::string("(SELECT ") + Pick(kAggs) + "(" +
                      (Chance(0.5) ? row.alias + "." : "") + column +
                      ") FROM " + row.table + (aliased ? " " + row.alias : "");
    std::string where;
    if (correlated) {
      const Scope& outer = scope_[rng_.NextBounded(scope_.size())];
      where = row.alias + "." + Column(row) + " " + Pick(kCmps) + " " +
              outer.alias + "." + Column(outer);
    }
    scope_.push_back(row);
    if (Chance(0.6)) where += (where.empty() ? "" : " AND ") + Expr(depth);
    scope_.pop_back();
    if (!where.empty()) sql += " WHERE " + where;
    return sql + ")";
  }

  std::string Expr(int depth) {
    if (depth == 0 || Chance(0.3)) return Leaf();
    const uint64_t shape = rng_.NextBounded(10);
    if (shape == 0) return "(-" + Expr(depth - 1) + ")";
    if (shape == 1) return "(NOT " + Expr(depth - 1) + ")";
    if (shape <= 3) return Subquery(depth - 1);
    static const char* const kOps[] = {"+",  "-",  "*",  "/",  "<",   ">",
                                       "=",  "<=", ">=", "<>", "AND", "OR"};
    return "(" + Expr(depth - 1) + " " + Pick(kOps) + " " + Expr(depth - 1) +
           ")";
  }

  std::string Update() {
    if (risky_ && Chance(0.05)) {
      return Chance(0.5) ? "UPDATE Missing SET a = 1;"
                         : "UPDATE T SET zz = 1;";
    }
    const bool on_t = Chance(0.7);
    const std::string table = on_t ? "T" : "U";
    scope_.push_back(Scope{table, table});
    std::string sql = "UPDATE " + table + " SET ";
    if (on_t && Chance(0.15)) {
      sql += "name = " + std::string(Chance(0.5) ? "'y'" : "name") + ", ";
    }
    const char* first = on_t ? "a" : "c";
    const char* second = on_t ? "b" : "d";
    sql += std::string(first) + " = " + Expr(3);
    if (Chance(0.3)) sql += std::string(", ") + second + " = " + Expr(2);
    if (Chance(0.5)) sql += " WHERE " + Expr(2);
    scope_.pop_back();
    return sql + ";";
  }

  std::string Statement(int depth) {
    if (depth == 0 || Chance(0.6)) return Update();
    // IF at trigger level: no row is bound, so conditions use scalars,
    // literals and subqueries. A constant-false branch holds an unresolvable
    // name that must never fail; a constant-true one must fail.
    std::string sql = "IF ";
    if (risky_ && Chance(0.2)) {
      const bool taken = Chance(0.5);
      return std::string("IF ") + (taken ? "1 = 1" : "0 = 1") +
             " THEN UPDATE T SET a = zz; ELSE " + Statement(depth - 1) +
             " ENDIF";
    }
    sql += Expr(2) + " THEN " + Statement(depth - 1);
    if (Chance(0.4)) {
      sql += " ELSEIF " + Expr(2) + " THEN " + Statement(depth - 1);
    }
    if (Chance(0.6)) sql += " ELSE " + Statement(depth - 1);
    // No trailing ';' after ENDIF (optional per Figure 5): exercises the
    // statement-after-ENDIF parse.
    return sql + " ENDIF";
  }

  Rng& rng_;
  bool risky_;
  std::vector<Scope> scope_;  // rows bound at the current point, innermost last
};

void FillDatabase(Rng* rng, Database* db) {
  static const char* const kNames[] = {"x", "y"};
  Table* t = db->AddTable("T", {"a", "b", "name"});
  const int t_rows = 2 + static_cast<int>(rng->NextBounded(3));
  for (int r = 0; r < t_rows; ++r) {
    // Small integer range: MAX/MIN ties and equal-valued rows are common.
    t->InsertRow({Value::Number(static_cast<double>(rng->UniformInt(0, 3))),
                  Value::Number(static_cast<double>(rng->UniformInt(0, 9))),
                  Value::String(kNames[rng->NextBounded(2)])});
  }
  Table* u = db->AddTable("U", {"c", "d"});
  const int u_rows = static_cast<int>(rng->NextBounded(3));  // may be empty
  for (int r = 0; r < u_rows; ++r) {
    u->InsertRow({Value::Number(static_cast<double>(rng->UniformInt(0, 5))),
                  Value::Number(static_cast<double>(rng->UniformInt(0, 5)))});
  }
}

/// Same type, same string, same number bits (NaN and -0.0 included).
bool BitwiseEqual(const Value& x, const Value& y) {
  if (x.type() != y.type()) return false;
  if (x.is_string()) return x.str() == y.str();
  if (!x.is_number()) return true;
  const double dx = x.number();
  const double dy = y.number();
  return std::memcmp(&dx, &dy, sizeof(double)) == 0;
}

class LangFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LangFuzzTest, CompiledExecutorMatchesReference) {
  Rng rng(GetParam());
  int failures = 0;
  int reusable = 0;
  int recomputed = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const bool risky = rng.Bernoulli(0.5);
    const std::string source = ProgramGenerator(&rng, risky).Program();
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << source << "\n" << program.status().ToString();

    const uint64_t data_seed = rng.NextU64();
    Database compiled_db;
    Database reference_db;
    Rng data_a(data_seed);
    Rng data_b(data_seed);
    FillDatabase(&data_a, &compiled_db);
    FillDatabase(&data_b, &reference_db);

    const CompiledProgram plan =
        CompileProgram(*program, compiled_db, {"s", "t", "u"});
    for (const CompiledProgram::Subquery& q : plan.subqueries) {
      (q.reuse_slot >= 0 ? reusable : recomputed) += 1;
    }
    const std::optional<double> slots[] = {2.0, 5.0, std::nullopt};
    const Status got = Interpreter::Fire(plan, plan.FindEvent("Query"),
                                         &compiled_db, slots, 3);
    const Status want = reference::FireTriggers(
        *program, "Query", &reference_db, {{"s", 2.0}, {"t", 5.0}});

    ASSERT_EQ(got.code(), want.code()) << source << "\n" << want.ToString();
    ASSERT_EQ(got.message(), want.message()) << source;
    if (!got.ok()) {
      ASSERT_TRUE(risky) << source << "\n" << got.ToString();
      ++failures;
    }
    for (const char* name : {"T", "U"}) {
      const Table* x = compiled_db.GetTable(name);
      const Table* y = reference_db.GetTable(name);
      ASSERT_EQ(x->num_rows(), y->num_rows());
      for (int r = 0; r < x->num_rows(); ++r) {
        for (int c = 0; c < x->num_columns(); ++c) {
          ASSERT_TRUE(BitwiseEqual(x->At(r, c), y->At(r, c)))
              << source << "\n"
              << name << "[" << r << "][" << c << "]: "
              << x->At(r, c).ToString() << " vs " << y->At(r, c).ToString();
        }
      }
    }
  }
  // The sweep must reach both outcomes and both subquery kinds.
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 200);
  EXPECT_GT(reusable, 0);
  EXPECT_GT(recomputed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LangFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(LangFuzzTest, MangledSourcesFailCleanly) {
  // Truncations and character swaps of a valid program: parser must return
  // a Status, never crash.
  const std::string valid =
      "CREATE TRIGGER f AFTER INSERT ON Query {"
      " IF a > 0 THEN UPDATE T SET a = (SELECT MAX(b) FROM T) + 1; ENDIF }";
  for (size_t cut = 0; cut < valid.size(); cut += 3) {
    auto truncated = ParseProgram(valid.substr(0, cut));
    if (!truncated.ok()) {
      EXPECT_FALSE(truncated.status().message().empty());
    }
  }
  Rng rng(99);
  for (int iter = 0; iter < 300; ++iter) {
    std::string mangled = valid;
    const size_t pos = rng.NextBounded(mangled.size());
    mangled[pos] = static_cast<char>('!' + rng.NextBounded(90));
    auto result = ParseProgram(mangled);  // ok or clean error, either way
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

}  // namespace
}  // namespace lang
}  // namespace ssa
