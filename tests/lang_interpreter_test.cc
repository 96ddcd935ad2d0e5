#include <gtest/gtest.h>

#include "lang/interpreter.h"
#include "lang/parser.h"
#include "lang/plan.h"

namespace ssa {
namespace lang {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  /// Wraps statements into a trigger, parses and fires it against db_.
  Status Run(const std::string& body) {
    auto program =
        ParseProgram("CREATE TRIGGER t AFTER INSERT ON Query {" + body + "}");
    if (!program.ok()) return program.status();
    return Interpreter::FireTriggers(*program, "Query", &db_, scalars_);
  }

  Database db_;
  ScalarEnv scalars_;
};

TEST_F(InterpreterTest, SimpleUpdateAllRows) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(1)});
  t->InsertRow({Value::Number(2)});
  ASSERT_TRUE(Run("UPDATE T SET a = a + 10;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 11);
  EXPECT_DOUBLE_EQ(t->At(1, 0).number(), 12);
}

TEST_F(InterpreterTest, WhereFiltersRows) {
  Table* t = db_.AddTable("T", {"a", "b"});
  t->InsertRow({Value::Number(1), Value::Number(0)});
  t->InsertRow({Value::Number(5), Value::Number(0)});
  ASSERT_TRUE(Run("UPDATE T SET b = 1 WHERE a > 3;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 1).number(), 0);
  EXPECT_DOUBLE_EQ(t->At(1, 1).number(), 1);
}

TEST_F(InterpreterTest, SimultaneousAssignmentSemantics) {
  // SQL evaluates all SET expressions against the pre-update row: swapping
  // works.
  Table* t = db_.AddTable("T", {"a", "b"});
  t->InsertRow({Value::Number(3), Value::Number(7)});
  ASSERT_TRUE(Run("UPDATE T SET a = b, b = a;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 7);
  EXPECT_DOUBLE_EQ(t->At(0, 1).number(), 3);
}

TEST_F(InterpreterTest, ScalarVariables) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(0)});
  scalars_.Set("amtSpent", 12.0);
  scalars_.Set("time", 4.0);
  ASSERT_TRUE(Run("UPDATE T SET a = amtSpent / time;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 3.0);
}

TEST_F(InterpreterTest, ColumnShadowsScalar) {
  Table* t = db_.AddTable("T", {"time"});
  t->InsertRow({Value::Number(99)});
  scalars_.Set("time", 4.0);
  Table* out = db_.AddTable("Out", {"x"});
  out->InsertRow({Value::Number(0)});
  ASSERT_TRUE(Run("UPDATE Out SET x = (SELECT MAX(time) FROM T);").ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0).number(), 99);
}

TEST_F(InterpreterTest, AggregatesOverTable) {
  Table* t = db_.AddTable("T", {"v"});
  for (double x : {4.0, 9.0, 2.0}) t->InsertRow({Value::Number(x)});
  Table* out = db_.AddTable("Out", {"mx", "mn", "sm", "ct", "av"});
  out->InsertRow({Value::Number(0), Value::Number(0), Value::Number(0),
                  Value::Number(0), Value::Number(0)});
  ASSERT_TRUE(Run("UPDATE Out SET"
                  " mx = (SELECT MAX(v) FROM T),"
                  " mn = (SELECT MIN(v) FROM T),"
                  " sm = (SELECT SUM(v) FROM T),"
                  " ct = (SELECT COUNT(v) FROM T),"
                  " av = (SELECT AVG(v) FROM T);")
                  .ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0).number(), 9);
  EXPECT_DOUBLE_EQ(out->At(0, 1).number(), 2);
  EXPECT_DOUBLE_EQ(out->At(0, 2).number(), 15);
  EXPECT_DOUBLE_EQ(out->At(0, 3).number(), 3);
  EXPECT_DOUBLE_EQ(out->At(0, 4).number(), 5);
}

TEST_F(InterpreterTest, EmptyAggregates) {
  db_.AddTable("T", {"v"});  // no rows
  Table* out = db_.AddTable("Out", {"mx", "sm", "ct"});
  out->InsertRow({Value::Number(-1), Value::Number(-1), Value::Number(-1)});
  ASSERT_TRUE(Run("UPDATE Out SET"
                  " mx = (SELECT MAX(v) FROM T),"
                  " sm = (SELECT SUM(v) FROM T),"
                  " ct = (SELECT COUNT(v) FROM T);")
                  .ok());
  EXPECT_TRUE(out->At(0, 0).is_null());  // MAX of empty => NULL
  EXPECT_DOUBLE_EQ(out->At(0, 1).number(), 0);
  EXPECT_DOUBLE_EQ(out->At(0, 2).number(), 0);
}

TEST_F(InterpreterTest, NullComparesFalse) {
  db_.AddTable("Empty", {"v"});
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(1)});
  // a = NULL is false, so no row updates.
  ASSERT_TRUE(
      Run("UPDATE T SET a = 2 WHERE a = (SELECT MAX(v) FROM Empty);").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 1);
}

TEST_F(InterpreterTest, CorrelatedSubquery) {
  // The Figure 5 pattern: Bids.value = SUM of matching keywords' bids.
  Table* keywords = db_.AddTable("Keywords", {"formula", "bid", "relevance"});
  keywords->InsertRow(
      {Value::String("Click"), Value::Number(4), Value::Number(1)});
  keywords->InsertRow(
      {Value::String("Click"), Value::Number(8), Value::Number(0)});
  keywords->InsertRow(
      {Value::String("Purchase"), Value::Number(6), Value::Number(1)});
  Table* bids = db_.AddTable("Bids", {"formula", "value"});
  bids->InsertRow({Value::String("Click"), Value::Number(0)});
  bids->InsertRow({Value::String("Purchase"), Value::Number(0)});
  ASSERT_TRUE(Run("UPDATE Bids SET value ="
                  " (SELECT SUM(K.bid) FROM Keywords K"
                  "  WHERE K.relevance > 0.7"
                  "  AND K.formula = Bids.formula);")
                  .ok());
  EXPECT_DOUBLE_EQ(bids->At(0, 1).number(), 4);  // only the relevant Click row
  EXPECT_DOUBLE_EQ(bids->At(1, 1).number(), 6);
}

TEST_F(InterpreterTest, IfElseifElse) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(0)});
  scalars_.Set("x", 5.0);
  ASSERT_TRUE(Run("IF x < 0 THEN UPDATE T SET a = 1;"
                  " ELSEIF x < 10 THEN UPDATE T SET a = 2;"
                  " ELSE UPDATE T SET a = 3; ENDIF")
                  .ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 2);
  scalars_.Set("x", 50.0);
  ASSERT_TRUE(Run("IF x < 0 THEN UPDATE T SET a = 1;"
                  " ELSEIF x < 10 THEN UPDATE T SET a = 2;"
                  " ELSE UPDATE T SET a = 3; ENDIF")
                  .ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 3);
}

TEST_F(InterpreterTest, LogicAndNot) {
  Table* t = db_.AddTable("T", {"a", "b"});
  t->InsertRow({Value::Number(1), Value::Number(0)});
  t->InsertRow({Value::Number(1), Value::Number(1)});
  t->InsertRow({Value::Number(0), Value::Number(1)});
  ASSERT_TRUE(Run("UPDATE T SET a = 9 WHERE a = 1 AND NOT b = 1;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 9);
  EXPECT_DOUBLE_EQ(t->At(1, 0).number(), 1);
  EXPECT_DOUBLE_EQ(t->At(2, 0).number(), 0);
}

TEST_F(InterpreterTest, DivisionByZeroIsNull) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(7)});
  scalars_.Set("z", 0.0);
  // 1/z is NULL; NULL < 5 is false; row untouched.
  ASSERT_TRUE(Run("UPDATE T SET a = 0 WHERE 1 / z < 5;").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 7);
}

TEST_F(InterpreterTest, StringEquality) {
  Table* t = db_.AddTable("T", {"name", "hit"});
  t->InsertRow({Value::String("boot"), Value::Number(0)});
  t->InsertRow({Value::String("shoe"), Value::Number(0)});
  ASSERT_TRUE(Run("UPDATE T SET hit = 1 WHERE name = 'boot';").ok());
  EXPECT_DOUBLE_EQ(t->At(0, 1).number(), 1);
  EXPECT_DOUBLE_EQ(t->At(1, 1).number(), 0);
}

TEST_F(InterpreterTest, TriggersFilterByTable) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(0)});
  auto program = ParseProgram(
      "CREATE TRIGGER q AFTER INSERT ON Query { UPDATE T SET a = a + 1; }"
      "CREATE TRIGGER c AFTER INSERT ON Click { UPDATE T SET a = a + 10; }");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(
      Interpreter::FireTriggers(*program, "Query", &db_, scalars_).ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 1);
  ASSERT_TRUE(
      Interpreter::FireTriggers(*program, "Click", &db_, scalars_).ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 11);
}

TEST_F(InterpreterTest, ErrorsSurface) {
  // Every error is a Status with a fixed message, raised when the failing
  // construct is evaluated.
  Table* t = db_.AddTable("T", {"a", "name"});
  t->InsertRow({Value::Number(1), Value::String("boot")});
  auto message = [&](const std::string& body) {
    return Run(body).message();
  };
  EXPECT_EQ(message("UPDATE Missing SET a = 1;"),
            "unknown table 'Missing' in UPDATE");
  EXPECT_EQ(message("UPDATE T SET nosuch = 1;"), "no column 'nosuch' in 'T'");
  EXPECT_EQ(message("UPDATE T SET a = nosuchvar;"),
            "unknown identifier 'nosuchvar'");
  EXPECT_EQ(message("UPDATE T SET a = Q.a;"), "unknown table or alias 'Q'");
  EXPECT_EQ(message("UPDATE T SET a = T.zz;"), "no column 'zz' in 'T'");
  EXPECT_EQ(message("UPDATE T SET a = (SELECT MAX(v) FROM Nowhere);"),
            "unknown table 'Nowhere' in subquery");
  EXPECT_EQ(message("UPDATE T SET a = name + 1;"),
            "arithmetic on non-numeric values");
  EXPECT_EQ(message("UPDATE T SET a = -name;"), "negating a non-number");
  EXPECT_EQ(message("UPDATE T SET a = (SELECT SUM(name) FROM T);"),
            "aggregate over non-numeric column 'name'");
}

TEST_F(InterpreterTest, UnknownNamesInBranchesThatNeverRun) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(1)});
  ASSERT_TRUE(Run("IF 0 = 1 THEN UPDATE T SET a = nosuch;"
                  " ELSEIF 1 = 0 THEN UPDATE Missing SET a = 1;"
                  " ELSE UPDATE T SET a = a + 1; ENDIF")
                  .ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 2);
  // An empty table runs no row, so no expression of the UPDATE is reached.
  db_.AddTable("E", {"x"});
  EXPECT_TRUE(Run("UPDATE E SET x = nosuch;").ok());
}

TEST_F(InterpreterTest, SubqueryOverAssignedColumnReevaluatesPerRow) {
  // Row 0 raises the maximum to 4, so row 2 (roi 3) no longer matches it.
  // Keeping the first row's MAX for the whole UPDATE would raise row 2 too.
  Table* t = db_.AddTable("T", {"roi"});
  for (double roi : {3.0, 1.0, 3.0}) t->InsertRow({Value::Number(roi)});
  const std::string body =
      "UPDATE T SET roi = roi + 1 WHERE roi = (SELECT MAX(K.roi) FROM T K);";
  ASSERT_TRUE(Run(body).ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 4);
  EXPECT_DOUBLE_EQ(t->At(1, 0).number(), 1);
  EXPECT_DOUBLE_EQ(t->At(2, 0).number(), 3);

  auto program =
      ParseProgram("CREATE TRIGGER t AFTER INSERT ON Query {" + body + "}");
  ASSERT_TRUE(program.ok());
  const CompiledProgram plan = CompileProgram(*program, db_, {});
  ASSERT_EQ(plan.subqueries.size(), 1u);
  EXPECT_EQ(plan.subqueries[0].reuse_slot, -1);
}

TEST_F(InterpreterTest, ReuseMarksFollowTheReadSets) {
  db_.AddTable("Keywords", {"formula", "roi", "bid", "relevance"});
  db_.AddTable("Bids", {"formula", "value"});
  auto program = ParseProgram(
      "CREATE TRIGGER t AFTER INSERT ON Query {"
      " UPDATE Keywords SET bid = bid + 1"
      "  WHERE roi = (SELECT MAX(K.roi) FROM Keywords K);"
      " UPDATE Bids SET value = (SELECT SUM(K.bid) FROM Keywords K"
      "  WHERE K.relevance > 0.7 AND K.formula = Bids.formula);"
      " IF (SELECT COUNT(roi) FROM Keywords) > 0 THEN"
      "  UPDATE Bids SET value = 0; ENDIF }");
  ASSERT_TRUE(program.ok());
  const CompiledProgram plan = CompileProgram(*program, db_, {});
  ASSERT_EQ(plan.subqueries.size(), 3u);
  EXPECT_EQ(plan.subqueries[0].reuse_slot, 0);   // uncorrelated MAX
  EXPECT_EQ(plan.subqueries[1].reuse_slot, -1);  // correlated on Bids.formula
  EXPECT_EQ(plan.subqueries[2].reuse_slot, -1);  // not inside an UPDATE
}

TEST_F(InterpreterTest, ReusedSubqueryOverEmptyTable) {
  db_.AddTable("Empty", {"v"});
  Table* t = db_.AddTable("T", {"a", "b"});
  for (int r = 0; r < 3; ++r) {
    t->InsertRow({Value::Number(-1), Value::Number(-1)});
  }
  ASSERT_TRUE(Run("UPDATE T SET a = (SELECT COUNT(v) FROM Empty),"
                  " b = (SELECT MAX(v) FROM Empty);")
                  .ok());
  for (int r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(t->At(r, 0).number(), 0);
    EXPECT_TRUE(t->At(r, 1).is_null());
  }
}

TEST_F(InterpreterTest, ErroringSubqueryOnlyFailsWhenReached) {
  Table* s = db_.AddTable("S", {"name"});
  s->InsertRow({Value::String("boot")});
  Table* t = db_.AddTable("T", {"a"});
  for (double a : {1.0, 2.0, 7.0, 3.0}) t->InsertRow({Value::Number(a)});
  // No row passes `a > 100`, so AND never reaches the subquery.
  ASSERT_TRUE(
      Run("UPDATE T SET a = 0 WHERE a > 100 AND (SELECT SUM(name) FROM S) > 0;")
          .ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 1);
  // Rows with a < 5 short-circuit the OR; row 2 reaches the subquery and the
  // UPDATE stops there, keeping the rows it already wrote.
  const Status status = Run(
      "UPDATE T SET a = a + 10 WHERE a < 5 OR (SELECT SUM(name) FROM S) > 0;");
  EXPECT_EQ(status.message(), "aggregate over non-numeric column 'name'");
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 11);
  EXPECT_DOUBLE_EQ(t->At(1, 0).number(), 12);
  EXPECT_DOUBLE_EQ(t->At(2, 0).number(), 7);
  EXPECT_DOUBLE_EQ(t->At(3, 0).number(), 3);
}

TEST_F(InterpreterTest, CompiledPlanRunsWithEmptyScalarSlots) {
  Table* t = db_.AddTable("T", {"a"});
  t->InsertRow({Value::Number(0)});
  auto program = ParseProgram(
      "CREATE TRIGGER q AFTER INSERT ON Query { UPDATE T SET a = x; }"
      "CREATE TRIGGER c AFTER INSERT ON Click { UPDATE T SET a = y; }");
  ASSERT_TRUE(program.ok());
  const CompiledProgram plan = CompileProgram(*program, db_, {"x", "y"});
  const std::optional<double> slots[] = {5.0, std::nullopt};
  ASSERT_TRUE(Interpreter::Fire(plan, plan.FindEvent("Query"), &db_, slots, 2)
                  .ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 5);
  // An empty slot reads as a variable the caller never provided.
  EXPECT_EQ(Interpreter::Fire(plan, plan.FindEvent("Click"), &db_, slots, 2)
                .message(),
            "unknown identifier 'y'");
  // No trigger fires on Slot: FindEvent gives -1 and firing it is a no-op.
  EXPECT_EQ(plan.FindEvent("Slot"), -1);
  EXPECT_TRUE(Interpreter::Fire(plan, -1, &db_, slots, 2).ok());
  EXPECT_DOUBLE_EQ(t->At(0, 0).number(), 5);
}

}  // namespace
}  // namespace lang
}  // namespace ssa
