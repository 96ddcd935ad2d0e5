#include <utility>

#include <gtest/gtest.h>

#include "db/table.h"

namespace ssa {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Number(3.5).is_number());
  EXPECT_DOUBLE_EQ(Value::Number(3.5).number(), 3.5);
  EXPECT_TRUE(Value::String("hi").is_string());
  EXPECT_EQ(Value::String("hi").str(), "hi");
  EXPECT_DOUBLE_EQ(Value::Bool(true).number(), 1.0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_TRUE(Value::Number(1).Truthy());
  EXPECT_TRUE(Value::Number(-0.5).Truthy());
  EXPECT_FALSE(Value::Number(0).Truthy());
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::String("x").Truthy());
}

TEST(ValueTest, EqualitySemantics) {
  EXPECT_TRUE(Value::Number(2).EqualsValue(Value::Number(2)));
  EXPECT_FALSE(Value::Number(2).EqualsValue(Value::Number(3)));
  EXPECT_TRUE(Value::String("a").EqualsValue(Value::String("a")));
  EXPECT_FALSE(Value::String("a").EqualsValue(Value::Number(1)));
  // NULL equals nothing, not even NULL (SQL-style).
  EXPECT_FALSE(Value::Null().EqualsValue(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsValue(Value::Number(0)));
}

// A table cell is a type tag plus one 8-byte payload.
static_assert(sizeof(Value) == 16, "Value must stay a 16-byte cell");

TEST(ValueTest, CopiesShareStringTextAndCompareByContent) {
  Value a = Value::String("Click & Slot1");
  Value b = a;  // shares a's text
  EXPECT_EQ(&a.str(), &b.str());
  const Value c = Value::String("Click & Slot1");  // equal text, own copy
  EXPECT_NE(&a.str(), &c.str());
  EXPECT_TRUE(a.EqualsValue(c));

  // Overwriting one copy leaves the other intact.
  a = Value::Number(7);
  EXPECT_DOUBLE_EQ(a.number(), 7);
  EXPECT_EQ(b.str(), "Click & Slot1");
  b = c;
  EXPECT_EQ(&b.str(), &c.str());
  const Value& alias = b;
  b = alias;  // self-assignment keeps the text alive
  EXPECT_EQ(b.str(), "Click & Slot1");

  Value moved = std::move(b);
  EXPECT_TRUE(b.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&moved.str(), &c.str());
  moved = Value::Null();
  EXPECT_EQ(c.str(), "Click & Slot1");
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Number(42).ToString(), "42");
  EXPECT_EQ(Value::String("boot").ToString(), "'boot'");
}

TEST(TableTest, SchemaAndRows) {
  Table t("Keywords", {"text", "bid"});
  EXPECT_EQ(t.name(), "Keywords");
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.ColumnIndex("bid"), 1);
  EXPECT_EQ(t.ColumnIndex("missing"), -1);
  EXPECT_TRUE(t.HasColumn("text"));

  t.InsertRow({Value::String("boot"), Value::Number(5)});
  t.InsertRow({Value::String("shoe"), Value::Number(8)});
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.At(0, 0).str(), "boot");
  EXPECT_DOUBLE_EQ(t.At(1, "bid").number(), 8);

  t.Set(0, "bid", Value::Number(6));
  EXPECT_DOUBLE_EQ(t.At(0, 1).number(), 6);

  t.Clear();
  EXPECT_EQ(t.num_rows(), 0);
  EXPECT_EQ(t.num_columns(), 2);  // schema survives
}

TEST(TableTest, RowsAreContiguousAndCopiesAreIndependent) {
  Table t("Bids", {"formula", "value"});
  t.InsertRow({Value::String("Click"), Value::Number(1)});
  t.InsertRow({Value::String("Purchase"), Value::Number(2)});
  EXPECT_EQ(t.Row(1), t.Row(0) + t.num_columns());
  t.MutableRow(1)[1] = Value::Number(5);
  EXPECT_DOUBLE_EQ(t.At(1, "value").number(), 5);

  Table copy = t;
  copy.Set(0, "value", Value::Number(9));
  copy.InsertRow({Value::String("Click"), Value::Number(3)});
  EXPECT_EQ(copy.num_rows(), 3);
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_DOUBLE_EQ(t.At(0, "value").number(), 1);
  EXPECT_EQ(t.At(0, "formula").str(), "Click");
}

TEST(DatabaseTest, CatalogLookup) {
  Database db;
  Table* k = db.AddTable("Keywords", {"text"});
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(db.GetTable("Keywords"), k);
  EXPECT_EQ(db.GetTable("keywords"), nullptr);  // case-sensitive
  EXPECT_EQ(db.GetTable("Bids"), nullptr);
  const Database& cdb = db;
  EXPECT_EQ(cdb.GetTable("Keywords"), k);
}

}  // namespace
}  // namespace ssa
