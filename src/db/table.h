#ifndef SSA_DB_TABLE_H_
#define SSA_DB_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "db/value.h"
#include "util/common.h"

namespace ssa {

/// An in-memory relation backing the bidding-program language: the private
/// Keywords and Bids tables of Section II-B, plus shared read-only tables
/// such as Query. Intentionally minimal: ordered rows, named columns,
/// point access — the interpreter implements scans, predicates and
/// aggregates on top.
class Table {
 public:
  Table(std::string name, std::vector<std::string> column_names);

  const std::string& name() const { return name_; }
  int num_columns() const { return num_columns_; }
  int num_rows() const { return num_rows_; }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

  /// Index of a column by (case-sensitive) name; -1 if absent.
  int ColumnIndex(const std::string& column) const;
  bool HasColumn(const std::string& column) const {
    return ColumnIndex(column) >= 0;
  }

  /// Appends a row; the value count must match the schema.
  void InsertRow(std::vector<Value> values);
  /// Deletes all rows.
  void Clear() {
    cells_.clear();
    num_rows_ = 0;
  }

  const Value& At(int row, int col) const;
  void Set(int row, int col, Value v);

  /// The `num_columns()` cells of one row, contiguous. The pointer stays
  /// valid until the next InsertRow or Clear.
  const Value* Row(int row) const {
    SSA_CHECK(row >= 0 && row < num_rows_);
    return cells_.data() + static_cast<size_t>(row) * num_columns_;
  }
  Value* MutableRow(int row) {
    SSA_CHECK(row >= 0 && row < num_rows_);
    return cells_.data() + static_cast<size_t>(row) * num_columns_;
  }

  const Value& At(int row, const std::string& column) const {
    return At(row, MustColumn(column));
  }
  void Set(int row, const std::string& column, Value v) {
    Set(row, MustColumn(column), std::move(v));
  }

 private:
  int MustColumn(const std::string& column) const;

  std::string name_;
  std::vector<std::string> column_names_;
  int num_columns_;
  int num_rows_ = 0;
  std::vector<Value> cells_;  // row-major, num_columns_ per row
};

/// Named-table catalog: one per bidding program (its private tables) plus
/// engine-level shared tables. Lookup is case-sensitive, matching the
/// paper's examples (Keywords, Bids, Query). Tables are also numbered in
/// the order they were added; a compiled program refers to them by that
/// number.
class Database {
 public:
  /// Creates and owns a table; the name must be unused.
  Table* AddTable(std::string name, std::vector<std::string> column_names);
  /// nullptr when absent.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  int num_tables() const { return static_cast<int>(tables_.size()); }
  Table* table(int index) { return tables_[index].get(); }
  const Table* table(int index) const { return tables_[index].get(); }

 private:
  std::vector<std::unique_ptr<Table>> tables_;  // in AddTable order
};

}  // namespace ssa

#endif  // SSA_DB_TABLE_H_
