#include "db/table.h"

#include <iterator>
#include <utility>

namespace ssa {

Table::Table(std::string name, std::vector<std::string> column_names)
    : name_(std::move(name)),
      column_names_(std::move(column_names)),
      num_columns_(static_cast<int>(column_names_.size())) {
  SSA_CHECK(num_columns_ > 0);
}

int Table::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (column_names_[i] == column) return static_cast<int>(i);
  }
  return -1;
}

int Table::MustColumn(const std::string& column) const {
  const int idx = ColumnIndex(column);
  SSA_CHECK_MSG(idx >= 0, ("no column '" + column + "' in table '" + name_ +
                           "'").c_str());
  return idx;
}

void Table::InsertRow(std::vector<Value> values) {
  SSA_CHECK(values.size() == column_names_.size());
  cells_.insert(cells_.end(), std::make_move_iterator(values.begin()),
                std::make_move_iterator(values.end()));
  ++num_rows_;
}

const Value& Table::At(int row, int col) const {
  SSA_CHECK(col >= 0 && col < num_columns());
  return Row(row)[col];
}

void Table::Set(int row, int col, Value v) {
  SSA_CHECK(col >= 0 && col < num_columns());
  MutableRow(row)[col] = std::move(v);
}

Table* Database::AddTable(std::string name,
                          std::vector<std::string> column_names) {
  SSA_CHECK_MSG(GetTable(name) == nullptr, "duplicate table");
  tables_.push_back(
      std::make_unique<Table>(std::move(name), std::move(column_names)));
  return tables_.back().get();
}

Table* Database::GetTable(const std::string& name) {
  for (const auto& table : tables_) {
    if (table->name() == name) return table.get();
  }
  return nullptr;
}

const Table* Database::GetTable(const std::string& name) const {
  return const_cast<Database*>(this)->GetTable(name);
}

}  // namespace ssa
