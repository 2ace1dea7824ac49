// In-memory table instances and the value-bag accessor v(R, a) used
// throughout the matching algorithms.
//
// Storage is columnar: one typed Column segment per attribute, with
// dictionary-encoded strings (see relational/column.h).  The legacy
// row-oriented accessors (rows(), row(), at()) are preserved on top of the
// columnar store via a lazily built row cache, so existing call sites keep
// working unchanged while hot paths scan columns directly.
//
// Bulk loaders build columns, not rows: CSV ingest (relational/csv.h)
// encodes each column in row order on its own task and hands the finished
// segments to Table::FromColumns; it never goes through AddRow.

#ifndef CSM_RELATIONAL_TABLE_H_
#define CSM_RELATIONAL_TABLE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "relational/column.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace csm {

/// One tuple: values aligned to the table schema's attribute order.
using Row = std::vector<Value>;

/// A table instance: schema plus columnar segments.  Rows are CHECK-verified
/// for arity; type conformance is verified for non-null cells.
class Table {
 public:
  Table() = default;
  explicit Table(TableSchema schema);

  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends a row; CHECK-fails on arity or type mismatch.
  void AddRow(Row row);

  /// Reserves capacity for `n` rows across all column segments.
  void Reserve(size_t n);

  /// Appends every row of `other` (attribute names and types must match;
  /// CHECK-enforced) — the ordered merge step of chunked generation
  /// (datagen/scale_gen.h).  String cells re-encode into this table's
  /// dictionaries in row order (Column::AppendFrom), so appending chunk
  /// tables in chunk order gives the codes one serial build would.
  void AppendRowsFrom(const Table& other);

  /// Legacy row-oriented accessors, served from a lazily built (and
  /// mutex-guarded, so concurrent const readers are safe) row cache.
  /// References stay valid until the next AddRow / AppendRowsFrom.
  const std::vector<Row>& rows() const;
  const Row& row(size_t index) const;

  /// The cell at (row, attribute index) — row-cache-backed reference.
  const Value& at(size_t row_index, size_t col_index) const;

  /// The cell at (row, attribute name); CHECK-fails for unknown names.
  const Value& at(size_t row_index, std::string_view attribute) const;

  /// The cell at (row, attribute index) boxed by value straight from the
  /// column segment — no row cache involved.
  Value ValueAt(size_t row_index, size_t col_index) const;

  /// Column segment of attribute `col_index`.
  const Column& column(size_t col_index) const;

  /// v(R, a): the bag of values of attribute `a` across all rows
  /// ("select a from R"), in row order.  NULLs are included.
  std::vector<Value> ValueBag(std::string_view attribute) const;
  std::vector<Value> ValueBag(size_t col_index) const;

  /// Distinct non-null values of `attribute` with their multiplicities,
  /// keyed in Value order (deterministic iteration).
  std::map<Value, size_t> ValueCounts(std::string_view attribute) const;

  /// Returns a table with the same schema containing the rows at `indices`.
  Table SelectRows(const std::vector<size_t>& indices) const;

  /// PosList overload: columnar gather, sharing string dictionaries with
  /// this table (no string copies).
  Table SelectRows(const PosList& positions) const;

  /// Returns a copy with a different table name (schema otherwise equal).
  Table Renamed(std::string new_name) const;

  /// Assembles a table from pre-built column segments (the materialization
  /// path of TableView and the last step of CSV ingest).  CHECK-fails
  /// unless every column matches the schema's attribute types and has
  /// exactly `num_rows` cells.
  static Table FromColumns(TableSchema schema, std::vector<Column> columns,
                           size_t num_rows);

  /// Multi-line textual rendering (for examples and debugging); prints at
  /// most `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  void InvalidateRowCache();
  const std::vector<Row>& CachedRows() const;

  TableSchema schema_;
  std::vector<Column> columns_;  // one per schema attribute
  size_t num_rows_ = 0;

  // Lazily built legacy row view.  Guarded by row_cache_mu_ so concurrent
  // const readers (e.g. pool workers fingerprinting samples) are race-free;
  // never copied with the table.
  mutable std::mutex row_cache_mu_;
  mutable std::unique_ptr<std::vector<Row>> row_cache_;
};

/// A named collection of table instances conforming to a Schema.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<Table>& tables() const { return tables_; }
  std::vector<Table>& mutable_tables() { return tables_; }

  /// Adds a table instance; CHECK-fails on duplicate table names.
  void AddTable(Table table);

  const Table* FindTable(std::string_view name) const;
  /// CHECK-fails if absent.
  const Table& GetTable(std::string_view name) const;
  Table* FindMutableTable(std::string_view name);
  bool HasTable(std::string_view name) const {
    return FindTable(name) != nullptr;
  }

  /// The Schema (catalog view) over all contained tables.
  Schema GetSchema() const;

 private:
  std::string name_;
  std::vector<Table> tables_;
};

}  // namespace csm

#endif  // CSM_RELATIONAL_TABLE_H_
