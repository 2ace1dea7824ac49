#include "check/csv_reference.h"

#include <string>
#include <vector>

#include "common/string_util.h"

namespace csm::check {
namespace {

/// Splits one logical CSV record starting at `pos`; advances `pos` past the
/// record's trailing newline.  Handles quoted fields with embedded commas,
/// quotes, and newlines.
StatusOr<std::vector<std::string>> ParseRecord(std::string_view text,
                                               size_t& pos) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          current += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '\r') {
      // Record terminator: "\r\n" (DOS) or a bare "\r" (classic Mac).
      ++pos;
      if (pos < text.size() && text[pos] == '\n') ++pos;
      break;
    }
    if (c == '\n') {
      ++pos;
      break;
    }
    current += c;
    ++pos;
    saw_any = true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (!saw_any && pos >= text.size()) {
    return std::vector<std::string>{};  // empty trailing record
  }
  fields.push_back(std::move(current));
  return fields;
}

/// The library's error format: record number (header = 1) and the byte
/// where the record starts.
Status RecordError(size_t record, size_t byte, const std::string& detail) {
  return Status::InvalidArgument("CSV record " + std::to_string(record) +
                                 " (byte " + std::to_string(byte) +
                                 "): " + detail);
}

/// Appends one record's cells to `columns` with Value::Parse semantics.
/// A failed row is not rolled back: the caller abandons the table.
Status AddRowFromText(const TableSchema& schema,
                      const std::vector<std::string>& fields,
                      std::vector<Column>* columns) {
  for (size_t i = 0; i < fields.size(); ++i) {
    Status s = (*columns)[i].AppendParsed(fields[i]);
    if (!s.ok()) {
      return Status::InvalidArgument("attribute '" +
                                     schema.attribute(i).name +
                                     "': " + s.message());
    }
  }
  return Status::Ok();
}

std::string ArityMismatch(const std::string& table_name, size_t arity,
                          size_t got) {
  return "record arity mismatch in table '" + table_name + "': expected " +
         std::to_string(arity) + " fields, got " + std::to_string(got);
}

/// One data record with the byte where it starts.
struct Record {
  size_t begin = 0;
  std::vector<std::string> fields;
};

/// Reads every data record after the header at `pos`, arity-checked.  The
/// first error stops the read and comes back in `error`.
std::vector<Record> ReadRecords(std::string_view csv, size_t pos,
                                const std::string& table_name, size_t arity,
                                Status* error) {
  std::vector<Record> records;
  while (pos < csv.size()) {
    Record record;
    record.begin = pos;
    const size_t number = records.size() + 2;
    StatusOr<std::vector<std::string>> fields = ParseRecord(csv, pos);
    if (!fields.ok()) {
      *error = RecordError(number, record.begin, fields.status().message());
      break;
    }
    if (fields->empty()) continue;  // blank trailing line
    if (fields->size() != arity) {
      *error = RecordError(number, record.begin,
                           ArityMismatch(table_name, arity, fields->size()));
      break;
    }
    if (records.size() == kNullCode) {
      *error = RecordError(number, record.begin,
                           "table '" + table_name + "' row capacity exceeded");
      break;
    }
    record.fields = std::move(*fields);
    records.push_back(std::move(record));
  }
  return records;
}

/// Appends `records` row by row; the first cell error wins, else `error`.
StatusOr<Table> BuildTable(TableSchema schema,
                           const std::vector<Record>& records,
                           const Status& error) {
  std::vector<Column> columns;
  for (const AttributeDef& attr : schema.attributes()) {
    columns.emplace_back(attr.type);
  }
  for (size_t r = 0; r < records.size(); ++r) {
    Status s = AddRowFromText(schema, records[r].fields, &columns);
    if (!s.ok()) return RecordError(r + 2, records[r].begin, s.message());
  }
  if (!error.ok()) return error;
  return Table::FromColumns(std::move(schema), std::move(columns),
                            records.size());
}

}  // namespace

StatusOr<Table> ReferenceTableFromCsv(const TableSchema& schema,
                                      std::string_view csv) {
  size_t pos = 0;
  StatusOr<std::vector<std::string>> header = ParseRecord(csv, pos);
  if (!header.ok()) return RecordError(1, 0, header.status().message());
  if (header->size() != schema.num_attributes()) {
    return RecordError(1, 0,
                       "header arity mismatch for table '" + schema.name() +
                           "': expected " +
                           std::to_string(schema.num_attributes()) +
                           " attributes, got " +
                           std::to_string(header->size()));
  }
  for (size_t c = 0; c < header->size(); ++c) {
    if ((*header)[c] != schema.attribute(c).name) {
      return RecordError(1, 0,
                         "header mismatch: expected '" +
                             schema.attribute(c).name + "', got '" +
                             (*header)[c] + "'");
    }
  }
  Status error;
  const std::vector<Record> records =
      ReadRecords(csv, pos, schema.name(), schema.num_attributes(), &error);
  return BuildTable(schema, records, error);
}

StatusOr<Table> ReferenceTableFromCsvInferred(const std::string& table_name,
                                              std::string_view csv) {
  size_t pos = 0;
  StatusOr<std::vector<std::string>> header = ParseRecord(csv, pos);
  if (!header.ok()) return RecordError(1, 0, header.status().message());
  if (header->empty()) return RecordError(1, 0, "no header row");
  Status error;
  const std::vector<Record> records =
      ReadRecords(csv, pos, table_name, header->size(), &error);

  // Infer column types — int unless some cell fails, then real, then
  // string; a column with no non-empty cell is string.
  std::vector<ValueType> types(header->size(), ValueType::kInt);
  std::vector<bool> saw_value(header->size(), false);
  for (const Record& record : records) {
    for (size_t c = 0; c < record.fields.size(); ++c) {
      std::string_view cell = Trim(record.fields[c]);
      if (cell.empty()) continue;
      saw_value[c] = true;
      if (types[c] == ValueType::kInt &&
          !Value::Parse(cell, ValueType::kInt).ok()) {
        types[c] = ValueType::kReal;
      }
      if (types[c] == ValueType::kReal &&
          !Value::Parse(cell, ValueType::kReal).ok()) {
        types[c] = ValueType::kString;
      }
    }
  }
  TableSchema schema(table_name);
  for (size_t c = 0; c < header->size(); ++c) {
    schema.AddAttribute((*header)[c],
                        saw_value[c] ? types[c] : ValueType::kString);
  }
  return BuildTable(std::move(schema), records, error);
}

}  // namespace csm::check
