// Reference CSV readers for differential tests.
//
// A deliberately naive record-at-a-time reader, independent of the
// library's two-pass splitter (relational/csv.h): each record is parsed
// into a vector of owned strings one character at a time, checked for
// arity, and its cells appended to the columns before the next record is
// read.  Being this simple is the point — the library readers must return
// exactly what these return (values, dictionary codes, or the error
// Status, text included) on any input.  Test-only: nothing in production
// calls it.

#ifndef CSM_CHECK_CSV_REFERENCE_H_
#define CSM_CHECK_CSV_REFERENCE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "relational/table.h"

namespace csm::check {

/// Reference for TableFromCsv / TableFromCsvParallel.
StatusOr<Table> ReferenceTableFromCsv(const TableSchema& schema,
                                      std::string_view csv);

/// Reference for TableFromCsvInferred (and the inferred streaming reader
/// with every record sampled).
StatusOr<Table> ReferenceTableFromCsvInferred(const std::string& table_name,
                                              std::string_view csv);

}  // namespace csm::check

#endif  // CSM_CHECK_CSV_REFERENCE_H_
