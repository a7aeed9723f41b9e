#ifndef IDLOG_STORAGE_CSV_H_
#define IDLOG_STORAGE_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/limits.h"
#include "common/status.h"
#include "storage/database.h"

namespace idlog {

/// Upper bound on a single CSV field, enforced by the record scanner.
/// Fields past this size are almost certainly a missing quote or a
/// corrupt file, and letting them grow unbounded is a memory hazard.
inline constexpr size_t kMaxCsvFieldBytes = 1 << 20;  // 1 MiB

/// Strictly parses one CSV record (RFC-4180 style) — one line, without
/// its '\n' — with the loaders' record scanner. Handles double-quoted
/// fields with embedded commas, CRLF line endings (one trailing '\r' is
/// stripped), and doubled quotes ("" escapes a quote).
/// Returns ParseError for:
///  - an unterminated quoted field,
///  - text after a closing quote (`"ab"x`),
///  - a quote opening mid-field (`ab"cd"`),
///  - a stray carriage return outside quotes,
///  - a field longer than kMaxCsvFieldBytes.
Result<std::vector<std::string>> ParseCsvRecord(std::string_view line);

/// Loads `path` into relation `name`. The format is line-based: one
/// record per '\n'-terminated line (CRLF accepted), parsed as by
/// ParseCsvRecord, so a quoted field may hold commas, quotes and '\r'
/// but never a line break. Blank lines are skipped; with `skip_header`
/// the first line is dropped. A UTF-8 byte-order mark (EF BB BF) at the
/// start of the input is not data and is stripped. Fields convert by
/// FieldToValue (storage/database.h): all-digit fields become sort-i
/// values, the rest are interned as sort-u constants.
///
/// The input is read into one buffer and scanned in place: fields are
/// views into it (only a field with "" escapes is unescaped, into a
/// reused scratch buffer), so a row allocates nothing of its own.
///
/// Malformed rows (bad quoting, oversized fields, arity mismatch
/// against the relation or earlier rows, out-of-range integers) fail
/// with ParseError naming the offending line; sort mismatches keep
/// their TypeError code, also with the line number.
///
/// With `governor` set, each loaded row charges the tuple and memory
/// budgets, so --max-tuples / --max-memory-mb also cap bulk loads.
Status LoadCsvRelation(Database* database, const std::string& name,
                       const std::string& path, bool skip_header = false,
                       ResourceGovernor* governor = nullptr);

/// Writes relation `name` (`rel`) to `path` as CSV, values in canonical
/// sorted order, so that LoadCsvRelation reads back the same tuples.
/// Fields containing a comma, a quote or a '\r', and empty fields, are
/// quoted. A spelling containing '\n' cannot be written to the
/// line-based format: InvalidArgument naming the relation; so is a
/// non-empty arity-0 relation, whose rows would be blank lines.
Status SaveRelationCsv(const std::string& name, const Relation& rel,
                       const SymbolTable& symbols, const std::string& path);

/// Parses CSV content from a string instead of a file (for tests).
Status LoadCsvRelationFromString(Database* database, const std::string& name,
                                 const std::string& content,
                                 bool skip_header = false,
                                 ResourceGovernor* governor = nullptr);

}  // namespace idlog

#endif  // IDLOG_STORAGE_CSV_H_
