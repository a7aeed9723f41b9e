#include "storage/csv.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "common/failpoint.h"
#include "store/atomic_file.h"

namespace idlog {

namespace {

/// The one CSV record scanner. Fields come out as views into the line,
/// except a quoted field holding "" escapes, which is unescaped into a
/// scratch buffer reused across records (reserved to the line length
/// before its first append, so earlier views into it stay valid).
class CsvScanner {
 public:
  /// Scans `line` (no '\n') into `fields`; the views are valid until
  /// the next Scan or until the line's storage goes away.
  Status Scan(std::string_view line, std::vector<std::string_view>* fields) {
    fields->clear();
    scratch_.clear();
    // The '\r' of a CRLF ending is not data.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const size_t end = line.size();
    const char* p = line.data();
    size_t i = 0;
    for (;;) {
      std::string_view field;
      if (i < end && p[i] == '"') {
        IDLOG_RETURN_NOT_OK(ScanQuoted(line, &i, *fields, &field));
        if (i < end && p[i] != ',') {
          return Status::ParseError(
              "unexpected character after closing quote in CSV field " +
              FieldNo(*fields));
        }
      } else {
        const size_t start = i;
        while (i < end && p[i] != ',' && p[i] != '"' && p[i] != '\r') ++i;
        if (i - start > kMaxCsvFieldBytes) return Oversized(*fields);
        if (i < end && p[i] == '"') {
          return Status::ParseError(
              "quote opens mid-field in CSV field " + FieldNo(*fields) +
              " (quoted fields must start with '\"')");
        }
        if (i < end && p[i] == '\r') {
          return Status::ParseError("stray carriage return in CSV field " +
                                    FieldNo(*fields));
        }
        field = line.substr(start, i - start);
      }
      fields->push_back(field);
      if (i == end) return Status::OK();
      ++i;  // the ',' — a trailing one opens a final empty field
    }
  }

 private:
  static std::string FieldNo(const std::vector<std::string_view>& fields) {
    return std::to_string(fields.size() + 1);
  }
  static Status Oversized(const std::vector<std::string_view>& fields) {
    return Status::ParseError("CSV field " + FieldNo(fields) + " exceeds " +
                              std::to_string(kMaxCsvFieldBytes) + " bytes");
  }

  /// Scans the quoted field whose opening quote is at `*i` in `line`;
  /// leaves `*i` just past the closing quote.
  Status ScanQuoted(std::string_view line, size_t* i,
                    const std::vector<std::string_view>& fields,
                    std::string_view* field) {
    const size_t start = *i + 1;
    size_t j = start;     // next byte to scan
    size_t length = 0;    // unescaped bytes so far
    bool escaped = false; // content lives in scratch_ from scratch_begin
    size_t scratch_begin = 0;
    for (;;) {
      const size_t q = line.find('"', j);
      if (q == std::string_view::npos) {
        if (length + (line.size() - j) > kMaxCsvFieldBytes) {
          return Oversized(fields);
        }
        return Status::ParseError("unterminated quoted CSV field " +
                                  FieldNo(fields));
      }
      length += q - j;
      if (length > kMaxCsvFieldBytes) return Oversized(fields);
      const bool doubled = q + 1 < line.size() && line[q + 1] == '"';
      if (doubled || escaped) {
        if (!escaped) {
          if (scratch_.capacity() < line.size()) scratch_.reserve(line.size());
          scratch_begin = scratch_.size();
          escaped = true;
        }
        scratch_.append(line.data() + j, q - j);
      }
      if (!doubled) {
        *field = escaped ? std::string_view(scratch_.data() + scratch_begin,
                                            scratch_.size() - scratch_begin)
                         : line.substr(start, q - start);
        *i = q + 1;
        return Status::OK();
      }
      scratch_ += '"';
      if (++length > kMaxCsvFieldBytes) return Oversized(fields);
      j = q + 2;
    }
  }

  std::string scratch_;
};

/// Loads the records of `text` (the whole input, already in memory).
Status LoadRecords(Database* database, const std::string& name,
                   std::string_view text, bool skip_header,
                   const std::string& what, ResourceGovernor* governor) {
  if (governor != nullptr) governor->set_scope("csv loader");
  // Arity is fixed by the existing relation, or else by the first row.
  size_t expected_arity = 0;
  if (Result<const Relation*> existing = database->Get(name); existing.ok()) {
    expected_arity = (*existing)->type().size();
  }
  // A UTF-8 byte-order mark is an encoding marker, not data.
  constexpr std::string_view kBom = "\xEF\xBB\xBF";
  if (text.substr(0, kBom.size()) == kBom) text.remove_prefix(kBom.size());

  CsvScanner scanner;
  std::vector<std::string_view> fields;
  int line_no = 0;
  auto at_line = [&](const Status& st) {
    return Status(st.code(), what + " line " + std::to_string(line_no) +
                                 ": " + st.message());
  };
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t newline = text.find('\n', pos);
    const size_t line_end =
        newline == std::string_view::npos ? text.size() : newline;
    const std::string_view line = text.substr(pos, line_end - pos);
    pos = line_end + 1;
    ++line_no;
    IDLOG_FAILPOINT("csv.load.row");
    if (skip_header && line_no == 1) continue;
    if (line.empty() || line == "\r") continue;
    Status scanned = scanner.Scan(line, &fields);
    if (!scanned.ok()) return at_line(scanned);
    if (expected_arity == 0) {
      expected_arity = fields.size();
    } else if (fields.size() != expected_arity) {
      return at_line(Status::ParseError(
          "row has " + std::to_string(fields.size()) + " fields, expected " +
          std::to_string(expected_arity)));
    }
    if (governor != nullptr) {
      Status st = governor->OnDerived(1, ApproxTupleBytes(fields.size()));
      if (!st.ok()) return st;
    }
    Status st = database->AddRow(name, fields.data(), fields.size());
    if (!st.ok()) return at_line(st);
  }
  return Status::OK();
}

/// Reads all of `f` into `text`, sized from fstat for regular files.
bool ReadAll(std::FILE* f, std::string* text) {
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && S_ISREG(st.st_mode)) {
    text->resize(static_cast<size_t>(st.st_size));
    text->resize(std::fread(text->data(), 1, text->size(), f));
  }
  char buf[1 << 16];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text->append(buf, n);
  }
  return std::ferror(f) == 0;
}

}  // namespace

Result<std::vector<std::string>> ParseCsvRecord(std::string_view line) {
  CsvScanner scanner;
  std::vector<std::string_view> views;
  IDLOG_RETURN_NOT_OK(scanner.Scan(line, &views));
  return std::vector<std::string>(views.begin(), views.end());
}

Status LoadCsvRelation(Database* database, const std::string& name,
                       const std::string& path, bool skip_header,
                       ResourceGovernor* governor) {
  IDLOG_FAILPOINT("csv.load.open");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open CSV file '" + path + "'");
  }
  std::string text;
  const bool read = ReadAll(f, &text);
  const int read_errno = errno;
  std::fclose(f);
  if (!read) {
    return Status::Internal("cannot read CSV file '" + path +
                            "': " + std::strerror(read_errno));
  }
  return LoadRecords(database, name, text, skip_header, path, governor);
}

Status LoadCsvRelationFromString(Database* database, const std::string& name,
                                 const std::string& content,
                                 bool skip_header,
                                 ResourceGovernor* governor) {
  return LoadRecords(database, name, content, skip_header, "<string>",
                     governor);
}

Status SaveRelationCsv(const std::string& name, const Relation& rel,
                       const SymbolTable& symbols, const std::string& path) {
  if (rel.arity() == 0 && !rel.empty()) {
    return Status::InvalidArgument(
        "relation '" + name + "' has arity 0; its rows cannot be written " +
        "as CSV lines");
  }
  // Rendered in memory and written atomically: a crash mid-save leaves
  // either the previous file or the new one, never a torn CSV.
  std::string out;
  for (const Tuple& t : rel.SortedTuples()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ',';
      const std::string field = t[i].ToString(symbols);
      if (field.find('\n') != std::string::npos) {
        return Status::InvalidArgument(
            "relation '" + name + "' holds a value containing a line " +
            "break, which line-based CSV cannot represent");
      }
      if (!field.empty() && field.find_first_of(",\"\r") == std::string::npos) {
        out += field;
        continue;
      }
      out += '"';
      for (char c : field) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    }
    out += '\n';
  }
  return WriteFileAtomic(path, out);
}

}  // namespace idlog
