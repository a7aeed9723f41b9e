#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "storage/csv.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

/// ParseCsvRecord's fields, or the failure text.
std::vector<std::string> Fields(std::string_view line) {
  Result<std::vector<std::string>> fields = ParseCsvRecord(line);
  if (!fields.ok()) return {"<error> " + fields.status().ToString()};
  return *fields;
}

TEST(Csv, ParsePlainFields) {
  EXPECT_EQ(Fields("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Fields("one"), std::vector<std::string>{"one"});
  EXPECT_EQ(Fields("a,,c"), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Csv, ParseQuotedFields) {
  EXPECT_EQ(Fields("\"a,b\",c"), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(Fields("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(Csv, ParseToleratesCrlf) {
  EXPECT_EQ(Fields("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, LoadFromString) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "emp",
                                        "ann,sales\nbob,dev\n\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Relation* rel = *db.Get("emp");
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains(T(&s, {"ann", "sales"})));
}

TEST(Csv, LoadSkipsHeader) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "emp",
                                        "name,dept\nann,sales\n",
                                        /*skip_header=*/true);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ((*db.Get("emp"))->size(), 1u);
}

TEST(Csv, NumericFieldsBecomeSortI) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "score", "ann,42\n").ok());
  const Relation* rel = *db.Get("score");
  EXPECT_EQ(TypeToString(rel->type()), "01");
  EXPECT_EQ(rel->tuples()[0][1].number(), 42);
}

TEST(Csv, TypeMismatchReportsLine) {
  SymbolTable s;
  Database db(&s);
  Status st =
      LoadCsvRelationFromString(&db, "score", "ann,42\nbob,oops\n");
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(Csv, StrictParseAcceptsQuotedCommasAndCrlf) {
  auto fields = ParseCsvRecord("\"a,b\",c\r");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "c"}));
  auto quoted = ParseCsvRecord("\"say \"\"hi\"\"\",x");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(*quoted, (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(Csv, UnterminatedQuoteIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "a,b\n\"oops,c\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("unterminated"), std::string::npos)
      << st.ToString();
}

TEST(Csv, TextAfterClosingQuoteIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "\"ab\"cd,x\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
}

TEST(Csv, QuoteOpeningMidFieldIsParseError) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "r", "ab\"cd\",x\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(Csv, ArityMismatchReportsLine) {
  SymbolTable s;
  Database db(&s);
  Status st =
      LoadCsvRelationFromString(&db, "r", "a,b\nc,d,e\nf,g\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("expected 2"), std::string::npos)
      << st.ToString();
}

TEST(Csv, ArityCheckedAgainstExistingRelation) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(LoadCsvRelationFromString(&db, "r", "a,b\n").ok());
  Status st = LoadCsvRelationFromString(&db, "r", "x,y,z\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
}

TEST(Csv, OversizedFieldIsParseError) {
  SymbolTable s;
  Database db(&s);
  std::string huge(kMaxCsvFieldBytes + 2, 'x');
  Status st = LoadCsvRelationFromString(&db, "r", huge + ",y\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("exceeds"), std::string::npos)
      << st.ToString();
}

TEST(Csv, IntegerOverflowIsParseError) {
  SymbolTable s;
  Database db(&s);
  // 20 digits: larger than any int64. Must be a clean error, not a
  // crash or a silently wrapped number.
  Status st =
      LoadCsvRelationFromString(&db, "r", "a,99999999999999999999\n");
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos)
      << st.ToString();
  // int64 max itself still loads.
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "ok", "a,9223372036854775807\n")
          .ok());
  EXPECT_EQ((*db.Get("ok"))->tuples()[0][1].number(),
            9223372036854775807LL);
}

TEST(Csv, EmbeddedCarriageReturnInsideQuotesIsKept) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "r", "\"a\rb\",x\r\n").ok());
  EXPECT_TRUE((*db.Get("r"))->Contains(T(&s, {"a\rb", "x"})));
}

TEST(Csv, MissingFileIsNotFound) {
  SymbolTable s;
  Database db(&s);
  EXPECT_EQ(LoadCsvRelation(&db, "r", "/nonexistent/x.csv").code(),
            StatusCode::kNotFound);
}

TEST(Csv, SaveAndReload) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(
      LoadCsvRelationFromString(&db, "emp",
                                "ann,sales,3\n\"x,y\",dev,5\n")
          .ok());
  std::string path = ::testing::TempDir() + "/idlog_csv_test.csv";
  ASSERT_TRUE(SaveRelationCsv("emp", **db.Get("emp"), s, path).ok());

  SymbolTable s2;
  Database db2(&s2);
  ASSERT_TRUE(LoadCsvRelation(&db2, "emp", path).ok());
  EXPECT_EQ((*db2.Get("emp"))->size(), 2u);
  EXPECT_TRUE((*db2.Get("emp"))->Contains(T(&s2, {"x,y", "dev", "5"})));
  std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Byte-order mark.

TEST(Csv, Utf8BomBeforeIntegersIsStripped) {
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelationFromString(&db, "n", "\xEF\xBB\xBF" "1,2\n3,4\n");
  ASSERT_TRUE(st.ok()) << st.ToString();
  const Relation* rel = *db.Get("n");
  EXPECT_EQ(TypeToString(rel->type()), "11");
  EXPECT_EQ(rel->SortedTuples(),
            (std::vector<Tuple>{{Value::Number(1), Value::Number(2)},
                                {Value::Number(3), Value::Number(4)}}));
}

TEST(Csv, Utf8BomIsNotPartOfTheFirstSymbol) {
  std::string path = ::testing::TempDir() + "/idlog_csv_bom.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xEF\xBB\xBF" "ann,sales\r\nbob,dev\r\n";
  }
  SymbolTable s;
  Database db(&s);
  Status st = LoadCsvRelation(&db, "emp", path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(s.NameOf(0), "ann");
  EXPECT_EQ(s.Lookup("\xEF\xBB\xBF" "ann"), SymbolTable::kNoSymbol);
  EXPECT_TRUE((*db.Get("emp"))->Contains(T(&s, {"ann", "sales"})));
  std::remove(path.c_str());
}

// --------------------------------------------------------------------
// SaveRelationCsv writes what LoadCsvRelation reads back.

TEST(Csv, SaveRoundTripsAwkwardSpellings) {
  SymbolTable s;
  Database db(&s);
  const std::vector<std::string> spellings = {
      "a,b", "say \"hi\"", "cr\rin", "\r", "", "\"", ",", "plain"};
  for (size_t i = 0; i < spellings.size(); ++i) {
    ASSERT_TRUE(db.AddTuple("r", {Value::Symbol(s.Intern(spellings[i])),
                                  Value::Number(static_cast<int64_t>(i))})
                    .ok());
  }
  // An arity-1 relation holding only the empty spelling must not save
  // as a blank line, which the loader skips.
  ASSERT_TRUE(db.AddTuple("e", {Value::Symbol(s.Intern(""))}).ok());
  std::string path = ::testing::TempDir() + "/idlog_csv_roundtrip.csv";
  for (const char* name : {"r", "e"}) {
    ASSERT_TRUE(SaveRelationCsv(name, **db.Get(name), s, path).ok());
    SymbolTable s2;
    Database db2(&s2);
    Status st = LoadCsvRelation(&db2, name, path);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_EQ(testing_util::Rows(**db2.Get(name), s2),
              testing_util::Rows(**db.Get(name), s))
        << name;
  }
  std::remove(path.c_str());
}

TEST(Csv, SaveRefusesLineBreakInSpelling) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddTuple("memo", {Value::Symbol(s.Intern("two\nlines")),
                                   Value::Symbol(s.Intern("x"))})
                  .ok());
  std::string path = ::testing::TempDir() + "/idlog_csv_newline.csv";
  std::remove(path.c_str());
  Status st = SaveRelationCsv("memo", **db.Get("memo"), s, path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("'memo'"), std::string::npos) << st.ToString();
  EXPECT_FALSE(std::ifstream(path).good()) << "nothing may be written";
}

// --------------------------------------------------------------------
// Differential: the one-pass loader against the line-at-a-time
// semantics it replaced (std::getline, the strict record state machine
// and the per-field sort rule, all re-stated here).

Result<std::vector<std::string>> ReferenceRecord(const std::string& line) {
  size_t end = line.size();
  if (end > 0 && line[end - 1] == '\r') --end;
  std::vector<std::string> fields;
  std::string current;
  enum class Pos { kStart, kUnquoted, kQuoted, kAfterQuote };
  Pos pos = Pos::kStart;
  for (size_t i = 0; i < end; ++i) {
    char c = line[i];
    switch (pos) {
      case Pos::kQuoted:
        if (c == '"') {
          if (i + 1 < end && line[i + 1] == '"') {
            current += '"';
            ++i;
          } else {
            pos = Pos::kAfterQuote;
          }
        } else {
          current += c;
        }
        break;
      case Pos::kAfterQuote:
        if (c != ',') {
          return Status::ParseError(
              "unexpected character after closing quote in CSV field " +
              std::to_string(fields.size() + 1));
        }
        fields.push_back(std::move(current));
        current.clear();
        pos = Pos::kStart;
        break;
      case Pos::kStart:
        if (c == '"') {
          pos = Pos::kQuoted;
          break;
        }
        [[fallthrough]];
      case Pos::kUnquoted:
        if (c == ',') {
          fields.push_back(std::move(current));
          current.clear();
          pos = Pos::kStart;
        } else if (c == '"') {
          return Status::ParseError(
              "quote opens mid-field in CSV field " +
              std::to_string(fields.size() + 1) +
              " (quoted fields must start with '\"')");
        } else if (c == '\r') {
          return Status::ParseError("stray carriage return in CSV field " +
                                    std::to_string(fields.size() + 1));
        } else {
          current += c;
          pos = Pos::kUnquoted;
        }
        break;
    }
    if (current.size() > kMaxCsvFieldBytes) {
      return Status::ParseError(
          "CSV field " + std::to_string(fields.size() + 1) + " exceeds " +
          std::to_string(kMaxCsvFieldBytes) + " bytes");
    }
  }
  if (pos == Pos::kQuoted) {
    return Status::ParseError("unterminated quoted CSV field " +
                              std::to_string(fields.size() + 1));
  }
  fields.push_back(std::move(current));
  return fields;
}

Status ReferenceAddRow(Database* db, const std::string& name,
                       const std::vector<std::string>& fields) {
  Tuple t;
  for (const std::string& f : fields) {
    bool numeric = !f.empty();
    for (char c : f) {
      if (!std::isdigit(static_cast<unsigned char>(c))) numeric = false;
    }
    if (!numeric) {
      t.push_back(Value::Symbol(db->symbols()->Intern(f)));
      continue;
    }
    size_t nz = f.find_first_not_of('0');
    size_t digits = nz == std::string::npos ? 0 : f.size() - nz;
    if (digits > 19 ||
        (digits == 19 && f.compare(nz, 19, "9223372036854775807") > 0)) {
      return Status::ParseError("integer field '" + f +
                                "' overflows 64-bit range");
    }
    t.push_back(Value::Number(std::stoll(f)));
  }
  return db->AddTuple(name, std::move(t));
}

Status ReferenceLoad(Database* db, const std::string& name,
                     const std::string& content, bool skip_header) {
  size_t expected_arity = 0;
  if (Result<const Relation*> existing = db->Get(name); existing.ok()) {
    expected_arity = (*existing)->type().size();
  }
  std::istringstream in(content);
  std::string line;
  int line_no = 0;
  auto at_line = [&](const Status& st) {
    return Status(st.code(), "<string> line " + std::to_string(line_no) +
                                 ": " + st.message());
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (skip_header && line_no == 1) continue;
    if (line.empty() || line == "\r") continue;
    Result<std::vector<std::string>> fields = ReferenceRecord(line);
    if (!fields.ok()) return at_line(fields.status());
    if (expected_arity == 0) {
      expected_arity = fields->size();
    } else if (fields->size() != expected_arity) {
      return at_line(Status::ParseError(
          "row has " + std::to_string(fields->size()) + " fields, expected " +
          std::to_string(expected_arity)));
    }
    Status st = ReferenceAddRow(db, name, *fields);
    if (!st.ok()) return at_line(st);
  }
  return Status::OK();
}

/// One random CSV field, mostly well-formed, sometimes broken.
std::string RandomField(std::mt19937* rng, bool allow_errors) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  static const char* const kWords[] = {"ann", "bob", "sales", "x", "007",
                                       "42", "0", ""};
  switch (pick(allow_errors ? 14 : 10)) {
    case 0:
    case 1:
    case 2:
      return kWords[pick(8)];
    case 3:
      return std::to_string((*rng)() % 100000);
    case 4:
      return "\"" + std::string(kWords[pick(8)]) + "," + kWords[pick(8)] +
             "\"";  // quoted comma
    case 5:
      return "\"say \"\"" + std::string(kWords[pick(8)]) + "\"\"\"";
    case 6:
      return pick(2) ? "9223372036854775807" : "9223372036854775808";
    case 7:
      return "\"\"";  // quoted empty
    case 8:
      return "\"in\rside\"";
    case 9:
      return "\"\"\"\"";  // one quote
    case 10:
      return "\"open";  // unterminated
    case 11:
      return "\"ab\"cd";  // text after closing quote
    case 12:
      return "ab\"cd";  // quote opens mid-field
    default:
      return "a\rb";  // stray carriage return
  }
}

std::string RandomDocument(std::mt19937* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  const bool errors = pick(3) == 0;
  const size_t arity = 1 + static_cast<size_t>(pick(3));
  std::string doc;
  const int lines = pick(12);
  for (int l = 0; l < lines; ++l) {
    switch (pick(10)) {
      case 0:  // blank line
        break;
      case 1:
        doc += "\r";  // blank CRLF line
        break;
      default: {
        // Arity errors are rare so later lines still get a chance.
        const size_t n = errors && pick(8) == 0 ? arity + 1 : arity;
        for (size_t f = 0; f < n; ++f) {
          if (f > 0) doc += ',';
          doc += RandomField(rng, errors && pick(6) == 0);
        }
      }
    }
    const bool last = l + 1 == lines;
    if (!last || pick(2)) doc += pick(3) == 0 ? "\r\n" : "\n";
  }
  return doc;
}

void ExpectSameLoad(const std::string& doc, bool skip_header,
                    const std::string& tag) {
  SymbolTable ref_symbols;
  Database ref(&ref_symbols);
  SymbolTable symbols;
  Database db(&symbols);
  const Status want = ReferenceLoad(&ref, "r", doc, skip_header);
  const Status got = LoadCsvRelationFromString(&db, "r", doc, skip_header);
  ASSERT_EQ(got.code(), want.code()) << tag << got.ToString();
  ASSERT_EQ(got.message(), want.message()) << tag;
  ASSERT_EQ(db.HasRelation("r"), ref.HasRelation("r")) << tag;
  if (ref.HasRelation("r")) {
    ASSERT_EQ((*db.Get("r"))->type(), (*ref.Get("r"))->type()) << tag;
    ASSERT_EQ((*db.Get("r"))->SortedTuples(), (*ref.Get("r"))->SortedTuples())
        << tag;
  }
  ASSERT_EQ(symbols.size(), ref_symbols.size()) << tag;
  for (SymbolId id = 0; id < symbols.size(); ++id) {
    ASSERT_EQ(symbols.NameOf(id), ref_symbols.NameOf(id)) << tag << id;
  }
}

TEST(CsvDifferential, OnePassLoaderMatchesLineAtATimeSemantics) {
  std::mt19937 rng(20260917);
  int malformed = 0;
  for (int doc_no = 0; doc_no < 400; ++doc_no) {
    const std::string doc = RandomDocument(&rng);
    const bool skip_header = rng() % 4 == 0;
    ExpectSameLoad(doc, skip_header, "doc " + std::to_string(doc_no) + ": ");
    if (HasFatalFailure()) return;
    SymbolTable scratch;
    Database probe(&scratch);
    if (!LoadCsvRelationFromString(&probe, "r", doc, skip_header).ok()) {
      ++malformed;
    }
  }
  // The corpus must exercise the error paths, not only clean input.
  EXPECT_GE(malformed, 60);
}

TEST(CsvDifferential, OversizedFieldsFailAtTheSamePlace) {
  const std::string big(kMaxCsvFieldBytes, 'x');
  const std::vector<std::string> docs = {
      "a," + big + "\n",            // exactly at the limit: loads
      "a," + big + "y\n",           // one past, unquoted
      "a,\"" + big + "y\"\n",       // one past, quoted
      "a,\"" + big + "\"\"\"\n",    // the escaped quote is one past
      "a,\"" + big + "\n",          // unterminated at the limit
      "a,\"" + big + "y\n",         // unterminated past the limit
      "a," + big + "y\"z\n",        // past the limit before a bad quote
      "a," + big.substr(1) + "\"\n",  // bad quote before the limit
  };
  for (size_t i = 0; i < docs.size(); ++i) {
    ExpectSameLoad(docs[i], false, "doc " + std::to_string(i) + ": ");
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace idlog
