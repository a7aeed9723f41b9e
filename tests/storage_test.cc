#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/limits.h"
#include "core/idlog_engine.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/relation.h"
#include "store/atomic_file.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"

namespace idlog {
namespace {

using testing_util::T;

RelationType UU() { return TypeFromString("00"); }

/// The rows an index lookup yields, in posting order.
std::vector<size_t> Postings(const ColumnIndex& index, const Tuple& key) {
  std::vector<size_t> out;
  for (size_t r : index.Lookup(key)) out.push_back(r);
  return out;
}

TEST(Relation, InsertDeduplicates) {
  SymbolTable s;
  Relation r(UU());
  EXPECT_TRUE(r.Insert(T(&s, {"a", "b"})));
  EXPECT_FALSE(r.Insert(T(&s, {"a", "b"})));
  EXPECT_TRUE(r.Insert(T(&s, {"a", "c"})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(T(&s, {"a", "b"})));
  EXPECT_FALSE(r.Contains(T(&s, {"b", "a"})));
}

TEST(Relation, InsertRejectsWrongArity) {
  SymbolTable s;
  Relation r(UU());
  EXPECT_FALSE(r.Insert(T(&s, {"a"})));
  EXPECT_EQ(r.size(), 0u);
}

TEST(Relation, InsertCheckedValidatesSorts) {
  SymbolTable s;
  Relation r(TypeFromString("01"));
  EXPECT_TRUE(r.InsertChecked(T(&s, {"a", "1"})).ok());
  Status st = r.InsertChecked(T(&s, {"a", "b"}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  st = r.InsertChecked(T(&s, {"a"}));
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(Relation, InsertionOrderPreserved) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"z", "z"}));
  r.Insert(T(&s, {"a", "a"}));
  EXPECT_EQ(TupleToString(r.tuples()[0], s), "(z, z)");
  EXPECT_EQ(TupleToString(r.tuples()[1], s), "(a, a)");
  // SortedTuples canonicalizes by value order — interning order for
  // sort-u, so "z" (interned first) precedes "a" here.
  auto sorted = r.SortedTuples();
  EXPECT_EQ(TupleToString(sorted[0], s), "(z, z)");
  EXPECT_EQ(TupleToString(sorted[1], s), "(a, a)");
}

TEST(Relation, SetEqualsIgnoresOrder) {
  SymbolTable s;
  Relation a(UU());
  Relation b(UU());
  a.Insert(T(&s, {"x", "y"}));
  a.Insert(T(&s, {"u", "v"}));
  b.Insert(T(&s, {"u", "v"}));
  b.Insert(T(&s, {"x", "y"}));
  EXPECT_TRUE(a.SetEquals(b));
  b.Insert(T(&s, {"q", "q"}));
  EXPECT_FALSE(a.SetEquals(b));
}

TEST(Relation, VersionAdvancesOnChange) {
  SymbolTable s;
  Relation r(UU());
  uint64_t v0 = r.version();
  r.Insert(T(&s, {"a", "b"}));
  EXPECT_GT(r.version(), v0);
  uint64_t v1 = r.version();
  r.Insert(T(&s, {"a", "b"}));  // duplicate: no change
  EXPECT_EQ(r.version(), v1);
  r.Clear();
  EXPECT_GT(r.version(), v1);
  EXPECT_EQ(r.size(), 0u);
}

TEST(Relation, AssignmentChangesUid) {
  SymbolTable s;
  Relation a(UU());
  Relation b(UU());
  b.Insert(T(&s, {"a", "b"}));
  uint64_t uid = a.uid();
  a = b;
  EXPECT_NE(a.uid(), uid);
  EXPECT_NE(a.uid(), b.uid());
  EXPECT_EQ(a.size(), 1u);
}

TEST(ColumnIndex, LookupByColumnSubset) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"a", "y"}));
  r.Insert(T(&s, {"b", "x"}));
  ColumnIndex index(&r, {0});
  EXPECT_EQ(index.Lookup(T(&s, {"a"})).size(), 2u);
  EXPECT_EQ(Postings(index, T(&s, {"a"})), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(index.Lookup(T(&s, {"zzz"})).empty());
}

TEST(ColumnIndex, RefreshSeesNewRows) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  ColumnIndex index(&r, {0});
  r.Insert(T(&s, {"a", "y"}));
  index.Refresh();
  EXPECT_EQ(Postings(index, T(&s, {"a"})), (std::vector<size_t>{0, 1}));
}

TEST(ColumnIndex, RefreshSurvivesWholesaleReplacement) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  ColumnIndex index(&r, {0});
  Relation other(UU());
  other.Insert(T(&s, {"b", "y"}));
  r = other;  // same pointer, new identity
  index.Refresh();
  EXPECT_TRUE(index.Lookup(T(&s, {"a"})).empty());
  EXPECT_EQ(Postings(index, T(&s, {"b"})), (std::vector<size_t>{0}));
}

// Regression: Clear() followed by re-inserts that grow the relation
// back to (at least) its old row count used to satisfy the incremental
// Refresh branch — same uid, size >= built_rows — so the index kept its
// pre-Clear buckets and joins read rows that no longer exist. Clear()
// now bumps a clear generation that forces a full rebuild.
TEST(ColumnIndex, RefreshRebuildsAfterClear) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  r.Insert(T(&s, {"b", "y"}));
  ColumnIndex index(&r, {0});
  ASSERT_FALSE(index.Lookup(T(&s, {"a"})).empty());

  r.Clear();
  r.Insert(T(&s, {"c", "x"}));
  r.Insert(T(&s, {"d", "y"}));  // same row count as before the Clear
  index.Refresh();

  EXPECT_TRUE(index.Lookup(T(&s, {"a"})).empty());
  // Row positions restart after the rebuild.
  EXPECT_EQ(Postings(index, T(&s, {"c"})), (std::vector<size_t>{0}));
}

TEST(ColumnIndex, RefreshAfterClearAndRegrowthBeyondOldSize) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  ColumnIndex index(&r, {0});
  r.Clear();
  r.Insert(T(&s, {"b", "x"}));
  r.Insert(T(&s, {"a", "y"}));  // "a" reappears, at a different row
  index.Refresh();
  EXPECT_EQ(Postings(index, T(&s, {"a"})), (std::vector<size_t>{1}));
}

TEST(IndexCache, FindFreshIsLookupOnly) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  IndexCache cache(&r);
  // Nothing built yet: FindFresh never creates or refreshes.
  EXPECT_EQ(cache.FindFresh({0}), nullptr);
  const ColumnIndex& built = cache.Get({0});
  EXPECT_EQ(cache.FindFresh({0}), &built);
  r.Insert(T(&s, {"b", "y"}));  // stale now
  EXPECT_EQ(cache.FindFresh({0}), nullptr);
  cache.Get({0});  // refreshes
  EXPECT_EQ(cache.FindFresh({0}), &built);
  r.Clear();
  EXPECT_EQ(cache.FindFresh({0}), nullptr);
}

TEST(IndexCache, ReusesIndexes) {
  SymbolTable s;
  Relation r(UU());
  r.Insert(T(&s, {"a", "x"}));
  IndexCache cache(&r);
  const ColumnIndex& i1 = cache.Get({0});
  const ColumnIndex& i2 = cache.Get({0});
  EXPECT_EQ(&i1, &i2);
  const ColumnIndex& on_both = cache.Get({0, 1});
  EXPECT_EQ(Postings(on_both, T(&s, {"a", "x"})), (std::vector<size_t>{0}));
}

TEST(Database, AddTupleInfersType) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddTuple("r", T(&s, {"a", "3"})).ok());
  auto rel = db.Get("r");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(TypeToString((*rel)->type()), "01");
}

TEST(Database, AddRowParsesNumbers) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"emp1", "42"}).ok());
  const Relation* rel = *db.Get("r");
  EXPECT_TRUE(rel->tuples()[0][0].is_symbol());
  EXPECT_TRUE(rel->tuples()[0][1].is_number());
  EXPECT_EQ(rel->tuples()[0][1].number(), 42);
}

TEST(Database, TypeMismatchRejected) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"a", "1"}).ok());
  Status st = db.AddRow("r", {"a", "b"});
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST(Database, UDomainTracksSymbols) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.AddRow("r", {"a", "7"}).ok());
  ASSERT_TRUE(db.AddRow("q", {"b"}).ok());
  EXPECT_EQ(db.u_domain().size(), 2u);  // a and b; 7 is sort i
  db.AddDomainConstant(s.Intern("lonely"));
  EXPECT_EQ(db.u_domain().size(), 3u);
}

TEST(Database, GetMissingIsNotFound) {
  SymbolTable s;
  Database db(&s);
  EXPECT_EQ(db.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST(Database, CreateRelationConflict) {
  SymbolTable s;
  Database db(&s);
  ASSERT_TRUE(db.CreateRelation("r", TypeFromString("00")).ok());
  EXPECT_TRUE(db.CreateRelation("r", TypeFromString("00")).ok());
  EXPECT_EQ(db.CreateRelation("r", TypeFromString("01")).code(),
            StatusCode::kTypeError);
}

TEST(FieldToValue, DigitsAreNumbersUpToInt64Max) {
  SymbolTable s;
  Value v;
  ASSERT_TRUE(FieldToValue("9223372036854775807", &s, &v).ok());
  EXPECT_EQ(v, Value::Number(std::numeric_limits<int64_t>::max()));
  Status past = FieldToValue("9223372036854775808", &s, &v);
  EXPECT_EQ(past.code(), StatusCode::kParseError);
  EXPECT_NE(past.message().find("overflows"), std::string::npos);
  EXPECT_EQ(FieldToValue("99999999999999999999", &s, &v).code(),
            StatusCode::kParseError);
  // Leading zeros do not count against the 19 significant digits.
  ASSERT_TRUE(FieldToValue("007", &s, &v).ok());
  EXPECT_EQ(v, Value::Number(7));
  ASSERT_TRUE(FieldToValue("0009223372036854775807", &s, &v).ok());
  EXPECT_EQ(v, Value::Number(std::numeric_limits<int64_t>::max()));
  ASSERT_TRUE(FieldToValue("0000", &s, &v).ok());
  EXPECT_EQ(v, Value::Number(0));
  EXPECT_EQ(s.size(), 0u);  // No number interned a symbol.
}

TEST(FieldToValue, EverythingElseIsASymbol) {
  SymbolTable s;
  for (const char* field : {"ann", "-5", "1e3", "12a", " 7", ""}) {
    Value v;
    ASSERT_TRUE(FieldToValue(field, &s, &v).ok()) << field;
    ASSERT_TRUE(v.is_symbol()) << field;
    EXPECT_EQ(s.NameOf(v.symbol()), field);
  }
  // AddRow applies the same rule and refuses the overflowing field.
  Database db(&s);
  EXPECT_EQ(db.AddRow("r", {"a", "9223372036854775808"}).code(),
            StatusCode::kParseError);
  ASSERT_TRUE(db.AddRow("r", {"a", "0042"}).ok());
  EXPECT_TRUE((*db.Get("r"))->Contains(
      Tuple{Value::Symbol(s.Lookup("a")), Value::Number(42)}));
}

// --------------------------------------------------------------------
// Packed values.

TEST(Value, PackingRoundTripsAtTheRangeEdges) {
  static_assert(sizeof(Value) == 8, "one word per value");
  for (int64_t n : {int64_t{0}, int64_t{1}, INT64_MAX / 2, INT64_MAX}) {
    const Value v = Value::Number(n);
    EXPECT_TRUE(v.is_number());
    EXPECT_FALSE(v.is_symbol());
    EXPECT_EQ(v.sort(), Sort::kI);
    EXPECT_EQ(v.number(), n);
  }
  for (SymbolId id : {SymbolId{0}, SymbolId{1}, SymbolTable::kNoSymbol - 1,
                      std::numeric_limits<SymbolId>::max()}) {
    const Value v = Value::Symbol(id);
    EXPECT_TRUE(v.is_symbol());
    EXPECT_EQ(v.sort(), Sort::kU);
    EXPECT_EQ(v.symbol(), id);
  }
  // Same payload, different sorts: distinct values, u before i.
  EXPECT_NE(Value::Symbol(7), Value::Number(7));
  EXPECT_LT(Value::Symbol(std::numeric_limits<SymbolId>::max()),
            Value::Number(0));
  EXPECT_LT(Value::Number(INT64_MAX / 2), Value::Number(INT64_MAX));
  EXPECT_EQ(Value(), Value::Symbol(0));
}

// --------------------------------------------------------------------
// Differential tests: the flat relation and its indexes against
// obviously-correct models, over seeded random operation scripts.

/// A random tuple of `type` over a small domain, so scripts collide.
Tuple RandomTuple(const RelationType& type, std::mt19937* rng, int domain) {
  Tuple t;
  for (Sort sort : type) {
    const int x = static_cast<int>((*rng)() % static_cast<unsigned>(domain));
    t.push_back(sort == Sort::kU ? Value::Symbol(static_cast<SymbolId>(x))
                                 : Value::Number(x));
  }
  return t;
}

TEST(RelationDifferential, MatchesSetAndInsertionOrderModel) {
  for (const char* bits : {"", "0", "01", "110"}) {
    const RelationType type = TypeFromString(bits);
    for (uint32_t seed = 1; seed <= 12; ++seed) {
      std::mt19937 rng(seed);
      const int domain = type.size() <= 1 ? 40 : 9;
      Relation rel(type);
      std::set<Tuple> members;   // membership model
      std::vector<Tuple> order;  // row-order model (swap-and-pop erase)
      for (int step = 0; step < 1500; ++step) {
        const unsigned op = rng() % 100;
        if (op < 55) {
          Tuple t = RandomTuple(type, &rng, domain);
          const bool fresh = members.insert(t).second;
          ASSERT_EQ(rel.Insert(t), fresh) << bits << " seed " << seed;
          if (fresh) order.push_back(t);
        } else if (op < 90) {
          Tuple t = RandomTuple(type, &rng, domain);
          const bool present = members.erase(t) > 0;
          ASSERT_EQ(rel.Erase(t), present) << bits << " seed " << seed;
          if (present) {
            auto it = std::find(order.begin(), order.end(), t);
            *it = order.back();
            order.pop_back();
          }
        } else if (op < 93) {
          rel.Clear();
          members.clear();
          order.clear();
        } else if (op < 96) {
          Relation copy(rel);
          const uint64_t uid = rel.uid();
          rel = copy;
          ASSERT_NE(rel.uid(), uid);
        } else {
          Relation moved(std::move(rel));
          ASSERT_TRUE(rel.empty());
          rel = std::move(moved);
        }
        ASSERT_EQ(rel.size(), order.size()) << bits << " seed " << seed;
        for (size_t i = 0; i < order.size(); ++i) {
          ASSERT_EQ(rel.row(i), order[i])
              << bits << " seed " << seed << " step " << step << " row " << i;
          ASSERT_TRUE(rel.Contains(order[i]));
          ASSERT_EQ(rel.Find(order[i]), i);
        }
        Tuple probe = RandomTuple(type, &rng, domain);
        ASSERT_EQ(rel.Contains(probe), members.count(probe) > 0);
      }
    }
  }
}

/// Brute-force lookup: rows of `rel` whose projection on `cols` equals
/// `key`, ascending.
std::vector<size_t> ScanFor(const Relation& rel, const std::vector<int>& cols,
                            const Tuple& key) {
  std::vector<size_t> out;
  for (size_t r = 0; r < rel.size(); ++r) {
    if (ProjectTuple(rel.row(r), cols) == key) out.push_back(r);
  }
  return out;
}

TEST(ColumnIndexDifferential, LookupsMatchBruteForceAfterEveryMutation) {
  const RelationType type = TypeFromString("010");
  const std::vector<std::vector<int>> column_sets = {
      {0}, {1}, {2, 0}, {0, 1, 2}};
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    Relation rel(type);
    IndexCache cache(&rel);
    for (int step = 0; step < 500; ++step) {
      const unsigned op = rng() % 100;
      if (op < 75) {
        rel.Insert(RandomTuple(type, &rng, 6));  // incremental refresh
      } else if (op < 97) {
        rel.Erase(RandomTuple(type, &rng, 6));  // forces a rebuild
      } else {
        rel.Clear();
      }
      for (const std::vector<int>& cols : column_sets) {
        const ColumnIndex& index = cache.Get(cols);
        ASSERT_TRUE(index.fresh());
        ASSERT_EQ(index.num_entries(), rel.size());
        std::set<Tuple> keys;
        for (TupleView row : rel.tuples()) keys.insert(ProjectTuple(row, cols));
        ASSERT_EQ(index.num_keys(), keys.size());
        // Every stored key, plus random (mostly absent) probes.
        for (int k = 0; k < 4; ++k) {
          keys.insert(ProjectTuple(RandomTuple(type, &rng, 7), cols));
        }
        for (const Tuple& key : keys) {
          const std::vector<size_t> expected = ScanFor(rel, cols, key);
          ASSERT_EQ(Postings(index, key), expected)
              << "seed " << seed << " step " << step;
          ASSERT_EQ(index.Lookup(key).size(), expected.size());
        }
      }
    }
  }
}

TEST(RelationBytes, ApproxTupleBytesBoundsTheHeapWithinTwoX) {
  for (const char* bits : {"0", "01", "0110"}) {
    const RelationType type = TypeFromString(bits);
    Relation rel(type);
    std::mt19937 rng(5);
    for (uint64_t n = 1; n <= 20000; ++n) {
      Tuple t = RandomTuple(type, &rng, 1 << 20);
      if (!rel.Insert(t)) continue;
      if (rel.size() < 64) continue;  // minimum table size dominates
      const uint64_t logical = rel.size() * ApproxTupleBytes(type.size());
      ASSERT_GE(rel.heap_bytes(), logical) << bits << " at " << rel.size();
      ASSERT_LE(rel.heap_bytes(), 2 * logical) << bits << " at " << rel.size();
    }
  }
}

TEST(SymbolTableBytes, ApproxBytesBoundsTheHeapWithinTwoX) {
  SymbolTable table;
  std::mt19937 rng(9);
  for (int n = 0; n < 100000; ++n) {
    table.Intern("s" + std::to_string(rng()) +
                 std::string(rng() % 24, 'q'));
    if (table.size() < 64) continue;  // minimum sizes dominate
    const uint64_t logical = table.approx_bytes();
    ASSERT_GE(table.heap_bytes(), logical) << table.size();
    ASSERT_LE(table.heap_bytes(), 2 * logical) << table.size();
  }
  // The formula itself: arena + 4 * (symbols + 1) + 8 * slots, with
  // the slot table at load at most 1/2.
  uint64_t arena = 0;
  for (SymbolId id = 0; id < table.size(); ++id) {
    arena += table.NameOf(id).size();
  }
  const uint64_t slots = (table.approx_bytes() - arena -
                          4 * (table.size() + 1)) / 8;
  EXPECT_EQ(arena + 4 * (table.size() + 1) + 8 * slots, table.approx_bytes());
  EXPECT_GE(slots, 2 * table.size());
  EXPECT_EQ(slots & (slots - 1), 0u) << "power of two";
}

// --------------------------------------------------------------------
// Durable formats reject integers the packed Value cannot hold.

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("idlog_storage_test_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

void PutLe(std::string* bytes, size_t at, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    (*bytes)[at + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint64_t GetLe(const std::string& bytes, size_t at, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(
             static_cast<uint8_t>(bytes[at + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

TEST(PackedValueDecode, SnapshotRejectsOutOfRangeIntegerPayload) {
  IdlogEngine engine;
  ASSERT_TRUE(engine.AddRow("n", {"4242"}).ok());
  ASSERT_TRUE(engine.LoadProgramText("m(X) :- n(X).").ok());
  ASSERT_TRUE(engine.Run().ok());
  const std::string path = TempPath("snap");
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  std::remove(path.c_str());
  ASSERT_TRUE(ParseSnapshot(bytes).ok());

  // Every stored copy of 4242 (sort byte 1, then the u64 payload) gets
  // the top payload bit set — a negative int64 if it were wrapped — and
  // each touched section is re-checksummed so only the value is wrong.
  const std::string needle = std::string("\x01\x92\x10\0\0\0\0\0\0", 9);
  std::string bad = bytes;
  size_t patched = 0;
  for (size_t pos = sizeof(kSnapshotMagic) + 4; pos < bad.size();) {
    const uint64_t len = GetLe(bad, pos + 4, 8);
    const size_t payload = pos + 12;
    bool touched = false;
    for (size_t at = bad.find(needle, payload);
         at != std::string::npos && at + needle.size() <= payload + len;
         at = bad.find(needle, at + 1)) {
      bad[at + 8] = static_cast<char>(0x80);
      touched = true;
      ++patched;
    }
    if (touched) {
      const uint32_t crc =
          Crc32(std::string_view(bad).substr(payload, len),
                Crc32(std::string_view(bad).substr(pos, 12)));
      PutLe(&bad, payload + len, crc, 4);
    }
    pos = payload + len + 4;
  }
  ASSERT_GT(patched, 0u);
  auto parsed = ParseSnapshot(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("beyond the 63-bit value range"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(PackedValueDecode, WalRejectsOutOfRangeIntegerPayload) {
  const std::string path = TempPath("wal");
  WalRecord begin;
  begin.type = WalRecordType::kBegin;
  begin.txn_id = 1;
  WalRecord insert;
  insert.type = WalRecordType::kInsert;
  insert.pred = "n";
  insert.values = {WalValue::Number(4242)};
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = 1;
  const std::string header = SerializeWalHeader(/*epoch=*/1,
                                                /*program_hash=*/7);
  std::string frame = SerializeWalRecord(insert);
  // Frame = [len u32][crc u32][type u8][payload]; the value is the last
  // 8 payload bytes. Set its top bit and re-checksum the body.
  frame[frame.size() - 1] = static_cast<char>(0x80);
  PutLe(&frame, 4, Crc32(std::string_view(frame).substr(8)), 4);
  const std::string bytes = header + SerializeWalRecord(begin) + frame +
                            SerializeWalRecord(commit);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto scan = ScanWal(path);
  std::remove(path.c_str());
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(scan.status().message().find("beyond the 63-bit value range"),
            std::string::npos)
      << scan.status().ToString();
}

}  // namespace
}  // namespace idlog
