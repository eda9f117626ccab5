// Self-test of the benchmark's reference evaluator: counts on a tiny
// hand-built database against answers counted by hand, and a page
// decode of rows bulk-loaded into a real database. Exit code 0 when
// every case passes.
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "db/database.h"
#include "reference.h"

using namespace sqp;
using specbench::RefDatabase;

namespace {

int failures = 0;

void Expect(const char* what, const RefDatabase& db, const QueryGraph& q,
            uint64_t want) {
  auto got = db.Count(q);
  if (!got.ok() || *got != want) {
    std::printf("FAIL %s: want %llu, got %s\n", what,
                static_cast<unsigned long long>(want),
                got.ok() ? std::to_string(*got).c_str()
                         : got.status().ToString().c_str());
    failures++;
  } else {
    std::printf("ok   %s = %llu\n", what, static_cast<unsigned long long>(want));
  }
}

SelectionPred Sel(const char* table, const char* column, CompareOp op,
                  Value constant) {
  SelectionPred p;
  p.table = table;
  p.column = column;
  p.op = op;
  p.constant = std::move(constant);
  return p;
}

JoinPred Join(const char* lt, const char* lc, const char* rt, const char* rc) {
  JoinPred j;
  j.left_table = lt;
  j.left_column = lc;
  j.right_table = rt;
  j.right_column = rc;
  return j;
}

// a(id, g, v), b(id, a_id, w), c(a_id, w):
//   a: (1,'x',1.0) (2,'y',2.5) (3,'x',4.0)
//   b: (10,1,5) (11,1,7) (12,3,5) (13,9,1)
//   c: (1,5) (1,7) (3,5) (3,6)
RefDatabase TinyDatabase() {
  RefDatabase db;
  auto& a = db.AddTable("a", {{"id", TypeId::kInt64},
                              {"g", TypeId::kString},
                              {"v", TypeId::kDouble}});
  a.AppendRow({Value(int64_t{1}), Value("x"), Value(1.0)});
  a.AppendRow({Value(int64_t{2}), Value("y"), Value(2.5)});
  a.AppendRow({Value(int64_t{3}), Value("x"), Value(4.0)});
  auto& b = db.AddTable("b", {{"id", TypeId::kInt64},
                              {"a_id", TypeId::kInt64},
                              {"w", TypeId::kInt64}});
  for (auto [id, a_id, w] : std::vector<std::tuple<int, int, int>>{
           {10, 1, 5}, {11, 1, 7}, {12, 3, 5}, {13, 9, 1}}) {
    b.AppendRow({Value(int64_t{id}), Value(int64_t{a_id}), Value(int64_t{w})});
  }
  auto& c = db.AddTable("c", {{"a_id", TypeId::kInt64}, {"w", TypeId::kInt64}});
  for (auto [a_id, w] :
       std::vector<std::pair<int, int>>{{1, 5}, {1, 7}, {3, 5}, {3, 6}}) {
    c.AppendRow({Value(int64_t{a_id}), Value(int64_t{w})});
  }
  return db;
}

void CountCases() {
  RefDatabase db = TinyDatabase();
  {
    QueryGraph q;
    q.AddSelection(Sel("a", "g", CompareOp::kEq, Value("x")));
    Expect("selection a.g = 'x'", db, q, 2);
  }
  {
    QueryGraph q;
    q.AddSelection(Sel("a", "v", CompareOp::kGe, Value(int64_t{2})));
    Expect("double column against integer constant", db, q, 2);
  }
  {
    QueryGraph q;
    q.AddRelation("a");
    q.AddRelation("c");
    Expect("cross product a x c", db, q, 12);
    q.AddSelection(Sel("a", "v", CompareOp::kGt, Value(2.0)));
    Expect("cross product with a.v > 2", db, q, 8);
  }
  {
    QueryGraph q;
    q.AddSelection(Sel("a", "v", CompareOp::kGt, Value(100.0)));
    Expect("empty selection", db, q, 0);
    q.AddRelation("c");
    Expect("cross product with an empty side", db, q, 0);
  }
  {
    QueryGraph q;
    q.AddJoin(Join("a", "id", "b", "a_id"));
    Expect("one-edge join a-b", db, q, 3);
    q.AddSelection(Sel("b", "w", CompareOp::kEq, Value(int64_t{99})));
    Expect("join with an empty result", db, q, 0);
  }
  {
    QueryGraph q;
    q.AddJoin(Join("b", "a_id", "c", "a_id"));
    Expect("b-c on a_id only", db, q, 6);
    q.AddJoin(Join("b", "w", "c", "w"));
    Expect("two-edge join b-c on (a_id, w)", db, q, 3);
    q.AddJoin(Join("a", "id", "b", "a_id"));
    Expect("chain a-b-c with the two-edge join", db, q, 3);
    q.AddSelection(Sel("a", "g", CompareOp::kEq, Value("y")));
    Expect("chain with a.g = 'y'", db, q, 0);
  }
  {
    QueryGraph q;
    q.AddRelation("nope");
    if (db.Count(q).ok()) {
      std::printf("FAIL unknown table counted\n");
      failures++;
    } else {
      std::printf("ok   unknown table refused\n");
    }
  }
}

// Rows bulk-loaded into a real database decode back unchanged.
void DecodeCase() {
  DatabaseOptions options;
  options.buffer_pool_pages = 16;
  Database db(options);
  Schema schema({Column{"k", TypeId::kInt64}, Column{"s", TypeId::kString},
                 Column{"d", TypeId::kDouble}});
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 3000; i++) {
    rows.push_back({Value(i), Value("row" + std::to_string(i % 17)),
                    Value(static_cast<double>(i) / 8)});
  }
  Status st = db.CreateTable("t", schema);
  if (st.ok()) st = db.BulkLoad("t", rows);
  RefDatabase ref;
  if (st.ok()) st = specbench::DecodeTables(&db, {"t"}, &ref);
  bool same = st.ok() && ref.Find("t")->rows == rows.size();
  for (size_t i = 0; same && i < rows.size(); i++) {
    const auto& t = *ref.Find("t");
    // Rows come back in page order, which is load order on one node.
    same = t.columns[0].ints[i] == rows[i][0].AsInt64() &&
           t.columns[1].strings[i] == rows[i][1].AsString() &&
           t.columns[2].doubles[i] == rows[i][2].AsDouble();
  }
  if (!same) {
    std::printf("FAIL page decode of 3000 bulk-loaded rows: %s\n",
                st.ToString().c_str());
    failures++;
  } else {
    std::printf("ok   page decode of 3000 bulk-loaded rows\n");
  }
}

}  // namespace

int main() {
  CountCases();
  DecodeCase();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
