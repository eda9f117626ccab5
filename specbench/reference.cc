#include "reference.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "common/compare_op.h"
#include "db/database.h"

namespace specbench {

using sqp::Result;
using sqp::Status;
using sqp::TypeId;
using sqp::Value;

size_t RefTable::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < columns.size(); i++) {
    if (columns[i].name == column) return i;
  }
  return columns.size();
}

void RefTable::AppendRow(const std::vector<Value>& row) {
  for (size_t i = 0; i < columns.size(); i++) {
    RefColumn& col = columns[i];
    switch (col.type) {
      case TypeId::kInt64:
        col.ints.push_back(row[i].AsInt64());
        break;
      case TypeId::kDouble:
        col.doubles.push_back(row[i].AsDouble());
        break;
      case TypeId::kString:
        col.strings.push_back(row[i].AsString());
        break;
    }
  }
  rows++;
}

RefTable& RefDatabase::AddTable(
    const std::string& name,
    const std::vector<std::pair<std::string, TypeId>>& columns) {
  RefTable& table = tables_[name];
  table = RefTable{};
  table.name = name;
  for (const auto& [col, type] : columns) {
    table.columns.push_back(RefColumn{col, type, {}, {}, {}});
  }
  return table;
}

const RefTable* RefDatabase::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

namespace {

// Three-way comparison with the engine's SQL semantics: numeric values
// compare as int64 when both are integers and as double otherwise;
// strings compare bytewise; a string never compares with a number.
Result<int> CompareCell(const RefColumn& col, size_t row, const Value& c) {
  if ((col.type == TypeId::kString) != (c.type() == TypeId::kString)) {
    return Status::InvalidArgument("string compared with number on " +
                                   col.name);
  }
  switch (col.type) {
    case TypeId::kString: {
      int cmp = col.strings[row].compare(c.AsString());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    case TypeId::kInt64:
      if (c.type() == TypeId::kInt64) {
        int64_t a = col.ints[row], b = c.AsInt64();
        return a < b ? -1 : (a > b ? 1 : 0);
      } else {
        double a = static_cast<double>(col.ints[row]), b = c.AsDouble();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
    case TypeId::kDouble: {
      double a = col.doubles[row];
      double b = c.type() == TypeId::kInt64
                     ? static_cast<double>(c.AsInt64())
                     : c.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
  }
  return Status::Internal("unknown column type");
}

// Equality key of one join column value. Two integer columns compare
// as integers; once either side is a double both compare as doubles.
void AppendKey(const RefColumn& col, size_t row, bool as_double,
               std::string* key) {
  if (col.type == TypeId::kString) {
    const std::string& s = col.strings[row];
    uint32_t n = static_cast<uint32_t>(s.size());
    key->append(reinterpret_cast<const char*>(&n), sizeof(n));
    key->append(s);
    return;
  }
  if (as_double) {
    double d = col.type == TypeId::kInt64
                   ? static_cast<double>(col.ints[row])
                   : col.doubles[row];
    if (d == 0) d = 0;  // -0.0 equals 0.0
    key->append(reinterpret_cast<const char*>(&d), sizeof(d));
  } else {
    int64_t v = col.ints[row];
    key->append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
}

// A join edge seen from the relation being added: its column there, and
// the already-joined relation's slot and column on the other side.
struct EdgeSide {
  const RefColumn* new_col;
  size_t joined_slot;
  const RefColumn* joined_col;
  bool as_double;
};

// Intermediate results larger than this are refused rather than
// exhausting memory; no benchmark query comes close.
constexpr size_t kMaxIntermediateCells = size_t{1} << 27;

}  // namespace

Result<uint64_t> RefDatabase::Count(const sqp::QueryGraph& query) const {
  std::vector<std::string> rels(query.relations().begin(),
                                query.relations().end());
  if (rels.empty()) return uint64_t{0};
  std::map<std::string, size_t> slot_of;
  std::vector<const RefTable*> tables;
  for (const auto& rel : rels) {
    const RefTable* table = Find(rel);
    if (table == nullptr) return Status::NotFound("table " + rel);
    slot_of[rel] = tables.size();
    tables.push_back(table);
  }

  // Rows of each relation that pass its selections.
  std::vector<std::vector<uint32_t>> passing(rels.size());
  for (size_t r = 0; r < rels.size(); r++) {
    const RefTable& table = *tables[r];
    std::vector<std::pair<const RefColumn*, const sqp::SelectionPred*>> preds;
    for (const auto& pred : query.selections()) {
      if (pred.table != rels[r]) continue;
      size_t c = table.ColumnIndex(pred.column);
      if (c == table.columns.size()) {
        return Status::NotFound("column " + pred.table + "." + pred.column);
      }
      preds.emplace_back(&table.columns[c], &pred);
    }
    for (size_t row = 0; row < table.rows; row++) {
      bool keep = true;
      for (const auto& [col, pred] : preds) {
        auto cmp = CompareCell(*col, row, pred->constant);
        if (!cmp.ok()) return cmp.status();
        if (!sqp::EvalCompare(*cmp, pred->op)) {
          keep = false;
          break;
        }
      }
      if (keep) passing[r].push_back(static_cast<uint32_t>(row));
    }
  }

  // Resolve every join edge to (slot, column) pairs.
  struct Edge {
    size_t a, b;
    const RefColumn* col_a;
    const RefColumn* col_b;
  };
  std::vector<Edge> edges;
  for (const auto& join : query.joins()) {
    auto la = slot_of.find(join.left_table);
    auto rb = slot_of.find(join.right_table);
    if (la == slot_of.end() || rb == slot_of.end()) {
      return Status::NotFound("join relation of " + join.ToString());
    }
    const RefTable& ta = *tables[la->second];
    const RefTable& tb = *tables[rb->second];
    size_t ca = ta.ColumnIndex(join.left_column);
    size_t cb = tb.ColumnIndex(join.right_column);
    if (ca == ta.columns.size() || cb == tb.columns.size()) {
      return Status::NotFound("join column of " + join.ToString());
    }
    if ((ta.columns[ca].type == TypeId::kString) !=
        (tb.columns[cb].type == TypeId::kString)) {
      return Status::InvalidArgument("string joined with number in " +
                                     join.ToString());
    }
    edges.push_back(Edge{la->second, rb->second, &ta.columns[ca],
                         &tb.columns[cb]});
  }

  // Connected components of the join graph.
  std::vector<size_t> parent(rels.size());
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& e : edges) parent[find(e.a)] = find(e.b);

  uint64_t total = 1;
  std::vector<bool> done(rels.size(), false);
  for (size_t root = 0; root < rels.size(); root++) {
    if (done[root]) continue;
    std::vector<size_t> members;
    for (size_t r = 0; r < rels.size(); r++) {
      if (find(r) == find(root)) members.push_back(r);
    }
    for (size_t r : members) done[r] = true;

    // Start from the smallest filtered relation.
    size_t start = *std::min_element(
        members.begin(), members.end(), [&](size_t x, size_t y) {
          return passing[x].size() < passing[y].size();
        });
    std::vector<size_t> order = {start};        // slot per tuple column
    std::vector<uint32_t> tuples = passing[start];  // flat, width order.size()
    std::vector<bool> in(rels.size(), false);
    in[start] = true;

    while (order.size() < members.size()) {
      // Next: the smallest relation sharing an edge with the joined set.
      size_t next = rels.size();
      for (size_t r : members) {
        if (in[r]) continue;
        bool adjacent = false;
        for (const auto& e : edges) {
          if ((e.a == r && in[e.b]) || (e.b == r && in[e.a])) adjacent = true;
        }
        if (adjacent &&
            (next == rels.size() || passing[r].size() < passing[next].size())) {
          next = r;
        }
      }
      std::vector<EdgeSide> sides;
      for (const auto& e : edges) {
        const RefColumn* new_col = nullptr;
        const RefColumn* old_col = nullptr;
        size_t old_rel = 0;
        if (e.a == next && in[e.b]) {
          new_col = e.col_a, old_col = e.col_b, old_rel = e.b;
        } else if (e.b == next && in[e.a]) {
          new_col = e.col_b, old_col = e.col_a, old_rel = e.a;
        } else {
          continue;
        }
        size_t pos = std::find(order.begin(), order.end(), old_rel) -
                     order.begin();
        bool as_double = new_col->type == TypeId::kDouble ||
                         old_col->type == TypeId::kDouble;
        sides.push_back(EdgeSide{new_col, pos, old_col, as_double});
      }

      // Build on the new relation, probe with the joined tuples.
      std::unordered_map<std::string, std::vector<uint32_t>> build;
      std::string key;
      for (uint32_t row : passing[next]) {
        key.clear();
        for (const auto& s : sides) AppendKey(*s.new_col, row, s.as_double, &key);
        build[key].push_back(row);
      }
      const size_t width = order.size();
      std::vector<uint32_t> out;
      for (size_t t = 0; t < tuples.size(); t += width) {
        key.clear();
        for (const auto& s : sides) {
          AppendKey(*s.joined_col, tuples[t + s.joined_slot], s.as_double,
                    &key);
        }
        auto hit = build.find(key);
        if (hit == build.end()) continue;
        for (uint32_t row : hit->second) {
          out.insert(out.end(), tuples.begin() + t,
                     tuples.begin() + t + width);
          out.push_back(row);
        }
        if (out.size() > kMaxIntermediateCells) {
          return Status::ResourceExhausted("reference join too large");
        }
      }
      tuples = std::move(out);
      order.push_back(next);
      in[next] = true;
    }
    total *= tuples.size() / order.size();
    if (total == 0) return uint64_t{0};
  }
  return total;
}

namespace {

template <typename T>
bool ReadRaw(const uint8_t* data, size_t len, size_t* off, T* v) {
  if (*off + sizeof(T) > len) return false;
  std::memcpy(v, data + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

// Tuple record: u8 arity, then per value a u8 type tag and its payload
// (8-byte int64/double, or u32 length + bytes for strings).
bool DecodeRecord(const uint8_t* data, size_t len, std::vector<Value>* out) {
  out->clear();
  size_t off = 0;
  uint8_t n = 0;
  if (!ReadRaw(data, len, &off, &n)) return false;
  for (uint8_t i = 0; i < n; i++) {
    uint8_t tag = 0;
    if (!ReadRaw(data, len, &off, &tag)) return false;
    switch (static_cast<TypeId>(tag)) {
      case TypeId::kInt64: {
        int64_t v;
        if (!ReadRaw(data, len, &off, &v)) return false;
        out->emplace_back(v);
        break;
      }
      case TypeId::kDouble: {
        double v;
        if (!ReadRaw(data, len, &off, &v)) return false;
        out->emplace_back(v);
        break;
      }
      case TypeId::kString: {
        uint32_t n_bytes;
        if (!ReadRaw(data, len, &off, &n_bytes)) return false;
        if (off + n_bytes > len) return false;
        out->emplace_back(std::string(
            reinterpret_cast<const char*>(data + off), n_bytes));
        off += n_bytes;
        break;
      }
      default:
        return false;
    }
  }
  return off == len;
}

// Slotted page: u16 slot count, u16 free offset, then 4-byte slots of
// (u16 record offset, u16 record length). False when the page or a
// record is malformed or has the wrong arity or types.
bool DecodePage(const uint8_t* page, RefTable* table) {
  constexpr size_t kPage = 8192;
  uint16_t slots;
  std::memcpy(&slots, page, 2);
  if (4 + size_t{slots} * 4 > kPage) return false;
  std::vector<Value> row;
  for (uint16_t s = 0; s < slots; s++) {
    uint16_t off, len;
    std::memcpy(&off, page + 4 + s * 4, 2);
    std::memcpy(&len, page + 4 + s * 4 + 2, 2);
    if (size_t{off} + len > kPage) return false;
    if (!DecodeRecord(page + off, len, &row)) return false;
    if (row.size() != table->columns.size()) return false;
    for (size_t c = 0; c < row.size(); c++) {
      if (row[c].type() != table->columns[c].type) return false;
    }
    table->AppendRow(row);
  }
  return true;
}

}  // namespace

Status DecodeTables(sqp::Database* db, const std::vector<std::string>& tables,
                    RefDatabase* out) {
  for (const auto& name : tables) {
    sqp::TableInfo* info = db->catalog().GetTable(name);
    if (info == nullptr) return Status::NotFound("table " + name);
    std::vector<std::pair<std::string, TypeId>> columns;
    for (const auto& col : info->schema.columns()) {
      columns.emplace_back(col.name, col.type);
    }
    RefTable& table = out->AddTable(name, columns);
    for (sqp::page_id_t pid : info->heap->pages()) {
      auto page = db->buffer_pool().FetchPage(pid);
      if (!page.ok()) return page.status();
      bool ok = DecodePage((*page)->raw(), &table);
      db->buffer_pool().UnpinPage(pid, /*dirty=*/false);
      if (!ok) return Status::DataLoss("undecodable page in " + name);
    }
  }
  return Status::OK();
}

}  // namespace specbench
