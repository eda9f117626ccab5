// Reference answers for the replay benchmark, computed apart from the
// engine's query path.
//
// Base-table rows are decoded straight from heap pages with the
// benchmark's own reading of the slotted-page and tuple formats, and
// each conjunctive select-project-join query is counted with a plain
// hash-join evaluation: per-relation selection filters, then one
// connected component at a time, joining the next adjacent relation on
// every edge it shares with the relations already joined. Components
// without a connecting edge multiply (cross product). No planner, no
// view rewriting, no statistics and no join executors are involved, so
// a count that agrees with the engine's row count is evidence that the
// engine's answer is right, not merely that two engine runs agree.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "optimizer/query_graph.h"

namespace sqp {
class Database;
}

namespace specbench {

/// One decoded column; only the vector matching `type` is filled.
struct RefColumn {
  std::string name;
  sqp::TypeId type = sqp::TypeId::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
};

struct RefTable {
  std::string name;
  std::vector<RefColumn> columns;
  size_t rows = 0;

  /// Index of column `name`, or columns.size() when absent.
  size_t ColumnIndex(const std::string& name) const;
  /// Append one row given as engine values (tests and the page decoder).
  void AppendRow(const std::vector<sqp::Value>& row);
};

class RefDatabase {
 public:
  /// Declare a table with its column names and types.
  RefTable& AddTable(const std::string& name,
                     const std::vector<std::pair<std::string, sqp::TypeId>>&
                         columns);

  const RefTable* Find(const std::string& name) const;

  /// Bag cardinality of the query (projections never remove rows).
  /// Fails on unknown tables or columns.
  sqp::Result<uint64_t> Count(const sqp::QueryGraph& query) const;

 private:
  std::map<std::string, RefTable> tables_;
};

/// Decode the named base tables of `db` page by page through its buffer
/// pool. Meant for a database that no measured replay uses: fetching
/// pages warms the pool and charges the cost meter.
sqp::Status DecodeTables(sqp::Database* db,
                         const std::vector<std::string>& tables,
                         RefDatabase* out);

}  // namespace specbench
