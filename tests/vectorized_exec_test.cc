#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "row_oracle.h"
#include "storage/database.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::Value;

/// Engine-vs-oracle differential: the columnar engine (DESIGN.md §15) must
/// return the results of the naive serial row interpreter in row_oracle.cc
/// — row values, row order, lineage sets, provenance tuples — at any degree
/// of parallelism. Every query runs on the oracle and on the engine at dop
/// 1 and 8; the two engine runs must agree bit for bit, and with the oracle
/// exactly except for SUM/AVG doubles (the engine merges per-morsel
/// partials), which match to 1e-9 relative.
class VectorizedExecTest : public ::testing::Test {
 protected:
  void SetUp() override { exec_ = std::make_unique<Executor>(&db_); }

  Result<ResultSet> TryRun(const std::string& sql, int threads) {
    ExecOptions options;
    options.threads = threads;
    options.query_id = ++next_query_id_;
    options.process_id = 7;
    return exec_->Execute(sql, options);
  }

  ResultSet Run(const std::string& sql, int threads = 1) {
    auto result = TryRun(sql, threads);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  static bool CellsMatch(const Value& got, const Value& want, bool inexact) {
    if (got == want) return true;
    if (!inexact || got.type() != storage::ValueType::kDouble ||
        want.type() != storage::ValueType::kDouble) {
      return false;
    }
    const double a = got.AsDouble();
    const double b = want.AsDouble();
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
  }

  static void ExpectSameResults(const ResultSet& got, const ResultSet& want,
                                bool inexact, const std::string& sql,
                                const std::string& what) {
    ASSERT_EQ(got.rows.size(), want.rows.size()) << sql << " [" << what << "]";
    if (!inexact) {
      EXPECT_EQ(got.Fingerprint(), want.Fingerprint())
          << sql << " [" << what << "]";
    }
    for (size_t i = 0; i < want.rows.size(); ++i) {
      ASSERT_EQ(got.rows[i].size(), want.rows[i].size())
          << sql << " [" << what << "] row " << i;
      for (size_t c = 0; c < want.rows[i].size(); ++c) {
        EXPECT_TRUE(CellsMatch(got.rows[i][c], want.rows[i][c], inexact))
            << sql << " [" << what << "] row " << i << " column " << c
            << ": " << got.rows[i][c].ToText() << " vs "
            << want.rows[i][c].ToText();
      }
    }
    ASSERT_EQ(got.lineage.size(), want.lineage.size())
        << sql << " [" << what << "]";
    for (size_t i = 0; i < want.lineage.size(); ++i) {
      EXPECT_EQ(got.lineage[i], want.lineage[i])
          << sql << " [" << what << "] lineage of row " << i;
    }
    ASSERT_EQ(got.prov_tuples.size(), want.prov_tuples.size())
        << sql << " [" << what << "]";
    for (size_t i = 0; i < want.prov_tuples.size(); ++i) {
      EXPECT_TRUE(!(got.prov_tuples[i].vid < want.prov_tuples[i].vid) &&
                  !(want.prov_tuples[i].vid < got.prov_tuples[i].vid))
          << sql << " [" << what << "] prov tuple " << i;
      EXPECT_EQ(got.prov_tuples[i].values, want.prov_tuples[i].values)
          << sql << " [" << what << "] prov tuple " << i;
    }
  }

  /// The oracle is the reference; the engine at dop 1 and 8 must match it,
  /// and each other exactly. A query the oracle rejects must fail on the
  /// engine with the same error.
  void ExpectEnginesIdentical(const std::string& sql) {
    Result<OracleResult> oracle = OracleExecute(&db_, sql);
    Result<ResultSet> serial = TryRun(sql, 1);
    Result<ResultSet> parallel = TryRun(sql, 8);
    if (!oracle.ok()) {
      EXPECT_FALSE(serial.ok()) << sql << ": oracle failed with "
                                << oracle.status().ToString();
      EXPECT_FALSE(parallel.ok()) << sql;
      if (!serial.ok() && !parallel.ok()) {
        EXPECT_EQ(serial.status().ToString(), oracle.status().ToString())
            << sql;
        EXPECT_EQ(parallel.status().ToString(), oracle.status().ToString())
            << sql;
      }
      return;
    }
    ASSERT_TRUE(serial.ok()) << sql << " -> " << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << sql << " -> "
                               << parallel.status().ToString();
    const bool inexact = oracle->inexact_sums;
    ExpectSameResults(*serial, oracle->result, inexact, sql, "dop=1");
    ExpectSameResults(*parallel, oracle->result, inexact, sql, "dop=8");
    ExpectSameResults(*parallel, *serial, /*inexact=*/false, sql,
                      "dop=8 vs dop=1");
  }

  /// `n` rows spanning several morsels; values repeat so joins / GROUP BY /
  /// DISTINCT have real work, and NULLs appear in both a numeric and a text
  /// column so the kernels' null paths are exercised everywhere.
  void FillItems(size_t n, uint64_t seed) {
    (void)Run("CREATE TABLE items (id INT, grp INT, val DOUBLE, tag TEXT)");
    Rng rng(seed);
    std::string insert;
    size_t pending = 0;
    for (size_t i = 0; i < n; ++i) {
      if (pending == 0) insert = "INSERT INTO items VALUES ";
      if (pending > 0) insert += ", ";
      std::string val = rng.Uniform(0, 10) == 0
                            ? "NULL"
                            : std::to_string(rng.Uniform(-500, 500)) + "." +
                                  std::to_string(rng.Uniform(0, 99));
      std::string tag = rng.Uniform(0, 13) == 0
                            ? "NULL"
                            : "'t" + std::to_string(rng.Uniform(0, 11)) + "'";
      insert += "(" + std::to_string(i) + ", " +
                std::to_string(rng.Uniform(0, 37)) + ", " + val + ", " + tag +
                ")";
      if (++pending == 512 || i + 1 == n) {
        (void)Run(insert);
        pending = 0;
      }
    }
  }

  void FillGroups() {
    (void)Run("CREATE TABLE grps (gid INT, name TEXT, weight DOUBLE)");
    std::string insert = "INSERT INTO grps VALUES ";
    for (int g = 0; g < 37; ++g) {
      if (g > 0) insert += ", ";
      insert += StrFormat("(%d, 'g%d', %d.5)", g, g % 7, g);
    }
    (void)Run(insert);
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
  int64_t next_query_id_ = 0;
};

TEST_F(VectorizedExecTest, ScanFilterProjectKernels) {
  FillItems(3 * kMorselRows + 517, /*seed=*/101);
  ExpectEnginesIdentical("SELECT id, val * 2, grp + 1 FROM items");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp < 19 AND val > 0");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp = 5 OR tag = 't3'");
  ExpectEnginesIdentical(
      "SELECT id, val FROM items WHERE val BETWEEN -100 AND 250.5");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp IN (1, 4, 9, 16)");
  ExpectEnginesIdentical("SELECT id, tag FROM items WHERE tag LIKE 't1%'");
  ExpectEnginesIdentical("SELECT id FROM items WHERE val IS NULL");
  ExpectEnginesIdentical("SELECT id FROM items WHERE NOT (tag IS NOT NULL)");
  ExpectEnginesIdentical("SELECT id, -val, grp - id FROM items WHERE grp >= 30");
}

TEST_F(VectorizedExecTest, NullAndZeroArithmeticSemantics) {
  FillItems(2 * kMorselRows, /*seed=*/202);
  // Division by zero and modulo by zero are NULL, never an error; NULL
  // operands propagate — the kernels must reproduce this exactly.
  ExpectEnginesIdentical("SELECT id, val / grp FROM items");
  ExpectEnginesIdentical("SELECT id, id % grp FROM items");
  ExpectEnginesIdentical("SELECT id, val + val, val / 0 FROM items");
  ExpectEnginesIdentical("SELECT id FROM items WHERE val / grp > 2");
  ExpectEnginesIdentical("SELECT id, val FROM items WHERE NOT (val > 0)");
}

TEST_F(VectorizedExecTest, JoinKernel) {
  FillItems(2 * kMorselRows + 91, /*seed=*/303);
  FillGroups();
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name FROM items, grps WHERE items.grp = grps.gid");
  // Cross-type key (INT = DOUBLE): numeric coercion must match rows exactly.
  ExpectEnginesIdentical(
      "SELECT items.id FROM items, grps WHERE items.grp = grps.weight");
  // Multi-key join.
  ExpectEnginesIdentical(
      "SELECT a.id, b.id FROM items a, items b "
      "WHERE a.grp = b.grp AND a.tag = b.tag AND a.id < 200 AND b.id < 200");
  // LEFT JOIN with a residual: unmatched rows are NULL-padded.
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name FROM items LEFT JOIN grps "
      "ON items.grp = grps.gid AND grps.gid < 10 WHERE items.id < 300");
}

TEST_F(VectorizedExecTest, ColdJoinShapes) {
  FillItems(2 * kMorselRows + 91, /*seed=*/313);
  FillGroups();
  // Residual over gathered candidate pairs, with a function the kernels
  // do not cover.
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name FROM items, grps "
      "WHERE items.grp = grps.gid AND UPPER(items.tag) < grps.name");
  // Nested loop: no equi key, the predicate is the residual; and a plain
  // cross join.
  ExpectEnginesIdentical(
      "SELECT items.id, grps.gid FROM items, grps "
      "WHERE items.grp < grps.gid AND items.id < 150");
  ExpectEnginesIdentical(
      "SELECT a.gid, b.gid FROM grps a, grps b WHERE a.gid < 3");
  // LEFT JOIN without a residual, with unmatched rows on both kinds of
  // left input; and one whose right side is empty.
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name, grps.weight FROM items LEFT JOIN grps "
      "ON items.grp = grps.gid + 20");
  ExpectEnginesIdentical(
      "SELECT grps.gid, items.id, items.tag FROM grps LEFT JOIN items "
      "ON grps.gid = items.grp AND items.id < 0");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT items.id, grps.name FROM items LEFT JOIN grps "
      "ON items.grp = grps.gid AND grps.gid < 10 WHERE items.id < 300");
}

TEST_F(VectorizedExecTest, AggregateKernel) {
  FillItems(3 * kMorselRows + 33, /*seed=*/404);
  ExpectEnginesIdentical("SELECT count(*) FROM items");
  ExpectEnginesIdentical(
      "SELECT grp, count(*), count(val), sum(val), avg(val), min(val), "
      "max(val) FROM items GROUP BY grp");
  ExpectEnginesIdentical(
      "SELECT tag, min(tag), max(tag) FROM items GROUP BY tag");
  ExpectEnginesIdentical(
      "SELECT grp, sum(id) FROM items GROUP BY grp HAVING sum(id) > 100000");
  ExpectEnginesIdentical("SELECT sum(val) FROM items WHERE grp > 100");
  ExpectEnginesIdentical(
      "SELECT grp % 5, sum(val + 1) FROM items GROUP BY grp % 5");
}

TEST_F(VectorizedExecTest, DistinctKernel) {
  FillItems(2 * kMorselRows + 7, /*seed=*/505);
  ExpectEnginesIdentical("SELECT DISTINCT grp FROM items");
  ExpectEnginesIdentical("SELECT DISTINCT grp, tag FROM items");
  ExpectEnginesIdentical("SELECT DISTINCT val FROM items WHERE grp = 3");
}

TEST_F(VectorizedExecTest, OrderByRunsOverVectorizedChildren) {
  FillItems(2 * kMorselRows + 111, /*seed=*/606);
  ExpectEnginesIdentical("SELECT id, grp FROM items ORDER BY grp, id DESC");
  // Heavy key ties across morsels: equal keys keep their input order.
  ExpectEnginesIdentical("SELECT id, grp FROM items ORDER BY grp");
  ExpectEnginesIdentical("SELECT id, tag FROM items ORDER BY tag DESC");
  ExpectEnginesIdentical(
      "SELECT id, grp FROM items ORDER BY grp % 3 LIMIT 3000");
  ExpectEnginesIdentical(
      "SELECT id, val FROM items WHERE grp < 12 ORDER BY val LIMIT 57");
  ExpectEnginesIdentical("SELECT grp, count(*) FROM items GROUP BY grp "
                         "ORDER BY 2 DESC, 1 LIMIT 5");
}

TEST_F(VectorizedExecTest, LimitStopsAtMorselBoundary) {
  FillItems(4 * kMorselRows, /*seed=*/707);
  // LIMIT without ORDER BY pushes a stop hint into the scan; both engines
  // must emit the same whole-morsel-prefix truncation.
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 5");
  ExpectEnginesIdentical("SELECT id, tag FROM items WHERE grp = 9 LIMIT 10");
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 0");
  // A limit larger than the table.
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 999999");
  // Lineage-tracked scans must ignore the hint (they stamp every row they
  // read): provenance output must equal the oracle's.
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items LIMIT 5");
}

TEST_F(VectorizedExecTest, LineageAndProvenance) {
  FillItems(2 * kMorselRows + 201, /*seed=*/808);
  FillGroups();
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items WHERE grp = 5");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT grp, sum(val) FROM items WHERE val > 0 GROUP BY grp");
  ExpectEnginesIdentical("PROVENANCE SELECT DISTINCT tag FROM items");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT items.id, grps.name FROM items, grps "
      "WHERE items.grp = grps.gid AND items.id < 500");
}

TEST_F(VectorizedExecTest, IndexProbeScan) {
  FillItems(2 * kMorselRows, /*seed=*/909);
  (void)Run("CREATE INDEX idx_items_grp ON items (grp)");
  ExpectEnginesIdentical("SELECT id, val FROM items WHERE grp = 17");
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items WHERE grp = 17");
}

TEST_F(VectorizedExecTest, GenericArmMatchesOracle) {
  FillItems(2 * kMorselRows + 333, /*seed=*/919);
  FillGroups();
  // Expressions the kernels do not cover: created strings, function calls,
  // results mixing int and double cells.
  ExpectEnginesIdentical(
      "SELECT id, tag || '-' || grp, UPPER(tag), LENGTH(tag), SUBSTR(tag, 2) "
      "FROM items");
  ExpectEnginesIdentical(
      "SELECT id, COALESCE(val, grp), COALESCE(val, 1), ABS(val) FROM items");
  ExpectEnginesIdentical("SELECT id FROM items WHERE UPPER(tag) = 'T3'");
  ExpectEnginesIdentical(
      "SELECT UPPER(tag), count(*), sum(COALESCE(val, grp)), "
      "min(COALESCE(val, grp)), max(tag || 'x') FROM items GROUP BY UPPER(tag)");
  ExpectEnginesIdentical(
      "SELECT DISTINCT COALESCE(tag, 'none') FROM items");
  ExpectEnginesIdentical(
      "SELECT id, COALESCE(val, grp) FROM items ORDER BY 2 DESC, 1 LIMIT 200");
  // Over aggregate output (boxed columns): HAVING, arithmetic, sorting.
  ExpectEnginesIdentical(
      "SELECT grp, sum(val) * 2, count(*) + 1 FROM items GROUP BY grp "
      "HAVING count(*) > 100 ORDER BY 2");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT UPPER(tag), count(*) FROM items WHERE grp < 5 "
      "GROUP BY UPPER(tag)");
  // A FROM-less SELECT.
  ExpectEnginesIdentical("SELECT 1 + 2, 'a' || 'b', COALESCE(NULL, 2.5)");
}

TEST_F(VectorizedExecTest, ErrorsMatchOracle) {
  FillItems(kMorselRows + 5, /*seed=*/929);
  // Runtime type errors surface with the oracle's message.
  for (const char* sql : {"SELECT id FROM items WHERE tag > 5",
                          "SELECT sum(tag) FROM items",
                          "SELECT -tag FROM items"}) {
    EXPECT_FALSE(OracleExecute(&db_, sql).ok()) << sql;
    ExpectEnginesIdentical(sql);
  }
  // AND short-circuits past the error; SUM over only NULL text is NULL.
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp < 0 AND tag > 5");
  ExpectEnginesIdentical("SELECT avg(tag) FROM items WHERE tag IS NULL");
}

TEST_F(VectorizedExecTest, RandomizedDifferentialFuzz) {
  FillItems(3 * kMorselRows + 977, /*seed=*/42);
  FillGroups();
  const std::vector<std::string> filters = {
      "",
      " WHERE grp < 20",
      " WHERE val > 0 AND grp % 3 = 1",
      " WHERE tag LIKE 't%' OR val IS NULL",
      " WHERE val BETWEEN -50 AND 300 AND id % 7 != 2",
      " WHERE grp IN (2, 3, 5, 7, 11, 13) AND NOT (val < 0)",
      " WHERE UPPER(tag) >= 'T5'",
      " WHERE COALESCE(val, 0) > grp",
  };
  Rng rng(1234);
  for (int round = 0; round < 32; ++round) {
    const std::string& filter = filters[rng.Uniform(0, filters.size() - 1)];
    switch (rng.Uniform(0, 7)) {
      case 0:
        ExpectEnginesIdentical("SELECT id, val, grp * 2 FROM items" + filter);
        break;
      case 1:
        ExpectEnginesIdentical("SELECT grp, count(*), sum(val), min(tag) "
                               "FROM items" +
                               filter + " GROUP BY grp");
        break;
      case 2:
        ExpectEnginesIdentical("SELECT DISTINCT grp, tag FROM items" + filter);
        break;
      case 3:
        ExpectEnginesIdentical(
            "SELECT items.id, grps.name FROM items, grps "
            "WHERE items.grp = grps.gid" +
            (filter.empty() ? "" : " AND" + filter.substr(6)));
        break;
      case 4:
        ExpectEnginesIdentical("PROVENANCE SELECT id, tag FROM items" +
                               filter);
        break;
      case 5:
        ExpectEnginesIdentical("SELECT id, tag, grp FROM items" + filter +
                               " ORDER BY tag, grp DESC LIMIT 500");
        break;
      case 6:
        ExpectEnginesIdentical(
            "SELECT items.id, grps.name FROM items LEFT JOIN grps "
            "ON items.grp = grps.gid AND grps.weight > 12" +
            filter);
        break;
      case 7:
        ExpectEnginesIdentical("SELECT id, tag || grp, COALESCE(val, grp) "
                               "FROM items" +
                               filter);
        break;
    }
  }
}

TEST_F(VectorizedExecTest, ExplainAnalyzeShowsBatchesAndRate) {
  FillItems(2 * kMorselRows, /*seed=*/111);
  for (const char* sql :
       {"EXPLAIN ANALYZE SELECT id FROM items WHERE grp < 9",
        "EXPLAIN ANALYZE SELECT id, val FROM items ORDER BY val LIMIT 3"}) {
    ResultSet explained = Run(sql);
    std::string text;
    for (const auto& row : explained.rows) text += row[0].AsString() + "\n";
    EXPECT_NE(text.find("[vectorized]"), std::string::npos) << text;
    EXPECT_NE(text.find("batches="), std::string::npos) << text;
    EXPECT_NE(text.find("rate="), std::string::npos) << text;
  }
}

TEST_F(VectorizedExecTest, MetricsCountBatches) {
  FillItems(2 * kMorselRows, /*seed=*/222);
  obs::Counter* batches =
      obs::MetricsRegistry::Global().counter("exec.vectorized.batches");
  const int64_t b0 = batches->Value();
  (void)Run("SELECT id FROM items WHERE grp < 9");
  EXPECT_GT(batches->Value(), b0);
}

}  // namespace
}  // namespace ldv::exec
