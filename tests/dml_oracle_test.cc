#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.h"
#include "row_oracle.h"
#include "storage/database.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::RowVersion;

/// Engine-vs-oracle differential for UPDATE and DELETE: the engine selects
/// its rows through the SELECT scan kernel (fused filter, index probe,
/// morsels) and must do exactly what the serial row-at-a-time reference in
/// row_oracle.cc does — same table contents, versions and archives, same
/// `affected`, DmlRecords and prov_tuples in order, same error. Each side
/// runs on its own copy of the database, built by the same statements.
class DmlOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t i = 0; i < std::size(dbs_); ++i) {
      executors_.push_back(std::make_unique<Executor>(&dbs_[i]));
    }
  }

  /// Runs `sql` (DDL/INSERT) unchanged on every copy.
  void Setup(const std::string& sql) {
    for (auto& executor : executors_) {
      auto result = executor->Execute(sql, {});
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    }
  }

  /// `n` items spanning several morsels (values repeat, NULLs in a numeric
  /// and a text column), an index on `grp`, and a small `grps` table for
  /// subqueries. Both tables keep their version archives.
  void Fill(size_t n, uint64_t seed) {
    Setup("CREATE TABLE items (id INT, grp INT, val DOUBLE, tag TEXT)");
    Setup("CREATE TABLE grps (gid INT, name TEXT, weight INT)");
    Rng rng(seed);
    std::string insert;
    for (size_t i = 0; i < n; ++i) {
      insert += insert.empty() ? "INSERT INTO items VALUES " : ", ";
      std::string val = rng.Uniform(0, 10) == 0
                            ? "NULL"
                            : std::to_string(rng.Uniform(-500, 500)) + "." +
                                  std::to_string(rng.Uniform(0, 99));
      std::string tag = rng.Uniform(0, 13) == 0
                            ? "NULL"
                            : "'t" + std::to_string(rng.Uniform(0, 11)) + "'";
      insert += StrFormat("(%zu, %lld, %s, %s)", i,
                          static_cast<long long>(rng.Uniform(0, 37)),
                          val.c_str(), tag.c_str());
      if (i % 500 == 499 || i + 1 == n) {
        Setup(insert);
        insert.clear();
      }
    }
    for (int g = 0; g < 38; g += 3) {
      Setup("INSERT INTO grps VALUES (" + std::to_string(g) + ", 'g" +
            std::to_string(g) + "', " + std::to_string(g % 17) + ")");
    }
    Setup("CREATE INDEX idx_items_grp ON items (grp)");
    for (Database& db : dbs_) {
      db.FindTable("items")->set_provenance_tracking(true);
      db.FindTable("grps")->set_provenance_tracking(true);
    }
  }

  static void ExpectSameVersions(const std::vector<RowVersion>& got,
                                 const std::vector<RowVersion>& want,
                                 const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].rowid, want[i].rowid) << what << " slot " << i;
      EXPECT_EQ(got[i].version, want[i].version) << what << " slot " << i;
      EXPECT_EQ(got[i].used_by_query, want[i].used_by_query)
          << what << " slot " << i;
      EXPECT_EQ(got[i].used_by_process, want[i].used_by_process)
          << what << " slot " << i;
      EXPECT_EQ(got[i].superseded, want[i].superseded) << what << " slot " << i;
      EXPECT_EQ(got[i].deleted, want[i].deleted) << what << " slot " << i;
      EXPECT_EQ(got[i].values, want[i].values) << what << " slot " << i;
    }
  }

  static void ExpectSameResult(const ResultSet& got, const ResultSet& want,
                               const std::string& what) {
    EXPECT_EQ(got.affected, want.affected) << what;
    EXPECT_EQ(got.has_provenance, want.has_provenance) << what;
    EXPECT_TRUE(got.rows.empty()) << what;
    ASSERT_EQ(got.dml.size(), want.dml.size()) << what;
    for (size_t i = 0; i < want.dml.size(); ++i) {
      const DmlRecord& g = got.dml[i];
      const DmlRecord& w = want.dml[i];
      EXPECT_TRUE(g.kind == w.kind && g.table == w.table && g.vid == w.vid &&
                  g.prior == w.prior && g.has_prior == w.has_prior)
          << what << " DmlRecord " << i << ": " << g.vid.ToString() << " <- "
          << g.prior.ToString() << " vs " << w.vid.ToString() << " <- "
          << w.prior.ToString();
    }
    ASSERT_EQ(got.prov_tuples.size(), want.prov_tuples.size()) << what;
    for (size_t i = 0; i < want.prov_tuples.size(); ++i) {
      EXPECT_EQ(got.prov_tuples[i].vid, want.prov_tuples[i].vid)
          << what << " prov tuple " << i;
      EXPECT_EQ(got.prov_tuples[i].table, want.prov_tuples[i].table)
          << what << " prov tuple " << i;
      EXPECT_EQ(got.prov_tuples[i].values, want.prov_tuples[i].values)
          << what << " prov tuple " << i;
    }
  }

  /// Runs `sql` on the oracle's copy and on the engine's; results, errors
  /// and every table's rows and archive must match exactly. Returns whether
  /// the statement succeeded.
  bool ExpectDmlMatchesOracle(const std::string& sql) {
    ExecOptions options;
    options.query_id = ++next_query_id_;
    options.process_id = 7;
    Result<ResultSet> oracle = OracleExecuteDml(&dbs_[0], sql, options);
    Result<ResultSet> engine = executors_[1]->Execute(sql, options);
    if (!oracle.ok()) {
      EXPECT_FALSE(engine.ok()) << sql << ": oracle failed with "
                                << oracle.status().ToString();
      if (!engine.ok()) {
        EXPECT_EQ(engine.status().ToString(), oracle.status().ToString())
            << sql;
      }
    } else {
      EXPECT_TRUE(engine.ok()) << sql << " -> " << engine.status().ToString();
      if (engine.ok()) ExpectSameResult(*engine, *oracle, sql);
    }
    EXPECT_EQ(dbs_[1].current_statement_seq(), dbs_[0].current_statement_seq())
        << sql;
    for (const char* name : {"items", "grps"}) {
      const storage::Table* got = dbs_[1].FindTable(name);
      const storage::Table* want = dbs_[0].FindTable(name);
      ExpectSameVersions(got->rows(), want->rows(), sql + " " + name);
      ExpectSameVersions(got->archive(), want->archive(),
                         sql + " " + name + " archive");
      EXPECT_EQ(got->live_row_count(), want->live_row_count()) << sql;
    }
    return oracle.ok();
  }

  Database dbs_[2];  // the oracle's copy, then the engine's
  std::vector<std::unique_ptr<Executor>> executors_;
  int64_t next_query_id_ = 0;
};

TEST_F(DmlOracleTest, UpdateAndDeleteShapes) {
  Fill(3 * kMorselRows + 977, /*seed=*/31);
  for (const char* prefix : {"", "PROVENANCE "}) {
    const std::string p = prefix;
    // Indexed equality (the index-probe arm), alone and with a residual.
    EXPECT_TRUE(ExpectDmlMatchesOracle(p + "UPDATE items SET val = val * 2 "
                                           "WHERE grp = 7"));
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "UPDATE items SET tag = tag || 'x', grp = grp + 1 "
            "WHERE grp = 9 AND val > 0"));
    // Unindexed predicates: every morsel, filter fused into the scan.
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "UPDATE items SET val = grp / 3.0, tag = UPPER(tag) "
            "WHERE id % 97 = 3 OR tag LIKE 't1%'"));
    // Prov pseudo-columns in WHERE and SET.
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "UPDATE items SET grp = prov_rowid % 40 "
            "WHERE prov_rowid % 50 = 1 AND prov_v > 0"));
    // An alias, and SET reading other columns of the old row.
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "UPDATE items it SET val = it.grp, grp = it.id % 37 "
            "WHERE it.val IS NULL"));
    // Uncorrelated subqueries in WHERE.
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "UPDATE items SET val = 0 WHERE grp IN "
            "(SELECT gid FROM grps WHERE weight > 12)"));
    EXPECT_TRUE(ExpectDmlMatchesOracle(
        p + "DELETE FROM items WHERE val > (SELECT avg(weight) FROM grps) "
            "AND id % 5 = 0"));
    // Zero matches, through the probe and through the full scan.
    EXPECT_TRUE(ExpectDmlMatchesOracle(p + "UPDATE items SET val = 1 "
                                           "WHERE grp = 99"));
    EXPECT_TRUE(ExpectDmlMatchesOracle(p + "DELETE FROM items WHERE id < 0"));
    // No WHERE.
    EXPECT_TRUE(ExpectDmlMatchesOracle(p + "UPDATE grps SET weight = "
                                           "weight + 1"));
    EXPECT_TRUE(ExpectDmlMatchesOracle(p + "DELETE FROM items "
                                           "WHERE grp = 11"));
  }
  EXPECT_TRUE(ExpectDmlMatchesOracle("DELETE FROM items"));
  EXPECT_TRUE(ExpectDmlMatchesOracle("UPDATE items SET val = 1"));
}

TEST_F(DmlOracleTest, ErrorsMatchAndApplyNothing) {
  Fill(2 * kMorselRows + 333, /*seed=*/32);
  for (const char* sql : {
           // Coercion fails on some rows only, in a late morsel.
           "UPDATE items SET grp = val WHERE id > 3000",
           // The first rows (NULL tags) fail the second SET's coercion;
           // the first SET's evaluation fails only on later rows.
           "UPDATE items SET tag = -tag, grp = val "
           "WHERE tag IS NULL OR id > 1000",
           "UPDATE items SET grp = val, tag = -tag",
           // A runtime type error in WHERE, and behind the index probe.
           "DELETE FROM items WHERE tag > 5",
           "UPDATE items SET val = 0 WHERE grp = 4 AND tag > 5",
           "UPDATE items SET val = 0 WHERE nope = 1",
           "UPDATE items SET nope = 1",
           "DELETE FROM missing WHERE id = 1",
           "DELETE FROM items WHERE grp = (SELECT gid FROM grps)",
       }) {
    EXPECT_FALSE(ExpectDmlMatchesOracle(sql)) << sql;
  }
  // AND short-circuits past the error, and an index probe that finds no
  // row leaves the predicate nothing to fail on.
  EXPECT_TRUE(ExpectDmlMatchesOracle(
      "UPDATE items SET val = 1 WHERE grp < 0 AND tag > 5"));
  EXPECT_TRUE(ExpectDmlMatchesOracle(
      "DELETE FROM items WHERE tag > 5 AND grp = 99"));
}

TEST_F(DmlOracleTest, RandomizedStatements) {
  Fill(3 * kMorselRows + 501, /*seed=*/33);
  const std::vector<std::string> filters = {
      "",
      " WHERE grp = 5",
      " WHERE 17 = grp AND val < 100",
      " WHERE grp = 3 AND tag > 5",
      " WHERE id % 13 = 2",
      " WHERE val BETWEEN -50 AND 300 AND id % 7 != 2",
      " WHERE tag IS NULL OR val IS NULL",
      " WHERE prov_v > 1 AND id % 3 = 0",
      " WHERE prov_rowid < 800",
      " WHERE grp IN (SELECT gid FROM grps WHERE weight < 6)",
      " WHERE EXISTS (SELECT gid FROM grps WHERE gid = 3) AND id < 400",
      " WHERE id < 0",
  };
  const std::vector<std::string> sets = {
      "val = val + 1.5",
      "tag = tag || grp, val = COALESCE(val, grp)",
      "grp = (grp * 7 + id) % 37",
      "grp = val",
      "val = prov_v, tag = 'v' || prov_rowid",
  };
  Rng rng(1234);
  int succeeded = 0;
  for (int round = 0; round < 48; ++round) {
    const std::string prefix = rng.Bernoulli(0.5) ? "PROVENANCE " : "";
    const std::string& filter = filters[rng.Uniform(0, filters.size() - 1)];
    std::string sql;
    if (rng.Uniform(0, 5) == 0) {
      // Keep most of the table alive: deletes always carry a predicate.
      sql = prefix + "DELETE FROM items" +
            (filter.empty() ? " WHERE id % 11 = 4" : filter);
    } else {
      sql = prefix + "UPDATE items SET " +
            sets[rng.Uniform(0, sets.size() - 1)] + filter;
    }
    succeeded += ExpectDmlMatchesOracle(sql) ? 1 : 0;
    if (HasFailure()) break;
  }
  EXPECT_GT(succeeded, 24);
}

}  // namespace
}  // namespace ldv::exec
