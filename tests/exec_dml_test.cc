#include <gtest/gtest.h>

#include "exec/executor.h"
#include "storage/database.h"
#include "util/fsutil.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::Table;
using storage::Value;

class ExecDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec_ = std::make_unique<Executor>(&db_);
    Run("CREATE TABLE t (id INT, qty INT, note TEXT)");
    Run("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c')");
    db_.FindTable("t")->set_provenance_tracking(true);
  }

  ResultSet Run(const std::string& sql, bool provenance = false) {
    std::string full = provenance ? "PROVENANCE " + sql : sql;
    auto result = exec_->Execute(full, {});
    EXPECT_TRUE(result.ok()) << full << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecDmlTest, InsertReportsCreatedVersions) {
  ResultSet r = Run("INSERT INTO t VALUES (4, 40, 'd'), (5, 50, 'e')");
  EXPECT_EQ(r.affected, 2);
  ASSERT_EQ(r.dml.size(), 2u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kInserted);
  EXPECT_EQ(r.dml[0].table, "t");
  EXPECT_FALSE(r.dml[0].has_prior);
  // Both rows carry the same statement sequence (version stamp).
  EXPECT_EQ(r.dml[0].vid.version, r.dml[1].vid.version);
  EXPECT_NE(r.dml[0].vid.rowid, r.dml[1].vid.rowid);
}

TEST_F(ExecDmlTest, InsertWithColumnListAndDefaults) {
  ResultSet r = Run("INSERT INTO t (id, note) VALUES (9, 'z')");
  EXPECT_EQ(r.affected, 1);
  ResultSet check = Run("SELECT qty FROM t WHERE id = 9");
  EXPECT_TRUE(check.rows[0][0].is_null());
}

TEST_F(ExecDmlTest, InsertCoercesIntToDouble) {
  Run("CREATE TABLE d (x DOUBLE)");
  Run("INSERT INTO d VALUES (3)");
  ResultSet r = Run("SELECT x FROM d");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 3.0);
}

TEST_F(ExecDmlTest, InsertSelectCopiesRows) {
  Run("CREATE TABLE t2 (id INT, qty INT, note TEXT)");
  ResultSet r = Run("INSERT INTO t2 SELECT id, qty, note FROM t WHERE qty > 15");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(Run("SELECT * FROM t2").rows.size(), 2u);
}

TEST_F(ExecDmlTest, UpdateCreatesNewVersionAndArchivesOld) {
  ResultSet r = Run("UPDATE t SET qty = qty + 5 WHERE id = 2", true);
  EXPECT_EQ(r.affected, 1);
  ASSERT_EQ(r.dml.size(), 1u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kUpdated);
  ASSERT_TRUE(r.dml[0].has_prior);
  EXPECT_EQ(r.dml[0].vid.rowid, r.dml[0].prior.rowid);
  EXPECT_GT(r.dml[0].vid.version, r.dml[0].prior.version);

  // Reenactment: the prior version's values are returned as provenance.
  ASSERT_EQ(r.prov_tuples.size(), 1u);
  EXPECT_EQ(r.prov_tuples[0].values[1].AsInt(), 20);
  EXPECT_EQ(r.prov_tuples[0].vid, r.dml[0].prior);

  EXPECT_EQ(Run("SELECT qty FROM t WHERE id = 2").rows[0][0].AsInt(), 25);
  Table* table = db_.FindTable("t");
  ASSERT_EQ(table->archive().size(), 1u);
  EXPECT_EQ(table->archive()[0].values[1].AsInt(), 20);
}

TEST_F(ExecDmlTest, UpdateWithoutWhereTouchesAllRows) {
  ResultSet r = Run("UPDATE t SET note = 'all'");
  EXPECT_EQ(r.affected, 3);
  EXPECT_EQ(Run("SELECT count(*) FROM t WHERE note = 'all'").rows[0][0].AsInt(),
            3);
}

TEST_F(ExecDmlTest, UpdateSetFromOldValuesAcrossColumns) {
  Run("UPDATE t SET qty = id * 100, note = note || '!' WHERE id = 3");
  ResultSet r = Run("SELECT qty, note FROM t WHERE id = 3");
  EXPECT_EQ(r.rows[0][0].AsInt(), 300);
  EXPECT_EQ(r.rows[0][1].AsString(), "c!");
}

TEST_F(ExecDmlTest, DeleteReportsRemovedVersions) {
  ResultSet r = Run("DELETE FROM t WHERE qty >= 20", true);
  EXPECT_EQ(r.affected, 2);
  ASSERT_EQ(r.dml.size(), 2u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kDeleted);
  EXPECT_EQ(r.prov_tuples.size(), 2u);
  EXPECT_EQ(Run("SELECT count(*) FROM t").rows[0][0].AsInt(), 1);
  EXPECT_EQ(db_.FindTable("t")->archive().size(), 2u);
}

TEST_F(ExecDmlTest, UpdatedTupleGetsFreshVersionVisibleInProvColumns) {
  ResultSet before = Run("SELECT prov_v FROM t WHERE id = 1");
  Run("UPDATE t SET qty = 11 WHERE id = 1");
  ResultSet after = Run("SELECT prov_v FROM t WHERE id = 1");
  EXPECT_GT(after.rows[0][0].AsInt(), before.rows[0][0].AsInt());
}

TEST_F(ExecDmlTest, AlterTableAddColumn) {
  Run("ALTER TABLE t ADD COLUMN extra DOUBLE");
  ResultSet r = Run("SELECT extra FROM t WHERE id = 1");
  EXPECT_TRUE(r.rows[0][0].is_null());
  Run("UPDATE t SET extra = 1.5 WHERE id = 1");
  EXPECT_DOUBLE_EQ(
      Run("SELECT extra FROM t WHERE id = 1").rows[0][0].AsDouble(), 1.5);
}

TEST_F(ExecDmlTest, CopyFromAndToCsv) {
  auto dir = MakeTempDir("ldv_copy_");
  ASSERT_TRUE(dir.ok());
  std::string out_path = JoinPath(*dir, "dump.csv");
  ResultSet dumped = Run("COPY t TO '" + out_path + "'");
  EXPECT_EQ(dumped.affected, 3);

  Run("CREATE TABLE t_copy (id INT, qty INT, note TEXT)");
  ResultSet loaded = Run("COPY t_copy FROM '" + out_path + "'");
  EXPECT_EQ(loaded.affected, 3);
  EXPECT_EQ(Run("SELECT count(*) FROM t_copy").rows[0][0].AsInt(), 3);
  EXPECT_EQ(Run("SELECT note FROM t_copy WHERE id = 2").rows[0][0].AsString(),
            "b");
  ASSERT_TRUE(RemoveAll(*dir).ok());
}

TEST_F(ExecDmlTest, TransactionsAreAcceptedNoOps) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (7, 70, 'g')");
  Run("COMMIT");
  EXPECT_EQ(Run("SELECT count(*) FROM t").rows[0][0].AsInt(), 4);
}

TEST_F(ExecDmlTest, DmlErrors) {
  EXPECT_FALSE(exec_->Execute("INSERT INTO nope VALUES (1)", {}).ok());
  EXPECT_FALSE(exec_->Execute("INSERT INTO t VALUES (1)", {}).ok());
  EXPECT_FALSE(exec_->Execute("UPDATE t SET missing = 1", {}).ok());
  EXPECT_FALSE(exec_->Execute("DELETE FROM nope", {}).ok());
  EXPECT_FALSE(
      exec_->Execute("INSERT INTO t (id, nope) VALUES (1, 2)", {}).ok());
  EXPECT_FALSE(exec_->Execute("COPY t FROM '/does/not/exist.csv'", {}).ok());
}

TEST_F(ExecDmlTest, FailedUpdateAppliesNothing) {
  // No WAL, so no undo scope: the executor itself must not mutate before
  // every new tuple is known to be storable.
  Run("UPDATE t SET qty = 40 WHERE id = 1");
  const int64_t seq = db_.current_statement_seq();
  auto failed = exec_->Execute("UPDATE t SET qty = qty / 20", {});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(),
            "InvalidArgument: cannot store non-integral 1.5 in an INT column");
  ResultSet after = Run("SELECT id, qty, prov_v FROM t ORDER BY id");
  ASSERT_EQ(after.rows.size(), 3u);
  EXPECT_EQ(after.rows[0][1].AsInt(), 40);
  EXPECT_EQ(after.rows[1][1].AsInt(), 20);
  EXPECT_EQ(after.rows[2][1].AsInt(), 30);
  for (const auto& row : after.rows) EXPECT_LE(row[2].AsInt(), seq);
  EXPECT_EQ(db_.FindTable("t")->archive().size(), 1u);
}

TEST_F(ExecDmlTest, CreateTableIfNotExists) {
  Run("CREATE TABLE IF NOT EXISTS t (id INT)");  // exists, no error
  EXPECT_FALSE(exec_->Execute("CREATE TABLE t (id INT)", {}).ok());
  Run("DROP TABLE IF EXISTS never_there");
  EXPECT_FALSE(exec_->Execute("DROP TABLE never_there", {}).ok());
}

}  // namespace
}  // namespace ldv::exec
