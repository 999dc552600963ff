#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace ldv::sql {
namespace {

using storage::ValueType;

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT a, 42, 4.5, 'str''x' FROM t WHERE a <= 3 AND b <> 4");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].text, "a");
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[5].double_value, 4.5);
  EXPECT_EQ((*tokens)[7].text, "str'x");
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, CommentsAndErrors) {
  auto tokens = Lex("SELECT 1 -- trailing\n/* block */ FROM t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens).size(), 5u);  // SELECT 1 FROM t END
  EXPECT_FALSE(Lex("SELECT 'unterminated").ok());
  EXPECT_FALSE(Lex("SELECT /* unterminated").ok());
  EXPECT_FALSE(Lex("SELECT a ! b").ok());
  EXPECT_FALSE(Lex("SELECT #").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT a, b AS bee FROM t WHERE a > 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, StatementKind::kSelect);
  EXPECT_FALSE(stmt->provenance);
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "bee");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "t");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->ToString(), "(a > 10)");
}

TEST(ParserTest, ProvenancePrefix) {
  auto stmt = Parse("PROVENANCE SELECT * FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->provenance);
  auto dml = Parse("provenance UPDATE t SET a = 1");
  ASSERT_TRUE(dml.ok());
  EXPECT_TRUE(dml->provenance);
  EXPECT_EQ(dml->kind, StatementKind::kUpdate);
}

TEST(ParserTest, ImplicitJoinListAndAliases) {
  auto stmt = Parse(
      "SELECT o_comment, l_comment FROM lineitem l, orders o, customer c "
      "WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey AND "
      "c.c_name LIKE '%0000%'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.from[0].alias, "l");
  EXPECT_EQ(s.from[2].EffectiveName(), "c");
  ASSERT_NE(s.where, nullptr);
}

TEST(ParserTest, ExplicitJoinCarriesOnCondition) {
  auto stmt = Parse(
      "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z > 1");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 2u);
  EXPECT_EQ(s.from[0].join_condition, nullptr);
  ASSERT_NE(s.from[1].join_condition, nullptr);
  EXPECT_EQ(s.from[1].join_type, JoinType::kInner);
  EXPECT_EQ(s.from[1].join_condition->ToString(), "(a.x = b.y)");
  EXPECT_EQ(s.where->ToString(), "(a.z > 1)");
}

TEST(ParserTest, LeftOuterJoin) {
  auto stmt = Parse(
      "SELECT * FROM a LEFT JOIN b ON a.x = b.y LEFT OUTER JOIN c ON "
      "b.z = c.z");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.from[1].join_type, JoinType::kLeft);
  EXPECT_EQ(s.from[2].join_type, JoinType::kLeft);
}

TEST(ParserTest, Subqueries) {
  auto scalar = Parse("SELECT (SELECT max(x) FROM t2) FROM t1");
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_EQ(scalar->select->items[0].expr->kind, ExprKind::kSubquery);

  auto in = Parse("SELECT a FROM t1 WHERE a IN (SELECT b FROM t2)");
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_EQ(in->select->where->kind, ExprKind::kInList);
  ASSERT_NE(in->select->where->subquery, nullptr);

  auto exists = Parse("SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2)");
  ASSERT_TRUE(exists.ok()) << exists.status().ToString();
  EXPECT_EQ(exists->select->where->kind, ExprKind::kExists);

  auto not_exists =
      Parse("SELECT a FROM t1 WHERE NOT EXISTS (SELECT 1 FROM t2)");
  ASSERT_TRUE(not_exists.ok());

  // Rendering round-trips through the parser.
  auto rendered = Parse(in->select->where->ToString() + " AND 1 = 1");
  EXPECT_FALSE(rendered.ok());  // bare expression is not a statement
  auto reparsed = Parse("SELECT a FROM t1 WHERE " +
                        in->select->where->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
}

TEST(ParserTest, ReferencedTablesWalksEveryClause) {
  auto tables = [](const char* sql) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    return stmt.ok() ? ReferencedTables(*stmt) : std::vector<std::string>{};
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(tables("SELECT a.x FROM a JOIN b ON a.id = b.id AND b.k IN "
                   "(SELECT k FROM c) WHERE EXISTS (SELECT 1 FROM d) "
                   "ORDER BY (SELECT max(y) FROM e)"),
            (Names{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(tables("SELECT (SELECT count(*) FROM b), x FROM a, a AS a2 "
                   "GROUP BY x HAVING x > (SELECT min(z) FROM c)"),
            (Names{"a", "b", "c"}));
  EXPECT_EQ(tables("INSERT INTO t SELECT x FROM a WHERE x IN "
                   "(SELECT x FROM b)"),
            (Names{"t", "a", "b"}));
  EXPECT_EQ(tables("UPDATE t SET v = (SELECT max(v) FROM a) WHERE id IN "
                   "(SELECT id FROM b)"),
            (Names{"t", "a", "b"}));
  EXPECT_EQ(tables("DELETE FROM t WHERE id IN (SELECT id FROM t)"),
            (Names{"t"}));
  EXPECT_TRUE(tables("CREATE TABLE t (x INT)").empty());
}

TEST(ParserTest, CreateIndex) {
  auto stmt = Parse("CREATE INDEX idx_orders ON orders (o_orderkey)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, StatementKind::kCreateIndex);
  EXPECT_EQ(stmt->create_index->index_name, "idx_orders");
  EXPECT_EQ(stmt->create_index->table, "orders");
  EXPECT_EQ(stmt->create_index->column, "o_orderkey");
  auto idempotent =
      Parse("CREATE INDEX IF NOT EXISTS i ON t (c)");
  ASSERT_TRUE(idempotent.ok());
  EXPECT_TRUE(idempotent->create_index->if_not_exists);
  EXPECT_FALSE(Parse("CREATE INDEX ON t (c)").ok());
}

TEST(ParserTest, SelectToStringRoundTrip) {
  const char* queries[] = {
      "SELECT a, b AS bee FROM t WHERE a > 10 ORDER BY b DESC LIMIT 5",
      "SELECT DISTINCT x FROM t1, t2 WHERE t1.a = t2.b",
      "SELECT count(*) FROM t GROUP BY g HAVING count(*) > 1",
      "SELECT * FROM a LEFT JOIN b ON a.x = b.y WHERE a.z IN (1, 2)",
  };
  for (const char* sql : queries) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    std::string rendered = SelectToString(*stmt->select);
    auto reparsed = Parse(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ(SelectToString(*reparsed->select), rendered) << sql;
  }
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto stmt = Parse(
      "SELECT o_orderkey, AVG(l_quantity) AS avgQ FROM lineitem l, orders o "
      "WHERE l.l_orderkey = o.o_orderkey AND l_suppkey BETWEEN 1 AND 100 "
      "GROUP BY o_orderkey HAVING COUNT(*) > 2 "
      "ORDER BY avgQ DESC, o_orderkey LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 10);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = Parse("SELECT 1 + 2 * 3 - 4 / 2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->ToString(),
            "((1 + (2 * 3)) - (4 / 2))");
  auto logic = Parse("SELECT a OR b AND NOT c = 1");
  ASSERT_TRUE(logic.ok());
  EXPECT_EQ(logic->select->items[0].expr->ToString(),
            "(a OR (b AND NOT ((c = 1))))");
}

TEST(ParserTest, BetweenInLikeNullPredicates) {
  auto stmt = Parse(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b NOT BETWEEN 2 AND 3 "
      "AND c IN (1, 2, 3) AND d NOT IN ('x') AND e LIKE '%z%' AND f NOT "
      "LIKE 'q' AND g IS NULL AND h IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

TEST(ParserTest, InsertValues) {
  auto stmt = Parse(
      "INSERT INTO orders (o_orderkey, o_comment) VALUES (1, 'a'), (2, 'b')");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const InsertStmt& ins = *stmt->insert;
  EXPECT_EQ(ins.table, "orders");
  ASSERT_EQ(ins.columns.size(), 2u);
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_EQ(ins.rows[1][1]->literal.AsString(), "b");
}

TEST(ParserTest, InsertSelect) {
  auto stmt = Parse("INSERT INTO t2 SELECT a, b FROM t1 WHERE a > 0");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->insert->select, nullptr);
  EXPECT_TRUE(stmt->insert->rows.empty());
}

TEST(ParserTest, UpdateDelete) {
  auto upd = Parse("UPDATE orders SET o_comment = 'x', o_total = o_total + 1 "
                   "WHERE o_orderkey = 7");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd->update->assignments.size(), 2u);
  auto del = Parse("DELETE FROM orders WHERE o_orderkey = 7");
  ASSERT_TRUE(del.ok());
  ASSERT_NE(del->del->where, nullptr);
}

TEST(ParserTest, CreateDropAlterCopy) {
  auto create = Parse(
      "CREATE TABLE IF NOT EXISTS t (id BIGINT, price DECIMAL(12,2), "
      "name VARCHAR(25), day DATE)");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  const CreateTableStmt& c = *create->create_table;
  EXPECT_TRUE(c.if_not_exists);
  ASSERT_EQ(c.columns.size(), 4u);
  EXPECT_EQ(c.columns[0].type, ValueType::kInt64);
  EXPECT_EQ(c.columns[1].type, ValueType::kDouble);
  EXPECT_EQ(c.columns[2].type, ValueType::kString);
  EXPECT_EQ(c.columns[3].type, ValueType::kString);

  auto drop = Parse("DROP TABLE IF EXISTS t");
  ASSERT_TRUE(drop.ok());
  EXPECT_TRUE(drop->drop_table->if_exists);

  auto alter = Parse("ALTER TABLE t ADD COLUMN prov_rowid BIGINT");
  ASSERT_TRUE(alter.ok());
  EXPECT_EQ(alter->alter_table->column.name, "prov_rowid");

  auto copy = Parse("COPY t FROM '/tmp/data.csv' CSV");
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->copy->from);
  EXPECT_EQ(copy->copy->path, "/tmp/data.csv");
}

TEST(ParserTest, Transactions) {
  EXPECT_TRUE(Parse("BEGIN").ok());
  EXPECT_TRUE(Parse("BEGIN TRANSACTION").ok());
  EXPECT_TRUE(Parse("COMMIT WORK").ok());
  EXPECT_TRUE(Parse("ROLLBACK").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO").ok());
  EXPECT_FALSE(Parse("UPDATE t WHERE x = 1").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t; SELECT 1").ok());  // single stmt API
  EXPECT_FALSE(Parse("FROB the table").ok());
}

TEST(ParserTest, ParseScriptSplitsStatements) {
  auto script = ParseScript(
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->size(), 3u);
  EXPECT_EQ((*script)[0].kind, StatementKind::kCreateTable);
  EXPECT_EQ((*script)[1].kind, StatementKind::kInsert);
  EXPECT_EQ((*script)[2].kind, StatementKind::kSelect);
}

TEST(ParserTest, CountStarAndQualifiedStar) {
  auto stmt = Parse("SELECT count(*), t.* FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& items = stmt->select->items;
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].expr->kind, ExprKind::kFuncCall);
  EXPECT_EQ(items[0].expr->name, "COUNT");
  EXPECT_EQ(items[1].expr->kind, ExprKind::kStar);
  EXPECT_EQ(items[1].expr->table, "t");
}

TEST(ParserTest, PlaceholdersNumberPositionally) {
  auto stmt = Parse("SELECT * FROM t WHERE a = ? AND b < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->num_params, 2);
  const Expr& where = *stmt->select->where;  // AND(a = ?, b < ?)
  const Expr& first = *where.children[0]->children[1];
  const Expr& second = *where.children[1]->children[1];
  EXPECT_EQ(first.kind, ExprKind::kParameter);
  EXPECT_EQ(first.param_index, 0);
  EXPECT_EQ(second.param_index, 1);

  // $N is 1-based in the text, 0-based in the AST, and mixes with `?`:
  // `?` takes the next free slot after the highest index seen so far.
  auto dollar = Parse("SELECT $2, $1, ?");
  ASSERT_TRUE(dollar.ok()) << dollar.status().ToString();
  EXPECT_EQ(dollar->num_params, 3);
  EXPECT_EQ(dollar->select->items[0].expr->param_index, 1);
  EXPECT_EQ(dollar->select->items[1].expr->param_index, 0);
  EXPECT_EQ(dollar->select->items[2].expr->param_index, 2);

  EXPECT_FALSE(Parse("SELECT $0").ok());   // $N is 1-based
  EXPECT_FALSE(Parse("SELECT $x").ok());
  // Placeholders are rejected inside subqueries (the planner would not see
  // them when the outer plan is cached).
  EXPECT_FALSE(
      Parse("SELECT * FROM t WHERE a IN (SELECT b FROM u WHERE c = ?)").ok());
}

TEST(ParserTest, PrepareExecuteDeallocate) {
  auto prep = Parse("PREPARE q AS SELECT * FROM t WHERE a = ?");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_EQ(prep->kind, StatementKind::kPrepare);
  EXPECT_EQ(prep->prepare->name, "q");
  ASSERT_NE(prep->prepare->body, nullptr);
  EXPECT_EQ(prep->prepare->body->kind, StatementKind::kSelect);
  EXPECT_EQ(prep->prepare->body->num_params, 1);
  // The PREPARE wrapper itself has no free placeholders.
  EXPECT_EQ(prep->num_params, 0);

  // DML bodies parse; DDL bodies are rejected at parse time.
  EXPECT_TRUE(Parse("PREPARE i AS INSERT INTO t VALUES (?, ?)").ok());
  EXPECT_TRUE(Parse("PREPARE u AS UPDATE t SET a = ? WHERE b = ?").ok());
  EXPECT_TRUE(Parse("PREPARE d AS DELETE FROM t WHERE a = ?").ok());
  EXPECT_FALSE(Parse("PREPARE c AS CREATE TABLE u (x INT)").ok());
  EXPECT_FALSE(Parse("PREPARE b AS BEGIN").ok());
  EXPECT_FALSE(Parse("PREPARE q").ok());

  auto exec = Parse("EXECUTE q (1, 'x', 2.5, NULL)");
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->kind, StatementKind::kExecute);
  EXPECT_EQ(exec->execute->name, "q");
  EXPECT_EQ(exec->execute->args.size(), 4u);
  EXPECT_TRUE(Parse("EXECUTE q").ok());  // zero-arg form, no parens
  // Arguments are constant expressions; a placeholder there is an error.
  EXPECT_FALSE(Parse("EXECUTE q (?)").ok());

  auto dealloc = Parse("DEALLOCATE PREPARE q");
  ASSERT_TRUE(dealloc.ok());
  EXPECT_EQ(dealloc->kind, StatementKind::kDeallocate);
  EXPECT_EQ(dealloc->deallocate->name, "q");
  EXPECT_FALSE(dealloc->deallocate->all);
  auto all = Parse("DEALLOCATE ALL");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->deallocate->all);
}

TEST(ParserTest, PreparedStatementsRoundTripThroughToString) {
  // StatementToString renders placeholders as $N; the rendering re-parses to
  // the same shape (this is what the plan cache fingerprints).
  auto stmt = Parse("SELECT a FROM t WHERE a = ? AND b < ?");
  ASSERT_TRUE(stmt.ok());
  const std::string text = StatementToString(*stmt);
  auto again = Parse(text);
  ASSERT_TRUE(again.ok()) << text << ": " << again.status().ToString();
  EXPECT_EQ(again->num_params, 2);
  EXPECT_EQ(StatementToString(*again), text);
}

TEST(ParserTest, ExprCloneIsDeep) {
  auto stmt = Parse("SELECT (a + 1) * 2 FROM t WHERE b BETWEEN 1 AND 9");
  ASSERT_TRUE(stmt.ok());
  auto clone = stmt->select->where->Clone();
  EXPECT_EQ(clone->ToString(), stmt->select->where->ToString());
  EXPECT_NE(clone.get(), stmt->select->where.get());
}

}  // namespace
}  // namespace ldv::sql
