#include "net/db_client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "common/logging.h"
#include "exec/expression.h"
#include "exec/plan_cache.h"
#include "obs/span.h"
#include "sql/parser.h"
#include "storage/persistence.h"
#include "util/strings.h"

namespace ldv::net {

namespace {

/// Statements whose execution changes database state (and therefore must
/// reach the WAL). EXPLAIN renders the plan without executing, so it never
/// mutates; EXPLAIN ANALYZE executes and does.
bool StatementMutates(const sql::Statement& stmt) {
  if (stmt.explain && !stmt.analyze) return false;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kAlterTableAddColumn:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kCopy:
      return true;
    case sql::StatementKind::kSelect:
    case sql::StatementKind::kTransaction:
      return false;
    case sql::StatementKind::kPrepare:
    case sql::StatementKind::kExecute:
    case sql::StatementKind::kDeallocate:
      // Never executed directly: the session layer intercepts these and
      // runs the underlying statement (which makes its own WAL decision).
      return false;
  }
  return false;
}

/// DDL and COPY change the table set or bulk-load outside the version
/// archive; the undo scope cannot restore either, so they are barred from
/// explicit transactions.
bool IsDdlOrCopy(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kAlterTableAddColumn:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kCopy:
      return true;
    default:
      return false;
  }
}

/// DDL proper (table-set or schema changes): serialized against every
/// reader via the exclusive catalog lock. COPY is excluded — it mutates one
/// table's rows, so it takes that table's data lock like DML.
bool IsDdl(const sql::Statement& stmt) {
  return IsDdlOrCopy(stmt) && stmt.kind != sql::StatementKind::kCopy;
}

/// The table a mutating non-DDL statement writes; nullptr for statements
/// without a single target.
const std::string* MutationTarget(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
      return &stmt.insert->table;
    case sql::StatementKind::kUpdate:
      return &stmt.update->table;
    case sql::StatementKind::kDelete:
      return &stmt.del->table;
    case sql::StatementKind::kCopy:
      return &stmt.copy->table;
    default:
      return nullptr;
  }
}

/// Ids of the existing tables `stmt` reads or writes, ascending — the
/// order every data-lock set is acquired in. Names that resolve to nothing
/// are the planner's problem; locking just skips them.
std::vector<int32_t> ReferencedTableIds(storage::Database* db,
                                        const sql::Statement& stmt) {
  std::vector<int32_t> ids;
  for (const std::string& name : sql::ReferencedTables(stmt)) {
    const storage::Table* table = db->FindTable(name);
    if (table != nullptr) ids.push_back(table->id());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

EngineHandle::EngineHandle(storage::Database* db)
    : executor_(db),
      statement_latency_(obs::MetricsRegistry::Global().latency_histogram(
          "engine.statement_micros")),
      concurrent_reads_(
          obs::MetricsRegistry::Global().counter("engine.concurrent_reads")),
      txns_committed_(
          obs::MetricsRegistry::Global().counter("engine.txns_committed")),
      txns_rolled_back_(
          obs::MetricsRegistry::Global().counter("engine.txns_rolled_back")),
      checkpoints_(
          obs::MetricsRegistry::Global().counter("engine.checkpoints")) {
  // Retain superseded versions for snapshot readers and start the committed
  // epoch at whatever state the database already holds (recovery, loads).
  db->SetMvccRetention(true);
  snapshots_.AdvanceCommitted(db->current_statement_seq());
}

void EngineHandle::AttachWal(std::unique_ptr<storage::Wal> wal,
                             EngineDurabilityOptions durability) {
  std::lock_guard<std::mutex> lock(mu_);
  wal_ = std::move(wal);
  durability_ = std::move(durability);
  commits_since_checkpoint_ = 0;
  // Redo may have advanced the statement sequence past the epoch the
  // constructor saw.
  snapshots_.AdvanceCommitted(db()->current_statement_seq());
}

void EngineHandle::EndTxnLocked() {
  txn_owner_ = kNoSession;
  txn_ops_.clear();
  txn_snapshot_.Release();
  txn_cv_.notify_all();
}

Status EngineHandle::LockAllTablesExclusive(txn::LockSet* locks) {
  std::vector<int32_t> ids;
  for (storage::Table* table : db()->Tables()) ids.push_back(table->id());
  std::sort(ids.begin(), ids.end());
  for (int32_t id : ids) {
    LDV_RETURN_IF_ERROR(locks->AcquireExclusive(locks_.TableLock(id)));
  }
  return Status::Ok();
}

Result<uint64_t> EngineHandle::AppendGroupLocked(
    const std::vector<storage::WalOp>& ops) {
  LDV_ASSIGN_OR_RETURN(uint64_t lsn, wal_->AppendCommit(next_txn_id_++, ops));
  ++commits_since_checkpoint_;
  return lsn;
}

Result<exec::ResultSet> EngineHandle::ExecTransactionLocked(
    int64_t session_id, const sql::TransactionStmt& stmt, uint64_t* sync_lsn) {
  switch (stmt.kind) {
    case sql::TransactionStmt::Kind::kBegin: {
      if (txn_owner_ == session_id) {
        return Status::InvalidArgument(
            "BEGIN: a transaction is already open (nested transactions are "
            "not supported)");
      }
      LDV_RETURN_IF_ERROR(txn_.Begin(db()));
      txn_owner_ = session_id;
      txn_ops_.clear();
      // Pin the begin epoch: archive GC must not reclaim pre-images the
      // transaction's rollback (or readers concurrent with it) still needs.
      txn_snapshot_ = txn::SnapshotRef(&snapshots_);
      return exec::ResultSet{};
    }
    case sql::TransactionStmt::Kind::kCommit: {
      if (txn_owner_ != session_id) {
        return Status::InvalidArgument("COMMIT: no transaction is open");
      }
      if (wal_ != nullptr && !txn_ops_.empty()) {
        Result<uint64_t> lsn = AppendGroupLocked(txn_ops_);
        if (!lsn.ok()) {
          // The group never reached the log; abort so memory and log agree.
          // Undo rewrites rows in place, so readers drain first.
          txn::LockSet undo_locks;
          LDV_RETURN_IF_ERROR(LockAllTablesExclusive(&undo_locks));
          Status rolled = txn_.Rollback();
          EndTxnLocked();
          txns_rolled_back_->Add(1);
          if (!rolled.ok()) return rolled;
          return lsn.status().WithContext("COMMIT aborted: wal append failed");
        }
        *sync_lsn = *lsn;
      }
      txn_.Commit();
      EndTxnLocked();
      txns_committed_->Add(1);
      MaybeCheckpointLocked();
      return exec::ResultSet{};
    }
    case sql::TransactionStmt::Kind::kRollback: {
      if (txn_owner_ != session_id) {
        return Status::InvalidArgument("ROLLBACK: no transaction is open");
      }
      // Undo restores rows in place and truncates archives across every
      // table the transaction touched; in-flight snapshot readers must
      // drain first (acquisition blocks until they finish).
      txn::LockSet undo_locks;
      LDV_RETURN_IF_ERROR(LockAllTablesExclusive(&undo_locks));
      Status rolled = txn_.Rollback();
      EndTxnLocked();
      txns_rolled_back_->Add(1);
      if (!rolled.ok()) return rolled;
      return exec::ResultSet{};
    }
  }
  return Status::Internal("unhandled transaction statement");
}

Result<exec::ResultSet> EngineHandle::ExecuteSession(const DbRequest& request,
                                                     int64_t session_id) {
  LDV_FAULT_POINT("engine.execute");
  // Protocol verbs carry the statement pre-split: a handle plus body text
  // (kPrepare) or bound parameter values (kExecute).
  switch (request.kind) {
    case RequestKind::kPrepare: {
      LDV_ASSIGN_OR_RETURN(sql::Statement body, sql::Parse(request.sql));
      return PrepareStatement(request.handle, std::move(body), session_id);
    }
    case RequestKind::kExecute:
      return ExecutePrepared(request.handle, request.params, request,
                             session_id);
    case RequestKind::kDeallocate:
      return DeallocateStatement(request.handle,
                                 /*all=*/request.handle.empty(), session_id);
    default:
      break;
  }

  LDV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(request.sql));

  // SQL-spelled PREPARE/EXECUTE/DEALLOCATE use the same machinery as the
  // protocol verbs; EXECUTE arguments are constant expressions evaluated
  // here (the parser rejects placeholders inside them).
  switch (stmt.kind) {
    case sql::StatementKind::kPrepare:
      return PrepareStatement(stmt.prepare->name,
                              std::move(*stmt.prepare->body), session_id);
    case sql::StatementKind::kExecute: {
      storage::Tuple params;
      params.reserve(stmt.execute->args.size());
      for (const auto& arg : stmt.execute->args) {
        LDV_ASSIGN_OR_RETURN(storage::Value v, exec::EvalConstExpr(*arg));
        params.push_back(std::move(v));
      }
      return ExecutePrepared(stmt.execute->name, std::move(params), request,
                             session_id);
    }
    case sql::StatementKind::kDeallocate:
      return DeallocateStatement(stmt.deallocate->name, stmt.deallocate->all,
                                 session_id);
    default:
      break;
  }

  return ExecuteStatement(stmt, request, request.sql, session_id,
                          /*prepared=*/nullptr);
}

Result<exec::ResultSet> EngineHandle::ExecuteStatement(
    const sql::Statement& stmt, const DbRequest& request,
    const std::string& effective_sql, int64_t session_id,
    const PreparedRun* prepared) {
  // Hot standby: only reads are served locally; writes must go to the
  // primary. Transaction control is rejected too — an explicit transaction
  // exists to stage mutations. The message prefix is the failover signal
  // (IsReadOnlyStandbyError).
  if (read_only_.load(std::memory_order_acquire) &&
      (StatementMutates(stmt) ||
       stmt.kind == sql::StatementKind::kTransaction)) {
    return Status::NotSupported(
        "read-only standby: writes must go to the primary (statement: " +
        (effective_sql.size() <= 80 ? effective_sql
                                    : effective_sql.substr(0, 77) + "...") +
        ")");
  }
  // One governor per statement (DESIGN.md §11): the cancellation token the
  // operators poll, the statement deadline, and the memory budget. It is
  // registered before the engine lock is taken, so a statement queued
  // behind another session's transaction is cancellable too.
  exec::QueryGovernor governor;
  const int64_t timeout_millis = request.timeout_millis > 0
                                     ? request.timeout_millis
                                     : statement_timeout_millis_;
  if (timeout_millis > 0) {
    governor.set_deadline_nanos(NowNanos() + timeout_millis * 1'000'000);
  }
  governor.set_mem_limit_bytes(mem_limit_bytes_);
  exec::InflightQuery info;
  info.process_id = request.process_id;
  info.query_id = request.query_id;
  info.session_id = session_id;
  info.sql = effective_sql;
  info.start_nanos = NowNanos();
  exec::QueryRegistry::Registration registration =
      exec::QueryRegistry::Global().Register(&governor, std::move(info));

  // Plain non-provenance SELECTs run on the concurrent read path: shared
  // data locks and a frozen snapshot epoch instead of the engine mutex, so
  // independent readers overlap. The owner of an open transaction must see
  // its own uncommitted writes, so its reads stay on the serialized path
  // (provenance queries do too — they stamp used_by markers into the rows
  // they read).
  if (stmt.kind == sql::StatementKind::kSelect && !stmt.provenance &&
      txn_owner_.load(std::memory_order_acquire) != session_id) {
    return ExecConcurrentRead(stmt, request, effective_sql, &governor,
                              prepared);
  }

  uint64_t sync_lsn = 0;
  Result<exec::ResultSet> result = Status::Internal("unreachable");
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Sliced wait for the engine: a cancel/deadline must be able to kick a
    // statement out of the queue, so the wait polls the governor instead of
    // sleeping the whole txn_wait_millis_ budget in one block.
    const int64_t wait_deadline =
        NowNanos() + txn_wait_millis_ * 1'000'000;
    while (txn_owner_ != kNoSession && txn_owner_ != session_id) {
      LDV_RETURN_IF_ERROR(governor.Check());
      if (NowNanos() >= wait_deadline) {
        return Status::IOError(
            "engine busy: another session's transaction held the engine past "
            "the wait limit");
      }
      txn_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
    LDV_RETURN_IF_ERROR(governor.Check());
    obs::Span span("engine.statement", "engine");
    if (span.recording()) {
      span.AddArg("sql", effective_sql.size() <= 120
                             ? effective_sql
                             : effective_sql.substr(0, 117) + "...");
    }

    if (stmt.kind == sql::StatementKind::kTransaction) {
      result = ExecTransactionLocked(session_id, *stmt.transaction, &sync_lsn);
      if (txn_owner_ == kNoSession) {
        // COMMIT/ROLLBACK resolved the transaction: its outcome (or the
        // restored pre-state) is now the committed epoch readers pin.
        snapshots_.AdvanceCommitted(db()->current_statement_seq());
      }
    } else {
      const bool in_txn = txn_owner_ == session_id;
      const bool mutates = StatementMutates(stmt);
      if (in_txn && mutates && IsDdlOrCopy(stmt)) {
        return Status::InvalidArgument(
            "DDL and COPY are not allowed inside a transaction");
      }
      // Data locks (DESIGN.md §12): DML and COPY take the target table
      // exclusively so snapshot readers never observe a row vector
      // mid-mutation; DDL takes the catalog exclusively so readers never
      // observe the table set or a schema changing. A provenance statement
      // stamps the used-by fields of every row it reads, which snapshot
      // readers project as prov_usedby/prov_p, so it takes every table it
      // reads or writes exclusively, in ascending id order (the readers'
      // order). Other SELECTs here (the transaction owner's reads) take
      // none — mu_ already excludes every other writer.
      txn::LockSet data_locks;
      storage::Table* locked_table = nullptr;
      Status acquired = Status::Ok();
      auto poll = [&governor] { return governor.Check(); };
      if (stmt.provenance) {
        for (int32_t id : ReferencedTableIds(db(), stmt)) {
          acquired = data_locks.AcquireExclusive(locks_.TableLock(id), poll);
          if (!acquired.ok()) break;
        }
        if (const std::string* target = MutationTarget(stmt)) {
          locked_table = db()->FindTable(*target);
        }
      } else if (mutates) {
        if (IsDdl(stmt)) {
          acquired = data_locks.AcquireExclusive(locks_.catalog(), poll);
        } else if (const std::string* target = MutationTarget(stmt)) {
          locked_table = db()->FindTable(*target);
          if (locked_table != nullptr) {
            acquired = data_locks.AcquireExclusive(
                locks_.TableLock(locked_table->id()), poll);
          }
        }
      }

      // With a WAL attached, an autocommit mutation runs under its own undo
      // scope: if execution or the log append fails, the statement's partial
      // effects are rolled back and the client's error means "not applied".
      storage::TxnScope autocommit;
      const bool guarded = mutates && !in_txn && wal_ != nullptr;

      const int64_t seq_before = db()->current_statement_seq();
      if (!acquired.ok()) {
        result = acquired;  // cancelled while waiting for a data lock
      } else {
        if (guarded) LDV_RETURN_IF_ERROR(autocommit.Begin(db()));
        exec::ExecOptions options;
        options.process_id = request.process_id;
        options.query_id = request.query_id;
        options.governor = &governor;
        const int64_t start = NowNanos();
        result = executor_.ExecuteParsed(stmt, options);
        statement_latency_->Observe((NowNanos() - start) / 1000);
      }

      if (!result.ok() && span.recording() &&
          exec::IsGovernanceStatus(result.status().code())) {
        span.AddArg("governance",
                    std::string(StatusCodeName(result.status().code())));
      }
      if (!result.ok()) {
        if (guarded && acquired.ok()) {
          LDV_RETURN_IF_ERROR(autocommit.Rollback());
        }
        if (in_txn) {
          // Release this statement's data locks before taking every table
          // for the undo: holding one lock while waiting for the rest could
          // deadlock against a reader holding part of the set. The interim
          // state is invisible to readers anyway — every uncommitted write
          // postdates their snapshot epochs.
          data_locks.Release();
          txn::LockSet undo_locks;
          LDV_RETURN_IF_ERROR(LockAllTablesExclusive(&undo_locks));
          Status rolled = txn_.Rollback();
          EndTxnLocked();
          txns_rolled_back_->Add(1);
          if (!rolled.ok()) return rolled;
          return result.status().WithContext("transaction aborted");
        }
      } else if (mutates) {
        // Every logged statement occupies at least one sequence slot, so a
        // checkpoint boundary between statements is unambiguous on redo
        // (DDL allocates no version stamps on its own).
        if (db()->current_statement_seq() == seq_before) {
          db()->NextStatementSeq();
        }
        if (in_txn) {
          txn_ops_.push_back(storage::WalOp{seq_before, effective_sql});
        } else if (wal_ != nullptr) {
          Result<uint64_t> lsn = AppendGroupLocked(
              {storage::WalOp{seq_before, effective_sql}});
          if (!lsn.ok()) {
            LDV_RETURN_IF_ERROR(autocommit.Rollback());
            return lsn.status().WithContext(
                "statement rolled back: wal append failed");
          }
          sync_lsn = *lsn;
          autocommit.Commit();
          txns_committed_->Add(1);
          MaybeCheckpointLocked();
        }
      }
      if (txn_owner_ == kNoSession) {
        // Commit point: the statement's effects (or its rolled-back
        // pre-state) are now the committed epoch new readers pin, and
        // pre-images only older snapshots could see become reclaimable.
        // GC runs under the target's exclusive lock, already held.
        snapshots_.AdvanceCommitted(db()->current_statement_seq());
        if (result.ok() && locked_table != nullptr) {
          locked_table->GcArchive(snapshots_.OldestLiveEpoch());
        }
      }
    }
  }
  // Group commit: the fsync happens outside the engine lock, so concurrent
  // committers share one fsync. A sync failure is reported without undo —
  // the group is in the log (commit outcome unknown until the next sync or
  // recovery), the classic ack-in-doubt.
  if (result.ok() && sync_lsn != 0) {
    LDV_RETURN_IF_ERROR(wal_->Sync(sync_lsn));
    // Semi-sync replication: the commit is not acknowledged until every
    // live standby has it (also outside mu_, so the stream keeps serving
    // while committers wait).
    if (commit_ack_barrier_) {
      LDV_RETURN_IF_ERROR(commit_ack_barrier_(sync_lsn));
    }
  }
  return result;
}

Status EngineHandle::ApplyReplicated(const std::vector<storage::WalOp>& ops) {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<storage::Table*> touched;
  for (const storage::WalOp& op : ops) {
    LDV_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(op.sql));
    // Same exclusive data locks a primary writer takes: snapshot readers
    // never observe a row vector or the catalog mid-mutation.
    txn::LockSet data_locks;
    storage::Table* locked_table = nullptr;
    if (IsDdl(stmt)) {
      LDV_RETURN_IF_ERROR(data_locks.AcquireExclusive(locks_.catalog()));
    } else if (const std::string* target = MutationTarget(stmt)) {
      locked_table = db()->FindTable(*target);
      if (locked_table != nullptr) {
        LDV_RETURN_IF_ERROR(
            data_locks.AcquireExclusive(locks_.TableLock(locked_table->id())));
      }
    }
    // Deterministic redo, exactly as recovery replays the log: restore the
    // statement sequence the primary saw, execute, and guarantee the
    // statement occupies at least one sequence slot.
    db()->set_statement_seq(op.stmt_seq_before);
    exec::ExecOptions options;
    options.threads = 1;
    Result<exec::ResultSet> applied = executor_.Execute(op.sql, options);
    if (!applied.ok()) {
      return applied.status().WithContext("replicated apply failed (sql: " +
                                          op.sql + ")");
    }
    db()->set_statement_seq(
        std::max(db()->current_statement_seq(), op.stmt_seq_before + 1));
    if (locked_table != nullptr) touched.push_back(locked_table);
  }
  // Publish the whole group as one committed epoch, then reclaim pre-images
  // no live snapshot can see. GC retakes each table's lock: the per-op
  // locks were released above, and GcArchive requires exclusivity.
  snapshots_.AdvanceCommitted(db()->current_statement_seq());
  txns_committed_->Add(1);
  for (storage::Table* table : touched) {
    txn::LockSet gc_lock;
    LDV_RETURN_IF_ERROR(gc_lock.AcquireExclusive(locks_.TableLock(table->id())));
    table->GcArchive(snapshots_.OldestLiveEpoch());
  }
  return Status::Ok();
}

Result<exec::ResultSet> EngineHandle::PrepareStatement(const std::string& name,
                                                       sql::Statement body,
                                                       int64_t session_id) {
  if (name.empty()) {
    return Status::InvalidArgument("PREPARE: statement name is empty");
  }
  switch (body.kind) {
    case sql::StatementKind::kSelect:
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete:
      break;
    default:
      return Status::InvalidArgument(
          "PREPARE body must be SELECT, INSERT, UPDATE, or DELETE");
  }
  if (body.explain) {
    return Status::InvalidArgument("PREPARE body cannot be EXPLAIN");
  }
  auto prep = std::make_shared<PreparedStatement>();
  prep->name = ToLower(name);
  prep->num_params = body.num_params;
  prep->cache_key =
      exec::NormalizeStatementText(sql::StatementToString(body));
  prep->body =
      exec::PlanCache::Global().Intern(*db(), prep->cache_key,
                                       std::move(body));
  std::lock_guard<std::mutex> lock(prepared_mu_);
  auto& session = prepared_[session_id];
  if (session.find(prep->name) != session.end()) {
    return Status::AlreadyExists("prepared statement \"" + name +
                                 "\" already exists");
  }
  session[prep->name] = std::move(prep);
  return exec::ResultSet{};
}

Result<exec::ResultSet> EngineHandle::ExecutePrepared(const std::string& name,
                                                      storage::Tuple params,
                                                      const DbRequest& request,
                                                      int64_t session_id) {
  std::shared_ptr<const PreparedStatement> prep;
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    auto sit = prepared_.find(session_id);
    if (sit != prepared_.end()) {
      auto it = sit->second.find(ToLower(name));
      if (it != sit->second.end()) prep = it->second;
    }
  }
  if (prep == nullptr) {
    return Status::NotFound("prepared statement \"" + name +
                            "\" does not exist");
  }
  if (static_cast<int>(params.size()) != prep->num_params) {
    return Status::InvalidArgument(StrFormat(
        "EXECUTE %s: statement expects %d parameter(s), %zu given",
        name.c_str(), prep->num_params, params.size()));
  }

  const bool in_txn =
      txn_owner_.load(std::memory_order_acquire) == session_id;
  if (!in_txn && exec::PlanCacheEligible(*prep->body)) {
    PreparedRun run;
    run.cache_key = &prep->cache_key;
    run.params = &params;
    return ExecuteStatement(*prep->body, request, "EXECUTE " + prep->name,
                            session_id, &run);
  }

  // Substitution path: inline the bound values as literals and run the
  // statement exactly as if the client had sent it with literals spelled
  // out. Bit-identical by construction; the WAL and governance listings
  // see the rendered text.
  sql::Statement stmt = sql::CloneStatement(*prep->body);
  LDV_RETURN_IF_ERROR(sql::SubstituteParameters(&stmt, params));
  const std::string effective_sql = sql::StatementToString(stmt);
  return ExecuteStatement(stmt, request, effective_sql, session_id,
                          /*prepared=*/nullptr);
}

Result<exec::ResultSet> EngineHandle::DeallocateStatement(
    const std::string& name, bool all, int64_t session_id) {
  std::lock_guard<std::mutex> lock(prepared_mu_);
  auto sit = prepared_.find(session_id);
  if (all) {
    if (sit != prepared_.end()) prepared_.erase(sit);
    return exec::ResultSet{};
  }
  if (sit == prepared_.end() || sit->second.erase(ToLower(name)) == 0) {
    return Status::NotFound("prepared statement \"" + name +
                            "\" does not exist");
  }
  return exec::ResultSet{};
}

void EngineHandle::AbortSession(int64_t session_id) {
  {
    // Connection teardown drops the session's prepared statements with it.
    std::lock_guard<std::mutex> lock(prepared_mu_);
    prepared_.erase(session_id);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (txn_owner_ != session_id) return;
  // Same drill as ROLLBACK: readers drain before undo rewrites rows.
  txn::LockSet undo_locks;
  Status locked = LockAllTablesExclusive(&undo_locks);
  if (!locked.ok()) {
    LDV_LOG(Error) << "lock acquisition on session teardown failed: "
                   << locked.ToString();
  }
  Status rolled = txn_.Rollback();
  if (!rolled.ok()) {
    LDV_LOG(Error) << "rollback on session teardown failed: "
                   << rolled.ToString();
  }
  EndTxnLocked();
  txns_rolled_back_->Add(1);
  snapshots_.AdvanceCommitted(db()->current_statement_seq());
}

Result<exec::ResultSet> EngineHandle::ExecConcurrentRead(
    const sql::Statement& stmt, const DbRequest& request,
    const std::string& effective_sql, exec::QueryGovernor* governor,
    const PreparedRun* prepared) {
  obs::Span span("engine.read", "engine");
  if (span.recording()) {
    span.AddArg("sql", effective_sql.size() <= 120
                           ? effective_sql
                           : effective_sql.substr(0, 117) + "...");
  }
  auto poll = [governor] { return governor->Check(); };

  // Lock hierarchy (DESIGN.md §12): catalog shared first — the table set
  // and schemas cannot change underneath the statement — then the data
  // locks of every referenced table, shared, in ascending id order. The
  // whole set is acquired up front, which keeps the hierarchy
  // deadlock-free; waiters stay cancellable through the governor poll.
  txn::LockSet locks;
  LDV_RETURN_IF_ERROR(locks.AcquireShared(locks_.catalog(), poll));
  for (int32_t id : ReferencedTableIds(db(), stmt)) {
    LDV_RETURN_IF_ERROR(locks.AcquireShared(locks_.TableLock(id), poll));
  }

  // The snapshot is taken after the locks are held: every commit point
  // before this instant is fully applied (writers hold their data locks to
  // completion), and the pin is as fresh as possible for the GC watermark.
  txn::SnapshotRef snapshot(&snapshots_);

  exec::ExecOptions options;
  options.process_id = request.process_id;
  options.query_id = request.query_id;
  options.governor = governor;
  options.snapshot_epoch = snapshot.epoch();
  const int64_t start = NowNanos();
  Result<exec::ResultSet> result = [&]() -> Result<exec::ResultSet> {
    if (prepared != nullptr) {
      // EXECUTE of a cache-eligible SELECT: fetch (or build) the shared
      // plan under the locks taken above — the schema cannot shift between
      // the staleness check and execution — and run it with the bound
      // parameters.
      std::vector<storage::ValueType> types;
      types.reserve(prepared->params->size());
      for (const storage::Value& v : *prepared->params) {
        types.push_back(v.type());
      }
      LDV_ASSIGN_OR_RETURN(
          auto plan, exec::PlanCache::Global().GetPlan(
                         db(), *prepared->cache_key, stmt, types));
      return executor_.ExecutePlanned(*plan->plan, *prepared->params,
                                      options);
    }
    return executor_.ExecuteParsed(stmt, options);
  }();
  statement_latency_->Observe((NowNanos() - start) / 1000);
  concurrent_reads_->Add(1);
  return result;
}

Status EngineHandle::FlushWal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Flush();
}

Status EngineHandle::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status EngineHandle::CheckpointLocked() {
  if (wal_ == nullptr || durability_.data_dir.empty()) {
    return Status::InvalidArgument(
        "checkpointing needs an attached WAL and a data_dir");
  }
  obs::Span span("engine.checkpoint", "engine");
  // Order matters: the log must cover everything the snapshot will contain
  // before the snapshot becomes the recovery base, and segments may only be
  // retired once the snapshot covering them is durable (SaveDatabase's
  // catalog rename is its commit point).
  LDV_RETURN_IF_ERROR(wal_->Flush());
  LDV_RETURN_IF_ERROR(storage::SaveDatabase(*db(), durability_.data_dir));
  LDV_RETURN_IF_ERROR(wal_->StartNewSegment());
  LDV_RETURN_IF_ERROR(wal_->RetireOldSegments(
      wal_retire_floor_ ? wal_retire_floor_() : UINT64_MAX));
  commits_since_checkpoint_ = 0;
  checkpoints_->Add(1);
  return Status::Ok();
}

void EngineHandle::MaybeCheckpointLocked() {
  if (durability_.checkpoint_every <= 0 || durability_.data_dir.empty()) {
    return;
  }
  if (commits_since_checkpoint_ < durability_.checkpoint_every) return;
  Status status = CheckpointLocked();
  if (!status.ok()) {
    // A failed checkpoint must not fail the commit that triggered it; the
    // WAL still covers everything. Try again after the next batch.
    LDV_LOG(Warning) << "checkpoint failed: " << status.ToString();
    commits_since_checkpoint_ = 0;
  }
}

SocketDbClient::~SocketDbClient() { Close(); }

SocketDbClient::SocketDbClient(SocketDbClient&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

SocketDbClient& SocketDbClient::operator=(SocketDbClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void SocketDbClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<SocketDbClient>> SocketDbClient::Connect(
    const std::string& socket_path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::IOError("connect " + socket_path + ": " + strerror(errno));
  }
  return std::unique_ptr<SocketDbClient>(new SocketDbClient(fd));
}

Result<exec::ResultSet> SocketDbClient::Execute(const DbRequest& request) {
  if (fd_ < 0) return Status::IOError("socket client is closed");
  LDV_RETURN_IF_ERROR(SendFrame(fd_, EncodeRequest(request)));
  LDV_ASSIGN_OR_RETURN(std::string payload, RecvFrame(fd_));
  return DecodeResponse(payload);
}

namespace {

/// Extracts the single string cell of a control-request response.
Result<std::string> SingleStringCell(const exec::ResultSet& result,
                                     const char* what) {
  if (result.rows.size() != 1 || result.rows[0].size() != 1 ||
      result.rows[0][0].type() != storage::ValueType::kString) {
    return Status::IOError(std::string("malformed ") + what + " response");
  }
  return result.rows[0][0].AsString();
}

Result<Json> ControlRequestJson(DbClient* client, RequestKind kind,
                                const char* what) {
  DbRequest request;
  request.kind = kind;
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, client->Execute(request));
  LDV_ASSIGN_OR_RETURN(std::string json, SingleStringCell(result, what));
  return Json::Parse(json);
}

}  // namespace

Result<Json> FetchServerStats(DbClient* client) {
  return ControlRequestJson(client, RequestKind::kStats, "stats");
}

Status StartServerTrace(DbClient* client) {
  DbRequest request;
  request.kind = RequestKind::kTraceStart;
  return client->Execute(request).status();
}

Result<Json> FetchServerTrace(DbClient* client) {
  return ControlRequestJson(client, RequestKind::kTraceDump, "trace");
}

Result<int64_t> CancelServerQuery(DbClient* client, int64_t process_id,
                                  int64_t query_id) {
  DbRequest request;
  request.kind = RequestKind::kCancel;
  request.process_id = process_id;
  request.query_id = query_id;
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, client->Execute(request));
  if (result.rows.size() != 1 || result.rows[0].size() != 1 ||
      result.rows[0][0].type() != storage::ValueType::kInt64) {
    return Status::IOError("malformed cancel response");
  }
  return result.rows[0][0].AsInt();
}

Status PrepareStatement(DbClient* client, const std::string& name,
                        const std::string& sql) {
  DbRequest request;
  request.kind = RequestKind::kPrepare;
  request.handle = name;
  request.sql = sql;
  return client->Execute(request).status();
}

Result<exec::ResultSet> ExecutePrepared(DbClient* client,
                                        const std::string& name,
                                        storage::Tuple params,
                                        int64_t process_id, int64_t query_id) {
  DbRequest request;
  request.kind = RequestKind::kExecute;
  request.handle = name;
  request.params = std::move(params);
  request.process_id = process_id;
  request.query_id = query_id;
  return client->Execute(request);
}

Status DeallocatePrepared(DbClient* client, const std::string& name) {
  DbRequest request;
  request.kind = RequestKind::kDeallocate;
  request.handle = name;
  return client->Execute(request).status();
}

bool IsReadOnlyStandbyError(const Status& status) {
  return status.code() == StatusCode::kNotSupported &&
         status.message().rfind("read-only standby", 0) == 0;
}

Result<uint64_t> PromoteServer(DbClient* client) {
  DbRequest request;
  request.kind = RequestKind::kPromote;
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, client->Execute(request));
  // Row shape: (role:string, applied_lsn:int).
  if (result.rows.size() != 1 || result.rows[0].size() != 2 ||
      result.rows[0][1].type() != storage::ValueType::kInt64) {
    return Status::IOError("malformed promote response");
  }
  return static_cast<uint64_t>(result.rows[0][1].AsInt());
}

}  // namespace ldv::net
