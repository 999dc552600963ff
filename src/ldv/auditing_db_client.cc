#include "ldv/auditing_db_client.h"

#include "common/clock.h"
#include "ldv/auditor.h"
#include "net/protocol.h"
#include "obs/span.h"
#include "sql/parser.h"

namespace ldv {

Result<exec::ResultSet> AuditingDbClient::Execute(
    const net::DbRequest& request) {
  // Parse once to classify the statement and find the touched tables.
  LDV_ASSIGN_OR_RETURN(sql::Statement parsed, sql::Parse(request.sql));

  const PackageMode mode = auditor_->options().mode;
  const bool provenance_capture =
      mode == PackageMode::kServerIncluded &&
      (parsed.kind == sql::StatementKind::kSelect ||
       parsed.kind == sql::StatementKind::kInsert ||
       parsed.kind == sql::StatementKind::kUpdate ||
       parsed.kind == sql::StatementKind::kDelete);

  if (mode == PackageMode::kServerIncluded) {
    // First-touch registration: version tracking + schema capture (§VII-B).
    for (const std::string& table : sql::ReferencedTables(parsed)) {
      LDV_RETURN_IF_ERROR(auditor_->EnsureTableRegistered(table));
    }
  }

  Auditor::DbStatementRecord record;
  record.process_id = process_id_;
  record.query_id = auditor_->NextQueryId();
  record.sql = request.sql;
  record.kind = parsed.kind;

  // One span per audited statement, covering the statement itself and
  // trace/package bookkeeping.
  obs::Span span("audit.statement", "audit");
  if (span.recording()) {
    span.AddArg("qid", std::to_string(record.query_id));
    span.AddArg("sql", request.sql.size() <= 120
                           ? request.sql
                           : request.sql.substr(0, 117) + "...");
  }

  net::DbRequest tagged;
  // The PROVENANCE rewrite the prototype performs inside libpq. A tagged
  // UPDATE/DELETE returns its reenactment provenance — the pre-state
  // versions it replaced — from the same request that modifies them
  // (§VII-B), so no other session's write can land in between.
  tagged.sql = provenance_capture && !parsed.provenance
                   ? "PROVENANCE " + request.sql
                   : request.sql;
  tagged.process_id = process_id_;
  tagged.query_id = record.query_id;

  record.t.begin = auditor_->clock_.Tick();
  const int64_t backend_start = NowNanos();
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, backend_->Execute(tagged));
  record.t.end = auditor_->clock_.Tick();
  const int64_t bookkeeping_start = NowNanos();
  auditor_->backend_micros_->Observe((bookkeeping_start - backend_start) /
                                     1000);

  record.result = &result;
  if (mode == PackageMode::kServerExcluded) {
    // Spool the exact request/response pair for replay (§VII-D). What we
    // replay is what the application saw: the provenance-free response.
    net::DbRequest original = request;
    original.process_id = process_id_;
    original.query_id = record.query_id;
    record.encoded_request = net::EncodeRequest(original);
    record.encoded_response = net::EncodeResponse(Status::Ok(), result);
  }
  LDV_RETURN_IF_ERROR(auditor_->OnDbStatement(record));
  auditor_->bookkeeping_micros_->Observe((NowNanos() - bookkeeping_start) /
                                         1000);

  // Strip audit artifacts before handing results to the application.
  result.lineage.clear();
  result.prov_tuples.clear();
  result.has_provenance = false;
  return result;
}

}  // namespace ldv
