#include "legacy_trace_recorder.h"

#include <string>

#include "util/strings.h"

namespace ldv {

using storage::TupleVid;

namespace {

trace::NodeType StatementNodeType(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kInsert:
      return trace::NodeType::kInsert;
    case sql::StatementKind::kUpdate:
      return trace::NodeType::kUpdate;
    case sql::StatementKind::kDelete:
      return trace::NodeType::kDelete;
    default:
      return trace::NodeType::kQuery;
  }
}

std::string ProcessLabel(int64_t pid) { return "pid:" + std::to_string(pid); }

}  // namespace

Status LegacyTraceRecorder::OnOsEvent(const os::OsEvent& event) {
  using Kind = os::OsEvent::Kind;
  switch (event.kind) {
    case Kind::kProcessStart: {
      trace::NodeId child = graph_.GetOrAddNode(trace::NodeType::kProcess,
                                                ProcessLabel(event.pid));
      if (event.parent_pid > 0) {
        trace::NodeId parent = graph_.GetOrAddNode(
            trace::NodeType::kProcess, ProcessLabel(event.parent_pid));
        return graph_.AddEdge(parent, child, trace::EdgeType::kExecuted,
                              event.t);
      }
      return Status::Ok();
    }
    case Kind::kProcessExit:
      return Status::Ok();
    case Kind::kFileRead: {
      trace::NodeId file =
          graph_.GetOrAddNode(trace::NodeType::kFile, event.path);
      trace::NodeId proc = graph_.GetOrAddNode(trace::NodeType::kProcess,
                                               ProcessLabel(event.pid));
      return graph_.MergeEdge(file, proc, trace::EdgeType::kReadFrom, event.t);
    }
    case Kind::kFileWrite: {
      trace::NodeId file =
          graph_.GetOrAddNode(trace::NodeType::kFile, event.path);
      trace::NodeId proc = graph_.GetOrAddNode(trace::NodeType::kProcess,
                                               ProcessLabel(event.pid));
      return graph_.MergeEdge(proc, file, trace::EdgeType::kHasWritten,
                              event.t);
    }
  }
  return Status::Ok();
}

trace::NodeId LegacyTraceRecorder::TupleNode(const TupleVid& vid,
                                             const std::string& table) {
  auto [it, inserted] = tuple_nodes_.try_emplace(vid, trace::kInvalidNode);
  if (inserted) {
    it->second = graph_.GetOrAddNode(
        trace::NodeType::kTuple,
        StrFormat("%s#%lld.v%lld", table.c_str(),
                  static_cast<long long>(vid.rowid),
                  static_cast<long long>(vid.version)));
  }
  return it->second;
}

Status LegacyTraceRecorder::OnStatement(const AuditedStatement& stmt) {
  trace::NodeId stmt_node = graph_.GetOrAddNode(
      StatementNodeType(stmt.kind),
      StrFormat("q%lld: %s", static_cast<long long>(stmt.query_id),
                std::string(stmt.sql.substr(0, 60)).c_str()));
  trace::NodeId proc_node = graph_.GetOrAddNode(
      trace::NodeType::kProcess, ProcessLabel(stmt.process_id));
  LDV_RETURN_IF_ERROR(
      graph_.AddEdge(proc_node, stmt_node, trace::EdgeType::kRun, stmt.t));
  if (stmt.provenance == nullptr) return Status::Ok();
  const exec::ResultSet& result = *stmt.provenance;

  std::unordered_map<TupleVid, trace::NodeId, storage::TupleVidHash>
      input_nodes;
  for (const exec::ProvTupleRecord& tuple : result.prov_tuples) {
    trace::NodeId node = TupleNode(tuple.vid, tuple.table);
    input_nodes.emplace(tuple.vid, node);
    LDV_RETURN_IF_ERROR(graph_.MergeEdge(node, stmt_node,
                                         trace::EdgeType::kHasRead, stmt.t));
  }

  if (stmt.kind == sql::StatementKind::kSelect) {
    // Result tuples are fresh entities returned to the process (Figure 2).
    for (size_t i = 0; i < result.rows.size(); ++i) {
      trace::NodeId out = graph_.GetOrAddNode(
          trace::NodeType::kTuple,
          StrFormat("q%lld#%zu", static_cast<long long>(stmt.query_id), i));
      LDV_RETURN_IF_ERROR(graph_.AddEdge(
          stmt_node, out, trace::EdgeType::kHasReturned, stmt.t));
      LDV_RETURN_IF_ERROR(graph_.AddEdge(
          out, proc_node, trace::EdgeType::kReadFromDb, stmt.t));
      if (i < result.lineage.size()) {
        for (const TupleVid& vid : result.lineage[i]) {
          auto it = input_nodes.find(vid);
          if (it != input_nodes.end()) {
            graph_.AddTupleDependency(out, it->second);
          }
        }
      }
    }
  }

  for (size_t i = 0; i < result.dml.size(); ++i) {
    const exec::DmlRecord& dml = result.dml[i];
    switch (dml.kind) {
      case exec::DmlRecord::Kind::kInserted: {
        trace::NodeId node = TupleNode(dml.vid, dml.table);
        LDV_RETURN_IF_ERROR(graph_.AddEdge(
            stmt_node, node, trace::EdgeType::kHasReturned, stmt.t));
        if (i < result.lineage.size()) {
          for (const TupleVid& vid : result.lineage[i]) {
            auto it = input_nodes.find(vid);
            if (it != input_nodes.end()) {
              graph_.AddTupleDependency(node, it->second);
            }
          }
        }
        break;
      }
      case exec::DmlRecord::Kind::kUpdated: {
        trace::NodeId new_node = TupleNode(dml.vid, dml.table);
        trace::NodeId old_node = TupleNode(dml.prior, dml.table);
        LDV_RETURN_IF_ERROR(graph_.MergeEdge(
            old_node, stmt_node, trace::EdgeType::kHasRead, stmt.t));
        LDV_RETURN_IF_ERROR(graph_.AddEdge(
            stmt_node, new_node, trace::EdgeType::kHasReturned, stmt.t));
        graph_.AddTupleDependency(new_node, old_node);
        break;
      }
      case exec::DmlRecord::Kind::kDeleted: {
        trace::NodeId old_node = TupleNode(dml.prior, dml.table);
        LDV_RETURN_IF_ERROR(graph_.MergeEdge(
            old_node, stmt_node, trace::EdgeType::kHasRead, stmt.t));
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace ldv
