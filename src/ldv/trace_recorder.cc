#include "ldv/trace_recorder.h"

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

Status TraceRecorder::OnOsEvent(const os::OsEvent& event) {
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

TraceRecorder::TupleEntry& TraceRecorder::Tuple(const TupleVid& vid,
                                                const std::string& table) {
  // A table id names one table for the database's lifetime, so the vid
  // alone decides the label.
  auto [it, inserted] = tuples_.try_emplace(vid);
  if (inserted) {
    it->second.node = graph_.GetOrAddNode(
        trace::NodeType::kTuple,
        StrFormat("%s#%lld.v%lld", table.c_str(),
                  static_cast<long long>(vid.rowid),
                  static_cast<long long>(vid.version)));
  }
  return it->second;
}

Status TraceRecorder::RecordSelect(const AuditedStatement& stmt,
                                   trace::NodeId stmt_node,
                                   trace::NodeId proc_node) {
  // The statement reads its provenance tuples and returns fresh result
  // tuples to the process (Figure 2): one lineage block.
  const exec::ResultSet& result = *stmt.provenance;
  trace::LineageBlock block;
  block.stmt = stmt_node;
  block.proc = proc_node;
  block.t = stmt.t;
  block.row_label_prefix =
      StrFormat("q%lld#", static_cast<long long>(stmt.query_id));
  block.inputs.reserve(result.prov_tuples.size());
  for (const exec::ProvTupleRecord& tuple : result.prov_tuples) {
    TupleEntry& entry = Tuple(tuple.vid, tuple.table);
    if (entry.statement == stmt.query_id) continue;
    entry.statement = stmt.query_id;
    entry.input = static_cast<int32_t>(block.inputs.size());
    block.inputs.push_back(entry.node);
  }
  block.row_offsets.reserve(result.rows.size() + 1);
  for (size_t i = 0; i < result.rows.size(); ++i) {
    block.AddRow();
    if (i >= result.lineage.size()) continue;
    for (const TupleVid& vid : result.lineage[i]) {
      auto it = tuples_.find(vid);
      if (it != tuples_.end() && it->second.statement == stmt.query_id) {
        block.AddDependency(it->second.input);
      }
    }
  }
  return graph_.AddLineageBlock(std::move(block));
}

Status TraceRecorder::OnStatement(const AuditedStatement& stmt) {
  // Statement node + run edge (Definition 5).
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

  if (stmt.kind == sql::StatementKind::kSelect) {
    return RecordSelect(stmt, stmt_node, proc_node);
  }

  // DML: explicit reads, the versions the statement created, and the
  // reenactment edges.
  std::unordered_map<TupleVid, trace::NodeId, storage::TupleVidHash>
      input_nodes;
  for (const exec::ProvTupleRecord& tuple : result.prov_tuples) {
    trace::NodeId node = Tuple(tuple.vid, tuple.table).node;
    input_nodes.emplace(tuple.vid, node);
    LDV_RETURN_IF_ERROR(graph_.MergeEdge(node, stmt_node,
                                         trace::EdgeType::kHasRead, stmt.t));
  }
  for (size_t i = 0; i < result.dml.size(); ++i) {
    const exec::DmlRecord& dml = result.dml[i];
    switch (dml.kind) {
      case exec::DmlRecord::Kind::kInserted: {
        trace::NodeId node = Tuple(dml.vid, dml.table).node;
        LDV_RETURN_IF_ERROR(graph_.AddEdge(
            stmt_node, node, trace::EdgeType::kHasReturned, stmt.t));
        // INSERT ... SELECT: source lineage becomes the new tuple's deps.
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
        trace::NodeId new_node = Tuple(dml.vid, dml.table).node;
        trace::NodeId old_node = Tuple(dml.prior, dml.table).node;
        LDV_RETURN_IF_ERROR(graph_.MergeEdge(
            old_node, stmt_node, trace::EdgeType::kHasRead, stmt.t));
        LDV_RETURN_IF_ERROR(graph_.AddEdge(
            stmt_node, new_node, trace::EdgeType::kHasReturned, stmt.t));
        graph_.AddTupleDependency(new_node, old_node);
        break;
      }
      case exec::DmlRecord::Kind::kDeleted: {
        trace::NodeId old_node = Tuple(dml.prior, dml.table).node;
        LDV_RETURN_IF_ERROR(graph_.MergeEdge(
            old_node, stmt_node, trace::EdgeType::kHasRead, stmt.t));
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace ldv
