#ifndef LDV_LDV_TRACE_RECORDER_H_
#define LDV_LDV_TRACE_RECORDER_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "exec/executor.h"
#include "os/sim_process.h"
#include "sql/ast.h"
#include "storage/table.h"
#include "trace/graph.h"

namespace ldv {

/// One audited statement as the trace sees it.
struct AuditedStatement {
  int64_t process_id = 0;
  int64_t query_id = 0;
  std::string_view sql;
  sql::StatementKind kind = sql::StatementKind::kSelect;
  os::Interval t;
  /// The statement's result with provenance (server-included audits). Null
  /// records only the statement node and its run edge.
  const exec::ResultSet* provenance = nullptr;
};

/// Builds the combined execution trace of one audited run (§VII-A to
/// §VII-C): processes and files from OS events, statements, the tuple
/// versions they read and wrote, and their results. A SELECT's result rows
/// become one lineage block on its statement node; everything else is an
/// explicit node or edge.
class TraceRecorder {
 public:
  Status OnOsEvent(const os::OsEvent& event);
  Status OnStatement(const AuditedStatement& stmt);

  const trace::TraceGraph& graph() const { return graph_; }

 private:
  /// Trace node of one tuple version, and its place in the input list of
  /// the SELECT being recorded (valid while `statement` is that SELECT's
  /// query id), so one hash lookup serves both.
  struct TupleEntry {
    trace::NodeId node = trace::kInvalidNode;
    int32_t input = -1;
    int64_t statement = -1;
  };
  TupleEntry& Tuple(const storage::TupleVid& vid, const std::string& table);
  Status RecordSelect(const AuditedStatement& stmt, trace::NodeId stmt_node,
                      trace::NodeId proc_node);

  trace::TraceGraph graph_;
  // Every tuple version seen so far.
  std::unordered_map<storage::TupleVid, TupleEntry, storage::TupleVidHash>
      tuples_;
};

}  // namespace ldv

#endif  // LDV_LDV_TRACE_RECORDER_H_
