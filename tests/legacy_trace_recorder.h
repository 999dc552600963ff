#ifndef LDV_TESTS_LEGACY_TRACE_RECORDER_H_
#define LDV_TESTS_LEGACY_TRACE_RECORDER_H_

#include <unordered_map>

#include "ldv/trace_recorder.h"

namespace ldv {

/// Reference for TraceRecorder: the per-row trace builder, which gives each
/// SELECT result row an explicit node with a formatted label, an explicit
/// kHasReturned and kReadFromDb edge, and explicit dependencies. Its graph
/// is what TraceRecorder's lineage blocks must stand for, id for id.
class LegacyTraceRecorder {
 public:
  Status OnOsEvent(const os::OsEvent& event);
  Status OnStatement(const AuditedStatement& stmt);

  const trace::TraceGraph& graph() const { return graph_; }

 private:
  trace::NodeId TupleNode(const storage::TupleVid& vid,
                          const std::string& table);

  trace::TraceGraph graph_;
  std::unordered_map<storage::TupleVid, trace::NodeId, storage::TupleVidHash>
      tuple_nodes_;
};

}  // namespace ldv

#endif  // LDV_TESTS_LEGACY_TRACE_RECORDER_H_
