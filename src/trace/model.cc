#include "trace/model.h"

namespace ldv::trace {

bool IsActivity(NodeType type) {
  switch (type) {
    case NodeType::kProcess:
    case NodeType::kQuery:
    case NodeType::kInsert:
    case NodeType::kUpdate:
    case NodeType::kDelete:
      return true;
    case NodeType::kFile:
    case NodeType::kTuple:
      return false;
  }
  return false;
}

ModelSide SideOf(NodeType type) {
  switch (type) {
    case NodeType::kProcess:
    case NodeType::kFile:
      return ModelSide::kOs;
    default:
      return ModelSide::kDb;
  }
}

std::string_view NodeTypeName(NodeType type) {
  switch (type) {
    case NodeType::kProcess:
      return "process";
    case NodeType::kFile:
      return "file";
    case NodeType::kQuery:
      return "query";
    case NodeType::kInsert:
      return "insert";
    case NodeType::kUpdate:
      return "update";
    case NodeType::kDelete:
      return "delete";
    case NodeType::kTuple:
      return "tuple";
  }
  return "?";
}

std::string_view EdgeTypeName(EdgeType type) {
  switch (type) {
    case EdgeType::kReadFrom:
      return "readFrom";
    case EdgeType::kHasWritten:
      return "hasWritten";
    case EdgeType::kExecuted:
      return "executed";
    case EdgeType::kHasRead:
      return "hasRead";
    case EdgeType::kHasReturned:
      return "hasReturned";
    case EdgeType::kRun:
      return "run";
    case EdgeType::kReadFromDb:
      return "readFromDb";
  }
  return "?";
}

bool IsStatement(NodeType type) {
  return type == NodeType::kQuery || type == NodeType::kInsert ||
         type == NodeType::kUpdate || type == NodeType::kDelete;
}

const EdgeTypeRule& RuleFor(EdgeType type) {
  static const EdgeTypeRule kReadFromRule{.from_file = true,
                                          .to_process = true};
  static const EdgeTypeRule kHasWrittenRule{.from_process = true,
                                            .to_file = true};
  static const EdgeTypeRule kExecutedRule{.from_process = true,
                                          .to_process = true};
  static const EdgeTypeRule kHasReadRule{.from_tuple = true,
                                         .to_statement = true};
  static const EdgeTypeRule kHasReturnedRule{.from_statement = true,
                                             .to_tuple = true};
  static const EdgeTypeRule kRunRule{.from_process = true,
                                     .to_statement = true};
  static const EdgeTypeRule kReadFromDbRule{.from_tuple = true,
                                            .to_process = true};
  switch (type) {
    case EdgeType::kReadFrom:
      return kReadFromRule;
    case EdgeType::kHasWritten:
      return kHasWrittenRule;
    case EdgeType::kExecuted:
      return kExecutedRule;
    case EdgeType::kHasRead:
      return kHasReadRule;
    case EdgeType::kHasReturned:
      return kHasReturnedRule;
    case EdgeType::kRun:
      return kRunRule;
    case EdgeType::kReadFromDb:
      return kReadFromDbRule;
  }
  return kReadFromRule;
}

bool EdgeAllowed(EdgeType type, NodeType from, NodeType to) {
  const EdgeTypeRule& rule = RuleFor(type);
  bool from_ok = (rule.from_process && from == NodeType::kProcess) ||
                 (rule.from_file && from == NodeType::kFile) ||
                 (rule.from_statement && IsStatement(from)) ||
                 (rule.from_tuple && from == NodeType::kTuple);
  bool to_ok = (rule.to_process && to == NodeType::kProcess) ||
               (rule.to_file && to == NodeType::kFile) ||
               (rule.to_statement && IsStatement(to)) ||
               (rule.to_tuple && to == NodeType::kTuple);
  return from_ok && to_ok;
}

}  // namespace ldv::trace
