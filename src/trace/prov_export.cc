#include "trace/prov_export.h"

#include "common/json.h"
#include "util/strings.h"

namespace ldv::trace {
namespace {

/// PROV-JSON qualified name for a node: "ldv:<kind><id>".
std::string QName(NodeId id, NodeType type) {
  return StrFormat("ldv:%s%d", IsActivity(type) ? "a" : "e", id);
}

Json IntervalAttrs(const os::Interval& t) {
  Json attrs = Json::MakeObject();
  attrs.Set("ldv:begin", Json::MakeInt(t.begin));
  attrs.Set("ldv:end", Json::MakeInt(t.end));
  return attrs;
}

}  // namespace

std::string ExportProvJson(const TraceGraph& graph) {
  Json doc = Json::MakeObject();

  Json prefix = Json::MakeObject();
  prefix.Set("ldv", Json::MakeString("https://example.org/ldv#"));
  prefix.Set("prov", Json::MakeString("http://www.w3.org/ns/prov#"));
  doc.Set("prefix", std::move(prefix));

  Json activities = Json::MakeObject();
  Json entities = Json::MakeObject();
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const TraceNode node = graph.node(id);
    Json record = Json::MakeObject();
    record.Set("prov:type", Json::MakeString(
                                "ldv:" + std::string(NodeTypeName(node.type))));
    record.Set("prov:label", Json::MakeString(node.label));
    if (IsActivity(node.type)) {
      activities.Set(QName(id, node.type), std::move(record));
    } else {
      entities.Set(QName(id, node.type), std::move(record));
    }
  }
  doc.Set("activity", std::move(activities));
  doc.Set("entity", std::move(entities));

  Json used = Json::MakeObject();
  Json generated = Json::MakeObject();
  Json started = Json::MakeObject();
  int counter = 0;
  for (int32_t i = 0; i < graph.num_edges(); ++i) {
    const TraceEdge edge = graph.edge(i);
    const NodeType from = graph.node_type(edge.from);
    const NodeType to = graph.node_type(edge.to);
    Json record = IntervalAttrs(edge.t);
    record.Set("ldv:edge",
               Json::MakeString(std::string(EdgeTypeName(edge.type))));
    std::string key = StrFormat("_:r%d", ++counter);
    switch (edge.type) {
      case EdgeType::kReadFrom:
      case EdgeType::kHasRead:
      case EdgeType::kReadFromDb:
        // Activity `to` used entity `from`.
        record.Set("prov:activity", Json::MakeString(QName(edge.to, to)));
        record.Set("prov:entity", Json::MakeString(QName(edge.from, from)));
        used.Set(key, std::move(record));
        break;
      case EdgeType::kHasWritten:
      case EdgeType::kHasReturned:
        // Entity `to` was generated by activity `from`.
        record.Set("prov:entity", Json::MakeString(QName(edge.to, to)));
        record.Set("prov:activity", Json::MakeString(QName(edge.from, from)));
        generated.Set(key, std::move(record));
        break;
      case EdgeType::kExecuted:
      case EdgeType::kRun:
        // Activity `to` was started by activity `from`.
        record.Set("prov:activity", Json::MakeString(QName(edge.to, to)));
        record.Set("prov:starter", Json::MakeString(QName(edge.from, from)));
        started.Set(key, std::move(record));
        break;
    }
  }
  doc.Set("used", std::move(used));
  doc.Set("wasGeneratedBy", std::move(generated));
  doc.Set("wasStartedBy", std::move(started));

  Json derived = Json::MakeObject();
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    for (NodeId dep : graph.TupleDependenciesOf(id)) {
      Json record = Json::MakeObject();
      record.Set("prov:generatedEntity",
                 Json::MakeString(QName(id, graph.node_type(id))));
      record.Set("prov:usedEntity",
                 Json::MakeString(QName(dep, graph.node_type(dep))));
      derived.Set(StrFormat("_:d%d", ++counter), std::move(record));
    }
  }
  doc.Set("wasDerivedFrom", std::move(derived));

  return doc.Dump(true);
}

}  // namespace ldv::trace
