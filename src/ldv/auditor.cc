#include "ldv/auditor.h"

#include <algorithm>
#include <cstring>

#include "ldv/auditing_db_client.h"
#include "obs/span.h"
#include "storage/persistence.h"
#include "trace/serialize.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/serde.h"
#include "util/strings.h"

namespace ldv {

namespace {

/// Deterministic placeholder used when no real server binary is supplied.
std::string PlaceholderServerBinary() {
  std::string blob;
  blob.reserve(1 << 21);
  uint64_t x = 0x1DB5EEDULL;
  while (blob.size() < (1 << 21)) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    blob.append(reinterpret_cast<const char*>(&x), sizeof(x));
  }
  return blob;
}

}  // namespace

Auditor::Auditor(storage::Database* db, const AuditOptions& options)
    : db_(db),
      options_(options),
      vfs_(options.sandbox_root),
      sim_os_(&vfs_, &clock_, this),
      engine_(db),
      statements_metric_(
          obs::MetricsRegistry::Global().counter("audit.statements")),
      tuples_metric_(
          obs::MetricsRegistry::Global().counter("audit.tuples_persisted")),
      backend_micros_(obs::MetricsRegistry::Global().latency_histogram(
          "audit.backend_micros")),
      bookkeeping_micros_(obs::MetricsRegistry::Global().latency_histogram(
          "audit.bookkeeping_micros")) {}

Auditor::~Auditor() = default;

os::ProcessContext& Auditor::root_process() { return *sim_os_.root(); }

Result<net::DbClient*> Auditor::OpenDbConnection(os::ProcessContext& proc) {
  // A fresh connection per process; the auditing layer assigns the unique
  // process id used to link DB activity to the OS trace (§VII-C).
  if (!options_.db_socket_path.empty()) {
    // Per-connection jitter streams: otherwise every connection would back
    // off in lockstep under correlated failures.
    net::RetryPolicy policy = options_.db_retry;
    policy.seed += static_cast<uint64_t>(proc.pid());
    backends_.push_back(
        net::RetryingDbClient::ForSocket(options_.db_socket_path, policy));
  } else {
    backends_.push_back(std::make_unique<net::LocalDbClient>(&engine_));
  }
  clients_.push_back(std::make_unique<AuditingDbClient>(backends_.back().get(),
                                                        this, proc.pid()));
  return clients_.back().get();
}

Result<AuditReport> Auditor::Run(const AppFn& app) {
  if (options_.package_dir.empty()) {
    return Status::InvalidArgument("AuditOptions.package_dir is required");
  }
  if (FileExists(JoinPath(options_.package_dir, std::string(kManifestFile)))) {
    return Status::AlreadyExists("package already exists at " +
                                 options_.package_dir);
  }
  LDV_RETURN_IF_ERROR(MakeDirs(options_.package_dir));

  if (options_.mode == PackageMode::kPtu ||
      options_.mode == PackageMode::kVmImage) {
    // PTU/VMI capture the server's data files in their start-of-run state
    // (the server is "started as the first step of the experiment", §IX-A).
    LDV_RETURN_IF_ERROR(storage::SaveDatabase(
        *db_, JoinPath(options_.package_dir, std::string(kFullDataDir))));
  }

  Status app_status;
  {
    obs::Span span("audit.run", "audit");
    if (span.recording()) {
      span.AddArg("mode", std::string(PackageModeName(options_.mode)));
    }
    app_status = app(*this);
  }
  if (!app_status.ok()) {
    return app_status.WithContext("audited application failed");
  }
  if (!deferred_error_.ok()) return deferred_error_;

  {
    obs::Span span("audit.finalize", "audit");
    LDV_RETURN_IF_ERROR(FinalizePackage());
  }
  report_.package_dir = options_.package_dir;
  report_.trace_nodes = recorder_.graph().num_nodes();
  report_.trace_edges = recorder_.graph().num_edges();
  return report_;
}

void Auditor::OnOsEvent(const os::OsEvent& event) {
  Status traced = recorder_.OnOsEvent(event);
  if (!traced.ok() && deferred_error_.ok()) deferred_error_ = traced;
  using Kind = os::OsEvent::Kind;
  switch (event.kind) {
    case Kind::kProcessStart:
      ++report_.processes;
      break;
    case Kind::kProcessExit:
      break;
    case Kind::kFileRead:
      // CDE/PTU-style copy-on-first-read: input files enter the package in
      // the state the application observed; files the application created
      // itself are regenerated at replay and are not packaged (§II).
      if (!copied_files_.contains(event.path) &&
          !app_written_files_.contains(event.path)) {
        copied_files_.insert(event.path);
        Result<std::string> host = vfs_.HostPath(event.path);
        if (host.ok()) {
          Status copy = CopyFile(
              *host, JoinPath(options_.package_dir,
                              std::string(kFilesDir) + event.path));
          if (!copy.ok() && deferred_error_.ok()) deferred_error_ = copy;
          packaged_files_.push_back(event.path);
          ++report_.files_copied;
        }
      }
      break;
    case Kind::kFileWrite:
      app_written_files_.insert(event.path);
      break;
  }
}

Status Auditor::EnsureTableRegistered(const std::string& table_name) {
  std::string key = ToLower(table_name);
  if (registered_tables_.contains(key)) return Status::Ok();
  storage::Table* table = db_->FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("audited statement references unknown table: " +
                            table_name);
  }
  table->set_provenance_tracking(true);
  std::string create_sql = "CREATE TABLE " + table->name() + " (";
  const storage::Schema& schema = table->schema();
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) create_sql += ", ";
    create_sql += schema.column(i).name;
    create_sql += " ";
    create_sql += storage::ValueTypeName(schema.column(i).type);
  }
  create_sql += ");";
  table_entries_.push_back({table->name(), std::move(create_sql), 0});
  registered_tables_.insert(std::move(key));
  return Status::Ok();
}

Result<std::ofstream*> Auditor::StreamFor(const std::string& relative_path) {
  auto it = streams_.find(relative_path);
  if (it != streams_.end()) return it->second.get();
  std::string path = JoinPath(options_.package_dir, relative_path);
  // Create parent directories, then keep the stream open for the run.
  LDV_RETURN_IF_ERROR(WriteStringToFile(path, ""));
  auto stream = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::app);
  if (!*stream) return Status::IOError("cannot open package file: " + path);
  std::ofstream* raw = stream.get();
  streams_.emplace(relative_path, std::move(stream));
  return raw;
}

Status Auditor::PersistProvTuple(const exec::ProvTupleRecord& tuple) {
  if (!persisted_vids_.insert(tuple.vid).second) return Status::Ok();
  auto file = tuple_files_.find(tuple.table);
  if (file == tuple_files_.end()) {
    LDV_ASSIGN_OR_RETURN(
        std::ofstream * out,
        StreamFor(std::string(kTupleDataDir) + "/" + tuple.table + ".csv"));
    file = tuple_files_.emplace(tuple.table, TupleFile{out, 0}).first;
  }
  csv_fields_.resize(tuple.values.size() + 2);
  csv_fields_[0] = std::to_string(tuple.vid.rowid);
  csv_fields_[1] = std::to_string(tuple.vid.version);
  for (size_t i = 0; i < tuple.values.size(); ++i) {
    csv_fields_[i + 2] = tuple.values[i].ToText();
  }
  CsvWriter row;
  row.AppendRow(csv_fields_);
  file->second.out->write(row.data().data(),
                          static_cast<std::streamsize>(row.data().size()));
  ++file->second.rows;
  ++report_.tuples_persisted;
  tuples_metric_->Add(1);
  return Status::Ok();
}

Status Auditor::OnDbStatement(const DbStatementRecord& record) {
  ++report_.statements_audited;
  statements_metric_->Add(1);
  const bool server_included = options_.mode == PackageMode::kServerIncluded;

  // --- Server-excluded: stream the request/response pair to disk. ---
  if (options_.mode == PackageMode::kServerExcluded) {
    BufferWriter frame;
    frame.PutString(record.encoded_request);
    frame.PutString(record.encoded_response);
    LDV_ASSIGN_OR_RETURN(std::ofstream * out,
                         StreamFor(std::string(kReplayLogFile)));
    out->write(frame.data().data(),
               static_cast<std::streamsize>(frame.data().size()));
    ++statements_recorded_;
  }

  if (server_included) {
    // Every tuple version in the statement's provenance that the
    // application did not itself create is packaged (§VII-D).
    for (const exec::ProvTupleRecord& tuple : record.result->prov_tuples) {
      if (created_vids_.contains(tuple.vid)) continue;
      LDV_RETURN_IF_ERROR(PersistProvTuple(tuple));
    }
    // Versions the statement created are regenerated at replay.
    for (const exec::DmlRecord& dml : record.result->dml) {
      if (dml.kind != exec::DmlRecord::Kind::kDeleted) {
        created_vids_.insert(dml.vid);
      }
    }
  }

  LDV_RETURN_IF_ERROR(recorder_.OnStatement(
      {.process_id = record.process_id,
       .query_id = record.query_id,
       .sql = record.sql,
       .kind = record.kind,
       .t = record.t,
       .provenance = server_included ? record.result : nullptr}));

  // One flush per statement for every package file it appended to.
  for (auto& [path, stream] : streams_) {
    stream->flush();
    if (!*stream) return Status::IOError("short write to package file " + path);
  }
  return Status::Ok();
}

Status Auditor::FinalizePackage() {
  if (finalized_) return Status::Internal("package already finalized");
  finalized_ = true;

  PackageManifest manifest;
  manifest.mode = options_.mode;
  manifest.processes = report_.processes;
  manifest.files = packaged_files_;
  std::sort(manifest.files.begin(), manifest.files.end());
  manifest.statements_recorded = statements_recorded_;

  // DB server binary (all modes that ship a server).
  if (options_.mode == PackageMode::kServerIncluded ||
      options_.mode == PackageMode::kPtu ||
      options_.mode == PackageMode::kVmImage) {
    std::string target =
        JoinPath(options_.package_dir, std::string(kServerBinaryFile));
    if (!options_.server_binary_path.empty() &&
        FileExists(options_.server_binary_path)) {
      LDV_RETURN_IF_ERROR(CopyFile(options_.server_binary_path, target));
    } else {
      LDV_RETURN_IF_ERROR(WriteStringToFile(target, PlaceholderServerBinary()));
    }
    manifest.has_server_binary = true;
  }

  if (options_.mode == PackageMode::kServerIncluded) {
    std::string schema_sql;
    for (PackageManifest::TableEntry& entry : table_entries_) {
      entry.rows = 0;
      auto it = tuple_files_.find(entry.name);
      if (it != tuple_files_.end()) entry.rows = it->second.rows;
      schema_sql += entry.create_sql;
      schema_sql += "\n";
    }
    LDV_RETURN_IF_ERROR(WriteStringToFile(
        JoinPath(options_.package_dir, std::string(kSchemaFile)), schema_sql));
    manifest.tables = table_entries_;
  }

  manifest.has_full_data = options_.mode == PackageMode::kPtu ||
                           options_.mode == PackageMode::kVmImage;

  if (options_.mode == PackageMode::kVmImage) {
    // Synthetic base OS image (DESIGN.md substitution #5).
    std::string chunk(1 << 20, '\0');
    uint64_t x = 0xBA5E1Du;
    for (size_t i = 0; i < chunk.size(); i += 8) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::memcpy(chunk.data() + i, &x, sizeof(x));
    }
    std::string image_path =
        JoinPath(options_.package_dir, std::string(kVmBaseImageFile));
    LDV_RETURN_IF_ERROR(WriteStringToFile(image_path, ""));
    int64_t remaining = options_.vm_base_image_bytes;
    while (remaining > 0) {
      size_t n = std::min<int64_t>(remaining,
                                   static_cast<int64_t>(chunk.size()));
      LDV_RETURN_IF_ERROR(AppendStringToFile(
          image_path, std::string_view(chunk.data(), n)));
      remaining -= static_cast<int64_t>(n);
    }
    manifest.has_vm_image = true;
  }

  // The serialized execution trace travels with every package (§VII-D).
  LDV_RETURN_IF_ERROR(
      WriteStringToFile(JoinPath(options_.package_dir, std::string(kTraceFile)),
                        trace::SerializeTrace(recorder_.graph())));
  manifest.has_trace = true;

  return manifest.Save(options_.package_dir);
}

}  // namespace ldv
