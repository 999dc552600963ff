#include "storage/table.h"

#include <algorithm>

#include "util/strings.h"

namespace ldv::storage {

std::string TupleVid::ToString() const {
  return StrFormat("t%d.%lld.v%lld", table_id, static_cast<long long>(rowid),
                   static_cast<long long>(version));
}

Table::Table(int32_t id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CheckRow(const Tuple& values, const char* what) const {
  if (static_cast<int>(values.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("%s: %s arity %zu != schema arity %d", name_.c_str(), what,
                  values.size(), schema_.num_columns()));
  }
  for (size_t c = 0; c < values.size(); ++c) {
    const Column& column = schema_.column(static_cast<int>(c));
    if (!values[c].is_null() && values[c].type() != column.type) {
      return Status::InvalidArgument(StrFormat(
          "%s: %s of a %s value into %s column %s", name_.c_str(), what,
          std::string(ValueTypeName(values[c].type())).c_str(),
          std::string(ValueTypeName(column.type)).c_str(),
          column.name.c_str()));
    }
  }
  return Status::Ok();
}

Result<RowId> Table::Insert(Tuple values, int64_t stmt_seq) {
  LDV_RETURN_IF_ERROR(CheckRow(values, "INSERT"));
  RowVersion row;
  row.rowid = next_rowid_++;
  row.version = stmt_seq;
  row.values = std::move(values);
  index_[row.rowid] = rows_.size();
  RowId rowid = row.rowid;
  rows_.push_back(std::move(row));
  IndexInsert(rows_.back());
  ++live_count_;
  last_mutation_seq_ = std::max(last_mutation_seq_, stmt_seq);
  return rowid;
}

void Table::ArchivePreImage(const RowVersion& row, int64_t stmt_seq) {
  if (!track_versions_ && !mvcc_retention_) return;
  archive_.push_back(row);
  archive_.back().superseded = stmt_seq;
}

Status Table::Update(RowId rowid, Tuple values, int64_t stmt_seq) {
  RowVersion* row = FindMutable(rowid);
  if (row == nullptr) {
    return Status::NotFound(name_ + ": no row " + std::to_string(rowid));
  }
  LDV_RETURN_IF_ERROR(CheckRow(values, "UPDATE"));
  ArchivePreImage(*row, stmt_seq);
  IndexRemove(*row);
  row->values = std::move(values);
  row->version = stmt_seq;
  row->used_by_query = 0;
  row->used_by_process = 0;
  IndexInsert(*row);
  last_mutation_seq_ = std::max(last_mutation_seq_, stmt_seq);
  return Status::Ok();
}

Status Table::Delete(RowId rowid, int64_t stmt_seq) {
  RowVersion* row = FindMutable(rowid);
  if (row == nullptr) {
    return Status::NotFound(name_ + ": no row " + std::to_string(rowid));
  }
  ArchivePreImage(*row, stmt_seq);
  IndexRemove(*row);
  row->deleted = true;
  row->version = stmt_seq;
  --live_count_;
  last_mutation_seq_ = std::max(last_mutation_seq_, stmt_seq);
  return Status::Ok();
}

const RowVersion* Table::Find(RowId rowid) const {
  auto it = index_.find(rowid);
  if (it == index_.end()) return nullptr;
  const RowVersion& row = rows_[it->second];
  return row.deleted ? nullptr : &row;
}

RowVersion* Table::FindMutable(RowId rowid) {
  auto it = index_.find(rowid);
  if (it == index_.end()) return nullptr;
  RowVersion& row = rows_[it->second];
  return row.deleted ? nullptr : &row;
}

Status Table::AddColumn(Column column, const Value& fill) {
  LDV_RETURN_IF_ERROR(schema_.AddColumn(std::move(column)));
  for (RowVersion& row : rows_) row.values.push_back(fill);
  for (RowVersion& row : archive_) row.values.push_back(fill);
  return Status::Ok();
}

const RowVersion* Table::VisibleVersion(const RowVersion& slot,
                                        int64_t epoch) const {
  if (slot.version <= epoch) return slot.deleted ? nullptr : &slot;
  // The live version postdates the snapshot: the visible version, if any,
  // is the newest archived one created at or before the epoch. Entries for
  // one rowid appear in version order, so the first hit scanning backwards
  // is the newest.
  for (auto rit = archive_.rbegin(); rit != archive_.rend(); ++rit) {
    if (rit->rowid != slot.rowid) continue;
    if (rit->version <= epoch) return rit->deleted ? nullptr : &*rit;
  }
  return nullptr;
}

size_t Table::GcArchive(int64_t oldest_epoch) {
  if (track_versions_) return 0;  // reenactment needs the full archive
  size_t drop = 0;
  while (drop < archive_.size()) {
    const RowVersion& entry = archive_[drop];
    // `superseded` is monotone along the archive; the first entry some live
    // snapshot can still reach ends the droppable prefix.
    if (entry.superseded == 0 || entry.superseded > oldest_epoch) break;
    ++drop;
  }
  if (drop > 0) {
    archive_.erase(archive_.begin(),
                   archive_.begin() + static_cast<ptrdiff_t>(drop));
  }
  return drop;
}

const RowVersion* Table::FindVersion(RowId rowid, int64_t version) const {
  auto it = index_.find(rowid);
  if (it != index_.end()) {
    const RowVersion& row = rows_[it->second];
    if (row.version == version) return &row;
  }
  // Archive is scanned backwards: recent versions are the common lookups.
  for (auto rit = archive_.rbegin(); rit != archive_.rend(); ++rit) {
    if (rit->rowid == rowid && rit->version == version) return &*rit;
  }
  return nullptr;
}

Status Table::RestoreRow(RowVersion row) {
  LDV_RETURN_IF_ERROR(CheckRow(row.values, "restore"));
  if (row.rowid <= 0) {
    return Status::InvalidArgument(name_ + ": restore needs a valid rowid");
  }
  if (index_.contains(row.rowid)) {
    return Status::AlreadyExists(name_ + ": duplicate rowid " +
                                 std::to_string(row.rowid));
  }
  next_rowid_ = std::max(next_rowid_, row.rowid + 1);
  last_mutation_seq_ = std::max(last_mutation_seq_, row.version);
  index_[row.rowid] = rows_.size();
  if (!row.deleted) ++live_count_;
  rows_.push_back(std::move(row));
  if (!rows_.back().deleted) IndexInsert(rows_.back());
  return Status::Ok();
}

Status Table::CreateIndex(int column_index) {
  if (column_index < 0 || column_index >= schema_.num_columns()) {
    return Status::InvalidArgument(name_ + ": no such column to index");
  }
  if (HasIndexOn(column_index)) return Status::Ok();
  HashIndex hash_index;
  hash_index.column = column_index;
  for (const RowVersion& row : rows_) {
    if (row.deleted) continue;
    hash_index.map.emplace(
        row.values[static_cast<size_t>(column_index)].Hash(), row.rowid);
  }
  indexes_.push_back(std::move(hash_index));
  return Status::Ok();
}

bool Table::HasIndexOn(int column_index) const {
  for (const HashIndex& idx : indexes_) {
    if (idx.column == column_index) return true;
  }
  return false;
}

std::vector<RowId> Table::IndexLookup(int column_index,
                                      const Value& v) const {
  std::vector<RowId> out;
  for (const HashIndex& idx : indexes_) {
    if (idx.column != column_index) continue;
    auto [begin, end] = idx.map.equal_range(v.Hash());
    for (auto it = begin; it != end; ++it) {
      const RowVersion* row = Find(it->second);
      // Verify against hash collisions; equality follows SQL '=' (numeric
      // coercion).
      if (row == nullptr) continue;
      Result<int> cmp =
          row->values[static_cast<size_t>(column_index)].Compare(v);
      if (cmp.ok() && *cmp == 0 &&
          !row->values[static_cast<size_t>(column_index)].is_null() &&
          !v.is_null()) {
        out.push_back(row->rowid);
      }
    }
    break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Table::IndexInsert(const RowVersion& row) {
  for (HashIndex& idx : indexes_) {
    idx.map.emplace(row.values[static_cast<size_t>(idx.column)].Hash(),
                    row.rowid);
  }
}

void Table::IndexRemove(const RowVersion& row) {
  for (HashIndex& idx : indexes_) {
    auto [begin, end] =
        idx.map.equal_range(row.values[static_cast<size_t>(idx.column)].Hash());
    for (auto it = begin; it != end; ++it) {
      if (it->second == row.rowid) {
        idx.map.erase(it);
        break;
      }
    }
  }
}

TableTxnMark Table::BeginTxnCapture() {
  TableTxnMark mark;
  mark.rows_size = rows_.size();
  mark.archive_size = archive_.size();
  mark.next_rowid = next_rowid_;
  mark.live_count = live_count_;
  mark.was_tracking = track_versions_;
  track_versions_ = true;
  return mark;
}

void Table::CommitTxnCapture(const TableTxnMark& mark) {
  track_versions_ = mark.was_tracking;
  // Pre-images archived only for rollback's sake would not exist had the
  // statements run outside a transaction; drop them for identical state.
  // Under MVCC retention they stay: a concurrent snapshot older than the
  // commit may still need them, and GcArchive reclaims them once no live
  // snapshot can (DESIGN.md §12).
  if (!mark.was_tracking && !mvcc_retention_ &&
      archive_.size() > mark.archive_size) {
    archive_.resize(mark.archive_size);
  }
}

Status Table::RollbackToMark(const TableTxnMark& mark) {
  if (archive_.size() < mark.archive_size || rows_.size() < mark.rows_size) {
    return Status::Internal(name_ + ": transaction mark is ahead of state");
  }
  // Undo UPDATE/DELETE newest-first: every pre-image archived during the
  // transaction goes back into place. Restoring a tombstone revives the row.
  for (size_t i = archive_.size(); i > mark.archive_size; --i) {
    RowVersion& prior = archive_[i - 1];
    auto it = index_.find(prior.rowid);
    if (it == index_.end()) {
      return Status::Internal(name_ + ": archived rowid " +
                              std::to_string(prior.rowid) + " has no slot");
    }
    RowVersion& current = rows_[it->second];
    if (current.deleted) {
      ++live_count_;
    } else {
      IndexRemove(current);
    }
    current = prior;
    current.superseded = 0;  // live again
    IndexInsert(current);
  }
  archive_.resize(mark.archive_size);
  // Undo INSERTs: rows only ever append, so everything past the mark was
  // created inside the transaction.
  while (rows_.size() > mark.rows_size) {
    RowVersion& row = rows_.back();
    if (!row.deleted) {
      IndexRemove(row);
      --live_count_;
    }
    index_.erase(row.rowid);
    rows_.pop_back();
  }
  next_rowid_ = mark.next_rowid;
  track_versions_ = mark.was_tracking;
  if (live_count_ != mark.live_count) {
    return Status::Internal(name_ + ": rollback live-row count drifted");
  }
  return Status::Ok();
}

int64_t Table::ApproxBytes() const {
  int64_t total = 0;
  for (const RowVersion& row : rows_) {
    if (row.deleted) continue;
    total += 24;  // metadata
    for (const Value& v : row.values) {
      total += 16;
      if (v.type() == ValueType::kString) {
        total += static_cast<int64_t>(v.AsString().size());
      }
    }
  }
  return total;
}

}  // namespace ldv::storage
