#ifndef LDV_LDV_AUDITING_DB_CLIENT_H_
#define LDV_LDV_AUDITING_DB_CLIENT_H_

#include <string>

#include "ldv/app.h"
#include "net/db_client.h"

namespace ldv {

class Auditor;

/// The instrumented DB client library (the prototype's patched libpq,
/// §VII-C): tags every statement with the owning process id and a fresh
/// query id, rewrites statements to carry the Perm PROVENANCE keyword when
/// the package is server-included, reports each execution to the Auditor,
/// and hands the application a provenance-free result — applications cannot
/// observe that they are being audited.
class AuditingDbClient final : public net::DbClient {
 public:
  AuditingDbClient(net::DbClient* backend, Auditor* auditor,
                   int64_t process_id)
      : backend_(backend), auditor_(auditor), process_id_(process_id) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override;

 private:
  net::DbClient* backend_;
  Auditor* auditor_;
  int64_t process_id_;
};

}  // namespace ldv

#endif  // LDV_LDV_AUDITING_DB_CLIENT_H_
