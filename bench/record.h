#ifndef LDV_BENCH_RECORD_H_
#define LDV_BENCH_RECORD_H_

// The one record schema of the smoke benches, read by
// tools/bench_smoke_check.py:
//   {"bench": "<name>", "hardware_threads": H, "values": {"<key>": x, ...}}

#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "common/json.h"
#include "util/fsutil.h"

namespace ldv::bench {

/// Writes the record to `path`; returns the process exit code (0 or 1).
inline int WriteRecord(const std::string& path, const std::string& bench,
                       const std::map<std::string, double>& values) {
  Json doc = Json::MakeObject();
  doc.Set("bench", Json::MakeString(bench));
  const unsigned hw = std::thread::hardware_concurrency();
  doc.Set("hardware_threads", Json::MakeInt(hw == 0 ? 1 : hw));
  Json fields = Json::MakeObject();
  for (const auto& [key, value] : values) {
    fields.Set(key, Json::MakeDouble(value));
  }
  doc.Set("values", std::move(fields));
  Status written = WriteStringToFile(path, doc.Dump(true) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "bench_%s: %s\n", bench.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("bench_%s: wrote %s\n", bench.c_str(), path.c_str());
  return 0;
}

}  // namespace ldv::bench

#endif  // LDV_BENCH_RECORD_H_
