#ifndef LDV_UTIL_FSUTIL_H_
#define LDV_UTIL_FSUTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ldv {

/// Filesystem helpers used by packaging and the virtual file system.
/// All paths are host paths; callers are responsible for sandboxing.

/// Reads the whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (creates/truncates) the file with `data`, creating parent dirs.
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Crash-safe write: the data goes to a unique temp file in the target's
/// directory, is flushed with fsync(2), and is renamed over `path` (with a
/// best-effort directory fsync). A crash or injected fault at any step
/// leaves either the old file or no file — never a torn one. Fault points:
/// `fs.write` before the write, `fs.rename` before the commit rename.
Status AtomicWriteFile(const std::string& path, std::string_view data);

/// Appends `data`, creating the file and parent dirs if needed.
Status AppendStringToFile(const std::string& path, std::string_view data);

/// Recursively creates a directory (no error if it exists).
Status MakeDirs(const std::string& path);

/// Recursively removes a file or directory tree (no error if absent).
Status RemoveAll(const std::string& path);

/// Copies a regular file, creating parent directories of `to`.
Status CopyFile(const std::string& from, const std::string& to);

/// Copies a directory tree.
Status CopyTree(const std::string& from, const std::string& to);

bool FileExists(const std::string& path);
bool DirExists(const std::string& path);

/// Size of a regular file in bytes.
Result<int64_t> FileSize(const std::string& path);

/// Total bytes of all regular files under `path` (0 if absent).
int64_t TreeSize(const std::string& path);

/// Lists regular files under `path` recursively, as paths relative to
/// `path`, sorted.
Result<std::vector<std::string>> ListTree(const std::string& path);

/// Joins path components with '/'.
std::string JoinPath(const std::string& a, const std::string& b);

/// Creates a unique temporary directory under the system temp dir with the
/// given prefix; returns its path.
Result<std::string> MakeTempDir(const std::string& prefix);

/// Directory containing the running executable ("" if unknown).
std::string SelfExeDir();

/// Locates the built `ldv_server` binary relative to the running executable
/// (tools/ldv_server in the build tree); returns "" when not found.
std::string FindLdvServerBinary();

/// The DB server binary a package ships (server-included, PTU and VM-image
/// modes, via AuditOptions::server_binary_path): `ldv_server.packaged`, the
/// copy the build strips of symbols and debug info, as a release package
/// would carry it. Falls back to FindLdvServerBinary() when the build had no
/// strip tool; "" when neither exists, so the auditor writes its placeholder.
std::string FindPackagedServerBinary();

}  // namespace ldv

#endif  // LDV_UTIL_FSUTIL_H_
