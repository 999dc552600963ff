#include "util/fsutil.h"

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"

namespace ldv {

namespace fs = std::filesystem;

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string data;
  in.seekg(0, std::ios::end);
  std::streampos size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat: " + path);
  data.resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (!in) return Status::IOError("short read: " + path);
  return data;
}

namespace {

Status EnsureParentDirs(const std::string& path) {
  fs::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
    if (ec) {
      return Status::IOError("mkdir " + p.parent_path().string() + ": " +
                             ec.message());
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteStringToFile(const std::string& path, std::string_view data) {
  LDV_FAULT_POINT("fs.write");
  LDV_RETURN_IF_ERROR(EnsureParentDirs(path));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IOError("short write: " + path);
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  LDV_FAULT_POINT("fs.write");
  LDV_RETURN_IF_ERROR(EnsureParentDirs(path));
  // Unique temp name in the same directory so the final rename cannot cross
  // filesystems; pid + counter keeps concurrent writers apart.
  static std::atomic<uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(counter.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + tmp + ": " + std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    Status status = Status::IOError(what + " " + tmp + ": " +
                                    std::strerror(errno));
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  };
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write");
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync");
  if (::close(fd) != 0) {
    fd = -1;
    return fail("close");
  }
  fd = -1;
  Status injected = CheckFault("fs.rename");
  if (!injected.ok()) {
    ::unlink(tmp.c_str());
    return injected;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) return fail("rename to");
  // Durability of the rename itself: fsync the containing directory
  // (best-effort — some filesystems refuse O_RDONLY directory fds).
  fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    int dirfd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
      ::fsync(dirfd);
      ::close(dirfd);
    }
  }
  return Status::Ok();
}

Status AppendStringToFile(const std::string& path, std::string_view data) {
  LDV_RETURN_IF_ERROR(EnsureParentDirs(path));
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IOError("cannot open for append: " + path);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) return Status::IOError("short append: " + path);
  return Status::Ok();
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir " + path + ": " + ec.message());
  return Status::Ok();
}

Status RemoveAll(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("rm -r " + path + ": " + ec.message());
  return Status::Ok();
}

Status CopyFile(const std::string& from, const std::string& to) {
  LDV_RETURN_IF_ERROR(EnsureParentDirs(to));
  std::error_code ec;
  fs::copy_file(from, to, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    return Status::IOError("copy " + from + " -> " + to + ": " + ec.message());
  }
  return Status::Ok();
}

Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::create_directories(to, ec);
  if (ec) return Status::IOError("mkdir " + to + ": " + ec.message());
  fs::copy(from, to,
           fs::copy_options::recursive | fs::copy_options::overwrite_existing,
           ec);
  if (ec) {
    return Status::IOError("copy -r " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::is_regular_file(path, ec);
}

bool DirExists(const std::string& path) {
  std::error_code ec;
  return fs::is_directory(path, ec);
}

Result<int64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  if (ec) return Status::IOError("stat " + path + ": " + ec.message());
  return static_cast<int64_t>(size);
}

int64_t TreeSize(const std::string& path) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return 0;
  if (fs::is_regular_file(path, ec)) {
    uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : static_cast<int64_t>(size);
  }
  int64_t total = 0;
  fs::recursive_directory_iterator it(path, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      uintmax_t size = it->file_size(ec);
      if (!ec) total += static_cast<int64_t>(size);
    }
  }
  return total;
}

Result<std::vector<std::string>> ListTree(const std::string& path) {
  std::vector<std::string> out;
  std::error_code ec;
  if (!fs::exists(path, ec)) return out;
  fs::recursive_directory_iterator it(path, ec), end;
  if (ec) return Status::IOError("list " + path + ": " + ec.message());
  for (; it != end; it.increment(ec)) {
    if (ec) return Status::IOError("list " + path + ": " + ec.message());
    if (it->is_regular_file(ec)) {
      out.push_back(fs::relative(it->path(), path, ec).string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (a.back() == '/') return a + b;
  return a + "/" + b;
}

std::string SelfExeDir() {
  std::error_code ec;
  fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  return exe.parent_path().string();
}

std::string FindLdvServerBinary() {
  std::string dir = SelfExeDir();
  while (!dir.empty() && dir != "/") {
    std::string candidate = dir + "/tools/ldv_server";
    if (FileExists(candidate)) return candidate;
    candidate = dir + "/ldv_server";
    if (FileExists(candidate)) return candidate;
    fs::path parent = fs::path(dir).parent_path();
    if (parent.string() == dir) break;
    dir = parent.string();
  }
  return "";
}

std::string FindPackagedServerBinary() {
  const std::string server = FindLdvServerBinary();
  if (server.empty()) return server;
  const std::string packaged = server + ".packaged";
  return FileExists(packaged) ? packaged : server;
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  std::string tmpl = (fs::temp_directory_path() / (prefix + "XXXXXX")).string();
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* dir = ::mkdtemp(buf.data());
  if (dir == nullptr) {
    return Status::IOError(std::string("mkdtemp: ") + std::strerror(errno));
  }
  return std::string(dir);
}

}  // namespace ldv
