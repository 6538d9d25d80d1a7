#include "src/common/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/fault_injection.h"

namespace seqhide {
namespace {

bool Fires(const char* site) {
  return site != nullptr && SEQHIDE_FAULT_HIT(site);
}

}  // namespace

Status WriteFileDurable(const std::string& path, std::string_view data,
                        const DurableWriteSites& sites) {
  const std::string tmp = path + ".tmp";
  if (Fires(sites.open)) {
    return Status::IOError("injected fault: " + std::string(sites.open) +
                           " (" + tmp + ")");
  }
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + tmp + ": " + std::strerror(errno));
  }
  // Without the fsync a journaling filesystem may persist the rename
  // ahead of the temp file's data blocks, leaving an empty destination.
  std::string failed;
  for (size_t done = 0; failed.empty() && done < data.size();) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n >= 0) {
      done += static_cast<size_t>(n);
    } else if (errno != EINTR) {
      failed = "write " + tmp + ": " + std::strerror(errno);
    }
  }
  if (failed.empty() && ::fsync(fd) != 0) {
    failed = "fsync " + tmp + ": " + std::strerror(errno);
  }
  if (::close(fd) != 0 && failed.empty()) failed = "close " + tmp + " failed";
  for (const char* site : {sites.write, sites.rename}) {
    if (failed.empty() && Fires(site)) {
      failed = "injected fault: " + std::string(site) + " (" + path + ")";
    }
  }
  if (failed.empty() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    failed = "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
  }
  if (!failed.empty()) {
    std::remove(tmp.c_str());
    return Status::IOError(failed);
  }
  FsyncParentDirectory(path);
  return Status::OK();
}

void FsyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return;
  (void)::fsync(dir_fd);
  ::close(dir_fd);
}

}  // namespace seqhide
