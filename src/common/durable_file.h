// Durable whole-file writes: the one write + fsync + rename discipline
// behind every artifact that must survive a crash (seqhidb images,
// checkpoints, Prometheus files, server job specs).

#ifndef SEQHIDE_COMMON_DURABLE_FILE_H_
#define SEQHIDE_COMMON_DURABLE_FILE_H_

#include <string>
#include <string_view>

#include "src/common/status.h"

namespace seqhide {

// The fault sites (src/common/fault_injection.h) a durable write checks,
// one per step; a null site is not checked.
struct DurableWriteSites {
  const char* open = nullptr;    // before the temp file is opened
  const char* write = nullptr;   // after it is written, synced and closed
  const char* rename = nullptr;  // before it is renamed over the path
};

// Writes `data` to `path + ".tmp"`, fsyncs and closes it, renames it over
// `path`, then fsyncs the parent directory. A crash or power loss leaves
// either the old destination or the whole new file, never a torn one.
// On failure the temp file is removed, `path` is untouched, and IOError
// names the step that failed.
Status WriteFileDurable(const std::string& path, std::string_view data,
                        const DurableWriteSites& sites = {});

// Makes the directory entry of `path` durable. Best-effort: some
// filesystems refuse to fsync a directory, and without it the worst case
// is the old entry reappearing after power loss, never a torn file.
void FsyncParentDirectory(const std::string& path);

}  // namespace seqhide

#endif  // SEQHIDE_COMMON_DURABLE_FILE_H_
