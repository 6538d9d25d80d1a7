// Stream-socket transport for the serving protocol: a listener
// (Unix-domain or TCP loopback) and a buffered line channel.
//
// Everything here returns Status — a network failure is an ordinary,
// expected event that costs at most one connection, never the server.
// The injectable fault sites (net.accept, net.read.short,
// net.write.short) simulate the failures that are hard to produce on
// demand: an accept() hiccup, a peer vanishing mid-line in either
// direction. docs/robustness.md documents the recovery contract of each.

#ifndef SEQHIDE_SERVE_NET_H_
#define SEQHIDE_SERVE_NET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"

namespace seqhide {
namespace serve {

// A listening socket. Close() unblocks a concurrent Accept() with an
// error, which is how the server stops its accept loop. Close() only
// shuts the socket down; the fd stays open until Release() (or
// destruction), which the owner calls once no thread can be inside
// Accept(). So an accept loop racing with Close() never hands accept() a
// closed fd whose number was already reused.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Release(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds a Unix-domain socket at `path` (unlinking a stale file first)
  // or a TCP socket on 127.0.0.1:`port` (port 0 = kernel-assigned; see
  // port() for the result).
  Status ListenUnix(const std::string& path);
  Status ListenTcp(uint16_t port);

  // Blocks for one connection; the returned fd is owned by the caller.
  // IOError both for real accept failures and for the injected net.accept
  // fault (the connection, if any, is closed); the accept loop logs and
  // continues. FailedPrecondition once Close() was called.
  Result<int> Accept();

  // Wakes a blocked Accept() and fails later ones. Safe to call while
  // another thread is in Accept().
  void Close();
  // Close(), then closes the fd and unlinks the socket file. Call only
  // after the thread that calls Accept() has been joined.
  void Release();
  bool listening() const { return fd_.load(std::memory_order_acquire) >= 0; }
  uint16_t port() const { return port_; }

 private:
  std::atomic<int> fd_{-1};
  std::atomic<bool> closed_{false};
  uint16_t port_ = 0;
  std::string unix_path_;  // unlinked on Release()
};

// Buffered reader/writer of newline-terminated lines over one socket.
// One reader thread and any number of writer threads (callers serialize
// writers with their own mutex); Shutdown() unblocks a blocked ReadLine
// from another thread.
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}
  ~LineChannel();
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  // Reads one line (without the '\n') into *line. Returns true on a
  // line, false on clean EOF at a line boundary. IOError on socket
  // failure, EOF mid-line, an over-long line (kMaxLineBytes), or the
  // injected net.read.short fault.
  Result<bool> ReadLine(std::string* line);

  // Writes `line` plus '\n', retrying short writes. IOError on failure
  // or the injected net.write.short fault.
  Status WriteLine(const std::string& line);

  // Half-closes both directions so a blocked ReadLine returns; the fd
  // stays valid until destruction.
  void Shutdown();

  int fd() const { return fd_; }

  // A request or response line longer than this is a protocol violation,
  // not data (guards the read buffer against a stuck peer).
  static constexpr size_t kMaxLineBytes = size_t{1} << 22;

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read but not yet returned
};

}  // namespace serve
}  // namespace seqhide

#endif  // SEQHIDE_SERVE_NET_H_
