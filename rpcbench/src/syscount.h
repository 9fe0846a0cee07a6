// Socket syscall counters, fed by the interposing shim (shim.cpp) that
// the measured binary links. /proc/self/io does not count socket
// syscalls, so the benchmark counts them at the libc boundary: send and
// sendmsg as sends (with the bytes they wrote), recv as receives,
// epoll_wait and poll as polls. The repository's socket I/O uses only
// these; its read/write calls move eventfd wake-ups, which Orb::Stats()
// already counts.
#pragma once

#include <cstdint>

namespace rpcbench::syscount {

struct Counts {
  uint64_t send = 0;
  uint64_t recv = 0;
  uint64_t poll = 0;
  uint64_t bytes_sent = 0;
};

Counts Read();
// Makes `n` one-byte sendmsg calls, `n` one-byte recv calls and one
// poll on a private socketpair and reports whether the counters moved
// by exactly that much. Call it while no other thread does socket I/O.
bool CountsExactly(int n);

// For shim.cpp.
void CountSend(long bytes);
void CountRecv();
void CountPoll();

}  // namespace rpcbench::syscount
