#include "syscount.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>

namespace rpcbench::syscount {

namespace {
// One cache line each, relaxed: a count costs one uncontended atomic
// add on the pinned CPUs.
struct alignas(64) Counter {
  std::atomic<uint64_t> value{0};
};
Counter g_send, g_recv, g_poll, g_bytes_sent;

uint64_t Get(const Counter& c) {
  return c.value.load(std::memory_order_relaxed);
}
void Bump(Counter& c, uint64_t n) {
  c.value.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

Counts Read() {
  return Counts{Get(g_send), Get(g_recv), Get(g_poll), Get(g_bytes_sent)};
}


bool CountsExactly(int n) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  const Counts before = Read();
  bool io_ok = true;
  char byte = 'x';
  // One byte out and straight back in each round: the socket buffer
  // never fills, so no call blocks or comes up short.
  for (int i = 0; i < n; ++i) {
    iovec iov{&byte, 1};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    io_ok = io_ok && sendmsg(fds[0], &msg, 0) == 1;
    if (i == 0) {
      pollfd pfd{fds[1], POLLIN, 0};
      io_ok = io_ok && poll(&pfd, 1, 0) == 1;
    }
    io_ok = io_ok && recv(fds[1], &byte, 1, 0) == 1;
  }
  const Counts after = Read();
  close(fds[0]);
  close(fds[1]);
  const auto un = static_cast<uint64_t>(n);
  return io_ok && after.send - before.send == un &&
         after.bytes_sent - before.bytes_sent == un &&
         after.recv - before.recv == un &&
         after.poll - before.poll == (n > 0 ? 1u : 0u);
}

void CountSend(long bytes) {
  Bump(g_send, 1);
  if (bytes > 0) Bump(g_bytes_sent, static_cast<uint64_t>(bytes));
}
void CountRecv() { Bump(g_recv, 1); }
void CountPoll() { Bump(g_poll, 1); }

}  // namespace rpcbench::syscount
