// Interposes the socket syscall wrappers the orb's network layer calls.
// The heidi libraries link statically into this executable, so their
// calls bind to these definitions; each one counts, then forwards to
// the libc function found with dlsym(RTLD_NEXT).
#include <dlfcn.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <cstdlib>

#include "syscount.h"

namespace {

template <typename Fn>
Fn Next(const char* name) {
  void* fn = dlsym(RTLD_NEXT, name);
  if (fn == nullptr) std::abort();  // no libc underneath: nothing can work
  return reinterpret_cast<Fn>(fn);
}

}  // namespace

namespace sc = rpcbench::syscount;

extern "C" {

ssize_t send(int fd, const void* buf, size_t n, int flags) {
  static const auto real = Next<ssize_t (*)(int, const void*, size_t, int)>("send");
  ssize_t r = real(fd, buf, n, flags);
  sc::CountSend(r);
  return r;
}

ssize_t sendmsg(int fd, const struct msghdr* msg, int flags) {
  static const auto real =
      Next<ssize_t (*)(int, const struct msghdr*, int)>("sendmsg");
  ssize_t r = real(fd, msg, flags);
  sc::CountSend(r);
  return r;
}

ssize_t recv(int fd, void* buf, size_t n, int flags) {
  static const auto real = Next<ssize_t (*)(int, void*, size_t, int)>("recv");
  sc::CountRecv();
  return real(fd, buf, n, flags);
}

int epoll_wait(int epfd, struct epoll_event* events, int max, int timeout) {
  static const auto real =
      Next<int (*)(int, struct epoll_event*, int, int)>("epoll_wait");
  sc::CountPoll();
  return real(epfd, events, max, timeout);
}

int poll(struct pollfd* fds, nfds_t n, int timeout) {
  static const auto real = Next<int (*)(struct pollfd*, nfds_t, int)>("poll");
  sc::CountPoll();
  return real(fds, n, timeout);
}

}  // extern "C"
