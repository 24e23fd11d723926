// rablint fixture: nothing in this file may be flagged. Every hazard
// carries a correctly *scoped* suppression
// (`nondeterminism-ok=<category>`), the grammar the result store uses
// so that sanctioning a record timestamp (or socket plumbing) does
// not also sanction rand() in the same file.
#include <chrono>
#include <cstdlib>

int poll(void *fds, unsigned long n, int timeout_ms);
long recv(int fd, void *buf, unsigned long len, int flags);

int
boundedWait(void *fds)
{
    // rablint: nondeterminism-ok=socket-io (wire plumbing; nothing
    // read here reaches simulated state)
    return poll(fds, 1, 100);
}

long
readWire(int fd, void *buf, unsigned long len)
{
    return ::recv(fd, buf, len, 0); // rablint: nondeterminism-ok=socket-io (ditto)
}

double
sanctionedWallTime()
{
    // rablint: nondeterminism-ok=wall-clock (write-once provenance
    // timestamp; never read back into results)
    const auto t0 = std::chrono::system_clock::now();
    return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

int
sanctionedEntropy()
{
    // The bare keyword still works and suppresses every category.
    // rablint: nondeterminism-ok (legacy bare suppression)
    return rand();
}

struct Conn
{
    // Members *named* like syscalls are not socket I/O.
    int poll() const { return fd_; }
    int send(int) const { return fd_; }
    static int select(int n) { return n; }
    int fd_ = 0;
};

int
memberCalls(const Conn &c)
{
    // Member and class-qualified calls are not the syscalls.
    return c.poll() + c.send(1) + Conn::select(2);
}
