/* Fork server for truzz's external targets, entered through LD_PRELOAD.

   truzz starts a target with this library appended to LD_PRELOAD and
   TRUZZ_FORK_SERVER set to the LD_PRELOAD the target would otherwise have
   had. The constructor below restores LD_PRELOAD, unsets the marker and
   detaches a server, so the server is never truzz's child. The server says
   hello on STATUS_FD, then serves run requests read from CONTROL_FD: each
   is a timeout in ms, for which it forks a child that returns into the
   target's main. A request of 0 while a child runs kills the child. Each
   run gets one reply: the child's pid, its wait status and whether it
   timed out. When CONTROL_FD closes, the server kills and reaps any child
   and exits. docs/external-targets.md describes the protocol. */
#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#define CONTROL_FD 198
#define STATUS_FD 199
#define HELLO 0x46525a54 /* "TZRF" */

static int64_t now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

static int pidfd_open(pid_t pid) { return (int)syscall(SYS_pidfd_open, pid, 0); }

static void put(const int32_t *msg, size_t n) {
    if (write(STATUS_FD, msg, n * sizeof *msg) != (ssize_t)(n * sizeof *msg)) _exit(1);
}

__attribute__((constructor)) static void fork_server(void) {
    const char *preload = getenv("TRUZZ_FORK_SERVER");
    if (!preload) return;
    if (*preload) setenv("LD_PRELOAD", preload, 1);
    else unsetenv("LD_PRELOAD");
    unsetenv("TRUZZ_FORK_SERVER");

    /* Without pidfds there is no server: say nothing, and truzz spawns. */
    int probe = pidfd_open(getpid());
    pid_t server = probe < 0 ? -1 : fork();
    if (server != 0) {
        if (server > 0) _exit(0);
        close(CONTROL_FD);
        close(STATUS_FD);
        return;
    }
    close(probe);
    server = getpid();
    int32_t hello[2] = {HELLO, server};
    put(hello, 2);

    for (;;) {
        uint32_t ms;
        ssize_t got = read(CONTROL_FD, &ms, sizeof ms);
        if (got < 0 && errno == EINTR) continue;
        if (got != sizeof ms) _exit(0); /* truzz is gone */
        if (ms == 0) continue;          /* a kill request for a child already reaped */

        pid_t child = fork();
        if (child == 0) {
            close(CONTROL_FD);
            close(STATUS_FD);
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != server) _exit(1);
            return; /* into the target's main */
        }
        int pidfd = child < 0 ? -1 : pidfd_open(child);
        if (pidfd < 0) {
            if (child > 0) kill(child, SIGKILL);
            _exit(1);
        }

        struct pollfd fds[2] = {{pidfd, POLLIN, 0}, {CONTROL_FD, POLLIN, 0}};
        int64_t deadline = now_ms() + ms;
        int32_t timed_out = 0, gone = 0;
        for (;;) {
            int64_t left = deadline - now_ms();
            if (poll(fds, 2, left > 0 ? (int)left : 0) < 0) continue; /* EINTR */
            if (fds[0].revents) break; /* exited */
            if (fds[1].revents) {      /* a kill request, or truzz is gone */
                gone = read(CONTROL_FD, &ms, sizeof ms) != sizeof ms;
                break;
            }
            if (left <= 0) {
                timed_out = 1;
                break;
            }
        }
        if (!fds[0].revents) kill(child, SIGKILL);
        int status = 0;
        while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
        close(pidfd);
        if (gone) _exit(0);
        int32_t reply[3] = {child, status, timed_out};
        put(reply, 3);
    }
}
