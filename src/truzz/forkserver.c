/* Fork server for truzz's external targets, entered through LD_PRELOAD.

   truzz starts a target with this library appended to LD_PRELOAD and
   TRUZZ_FORK_SERVER set to the LD_PRELOAD the target would otherwise have
   had. The constructor below restores LD_PRELOAD and unsets the marker;
   the process truzz spawned is then the server, truzz's own child. It says
   hello on STATUS_FD, then serves requests read from CONTROL_FD. A run
   request forks a child that returns into the target's main; a kill
   request kills the running child, and is ignored when none runs. The
   server keeps no clock: truzz owns each run's deadline and sends the
   kill. Each run gets one reply, the child's wait status. When CONTROL_FD
   closes, the server kills and reaps any child and exits.
   docs/external-targets.md describes the protocol. */
#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define CONTROL_FD 198
#define STATUS_FD 199
#define HELLO 0x46525a54 /* "TZRF" */
#define KILL 0           /* any other request is a run */

static int pidfd_open(pid_t pid) { return (int)syscall(SYS_pidfd_open, pid, 0); }

static void put(int32_t msg) {
    if (write(STATUS_FD, &msg, sizeof msg) != sizeof msg) _exit(1);
}

__attribute__((constructor)) static void fork_server(void) {
    const char *preload = getenv("TRUZZ_FORK_SERVER");
    if (!preload) return;
    if (*preload) setenv("LD_PRELOAD", preload, 1);
    else unsetenv("LD_PRELOAD");
    unsetenv("TRUZZ_FORK_SERVER");

    /* Without pidfds there is no server: say nothing, and truzz spawns. */
    int probe = pidfd_open(getpid());
    if (probe < 0) {
        close(CONTROL_FD);
        close(STATUS_FD);
        return;
    }
    close(probe);
    pid_t server = getpid();
    put(HELLO);

    for (;;) {
        uint32_t request;
        ssize_t got = read(CONTROL_FD, &request, sizeof request);
        if (got < 0 && errno == EINTR) continue;
        if (got != sizeof request) _exit(0); /* truzz is gone */
        if (request == KILL) continue;       /* for a child already reaped */

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
        while (poll(fds, 2, -1) < 0) {
        } /* EINTR */
        int gone = 0;
        if (!fds[0].revents) { /* a kill request, or truzz is gone */
            gone = read(CONTROL_FD, &request, sizeof request) != sizeof request;
            kill(child, SIGKILL);
        }
        int status = 0;
        while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
        }
        close(pidfd);
        if (gone) _exit(0);
        put(status);
    }
}
