package kernel

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gowali/internal/linux"
)

func newTestProc(t *testing.T) (*Kernel, *Process) {
	t.Helper()
	k := NewKernel()
	p := k.NewProcess("test", []string{"test"}, nil)
	return k, p
}

func TestOpenWriteReadClose(t *testing.T) {
	_, p := newTestProc(t)
	fd, errno := p.Open("/tmp/hello.txt", linux.O_CREAT|linux.O_RDWR, 0o644)
	if errno != 0 {
		t.Fatalf("open: %v", errno)
	}
	if n, errno := p.Write(fd, []byte("hello world")); errno != 0 || n != 11 {
		t.Fatalf("write: n=%d %v", n, errno)
	}
	if _, errno := p.Lseek(fd, 0, linux.SEEK_SET); errno != 0 {
		t.Fatalf("lseek: %v", errno)
	}
	buf := make([]byte, 64)
	n, errno := p.Read(fd, buf)
	if errno != 0 || string(buf[:n]) != "hello world" {
		t.Fatalf("read: %q %v", buf[:n], errno)
	}
	if errno := p.Close(fd); errno != 0 {
		t.Fatalf("close: %v", errno)
	}
	if _, errno := p.Read(fd, buf); errno != linux.EBADF {
		t.Fatalf("read after close: %v, want EBADF", errno)
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	_, p := newTestProc(t)
	// O_EXCL on existing file.
	fd, _ := p.Open("/tmp/x", linux.O_CREAT, 0o644)
	p.Close(fd)
	if _, errno := p.Open("/tmp/x", linux.O_CREAT|linux.O_EXCL, 0o644); errno != linux.EEXIST {
		t.Errorf("O_EXCL: %v, want EEXIST", errno)
	}
	// O_TRUNC truncates.
	fd, _ = p.Open("/tmp/x", linux.O_WRONLY, 0)
	p.Write(fd, []byte("0123456789"))
	p.Close(fd)
	fd, _ = p.Open("/tmp/x", linux.O_WRONLY|linux.O_TRUNC, 0)
	p.Close(fd)
	st, _ := p.StatAt(linux.AT_FDCWD, "/tmp/x", true)
	if st.Size != 0 {
		t.Errorf("O_TRUNC left size %d", st.Size)
	}
	// O_APPEND appends.
	fd, _ = p.Open("/tmp/x", linux.O_WRONLY|linux.O_APPEND, 0)
	p.Write(fd, []byte("aa"))
	p.Write(fd, []byte("bb"))
	p.Close(fd)
	st, _ = p.StatAt(linux.AT_FDCWD, "/tmp/x", true)
	if st.Size != 4 {
		t.Errorf("append size = %d, want 4", st.Size)
	}
	// ENOENT without O_CREAT.
	if _, errno := p.Open("/tmp/nonexistent", linux.O_RDONLY, 0); errno != linux.ENOENT {
		t.Errorf("missing file: %v, want ENOENT", errno)
	}
	// O_DIRECTORY on a file.
	if _, errno := p.Open("/tmp/x", linux.O_RDONLY|linux.O_DIRECTORY, 0); errno != linux.ENOTDIR {
		t.Errorf("O_DIRECTORY on file: %v, want ENOTDIR", errno)
	}
}

func TestPreadPwriteIndependentOfOffset(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/p", linux.O_CREAT|linux.O_RDWR, 0o644)
	p.Write(fd, []byte("abcdefgh"))
	buf := make([]byte, 2)
	if n, errno := p.Pread64(fd, buf, 2); errno != 0 || string(buf[:n]) != "cd" {
		t.Fatalf("pread: %q %v", buf[:n], errno)
	}
	if _, errno := p.Pwrite64(fd, []byte("XY"), 0); errno != 0 {
		t.Fatalf("pwrite: %v", errno)
	}
	// Sequential offset unchanged (at end).
	if off, _ := p.Lseek(fd, 0, linux.SEEK_CUR); off != 8 {
		t.Errorf("offset changed by pread/pwrite: %d", off)
	}
}

func TestDirOps(t *testing.T) {
	_, p := newTestProc(t)
	if errno := p.MkdirAt(linux.AT_FDCWD, "/tmp/dir", 0o755); errno != 0 {
		t.Fatalf("mkdir: %v", errno)
	}
	if errno := p.MkdirAt(linux.AT_FDCWD, "/tmp/dir", 0o755); errno != linux.EEXIST {
		t.Fatalf("mkdir twice: %v", errno)
	}
	fd, _ := p.Open("/tmp/dir/f1", linux.O_CREAT, 0o644)
	p.Close(fd)
	fd, _ = p.Open("/tmp/dir/f2", linux.O_CREAT, 0o644)
	p.Close(fd)

	// getdents64
	dfd, errno := p.Open("/tmp/dir", linux.O_RDONLY|linux.O_DIRECTORY, 0)
	if errno != 0 {
		t.Fatalf("open dir: %v", errno)
	}
	buf := make([]byte, 4096)
	n, errno := p.Getdents64(dfd, buf)
	if errno != 0 || n == 0 {
		t.Fatalf("getdents: n=%d %v", n, errno)
	}
	if !bytes.Contains(buf[:n], []byte("f1")) || !bytes.Contains(buf[:n], []byte("f2")) {
		t.Error("getdents missing entries")
	}
	// Second call: end of directory.
	if n, _ := p.Getdents64(dfd, buf); n != 0 {
		t.Errorf("second getdents = %d, want 0", n)
	}

	// rmdir non-empty fails.
	if errno := p.UnlinkAt(linux.AT_FDCWD, "/tmp/dir", linux.AT_REMOVEDIR); errno != linux.ENOTEMPTY {
		t.Errorf("rmdir non-empty: %v", errno)
	}
	p.UnlinkAt(linux.AT_FDCWD, "/tmp/dir/f1", 0)
	p.UnlinkAt(linux.AT_FDCWD, "/tmp/dir/f2", 0)
	if errno := p.UnlinkAt(linux.AT_FDCWD, "/tmp/dir", linux.AT_REMOVEDIR); errno != 0 {
		t.Errorf("rmdir empty: %v", errno)
	}
}

func TestChdirAndRelativePaths(t *testing.T) {
	_, p := newTestProc(t)
	p.MkdirAt(linux.AT_FDCWD, "/tmp/wd", 0o755)
	if errno := p.Chdir("/tmp/wd"); errno != 0 {
		t.Fatalf("chdir: %v", errno)
	}
	if p.Cwd() != "/tmp/wd" {
		t.Fatalf("cwd = %q", p.Cwd())
	}
	fd, errno := p.Open("rel.txt", linux.O_CREAT|linux.O_WRONLY, 0o644)
	if errno != 0 {
		t.Fatalf("relative open: %v", errno)
	}
	p.Write(fd, []byte("x"))
	p.Close(fd)
	if _, errno := p.StatAt(linux.AT_FDCWD, "/tmp/wd/rel.txt", true); errno != 0 {
		t.Errorf("file not where expected: %v", errno)
	}
	if errno := p.Chdir(".."); errno != 0 {
		t.Fatalf("chdir ..: %v", errno)
	}
	if p.Cwd() != "/tmp" {
		t.Errorf("cwd after .. = %q", p.Cwd())
	}
	if errno := p.Chdir("/tmp/wd/rel.txt"); errno != linux.ENOTDIR {
		t.Errorf("chdir to file: %v", errno)
	}
}

func TestSymlinks(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/target", linux.O_CREAT|linux.O_WRONLY, 0o644)
	p.Write(fd, []byte("data"))
	p.Close(fd)
	if errno := p.SymlinkAt("/tmp/target", "/tmp/link"); errno != 0 {
		t.Fatalf("symlink: %v", errno)
	}
	// Follow.
	st, errno := p.StatAt(linux.AT_FDCWD, "/tmp/link", true)
	if errno != 0 || st.Mode&linux.S_IFMT != linux.S_IFREG {
		t.Fatalf("stat follow: %v mode=%o", errno, st.Mode)
	}
	// No follow.
	st, errno = p.StatAt(linux.AT_FDCWD, "/tmp/link", false)
	if errno != 0 || st.Mode&linux.S_IFMT != linux.S_IFLNK {
		t.Fatalf("lstat: %v mode=%o", errno, st.Mode)
	}
	if target, errno := p.ReadlinkAt(linux.AT_FDCWD, "/tmp/link"); errno != 0 || target != "/tmp/target" {
		t.Fatalf("readlink: %q %v", target, errno)
	}
	// Symlink loop.
	p.SymlinkAt("/tmp/loopB", "/tmp/loopA")
	p.SymlinkAt("/tmp/loopA", "/tmp/loopB")
	if _, errno := p.StatAt(linux.AT_FDCWD, "/tmp/loopA", true); errno != linux.ELOOP {
		t.Errorf("symlink loop: %v, want ELOOP", errno)
	}
}

func TestRenameAndLink(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/a", linux.O_CREAT|linux.O_WRONLY, 0o644)
	p.Write(fd, []byte("content"))
	p.Close(fd)
	if errno := p.RenameAt(linux.AT_FDCWD, "/tmp/a", linux.AT_FDCWD, "/tmp/b"); errno != 0 {
		t.Fatalf("rename: %v", errno)
	}
	if _, errno := p.StatAt(linux.AT_FDCWD, "/tmp/a", true); errno != linux.ENOENT {
		t.Error("old name still exists")
	}
	if errno := p.LinkAt("/tmp/b", "/tmp/c"); errno != 0 {
		t.Fatalf("link: %v", errno)
	}
	st, _ := p.StatAt(linux.AT_FDCWD, "/tmp/c", true)
	if st.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", st.Nlink)
	}
	p.UnlinkAt(linux.AT_FDCWD, "/tmp/b", 0)
	st, errno := p.StatAt(linux.AT_FDCWD, "/tmp/c", true)
	if errno != 0 || st.Nlink != 1 {
		t.Errorf("after unlink: %v nlink=%d", errno, st.Nlink)
	}
}

func TestDupAndFcntl(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/d", linux.O_CREAT|linux.O_RDWR, 0o644)
	d1, errno := p.Dup(fd)
	if errno != 0 {
		t.Fatalf("dup: %v", errno)
	}
	p.Write(fd, []byte("xy"))
	// Shared offset through dup.
	if off, _ := p.Lseek(d1, 0, linux.SEEK_CUR); off != 2 {
		t.Errorf("dup offset = %d, want 2", off)
	}
	// dup3 to a specific slot.
	if nfd, errno := p.Dup3(fd, 17, 0); errno != 0 || nfd != 17 {
		t.Fatalf("dup3: %d %v", nfd, errno)
	}
	// F_SETFD / F_GETFD.
	p.Fcntl(fd, linux.F_SETFD, linux.FD_CLOEXEC)
	if v, _ := p.Fcntl(fd, linux.F_GETFD, 0); v != linux.FD_CLOEXEC {
		t.Errorf("F_GETFD = %d", v)
	}
	// F_SETFL nonblock.
	p.Fcntl(fd, linux.F_SETFL, linux.O_NONBLOCK)
	if v, _ := p.Fcntl(fd, linux.F_GETFL, 0); v&linux.O_NONBLOCK == 0 {
		t.Error("O_NONBLOCK not set")
	}
	// dup2 self is EINVAL for dup3.
	if _, errno := p.Dup3(fd, fd, 0); errno != linux.EINVAL {
		t.Errorf("dup3 self: %v", errno)
	}
}

func TestPipeSemantics(t *testing.T) {
	_, p := newTestProc(t)
	rfd, wfd, errno := p.Pipe2(0)
	if errno != 0 {
		t.Fatalf("pipe2: %v", errno)
	}
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := p.Read(rfd, buf)
		done <- string(buf[:n])
	}()
	time.Sleep(time.Millisecond)
	p.Write(wfd, []byte("ping"))
	if got := <-done; got != "ping" {
		t.Fatalf("pipe read = %q", got)
	}
	// EOF after writer close.
	p.Close(wfd)
	buf := make([]byte, 4)
	if n, errno := p.Read(rfd, buf); n != 0 || errno != 0 {
		t.Fatalf("EOF read: n=%d %v", n, errno)
	}
	// EPIPE + SIGPIPE after reader close.
	rfd2, wfd2, _ := p.Pipe2(0)
	p.Close(rfd2)
	if _, errno := p.Write(wfd2, []byte("x")); errno != linux.EPIPE {
		t.Fatalf("write to closed pipe: %v", errno)
	}
	if p.PendingSet()&(1<<(linux.SIGPIPE-1)) == 0 {
		t.Error("SIGPIPE not pending after EPIPE")
	}
}

func TestPipeNonblock(t *testing.T) {
	_, p := newTestProc(t)
	rfd, wfd, _ := p.Pipe2(linux.O_NONBLOCK)
	buf := make([]byte, 4)
	if _, errno := p.Read(rfd, buf); errno != linux.EAGAIN {
		t.Fatalf("nonblock empty read: %v", errno)
	}
	// Fill the pipe.
	big := make([]byte, 1<<20)
	n, errno := p.Write(wfd, big)
	if errno != 0 || n == len(big) {
		t.Fatalf("nonblock write filled: n=%d %v", n, errno)
	}
	if _, errno := p.Write(wfd, []byte("x")); errno != linux.EAGAIN {
		t.Fatalf("nonblock full write: %v", errno)
	}
}

func TestForkExitWait(t *testing.T) {
	_, p := newTestProc(t)
	c := p.Fork()
	if c.PID == p.PID || c.Getppid() != p.PID {
		t.Fatalf("fork identity: pid=%d ppid=%d", c.PID, c.Getppid())
	}
	go func() {
		time.Sleep(time.Millisecond)
		c.Exit(linux.WaitStatusExited(7))
	}()
	pid, status, _, errno := p.Wait4(-1, 0)
	if errno != 0 || pid != c.PID {
		t.Fatalf("wait4: pid=%d %v", pid, errno)
	}
	if !linux.WIFEXITED(status) || linux.WEXITSTATUS(status) != 7 {
		t.Fatalf("status = %#x", status)
	}
	// SIGCHLD was posted.
	if p.PendingSet()&(1<<(linux.SIGCHLD-1)) == 0 {
		t.Error("SIGCHLD not pending in parent")
	}
	// No more children.
	if _, _, _, errno := p.Wait4(-1, 0); errno != linux.ECHILD {
		t.Errorf("wait with no children: %v", errno)
	}
}

func TestWaitWNOHANG(t *testing.T) {
	_, p := newTestProc(t)
	c := p.Fork()
	pid, _, _, errno := p.Wait4(-1, linux.WNOHANG)
	if errno != 0 || pid != 0 {
		t.Fatalf("WNOHANG with running child: pid=%d %v", pid, errno)
	}
	c.Exit(0)
	pid, _, _, errno = p.Wait4(c.PID, linux.WNOHANG)
	if errno != 0 || pid != c.PID {
		t.Fatalf("WNOHANG with zombie: pid=%d %v", pid, errno)
	}
}

func TestForkSharesFileDescription(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/shared", linux.O_CREAT|linux.O_RDWR, 0o644)
	c := p.Fork()
	// Child writes through the shared description.
	cf, errno := c.FDs.Get(fd)
	if errno != 0 {
		t.Fatalf("child missing fd: %v", errno)
	}
	cf.Write([]byte("abc"))
	// Parent sees the advanced offset.
	if off, _ := p.Lseek(fd, 0, linux.SEEK_CUR); off != 3 {
		t.Errorf("parent offset = %d, want 3 (shared description)", off)
	}
	c.Exit(0)
	p.Wait4(-1, 0)
}

func TestThreadGroupExit(t *testing.T) {
	k, p := newTestProc(t)
	t1 := p.CloneThread()
	if t1.TGID != p.PID {
		t.Fatalf("thread tgid = %d, want %d", t1.TGID, p.PID)
	}
	if t1.FDs != p.FDs {
		t.Fatal("thread must share fd table")
	}
	before := k.ProcessCount()
	t1.Exit(0) // non-final thread: no zombie
	if k.ProcessCount() != before-1 {
		t.Errorf("thread exit did not remove the task")
	}
	if !p.Alive() {
		t.Error("leader died with thread exit")
	}
}

func TestSignalsMaskAndDelivery(t *testing.T) {
	_, p := newTestProc(t)
	// Register a handler for SIGUSR1.
	act := linux.Sigaction{Handler: 1234}
	if _, errno := p.SigAction(linux.SIGUSR1, &act); errno != 0 {
		t.Fatalf("sigaction: %v", errno)
	}
	// Block it, post it, check pending but not deliverable.
	mask := uint64(1) << (linux.SIGUSR1 - 1)
	p.SigProcMask(linux.SIG_BLOCK, &mask)
	p.PostSignal(linux.SIGUSR1)
	if !strings.Contains("", "") && p.HasDeliverableSignal() {
		t.Fatal("blocked signal reported deliverable")
	}
	if p.PendingSet()&mask == 0 {
		t.Fatal("signal not pending")
	}
	// Unblock: now deliverable with the registered handler.
	p.SigProcMask(linux.SIG_UNBLOCK, &mask)
	ds, ok := p.NextDeliverableSignal()
	if !ok || ds.Sig != linux.SIGUSR1 || ds.Action.Handler != 1234 {
		t.Fatalf("deliverable = %+v ok=%v", ds, ok)
	}
	// Queue drained.
	if _, ok := p.NextDeliverableSignal(); ok {
		t.Fatal("signal delivered twice")
	}
}

func TestSignalSIGKILLUncatchable(t *testing.T) {
	_, p := newTestProc(t)
	act := linux.Sigaction{Handler: 99}
	if _, errno := p.SigAction(linux.SIGKILL, &act); errno != linux.EINVAL {
		t.Errorf("sigaction(SIGKILL): %v, want EINVAL", errno)
	}
	mask := uint64(1) << (linux.SIGKILL - 1)
	p.SigProcMask(linux.SIG_BLOCK, &mask)
	p.PostSignal(linux.SIGKILL)
	if !p.Killed() {
		t.Error("SIGKILL not latched")
	}
	if !p.HasDeliverableSignal() {
		t.Error("SIGKILL must be deliverable despite mask")
	}
}

func TestSignalDefaultIgnored(t *testing.T) {
	_, p := newTestProc(t)
	p.PostSignal(linux.SIGCHLD) // default ignore
	if _, ok := p.NextDeliverableSignal(); ok {
		t.Error("SIGCHLD with SIG_DFL must be discarded at delivery")
	}
	// SIG_IGN explicit.
	act := linux.Sigaction{Handler: linux.SIG_IGN}
	p.SigAction(linux.SIGUSR2, &act)
	p.PostSignal(linux.SIGUSR2)
	if _, ok := p.NextDeliverableSignal(); ok {
		t.Error("ignored signal delivered")
	}
}

// TestWait4IgnoredSignalBlocks: a signal queued before wait4 whose
// disposition discards it — SIGCHLD under SIG_DFL, or SIG_IGN — must not
// fail wait4 with EINTR; wait4 blocks and reaps the child. A signal with
// a handler still interrupts it.
func TestWait4IgnoredSignalBlocks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sig   int32
		act   *linux.Sigaction
		eintr bool
	}{
		{"SIGCHLD default", linux.SIGCHLD, nil, false},
		{"SIG_IGN", linux.SIGUSR1, &linux.Sigaction{Handler: linux.SIG_IGN}, false},
		{"handler", linux.SIGUSR1, &linux.Sigaction{Handler: 1234}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, p := newTestProc(t)
			if tc.act != nil {
				p.SigAction(tc.sig, tc.act)
			}
			c := p.Fork()
			p.PostSignal(tc.sig)
			if p.PendingSet()&sigBit(tc.sig) == 0 {
				t.Fatal("signal not pending before wait4")
			}
			type result struct {
				pid   int32
				errno linux.Errno
			}
			done := make(chan result, 1)
			go func() {
				pid, _, _, errno := p.Wait4(-1, 0)
				done <- result{pid, errno}
			}()
			if tc.eintr {
				if r := <-done; r.errno != linux.EINTR {
					t.Fatalf("wait4 with a caught signal pending: pid %d errno %v, want EINTR", r.pid, r.errno)
				}
				return
			}
			select {
			case r := <-done:
				t.Fatalf("wait4 returned while the child lived: pid %d errno %v", r.pid, r.errno)
			case <-time.After(20 * time.Millisecond):
			}
			c.Exit(linux.WaitStatusExited(3))
			if r := <-done; r.errno != 0 || r.pid != c.PID {
				t.Fatalf("wait4: pid %d errno %v, want pid %d", r.pid, r.errno, c.PID)
			}
		})
	}
}

func TestKillProcessGroup(t *testing.T) {
	_, p := newTestProc(t)
	c1 := p.Fork()
	c2 := p.Fork()
	c2.Setpgid(0, c1.PID) // move c2 into c1's new group
	c1.Setpgid(0, 0)
	c2.Setpgid(0, c1.PID)
	errno := p.Kill(-c1.PID, linux.SIGTERM)
	if errno != 0 {
		t.Fatalf("kill group: %v", errno)
	}
	if c1.PendingSet()&(1<<(linux.SIGTERM-1)) == 0 {
		t.Error("c1 missing SIGTERM")
	}
	if c2.PendingSet()&(1<<(linux.SIGTERM-1)) == 0 {
		t.Error("c2 missing SIGTERM")
	}
	if p.PendingSet()&(1<<(linux.SIGTERM-1)) != 0 {
		t.Error("parent got group signal")
	}
}

func TestSigTimedWait(t *testing.T) {
	_, p := newTestProc(t)
	go func() {
		time.Sleep(2 * time.Millisecond)
		p.PostSignal(linux.SIGUSR1)
	}()
	set := uint64(1) << (linux.SIGUSR1 - 1)
	sig, errno := p.SigTimedWait(set, &linux.Timespec{Sec: 5})
	if errno != 0 || sig != linux.SIGUSR1 {
		t.Fatalf("sigtimedwait: sig=%d %v", sig, errno)
	}
	// Timeout path.
	_, errno = p.SigTimedWait(set, &linux.Timespec{Nsec: 1e6})
	if errno != linux.EAGAIN {
		t.Fatalf("sigtimedwait timeout: %v", errno)
	}
}

func TestFutexWaitWake(t *testing.T) {
	k, _ := newTestProc(t)
	space := new(int)
	val := uint32(1)
	var wg sync.WaitGroup
	woken := make(chan linux.Errno, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			woken <- k.FutexWait(space, 64, 1, func() uint32 { return val }, nil, nil)
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if n := k.FutexWake(space, 64, 64); n == 0 {
		t.Error("woke 0 waiters")
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if e := <-woken; e != 0 {
			t.Errorf("waiter %d: %v", i, e)
		}
	}
	// Value mismatch: immediate EAGAIN.
	if e := k.FutexWait(space, 64, 2, func() uint32 { return val }, nil, nil); e != linux.EAGAIN {
		t.Errorf("mismatch wait: %v", e)
	}
	// Timeout.
	if e := k.FutexWait(space, 64, 1, func() uint32 { return val }, &linux.Timespec{Nsec: 1e6}, nil); e != linux.ETIMEDOUT {
		t.Errorf("timeout wait: %v", e)
	}
}

func TestFutexSpacesIsolated(t *testing.T) {
	k, _ := newTestProc(t)
	a, b := new(int), new(int)
	done := make(chan struct{})
	go func() {
		k.FutexWait(a, 0, 0, func() uint32 { return 0 }, nil, nil)
		close(done)
	}()
	time.Sleep(time.Millisecond)
	k.FutexWake(b, 0, 64) // different space: must not wake
	select {
	case <-done:
		t.Fatal("futex woke across spaces")
	case <-time.After(5 * time.Millisecond):
	}
	k.FutexWake(a, 0, 64)
	<-done
}

func TestSocketsStreamLoopback(t *testing.T) {
	_, p := newTestProc(t)
	srv, errno := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno != 0 {
		t.Fatalf("socket: %v", errno)
	}
	addr := SockAddr{Family: linux.AF_INET, Port: 8080}
	if errno := p.Bind(srv, addr); errno != 0 {
		t.Fatalf("bind: %v", errno)
	}
	if errno := p.Listen(srv, 8); errno != 0 {
		t.Fatalf("listen: %v", errno)
	}

	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := p.Connect(cli, addr); errno != 0 {
		t.Fatalf("connect: %v", errno)
	}
	conn, peer, errno := p.Accept(srv, 0)
	if errno != 0 {
		t.Fatalf("accept: %v", errno)
	}
	_ = peer

	if _, errno := p.SendTo(cli, []byte("GET"), 0, nil); errno != 0 {
		t.Fatalf("send: %v", errno)
	}
	buf := make([]byte, 16)
	n, _, errno := p.RecvFrom(conn, buf, 0)
	if errno != 0 || string(buf[:n]) != "GET" {
		t.Fatalf("recv: %q %v", buf[:n], errno)
	}
	// Echo back.
	p.SendTo(conn, []byte("OK"), 0, nil)
	n, _, _ = p.RecvFrom(cli, buf, 0)
	if string(buf[:n]) != "OK" {
		t.Fatalf("echo: %q", buf[:n])
	}
	// Close server conn: client sees EOF.
	p.Close(conn)
	if n, _, errno := p.RecvFrom(cli, buf, 0); n != 0 || errno != 0 {
		t.Fatalf("EOF: n=%d %v", n, errno)
	}
	// Connect to unbound port refused.
	c2, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := p.Connect(c2, SockAddr{Family: linux.AF_INET, Port: 9999}); errno != linux.ECONNREFUSED {
		t.Errorf("connect unbound: %v", errno)
	}
	// Address in use.
	s2, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	p.Bind(s2, addr)
	if errno := p.Listen(s2, 1); errno != linux.EADDRINUSE {
		t.Errorf("double listen: %v", errno)
	}
}

func TestSocketPair(t *testing.T) {
	_, p := newTestProc(t)
	a, b, errno := p.SocketPair(linux.AF_UNIX, linux.SOCK_STREAM, 0)
	if errno != 0 {
		t.Fatalf("socketpair: %v", errno)
	}
	p.Write(a, []byte("hello"))
	buf := make([]byte, 8)
	n, errno := p.Read(b, buf)
	if errno != 0 || string(buf[:n]) != "hello" {
		t.Fatalf("socketpair read: %q %v", buf[:n], errno)
	}
}

func TestPoll(t *testing.T) {
	_, p := newTestProc(t)
	rfd, wfd, _ := p.Pipe2(0)
	fds := []PollFD{{FD: rfd, Events: linux.POLLIN}}
	// Not ready: zero timeout.
	n, errno := p.Poll(fds, 0)
	if errno != 0 || n != 0 {
		t.Fatalf("poll empty: %d %v", n, errno)
	}
	p.Write(wfd, []byte("x"))
	n, errno = p.Poll(fds, 0)
	if errno != 0 || n != 1 || fds[0].Revents&linux.POLLIN == 0 {
		t.Fatalf("poll ready: %d %v revents=%x", n, errno, fds[0].Revents)
	}
	// Bad fd reports POLLNVAL.
	fds = []PollFD{{FD: 999, Events: linux.POLLIN}}
	n, _ = p.Poll(fds, 0)
	if n != 1 || fds[0].Revents != linux.POLLNVAL {
		t.Errorf("POLLNVAL: %d %x", n, fds[0].Revents)
	}
}

func TestEpoll(t *testing.T) {
	_, p := newTestProc(t)
	epfd, errno := p.EpollCreate(0)
	if errno != 0 {
		t.Fatalf("epoll_create: %v", errno)
	}
	rfd, wfd, _ := p.Pipe2(0)
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 42); errno != 0 {
		t.Fatalf("epoll_ctl: %v", errno)
	}
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 42); errno != linux.EEXIST {
		t.Errorf("double add: %v", errno)
	}
	evs, _ := p.EpollWait(epfd, 8, 0)
	if len(evs) != 0 {
		t.Fatalf("epoll before data: %d events", len(evs))
	}
	p.Write(wfd, []byte("z"))
	evs, errno = p.EpollWait(epfd, 8, int64(time.Second))
	if errno != 0 || len(evs) != 1 || evs[0].Data != 42 {
		t.Fatalf("epoll after write: %v %+v", errno, evs)
	}
}

func TestProcSelfAndDevices(t *testing.T) {
	_, p := newTestProc(t)
	fd, errno := p.Open("/proc/self/status", linux.O_RDONLY, 0)
	if errno != 0 {
		t.Fatalf("open /proc/self/status: %v", errno)
	}
	buf := make([]byte, 512)
	n, _ := p.Read(fd, buf)
	if !bytes.Contains(buf[:n], []byte("Name:\ttest")) {
		t.Errorf("status content: %q", buf[:n])
	}
	// /dev/null swallows writes, EOF on read.
	nfd, _ := p.Open("/dev/null", linux.O_RDWR, 0)
	if n, _ := p.Write(nfd, []byte("zzz")); n != 3 {
		t.Error("null write")
	}
	if n, _ := p.Read(nfd, buf); n != 0 {
		t.Error("null read")
	}
	// /dev/zero yields zeros.
	zfd, _ := p.Open("/dev/zero", linux.O_RDONLY, 0)
	n, _ = p.Read(zfd, buf[:8])
	if n != 8 || !bytes.Equal(buf[:8], make([]byte, 8)) {
		t.Error("zero read")
	}
}

func TestConsoleIO(t *testing.T) {
	k, p := newTestProc(t)
	if n, errno := p.Write(1, []byte("stdout text")); errno != 0 || n != 11 {
		t.Fatalf("stdout write: %d %v", n, errno)
	}
	if got := string(k.Console.Output()); got != "stdout text" {
		t.Fatalf("console output = %q", got)
	}
	k.Console.FeedInput([]byte("typed\n"))
	buf := make([]byte, 16)
	n, errno := p.Read(0, buf)
	if errno != 0 || string(buf[:n]) != "typed\n" {
		t.Fatalf("stdin read: %q %v", buf[:n], errno)
	}
}

func TestUmaskAndCreds(t *testing.T) {
	_, p := newTestProc(t)
	old := p.Umask(0o077)
	if old != 0o022 {
		t.Errorf("default umask = %o", old)
	}
	fd, _ := p.Open("/tmp/masked", linux.O_CREAT, 0o666)
	p.Close(fd)
	st, _ := p.StatAt(linux.AT_FDCWD, "/tmp/masked", true)
	if st.Mode&0o777 != 0o600 {
		t.Errorf("masked mode = %o, want 600", st.Mode&0o777)
	}
	// setuid drops privileges; re-raising fails.
	if errno := p.SetUID(1000); errno != 0 {
		t.Fatalf("setuid: %v", errno)
	}
	if errno := p.SetUID(0); errno != linux.EPERM {
		t.Errorf("re-raise uid: %v", errno)
	}
	u, eu, _, _ := p.Creds()
	if u != 1000 || eu != 1000 {
		t.Errorf("creds = %d/%d", u, eu)
	}
}

func TestExecResetsState(t *testing.T) {
	_, p := newTestProc(t)
	fd, _ := p.Open("/tmp/ce", linux.O_CREAT|linux.O_CLOEXEC, 0o644)
	keep, _ := p.Open("/tmp/keep", linux.O_CREAT, 0o644)
	act := linux.Sigaction{Handler: 55}
	p.SigAction(linux.SIGUSR1, &act)
	ign := linux.Sigaction{Handler: linux.SIG_IGN}
	p.SigAction(linux.SIGUSR2, &ign)

	p.Exec("newprog", []string{"newprog", "arg"}, []string{"A=1"})

	if _, errno := p.FDs.Get(fd); errno != linux.EBADF {
		t.Error("cloexec fd survived exec")
	}
	if _, errno := p.FDs.Get(keep); errno != 0 {
		t.Error("normal fd closed by exec")
	}
	a, _ := p.SigAction(linux.SIGUSR1, nil)
	if a.Handler != linux.SIG_DFL {
		t.Error("caught handler survived exec")
	}
	a, _ = p.SigAction(linux.SIGUSR2, nil)
	if a.Handler != linux.SIG_IGN {
		t.Error("SIG_IGN did not survive exec")
	}
	if p.Comm() != "newprog" || len(p.Argv()) != 2 {
		t.Error("argv not replaced")
	}
}

func TestPrlimitNOFILE(t *testing.T) {
	_, p := newTestProc(t)
	lim := [2]uint64{16, 16}
	if _, errno := p.Prlimit(linux.RLIMIT_NOFILE, &lim); errno != 0 {
		t.Fatalf("prlimit: %v", errno)
	}
	var fds []int32
	for {
		fd, errno := p.Open("/dev/null", linux.O_RDONLY, 0)
		if errno != 0 {
			if errno != linux.EMFILE {
				t.Fatalf("unexpected errno %v", errno)
			}
			break
		}
		fds = append(fds, fd)
		if len(fds) > 32 {
			t.Fatal("NOFILE limit not enforced")
		}
	}
}

func TestNormalizePathQuick(t *testing.T) {
	// Property: normalized paths never contain "." or ".." components and
	// always start with "/".
	f := func(segs []uint8) bool {
		parts := []string{"", "a", "b", ".", ".."}
		path := ""
		for _, s := range segs {
			path += "/" + parts[int(s)%len(parts)]
		}
		norm := normalizePath(path)
		if !strings.HasPrefix(norm, "/") {
			return false
		}
		for _, c := range strings.Split(norm, "/") {
			if c == "." || c == ".." {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClockAndUname(t *testing.T) {
	k, _ := newTestProc(t)
	m1, errno := k.ClockGettime(linux.CLOCK_MONOTONIC)
	if errno != 0 {
		t.Fatalf("clock_gettime: %v", errno)
	}
	time.Sleep(time.Millisecond)
	m2, _ := k.ClockGettime(linux.CLOCK_MONOTONIC)
	if m2.Nanos() <= m1.Nanos() {
		t.Error("monotonic clock not advancing")
	}
	if _, errno := k.ClockGettime(99); errno != linux.EINVAL {
		t.Errorf("bad clock id: %v", errno)
	}
	u := k.Uname()
	if u.Sysname != "Linux" || u.Machine != "wasm32" {
		t.Errorf("uname: %+v", u)
	}
}
