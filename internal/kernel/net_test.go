package kernel

import (
	"sync"
	"testing"
	"time"

	"gowali/internal/kernel/net"
	"gowali/internal/linux"
)

// --- socket options: the golden matrix ---

func TestSockOptGolden(t *testing.T) {
	_, p := newTestProc(t)
	fd, errno := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno != 0 {
		t.Fatalf("socket: %v", errno)
	}

	// The options libc and real servers set must succeed.
	accepted := []struct{ level, opt int32 }{
		{linux.SOL_SOCKET, linux.SO_REUSEADDR},
		{linux.SOL_SOCKET, linux.SO_REUSEPORT},
		{linux.SOL_SOCKET, linux.SO_KEEPALIVE},
		{linux.SOL_SOCKET, linux.SO_SNDBUF},
		{linux.SOL_SOCKET, linux.SO_RCVBUF},
		{linux.SOL_SOCKET, linux.SO_RCVTIMEO},
		{linux.SOL_SOCKET, linux.SO_SNDTIMEO},
		{linux.SOL_SOCKET, linux.SO_LINGER},
		{linux.SOL_SOCKET, linux.SO_BROADCAST},
		{linux.SOL_SOCKET, linux.SO_DONTROUTE},
		{linux.SOL_SOCKET, linux.SO_OOBINLINE},
		{linux.SOL_SOCKET, linux.SO_PRIORITY},
		{linux.IPPROTO_IP, linux.IP_TOS},
		{linux.IPPROTO_IP, linux.IP_TTL},
		{linux.IPPROTO_TCP, linux.TCP_NODELAY},
		{linux.IPPROTO_TCP, linux.TCP_KEEPIDLE},
		{linux.IPPROTO_TCP, linux.TCP_KEEPINTVL},
		{linux.IPPROTO_TCP, linux.TCP_KEEPCNT},
		{linux.IPPROTO_TCP, linux.TCP_QUICKACK},
		{linux.IPPROTO_IPV6, linux.IPV6_V6ONLY},
	}
	for _, c := range accepted {
		if errno := p.SetSockOpt(fd, c.level, c.opt, 1); errno != 0 {
			t.Errorf("setsockopt(%d,%d): %v, want success", c.level, c.opt, errno)
		}
		if v, errno := p.GetSockOpt(fd, c.level, c.opt); errno != 0 || v != 1 {
			t.Errorf("getsockopt(%d,%d): %d %v, want 1", c.level, c.opt, v, errno)
		}
	}

	// Read-only and synthesized options.
	if v, errno := p.GetSockOpt(fd, linux.SOL_SOCKET, linux.SO_TYPE); errno != 0 || v != linux.SOCK_STREAM {
		t.Errorf("SO_TYPE = %d %v", v, errno)
	}
	if v, errno := p.GetSockOpt(fd, linux.SOL_SOCKET, linux.SO_ERROR); errno != 0 || v != 0 {
		t.Errorf("SO_ERROR = %d %v", v, errno)
	}
	if v, errno := p.GetSockOpt(fd, linux.SOL_SOCKET, linux.SO_ACCEPTCONN); errno != 0 || v != 0 {
		t.Errorf("SO_ACCEPTCONN = %d %v", v, errno)
	}
	if errno := p.SetSockOpt(fd, linux.SOL_SOCKET, linux.SO_ERROR, 1); errno != linux.ENOPROTOOPT {
		t.Errorf("set SO_ERROR: %v, want ENOPROTOOPT", errno)
	}
	// Unset buffer sizes report the real pipe capacity.
	fd2, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if v, _ := p.GetSockOpt(fd2, linux.SOL_SOCKET, linux.SO_SNDBUF); v != 64*1024 {
		t.Errorf("default SO_SNDBUF = %d", v)
	}

	// Unknown options fail loudly instead of silently recording.
	if errno := p.SetSockOpt(fd, linux.SOL_SOCKET, 999, 1); errno != linux.ENOPROTOOPT {
		t.Errorf("unknown SOL_SOCKET opt: %v, want ENOPROTOOPT", errno)
	}
	if errno := p.SetSockOpt(fd, 999, 1, 1); errno != linux.ENOPROTOOPT {
		t.Errorf("unknown level: %v, want ENOPROTOOPT", errno)
	}
	if _, errno := p.GetSockOpt(fd, linux.IPPROTO_TCP, 999); errno != linux.ENOPROTOOPT {
		t.Errorf("unknown TCP opt: %v, want ENOPROTOOPT", errno)
	}

	// SO_ACCEPTCONN flips on a listener.
	p.Bind(fd, SockAddr{Family: linux.AF_INET, Port: 8088})
	p.Listen(fd, 1)
	if v, _ := p.GetSockOpt(fd, linux.SOL_SOCKET, linux.SO_ACCEPTCONN); v != 1 {
		t.Errorf("listener SO_ACCEPTCONN = %d", v)
	}
}

// --- epoll staleness: closed and dup2'd-over fds must stop reporting ---

func TestEpollDeregisterOnClose(t *testing.T) {
	_, p := newTestProc(t)
	epfd, _ := p.EpollCreate(0)
	rfd, wfd, _ := p.Pipe2(0)
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 7); errno != 0 {
		t.Fatalf("epoll_ctl: %v", errno)
	}
	p.Write(wfd, []byte("x"))
	if evs, _ := p.EpollWait(epfd, 8, 0); len(evs) != 1 {
		t.Fatalf("want 1 event, got %d", len(evs))
	}

	// Close the registered fd: its interest must vanish with it.
	p.Close(rfd)
	if evs, _ := p.EpollWait(epfd, 8, 0); len(evs) != 0 {
		t.Fatalf("closed fd still reports %d events", len(evs))
	}
	// A recycled fd number must not inherit the dead registration: a
	// fresh, readable pipe landing on the same number reports nothing
	// until it is explicitly re-added.
	rfd2, wfd2, _ := p.Pipe2(0)
	if rfd2 != rfd {
		t.Fatalf("expected fd reuse (%d vs %d)", rfd2, rfd)
	}
	p.Write(wfd2, []byte("y"))
	if evs, _ := p.EpollWait(epfd, 8, 0); len(evs) != 0 {
		t.Fatalf("recycled fd inherited stale interest: %d events", len(evs))
	}
	// EPOLL_CTL_DEL of the closed registration is ENOENT, as on Linux.
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_DEL, rfd, 0, 0); errno != linux.ENOENT {
		t.Errorf("del after close: %v, want ENOENT", errno)
	}
	p.Close(wfd)
	p.Close(wfd2)
}

func TestEpollDeregisterOnDup2(t *testing.T) {
	_, p := newTestProc(t)
	epfd, _ := p.EpollCreate(0)
	rfd, wfd, _ := p.Pipe2(0)
	p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 7)
	p.Write(wfd, []byte("x"))

	// dup2 a different (readable) pipe over the registered fd: the old
	// registration must not survive onto the new file.
	rfd2, wfd2, _ := p.Pipe2(0)
	p.Write(wfd2, []byte("y"))
	if _, errno := p.Dup3(rfd2, rfd, 0); errno != 0 {
		t.Fatalf("dup3: %v", errno)
	}
	if evs, _ := p.EpollWait(epfd, 8, 0); len(evs) != 0 {
		t.Fatalf("dup2'd-over fd still reports %d events", len(evs))
	}
	// Adding the epoll fd to itself is rejected.
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, epfd, linux.EPOLLIN, 0); errno != linux.EINVAL {
		t.Errorf("self-add: %v, want EINVAL", errno)
	}
	p.Close(rfd2)
	p.Close(wfd2)
}

// --- event-driven readiness ---

// A poll blocked on an empty socket must wake when data arrives —
// promptly (event-driven), not at a sampling interval. The bound here
// is deliberately loose for loaded CI machines; bench.NetEcho carries
// the precise numbers.
func TestPollWakesOnSocketData(t *testing.T) {
	_, p := newTestProc(t)
	srv, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	addr := SockAddr{Family: linux.AF_INET, Port: 8090}
	p.Bind(srv, addr)
	p.Listen(srv, 4)
	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := p.Connect(cli, addr); errno != 0 {
		t.Fatalf("connect: %v", errno)
	}
	conn, _, errno := p.Accept(srv, 0)
	if errno != 0 {
		t.Fatalf("accept: %v", errno)
	}

	type res struct {
		n     int
		errno linux.Errno
		late  time.Duration
	}
	done := make(chan res, 1)
	start := make(chan struct{})
	go func() {
		fds := []PollFD{{FD: conn, Events: linux.POLLIN}}
		close(start)
		t0 := time.Now()
		n, errno := p.Poll(fds, int64(5*time.Second))
		done <- res{n, errno, time.Since(t0)}
	}()
	<-start
	time.Sleep(2 * time.Millisecond) // let the poller block
	wrote := time.Now()
	if _, errno := p.SendTo(cli, []byte("wake"), 0, nil); errno != 0 {
		t.Fatalf("send: %v", errno)
	}
	r := <-done
	latency := time.Since(wrote)
	if r.errno != 0 || r.n != 1 {
		t.Fatalf("poll: n=%d %v", r.n, r.errno)
	}
	if latency > 50*time.Millisecond {
		t.Fatalf("poll wakeup took %v — readiness looks sampled, not event-driven", latency)
	}
}

// A poll blocked forever must return EINTR promptly when a signal
// lands (the event path registers on the signal queue).
func TestPollSignalInterrupt(t *testing.T) {
	_, p := newTestProc(t)
	rfd, _, _ := p.Pipe2(0)
	done := make(chan linux.Errno, 1)
	go func() {
		fds := []PollFD{{FD: rfd, Events: linux.POLLIN}}
		_, errno := p.Poll(fds, -1)
		done <- errno
	}()
	time.Sleep(2 * time.Millisecond)
	p.PostSignal(linux.SIGUSR1)
	select {
	case errno := <-done:
		if errno != linux.EINTR {
			t.Fatalf("poll: %v, want EINTR", errno)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal never interrupted the blocked poll")
	}
}

// TestPollOnlyEpollFD: an epoll fd polled as a file is never ready and
// has no wait queues. A poll or epoll_wait whose only target is one
// waits like any other not-ready set: it times out with 0, or returns
// EINTR once a signal is posted.
func TestPollOnlyEpollFD(t *testing.T) {
	waits := []struct {
		name string
		wait func(p *Process, fd int32, timeoutNs int64) (int, linux.Errno)
	}{
		{"poll", func(p *Process, fd int32, timeoutNs int64) (int, linux.Errno) {
			return p.Poll([]PollFD{{FD: fd, Events: linux.POLLIN}}, timeoutNs)
		}},
		{"epoll_wait", func(p *Process, fd int32, timeoutNs int64) (int, linux.Errno) {
			outer, _ := p.EpollCreate(0)
			if errno := p.EpollCtl(outer, linux.EPOLL_CTL_ADD, fd, linux.EPOLLIN, 1); errno != 0 {
				return -1, errno
			}
			evs, errno := p.EpollWait(outer, 8, timeoutNs)
			return len(evs), errno
		}},
	}
	for _, c := range waits {
		t.Run(c.name, func(t *testing.T) {
			_, p := newTestProc(t)
			epfd, _ := p.EpollCreate(0)
			const timeout = 5 * time.Millisecond
			start := time.Now()
			if n, errno := c.wait(p, epfd, int64(timeout)); n != 0 || errno != 0 {
				t.Fatalf("timed wait: n=%d errno=%v, want 0, 0", n, errno)
			}
			if waited := time.Since(start); waited < timeout {
				t.Fatalf("timed wait returned after %v, before its %v deadline", waited, timeout)
			}
			done := make(chan linux.Errno, 1)
			go func() {
				_, errno := c.wait(p, epfd, -1)
				done <- errno
			}()
			// The wait returns EINTR whether the signal lands before it
			// blocks or after; the pause makes the blocked case the
			// likely one.
			time.Sleep(2 * time.Millisecond)
			p.PostSignal(linux.SIGUSR1)
			select {
			case errno := <-done:
				if errno != linux.EINTR {
					t.Fatalf("wait: %v, want EINTR", errno)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("signal never interrupted the blocked wait")
			}
		})
	}
}

// Epoll over sockets wakes event-driven too.
func TestEpollWakesOnSocketData(t *testing.T) {
	_, p := newTestProc(t)
	srv, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	addr := SockAddr{Family: linux.AF_INET, Port: 8091}
	p.Bind(srv, addr)
	p.Listen(srv, 4)
	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	p.Connect(cli, addr)
	conn, _, _ := p.Accept(srv, 0)

	epfd, _ := p.EpollCreate(0)
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, conn, linux.EPOLLIN, 99); errno != 0 {
		t.Fatalf("epoll_ctl: %v", errno)
	}
	done := make(chan []EpollEvent, 1)
	go func() {
		evs, _ := p.EpollWait(epfd, 8, int64(5*time.Second))
		done <- evs
	}()
	time.Sleep(2 * time.Millisecond)
	p.SendTo(cli, []byte("w"), 0, nil)
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Data != 99 {
			t.Fatalf("epoll events: %+v", evs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("epoll never woke")
	}
}

// --- cross-kernel traffic over a switch (the -race acceptance path) ---

func TestSwitchCrossKernelExchange(t *testing.T) {
	sw := net.NewSwitch()
	nodeA, err := sw.Node("10.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	nodeB, err := sw.Node("10.0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := NewKernel(), NewKernel()
	ka.SetNetBackend(nodeA)
	kb.SetNetBackend(nodeB)
	server := ka.NewProcess("server", nil, nil)
	client := kb.NewProcess("client", nil, nil)

	const conns = 8
	const msgs = 50
	addr := SockAddr{Family: linux.AF_INET, Port: 7000}
	ls, errno := server.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno != 0 {
		t.Fatalf("socket: %v", errno)
	}
	if errno := server.Bind(ls, addr); errno != 0 {
		t.Fatalf("bind: %v", errno)
	}
	if errno := server.Listen(ls, conns); errno != 0 {
		t.Fatalf("listen: %v", errno)
	}

	var wg sync.WaitGroup
	// Server: accept every connection, echo until EOF. One goroutine
	// per connection, like the WALI thread model.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < conns; i++ {
			cfd, _, errno := server.Accept(ls, 0)
			if errno != 0 {
				t.Errorf("accept: %v", errno)
				return
			}
			wg.Add(1)
			go func(fd int32) {
				defer wg.Done()
				buf := make([]byte, 64)
				for {
					n, _, errno := server.RecvFrom(fd, buf, 0)
					if errno != 0 || n == 0 {
						server.Close(fd)
						return
					}
					server.SendTo(fd, buf[:n], 0, nil)
				}
			}(cfd)
		}
	}()

	dest := SockAddr{Family: linux.AF_INET, Port: 7000, Addr: [4]byte{10, 0, 0, 1}}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fd, errno := client.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
			if errno != 0 {
				t.Errorf("client socket: %v", errno)
				return
			}
			if errno := client.Connect(fd, dest); errno != 0 {
				t.Errorf("cross-kernel connect: %v", errno)
				return
			}
			buf := make([]byte, 64)
			for m := 0; m < msgs; m++ {
				msg := []byte{byte(id), byte(m)}
				if _, errno := client.SendTo(fd, msg, 0, nil); errno != 0 {
					t.Errorf("send: %v", errno)
					return
				}
				n, _, errno := client.RecvFrom(fd, buf[:2], 0)
				for total := n; errno == 0 && total < 2; {
					n, _, errno = client.RecvFrom(fd, buf[total:2], 0)
					total += n
				}
				if errno != 0 {
					t.Errorf("recv: %v", errno)
					return
				}
				if buf[0] != byte(id) || buf[1] != byte(m) {
					t.Errorf("echo mismatch: got %v want [%d %d]", buf[:2], id, m)
					return
				}
			}
			client.Close(fd)
		}(c)
	}
	wg.Wait()

	// The two kernels' loopback port spaces stay disjoint: a client
	// socket in kernel B dialing 127.0.0.1:7000 finds nothing.
	fd, _ := client.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := client.Connect(fd, SockAddr{Family: linux.AF_INET, Port: 7000, Addr: [4]byte{127, 0, 0, 1}}); errno != linux.ECONNREFUSED {
		t.Fatalf("kernel-B loopback reached kernel A: %v", errno)
	}
}

// --- blocking accept wakes on connect (regression for the rewrite) ---

func TestAcceptBlocksUntilConnect(t *testing.T) {
	_, p := newTestProc(t)
	srv, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	addr := SockAddr{Family: linux.AF_INET, Port: 8092}
	p.Bind(srv, addr)
	p.Listen(srv, 4)
	done := make(chan linux.Errno, 1)
	go func() {
		_, _, errno := p.Accept(srv, 0)
		done <- errno
	}()
	time.Sleep(2 * time.Millisecond)
	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	if errno := p.Connect(cli, addr); errno != 0 {
		t.Fatalf("connect: %v", errno)
	}
	select {
	case errno := <-done:
		if errno != 0 {
			t.Fatalf("accept: %v", errno)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept never woke")
	}
}

// A poll blocked on a listening socket must end (POLLHUP) when the
// listener is torn down out from under it, e.g. HostNet.Close.
func TestPollWakesOnListenerClose(t *testing.T) {
	_, p := newTestProc(t)
	srv, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	p.Bind(srv, SockAddr{Family: linux.AF_INET, Port: 8093})
	p.Listen(srv, 4)
	done := make(chan PollFD, 1)
	go func() {
		fds := []PollFD{{FD: srv, Events: linux.POLLIN}}
		p.Poll(fds, int64(5*time.Second))
		done <- fds[0]
	}()
	time.Sleep(2 * time.Millisecond)
	// Tear the listener down behind the socket (backend-side close, as
	// HostNet.Close does), not via the fd.
	s, _ := p.getSocket(srv)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	ln.Close()
	select {
	case fd := <-done:
		if fd.Revents&linux.POLLHUP == 0 {
			t.Fatalf("revents = %#x, want POLLHUP", fd.Revents)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("poll never woke on listener close")
	}
}

// Nonblocking connect follows the EINPROGRESS → POLLOUT → SO_ERROR
// protocol instead of stalling the caller in the backend dial.
func TestNonblockConnect(t *testing.T) {
	_, p := newTestProc(t)
	srv, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM, 0)
	addr := SockAddr{Family: linux.AF_INET, Port: 8094}
	p.Bind(srv, addr)
	p.Listen(srv, 4)

	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM|linux.SOCK_NONBLOCK, 0)
	if errno := p.Connect(cli, addr); errno != linux.EINPROGRESS {
		t.Fatalf("nonblock connect: %v, want EINPROGRESS", errno)
	}
	// Poll for writability (the async dial completing).
	fds := []PollFD{{FD: cli, Events: linux.POLLOUT}}
	if n, errno := p.Poll(fds, int64(5*time.Second)); errno != 0 || n != 1 {
		t.Fatalf("poll: n=%d %v", n, errno)
	}
	if fds[0].Revents&linux.POLLERR != 0 {
		t.Fatalf("revents = %#x, want success", fds[0].Revents)
	}
	if v, errno := p.GetSockOpt(cli, linux.SOL_SOCKET, linux.SO_ERROR); errno != 0 || v != 0 {
		t.Fatalf("SO_ERROR = %d %v, want 0", v, errno)
	}
	// A second connect reports the established state.
	if errno := p.Connect(cli, addr); errno != linux.EISCONN {
		t.Fatalf("re-connect: %v, want EISCONN", errno)
	}
	// The connection really works.
	conn, _, errno := p.Accept(srv, 0)
	if errno != 0 {
		t.Fatalf("accept: %v", errno)
	}
	if _, errno := p.SendTo(cli, []byte("nb"), 0, nil); errno != 0 {
		t.Fatalf("send: %v", errno)
	}
	buf := make([]byte, 4)
	if n, _, errno := p.RecvFrom(conn, buf, 0); errno != 0 || string(buf[:n]) != "nb" {
		t.Fatalf("recv: %q %v", buf[:n], errno)
	}
}

func TestNonblockConnectRefused(t *testing.T) {
	_, p := newTestProc(t)
	cli, _ := p.SocketSyscall(linux.AF_INET, linux.SOCK_STREAM|linux.SOCK_NONBLOCK, 0)
	errno := p.Connect(cli, SockAddr{Family: linux.AF_INET, Port: 9998})
	if errno != linux.EINPROGRESS {
		t.Fatalf("connect: %v, want EINPROGRESS", errno)
	}
	fds := []PollFD{{FD: cli, Events: linux.POLLOUT}}
	if n, errno := p.Poll(fds, int64(5*time.Second)); errno != 0 || n != 1 {
		t.Fatalf("poll: n=%d %v", n, errno)
	}
	if fds[0].Revents&linux.POLLERR == 0 {
		t.Fatalf("revents = %#x, want POLLERR", fds[0].Revents)
	}
	if v, _ := p.GetSockOpt(cli, linux.SOL_SOCKET, linux.SO_ERROR); v != int32(linux.ECONNREFUSED) {
		t.Fatalf("SO_ERROR = %d, want ECONNREFUSED", v)
	}
	// SO_ERROR is consumed by the read.
	if v, _ := p.GetSockOpt(cli, linux.SOL_SOCKET, linux.SO_ERROR); v != 0 {
		t.Fatalf("second SO_ERROR = %d, want 0", v)
	}
}

// EPOLL_CTL_ADD of a ready fd must wake an already-blocked epoll_wait
// (the wait armed on the old interest snapshot's queues only).
func TestEpollCtlWakesBlockedWait(t *testing.T) {
	_, p := newTestProc(t)
	epfd, _ := p.EpollCreate(0)
	rfd, wfd, _ := p.Pipe2(0)
	p.Write(wfd, []byte("ready before add"))

	done := make(chan []EpollEvent, 1)
	go func() {
		evs, _ := p.EpollWait(epfd, 8, int64(5*time.Second))
		done <- evs
	}()
	time.Sleep(2 * time.Millisecond) // let the waiter block on an empty interest list
	if errno := p.EpollCtl(epfd, linux.EPOLL_CTL_ADD, rfd, linux.EPOLLIN, 5); errno != 0 {
		t.Fatalf("epoll_ctl: %v", errno)
	}
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Data != 5 {
			t.Fatalf("events: %+v", evs)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("EPOLL_CTL_ADD never woke the blocked wait")
	}
}
