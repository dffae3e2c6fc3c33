package kernel

import (
	"sync"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// poll(2), select and epoll. Readiness is level-triggered. Blocking
// waits are event-driven: each file exposes its wait queues through
// the pollWaitable interface, the waiter arms on all of them (plus
// the signal queue, for EINTR), re-checks, and sleeps until a wakeup
// or the deadline — so a socket or pipe becoming ready turns into a
// poll return at wakeup cost.

// pollWaitable is implemented by files with event-driven readiness:
// PollQueues returns every wait queue whose wakeup may change the
// file's Poll result. It is part of the file contract: a file whose
// Poll can report not-ready must expose its queues here, because a
// poll over files that are not ready waits only for their queues, a
// signal or the deadline. A file that is always ready (regular files,
// stateless devices) or never ready (an epoll fd polled as a file)
// needs none.
type pollWaitable interface {
	PollQueues() []*waitq.Queue
}

// PollFD mirrors struct pollfd.
type PollFD struct {
	FD      int32
	Events  int16
	Revents int16
}

// pollScan samples every fd once, filling Revents, and returns the
// ready count; when w is non-nil it is armed on every file's wait
// queues. Per fd the order is arm-then-check: the waiter registers on
// the file's queues BEFORE sampling Poll(), so a readiness edge between
// the two lands a wakeup instead of falling into the no-waiter fast
// path and getting lost.
func (p *Process) pollScan(fds []PollFD, w *waitq.Waiter, armed *[]*waitq.Queue) int {
	ready := 0
	for i := range fds {
		fds[i].Revents = 0
		if fds[i].FD < 0 {
			continue
		}
		f, errno := p.FDs.Get(fds[i].FD)
		if errno != 0 {
			fds[i].Revents = linux.POLLNVAL
			ready++
			continue
		}
		armOn(f, w, armed)
		ev := f.Poll()
		mask := fds[i].Events | linux.POLLHUP | linux.POLLERR
		if got := ev & mask; got != 0 {
			fds[i].Revents = got
			ready++
		}
	}
	return ready
}

// armOn registers w (when non-nil) on f's wait queues, recording each
// in armed for the disarm.
func armOn(f File, w *waitq.Waiter, armed *[]*waitq.Queue) {
	if w == nil {
		return
	}
	if pw, ok := f.(pollWaitable); ok {
		for _, q := range pw.PollQueues() {
			q.Add(w)
			*armed = append(*armed, q)
		}
	}
}

// Poll implements poll(2)/ppoll(2). timeoutNs < 0 blocks indefinitely.
func (p *Process) Poll(fds []PollFD, timeoutNs int64) (int, linux.Errno) {
	var deadline time.Time
	if timeoutNs >= 0 {
		deadline = time.Now().Add(time.Duration(timeoutNs))
	}
	var w *waitq.Waiter
	var armed []*waitq.Queue
	disarm := func() {
		for _, q := range armed {
			q.Remove(w)
		}
		armed = armed[:0]
	}
	for {
		// Arm-then-check: queues are registered during the scan, so a
		// readiness edge after the scan still lands a wakeup.
		if w != nil {
			w.Clear()
		}
		ready := p.pollScan(fds, w, &armed)
		if ready > 0 {
			disarm()
			return ready, 0
		}
		if timeoutNs == 0 {
			disarm()
			return 0, 0
		}
		if timeoutNs > 0 && !time.Now().Before(deadline) {
			disarm()
			return 0, 0
		}
		if p.HasDeliverableSignal() {
			disarm()
			return 0, linux.EINTR
		}
		if w == nil {
			// First not-ready pass: build the waiter, register for
			// signal wakeups, and rescan with arming enabled.
			w = waitq.NewWaiter()
			p.sig.pollQ.Add(w)
			defer p.sig.pollQ.Remove(w)
			continue
		}
		// No locks are held here, so the slot release brackets the
		// event wait directly; wakeups land on w.C regardless.
		p.BeginBlock()
		p.pollBlock(w, timeoutNs, deadline)
		p.EndBlock()
		disarm()
	}
}

// pollBlock sleeps until a wakeup or the deadline.
func (p *Process) pollBlock(w *waitq.Waiter, timeoutNs int64, deadline time.Time) {
	if timeoutNs < 0 {
		<-w.C
		return
	}
	d := time.Until(deadline)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.C:
	case <-t.C:
	}
}

// Select implements select-style readiness over three fd sets expressed as
// bitmaps (one uint64 per 64 fds). Returns the total ready count.
func (p *Process) Select(nfds int32, read, write, except []uint64, timeoutNs int64) (int, linux.Errno) {
	getBit := func(set []uint64, fd int32) bool {
		if set == nil {
			return false
		}
		return set[fd/64]&(1<<(uint(fd)%64)) != 0
	}
	var fds []PollFD
	for fd := int32(0); fd < nfds; fd++ {
		var ev int16
		if getBit(read, fd) {
			ev |= linux.POLLIN
		}
		if getBit(write, fd) {
			ev |= linux.POLLOUT
		}
		if getBit(except, fd) {
			ev |= linux.POLLPRI
		}
		if ev != 0 {
			fds = append(fds, PollFD{FD: fd, Events: ev})
		}
	}
	n, errno := p.Poll(fds, timeoutNs)
	if errno != 0 {
		return 0, errno
	}
	clear := func(set []uint64) {
		for i := range set {
			set[i] = 0
		}
	}
	clear(read)
	clear(write)
	clear(except)
	total := 0
	for _, f := range fds {
		if f.Revents&linux.POLLIN != 0 && read != nil {
			read[f.FD/64] |= 1 << (uint(f.FD) % 64)
			total++
		}
		if f.Revents&linux.POLLOUT != 0 && write != nil {
			write[f.FD/64] |= 1 << (uint(f.FD) % 64)
			total++
		}
	}
	_ = n
	return total, 0
}

// --- epoll ---

type epollEntry struct {
	fd     int32
	events uint32
	data   uint64
}

// EpollFile is an epoll instance as a File. The interest list is keyed
// by guest fd; the descriptor table deregisters an fd when it is
// closed or replaced (dup2), so a recycled descriptor never reports
// the dead file's events.
type EpollFile struct {
	flagHolder
	p  *Process
	mu sync.Mutex
	// interest list keyed by fd
	items map[int32]epollEntry
	// q wakes blocked EpollWait calls when the interest list itself
	// changes (EPOLL_CTL_ADD of an already-ready fd must end a wait
	// that armed only on the old snapshot's queues).
	q waitq.Queue
}

// EpollCreate implements epoll_create1.
func (p *Process) EpollCreate(flags int32) (int32, linux.Errno) {
	ef := &EpollFile{p: p, items: make(map[int32]epollEntry)}
	return p.FDs.Alloc(ef, flags&linux.O_CLOEXEC != 0, 0)
}

// EpollCtl implements epoll_ctl.
func (p *Process) EpollCtl(epfd, op, fd int32, events uint32, data uint64) linux.Errno {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return errno
	}
	ef, ok := f.(*EpollFile)
	if !ok {
		return linux.EINVAL
	}
	if fd == epfd {
		return linux.EINVAL
	}
	if _, errno := p.FDs.Get(fd); errno != 0 {
		return errno
	}
	ef.mu.Lock()
	defer ef.mu.Unlock()
	switch op {
	case linux.EPOLL_CTL_ADD:
		if _, exists := ef.items[fd]; exists {
			return linux.EEXIST
		}
		ef.items[fd] = epollEntry{fd: fd, events: events, data: data}
	case linux.EPOLL_CTL_MOD:
		if _, exists := ef.items[fd]; !exists {
			return linux.ENOENT
		}
		ef.items[fd] = epollEntry{fd: fd, events: events, data: data}
	case linux.EPOLL_CTL_DEL:
		if _, exists := ef.items[fd]; !exists {
			return linux.ENOENT
		}
		delete(ef.items, fd)
	default:
		return linux.EINVAL
	}
	ef.q.Wake() // a blocked wait re-snapshots the interest list
	return 0
}

// forget drops fd from the interest list (descriptor closed or
// replaced). Part of the FDTable teardown path.
func (e *EpollFile) forget(fd int32) {
	e.mu.Lock()
	delete(e.items, fd)
	e.mu.Unlock()
	e.q.Wake()
}

// EpollEvent is one ready event.
type EpollEvent struct {
	Events uint32
	Data   uint64
}

// epollScan samples the interest list, arming w (when non-nil) on
// every waitable file. As in pollScan, each file is armed BEFORE its
// readiness sample so an edge between the two cannot be lost.
func (p *Process) epollScan(ef *EpollFile, maxEvents int, w *waitq.Waiter, armed *[]*waitq.Queue) []EpollEvent {
	if w != nil {
		// Interest-list mutations (EpollCtl) must also end the wait.
		ef.q.Add(w)
		*armed = append(*armed, &ef.q)
	}
	ef.mu.Lock()
	items := make([]epollEntry, 0, len(ef.items))
	for _, it := range ef.items {
		items = append(items, it)
	}
	ef.mu.Unlock()

	var out []EpollEvent
	for _, it := range items {
		file, errno := p.FDs.Get(it.fd)
		if errno != 0 {
			continue
		}
		armOn(file, w, armed)
		ev := uint32(uint16(file.Poll()))
		if got := ev & (it.events | linux.EPOLLHUP | linux.EPOLLERR); got != 0 && len(out) < maxEvents {
			out = append(out, EpollEvent{Events: got, Data: it.data})
		}
	}
	return out
}

// EpollWait implements epoll_wait (level-triggered).
func (p *Process) EpollWait(epfd int32, maxEvents int, timeoutNs int64) ([]EpollEvent, linux.Errno) {
	f, errno := p.FDs.Get(epfd)
	if errno != 0 {
		return nil, errno
	}
	ef, ok := f.(*EpollFile)
	if !ok {
		return nil, linux.EINVAL
	}
	var deadline time.Time
	if timeoutNs >= 0 {
		deadline = time.Now().Add(time.Duration(timeoutNs))
	}
	var w *waitq.Waiter
	var armed []*waitq.Queue
	disarm := func() {
		for _, q := range armed {
			q.Remove(w)
		}
		armed = armed[:0]
	}
	for {
		if w != nil {
			w.Clear()
		}
		out := p.epollScan(ef, maxEvents, w, &armed)
		if len(out) > 0 {
			disarm()
			return out, 0
		}
		if timeoutNs == 0 {
			disarm()
			return nil, 0
		}
		if timeoutNs > 0 && !time.Now().Before(deadline) {
			disarm()
			return nil, 0
		}
		if p.HasDeliverableSignal() {
			disarm()
			return nil, linux.EINTR
		}
		if w == nil {
			w = waitq.NewWaiter()
			p.sig.pollQ.Add(w)
			defer p.sig.pollQ.Remove(w)
			continue
		}
		p.BeginBlock()
		p.pollBlock(w, timeoutNs, deadline)
		p.EndBlock()
		disarm()
	}
}

// --- File interface for EpollFile ---

// Read implements File.
func (e *EpollFile) Read(b []byte) (int, linux.Errno) { return 0, linux.EINVAL }

// Write implements File.
func (e *EpollFile) Write(b []byte) (int, linux.Errno) { return 0, linux.EINVAL }

// Pread implements File.
func (e *EpollFile) Pread(b []byte, off int64) (int, linux.Errno) { return 0, linux.EINVAL }

// Pwrite implements File.
func (e *EpollFile) Pwrite(b []byte, off int64) (int, linux.Errno) { return 0, linux.EINVAL }

// Lseek implements File.
func (e *EpollFile) Lseek(off int64, whence int32) (int64, linux.Errno) { return 0, linux.ESPIPE }

// Stat implements File.
func (e *EpollFile) Stat() (linux.Stat, linux.Errno) {
	return linux.Stat{Mode: linux.S_IFREG, Blksize: 4096}, 0
}

// Truncate implements File.
func (e *EpollFile) Truncate(int64) linux.Errno { return linux.EINVAL }

// Close implements File.
func (e *EpollFile) Close() linux.Errno { return 0 }

// Poll implements File.
func (e *EpollFile) Poll() int16 { return 0 }

// Ioctl implements File.
func (e *EpollFile) Ioctl(cmd uint32, arg []byte) (int32, linux.Errno) {
	return 0, linux.ENOTTY
}
