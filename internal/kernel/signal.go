package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/kernel/waitq"
	"gowali/internal/linux"
)

// SignalState is the signal disposition table and process-directed pending
// set, shared within a thread group (CLONE_SIGHAND).
type SignalState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	actions [linux.NSIG + 1]linux.Sigaction
	pending uint64  // process-directed pending bit-vector
	queue   []int32 // delivery order for pending signals
	killed  bool    // SIGKILL latched; uncatchable

	// fast mirrors pending (with killed folded into the SIGKILL bit) for
	// the lock-free safepoint fast path. Written only with mu held; read
	// without it by HasDeliverableSignal, which is polled on every loop
	// back-edge of every interpreter thread.
	fast atomic.Uint64

	// ignored mirrors the set of signals whose disposition discards them
	// (SIG_IGN, or SIG_DFL with an ignore default), written only with mu
	// held. A pending ignored signal is never deliverable: it interrupts
	// no blocking call, and the lock-free checks skip it.
	ignored atomic.Uint64

	// threaded latches once the owning group spawns a second thread.
	// Multi-threaded groups keep the locked poll path: its lock pairing is
	// what orders the threads' shared wasm memory accesses (futex wake
	// protocols rely on it), matching the pre-fast-path behavior.
	threaded atomic.Bool

	// pollQ wakes group members blocked in event-driven poll/epoll
	// waits so a process-directed signal turns into EINTR immediately
	// instead of at the next readiness event.
	pollQ waitq.Queue
}

// refreshFast republishes the lock-free pending summary; callers hold s.mu.
func (s *SignalState) refreshFast() {
	v := s.pending
	if s.killed {
		v |= sigBit(linux.SIGKILL)
	}
	s.fast.Store(v)
}

// refreshIgnored republishes the ignored set from the action table;
// callers hold s.mu or own s exclusively. SIGKILL and SIGSTOP are never
// ignored, whatever a restored image says.
func (s *SignalState) refreshIgnored() {
	var v uint64
	for sig := int32(1); sig <= linux.NSIG; sig++ {
		if s.ignoredLocked(sig) {
			v |= sigBit(sig)
		}
	}
	s.ignored.Store(v &^ (sigBit(linux.SIGKILL) | sigBit(linux.SIGSTOP)))
}

// ignoredLocked reports whether sig's current disposition discards it.
func (s *SignalState) ignoredLocked(sig int32) bool {
	h := s.actions[sig].Handler
	return h == linux.SIG_IGN || (h == linux.SIG_DFL && defaultIgnored(sig))
}

func newSignalState() *SignalState {
	s := &SignalState{}
	s.cond = sync.NewCond(&s.mu)
	s.refreshIgnored()
	return s
}

func (s *SignalState) clone() *SignalState {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := newSignalState()
	c.actions = s.actions
	c.refreshIgnored()
	return c
}

// resetForExec restores caught handlers to SIG_DFL (SIG_IGN persists),
// per execve semantics.
func (s *SignalState) resetForExec() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.actions {
		if s.actions[i].Handler != linux.SIG_IGN {
			s.actions[i] = linux.Sigaction{}
		}
	}
	s.refreshIgnored()
}

func sigBit(sig int32) uint64 { return 1 << uint(sig-1) }

// defaultIgnored reports signals whose default action is to ignore.
func defaultIgnored(sig int32) bool {
	switch sig {
	case linux.SIGCHLD, linux.SIGURG, linux.SIGWINCH, linux.SIGCONT:
		return true
	}
	return false
}

// SigAction implements rt_sigaction: set (when act non-nil) and return the
// previous action.
func (p *Process) SigAction(sig int32, act *linux.Sigaction) (linux.Sigaction, linux.Errno) {
	if sig < 1 || sig > linux.NSIG || sig == linux.SIGKILL || sig == linux.SIGSTOP {
		if sig == linux.SIGKILL || sig == linux.SIGSTOP {
			if act != nil {
				return linux.Sigaction{}, linux.EINVAL
			}
		} else {
			return linux.Sigaction{}, linux.EINVAL
		}
	}
	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.actions[sig]
	if act != nil {
		s.actions[sig] = *act
		s.refreshIgnored()
	}
	return old, 0
}

// SigMask returns the per-thread blocked set.
func (p *Process) SigMask() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sigMask
}

// SigProcMask implements rt_sigprocmask, returning the previous mask.
// SIGKILL and SIGSTOP can never be blocked.
func (p *Process) SigProcMask(how int32, set *uint64) (uint64, linux.Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.sigMask
	if set != nil {
		v := *set &^ (sigBit(linux.SIGKILL) | sigBit(linux.SIGSTOP))
		switch how {
		case linux.SIG_BLOCK:
			p.sigMask |= v
		case linux.SIG_UNBLOCK:
			p.sigMask &^= *set
		case linux.SIG_SETMASK:
			p.sigMask = v
		default:
			return old, linux.EINVAL
		}
	}
	return old, 0
}

// PostSignal generates a process-directed signal (stage 2 of the paper's
// signal lifecycle: generation). Ignored-by-disposition signals are still
// queued (rt_sigpending shows them); discard happens at delivery, and
// until then HasDeliverableSignal does not count them.
func (p *Process) PostSignal(sig int32) linux.Errno {
	if sig == 0 {
		return 0
	}
	if sig < 1 || sig > linux.NSIG {
		return linux.EINVAL
	}
	s := p.sig
	s.mu.Lock()
	if sig == linux.SIGKILL {
		s.killed = true
	}
	if s.pending&sigBit(sig) == 0 {
		s.pending |= sigBit(sig)
		s.queue = append(s.queue, sig)
	}
	s.refreshFast()
	s.mu.Unlock()
	s.cond.Broadcast()
	s.pollQ.Wake()
	// Wake only this group's blocked wait4 calls (EINTR re-check); a
	// process-directed signal is deliverable to any thread in the group.
	p.group.notifyWaiters()
	return 0
}

// PostThreadSignal generates a thread-directed signal (tgkill).
func (p *Process) PostThreadSignal(sig int32) linux.Errno {
	if sig == 0 {
		return 0
	}
	if sig < 1 || sig > linux.NSIG {
		return linux.EINVAL
	}
	p.mu.Lock()
	p.pendingT |= sigBit(sig)
	p.pendingTFast.Store(p.pendingT)
	p.mu.Unlock()
	if sig == linux.SIGKILL {
		p.sig.mu.Lock()
		p.sig.killed = true
		p.sig.refreshFast()
		p.sig.mu.Unlock()
	}
	p.sig.cond.Broadcast()
	p.sig.pollQ.Wake()
	// Thread-directed: only this task's wait4 needs the EINTR re-check.
	p.notifyWaiters()
	return 0
}

// Killed reports whether SIGKILL was ever posted to the group.
func (p *Process) Killed() bool {
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return p.sig.killed
}

// PendingSet returns the union of thread- and process-pending signals
// (rt_sigpending).
func (p *Process) PendingSet() uint64 {
	p.mu.Lock()
	t := p.pendingT
	p.mu.Unlock()
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return t | p.sig.pending
}

// quiet reports, lock-free, that nothing but ignored signals is pending
// — the common case, which the interpreter's per-back-edge safepoint poll
// and every syscall return answer with a few atomic loads. A false
// result sends the caller to its authoritative locked path.
func (p *Process) quiet() bool {
	return !p.sig.threaded.Load() &&
		(p.pendingTFast.Load()|p.sig.fast.Load())&^p.sig.ignored.Load() == 0
}

// HasDeliverableSignal reports whether an unblocked signal that is not
// ignored is pending for this thread. Ignored signals stay pending until
// delivery discards them, but never count here, so a pending SIGCHLD
// under SIG_DFL cannot fail wait4 or any other blocking call with EINTR.
func (p *Process) HasDeliverableSignal() bool {
	if p.quiet() {
		return false
	}
	p.mu.Lock()
	mask := p.sigMask
	t := p.pendingT
	p.mu.Unlock()
	p.sig.mu.Lock()
	defer p.sig.mu.Unlock()
	return p.sig.deliverableLocked(t, mask)
}

// deliverableLocked is the authoritative predicate for a thread with
// pending set t and mask; s.mu held.
func (s *SignalState) deliverableLocked(t, mask uint64) bool {
	return (t|s.pending)&^mask&^s.ignored.Load() != 0 || s.killed
}

// PendingFatal reports — without consuming anything — whether an
// unblocked pending signal would terminate the process under its
// current disposition. The frontend checks this on every syscall
// return, mirroring Linux's return-to-userspace delivery point: a
// guest whose blocking syscall was interrupted by SIGKILL must die at
// the syscall boundary, not survive through straight-line code (with
// no safepoint back-edge) to a voluntary exit. Handler-backed and
// ignorable signals are left pending for safepoint delivery, where a
// Wasm handler can legally be invoked.
func (p *Process) PendingFatal() (int32, bool) {
	if p.quiet() {
		return 0, false
	}
	p.mu.Lock()
	mask := p.sigMask
	tPending := p.pendingT
	p.mu.Unlock()

	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return linux.SIGKILL, true
	}
	pend := tPending | s.pending
	for sig := int32(1); sig <= linux.NSIG; sig++ {
		b := sigBit(sig)
		if pend&b == 0 || mask&b != 0 {
			continue
		}
		if s.actions[sig].Handler == linux.SIG_DFL && DefaultTerminates(sig) {
			return sig, true
		}
	}
	return 0, false
}

// DeliverableSignal is a dequeued signal ready for handler dispatch.
type DeliverableSignal struct {
	Sig    int32
	Action linux.Sigaction
}

// NextDeliverableSignal dequeues the next unblocked pending signal
// (stage 3: delivery). Signals whose effective disposition is "ignore" are
// consumed silently; the caller (the WALI frontend) dispatches the rest:
// SIG_DFL terminate/stop semantics or a Wasm handler call. Returns ok=false
// when nothing is deliverable.
func (p *Process) NextDeliverableSignal() (DeliverableSignal, bool) {
	p.mu.Lock()
	mask := p.sigMask
	tPending := p.pendingT
	p.mu.Unlock()

	s := p.sig
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.killed {
		return DeliverableSignal{Sig: linux.SIGKILL}, true
	}

	// Thread-directed first, lowest signal number first.
	for sig := int32(1); sig <= linux.NSIG; sig++ {
		b := sigBit(sig)
		if tPending&b != 0 && mask&b == 0 {
			p.mu.Lock()
			p.pendingT &^= b
			p.pendingTFast.Store(p.pendingT)
			p.mu.Unlock()
			if s.ignoredLocked(sig) {
				continue
			}
			return DeliverableSignal{Sig: sig, Action: s.actions[sig]}, true
		}
	}

	for i := 0; i < len(s.queue); i++ {
		sig := s.queue[i]
		b := sigBit(sig)
		if mask&b != 0 {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.pending &^= b
		s.refreshFast()
		i--
		if s.ignoredLocked(sig) {
			continue
		}
		return DeliverableSignal{Sig: sig, Action: s.actions[sig]}, true
	}
	return DeliverableSignal{}, false
}

// SigSuspend atomically replaces the mask and waits for a deliverable
// signal, then restores the mask. Always returns EINTR, like the syscall.
func (p *Process) SigSuspend(tempMask uint64) linux.Errno {
	p.mu.Lock()
	old := p.sigMask
	p.sigMask = tempMask &^ (sigBit(linux.SIGKILL) | sigBit(linux.SIGSTOP))
	p.mu.Unlock()

	p.waitDeliverable()

	p.mu.Lock()
	p.sigMask = old
	p.mu.Unlock()
	return linux.EINTR
}

// Pause waits until any deliverable signal arrives.
func (p *Process) Pause() linux.Errno {
	p.waitDeliverable()
	return linux.EINTR
}

// waitDeliverable blocks until a deliverable signal is pending. The run
// slot is released only when actually about to sleep: the first
// not-deliverable check drops s.mu for BeginBlock and then rechecks —
// the predicate is state-based (pending bits), so a signal posted in
// the unlocked window is seen by the recheck, not lost.
func (p *Process) waitDeliverable() {
	s := p.sig
	blocked := false
	s.mu.Lock()
	for !p.hasDeliverableLocked(s) && !p.quiesce.Load() {
		if !blocked {
			s.mu.Unlock()
			blocked = true
			p.BeginBlock()
			s.mu.Lock()
			continue
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
	if blocked {
		p.EndBlock()
	}
}

// hasDeliverableLocked requires s.mu held.
func (p *Process) hasDeliverableLocked(s *SignalState) bool {
	p.mu.Lock()
	mask := p.sigMask
	t := p.pendingT
	p.mu.Unlock()
	return s.deliverableLocked(t, mask)
}

// SigTimedWait waits for one of the signals in set to become pending,
// dequeues and returns it. A nil timeout waits forever.
func (p *Process) SigTimedWait(set uint64, timeout *linux.Timespec) (int32, linux.Errno) {
	deadline := time.Time{}
	if timeout != nil {
		deadline = time.Now().Add(time.Duration(timeout.Nanos()))
	}
	s := p.sig
	// One BeginBlock for the whole wait, ended on any return path; the
	// state-based pending check makes the unlocked window benign.
	blocked := false
	endBlock := func() {
		if blocked {
			p.EndBlock()
		}
	}
	for {
		s.mu.Lock()
		p.mu.Lock()
		avail := (p.pendingT | s.pending) & set
		if avail != 0 {
			// Lowest-numbered available signal.
			for sig := int32(1); sig <= linux.NSIG; sig++ {
				b := sigBit(sig)
				if avail&b == 0 {
					continue
				}
				p.pendingT &^= b
				p.pendingTFast.Store(p.pendingT)
				if s.pending&b != 0 {
					s.pending &^= b
					for i, q := range s.queue {
						if q == sig {
							s.queue = append(s.queue[:i], s.queue[i+1:]...)
							break
						}
					}
					s.refreshFast()
				}
				p.mu.Unlock()
				s.mu.Unlock()
				endBlock()
				return sig, 0
			}
		}
		p.mu.Unlock()

		if p.quiesce.Load() {
			s.mu.Unlock()
			endBlock()
			return -1, linux.EINTR
		}
		if timeout != nil {
			if !time.Now().Before(deadline) {
				s.mu.Unlock()
				endBlock()
				return -1, linux.EAGAIN
			}
			// Timed wait: poll with a short sleep (the sim trades precise
			// timer queues for simplicity).
			s.mu.Unlock()
			if !blocked {
				blocked = true
				p.BeginBlock()
			}
			time.Sleep(200 * time.Microsecond)
			continue
		}
		if !blocked {
			s.mu.Unlock()
			blocked = true
			p.BeginBlock()
			continue
		}
		s.cond.Wait()
		s.mu.Unlock()
	}
}

// Kill implements kill(2) semantics for pid > 0, pid == 0 (caller's
// group), pid == -1 (all except init) and pid < -1 (group |pid|).
func (p *Process) Kill(pid int32, sig int32) linux.Errno {
	k := p.K
	switch {
	case pid > 0:
		t, ok := k.Process(pid)
		if !ok {
			return linux.ESRCH
		}
		return t.PostSignal(sig)
	case pid == 0:
		return k.killGroup(p.pgid, sig)
	case pid == -1:
		k.pidMu.RLock()
		targets := make([]*Process, 0, len(k.procs))
		for _, t := range k.procs {
			if t != p && t.PID != 1 {
				targets = append(targets, t)
			}
		}
		k.pidMu.RUnlock()
		for _, t := range targets {
			t.PostSignal(sig)
		}
		return 0
	default:
		return k.killGroup(-pid, sig)
	}
}

func (k *Kernel) killGroup(pgid int32, sig int32) linux.Errno {
	k.pidMu.RLock()
	var targets []*Process
	for _, t := range k.procs {
		t.mu.Lock()
		if t.pgid == pgid {
			targets = append(targets, t)
		}
		t.mu.Unlock()
	}
	k.pidMu.RUnlock()
	if len(targets) == 0 {
		return linux.ESRCH
	}
	for _, t := range targets {
		t.PostSignal(sig)
	}
	return 0
}

// Tgkill sends a thread-directed signal.
func (p *Process) Tgkill(tgid, tid, sig int32) linux.Errno {
	t, ok := p.K.Process(tid)
	if !ok {
		return linux.ESRCH
	}
	if tgid > 0 && t.TGID != tgid {
		return linux.ESRCH
	}
	return t.PostThreadSignal(sig)
}

// DefaultTerminates reports whether sig's default disposition kills the
// process (the WALI frontend consults this for SIG_DFL delivery).
func DefaultTerminates(sig int32) bool {
	if defaultIgnored(sig) {
		return false
	}
	switch sig {
	case linux.SIGSTOP, linux.SIGTSTP, linux.SIGTTIN, linux.SIGTTOU:
		return false // stop (not modeled as termination)
	}
	return true
}
