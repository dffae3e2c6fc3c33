package core

import (
	"sync/atomic"
	"time"
)

// Per-process syscall accounting (Fig. 7's wali+kernel attribution).
//
// Counters live on the Process, not in a WALI-wide map: every syscall
// return bumps two atomics on its own process's cache line, so N guests
// account concurrently with zero shared state — the engine-wide map that
// used to sit behind a global mutex (and leaked an entry per PID forever)
// is gone. SyscallStats aggregates on demand instead.

// syscallCounters is a cache-line padded pair of atomic counters.
type syscallCounters struct {
	timeNs atomic.Int64
	n      atomic.Uint64
	_      [48]byte // keep neighboring processes' counters off this line
}

// clockEpoch anchors syscall timing. time.Now reads both the wall and
// the monotonic clock; time.Since on a Time that carries a monotonic
// reading reads only the monotonic one. Timing a syscall as the
// difference of two sinceEpoch calls is two clock reads instead of
// three, and the clock reads are most of a no-op syscall's cost.
var clockEpoch = time.Now()

// sinceEpoch is the monotonic time since clockEpoch.
func sinceEpoch() time.Duration { return time.Since(clockEpoch) }

func (c *syscallCounters) add(d time.Duration) {
	c.timeNs.Add(int64(d))
	c.n.Add(1)
}

func (c *syscallCounters) snapshot() (time.Duration, uint64) {
	return time.Duration(c.timeNs.Load()), c.n.Load()
}

// statTotals is a retired process's final accounting.
type statTotals struct {
	t time.Duration
	n uint64
}

// retainedStatsMax bounds the retired-stats window. PID-keyed queries
// for long-dead processes return zero; under spawn/execve storms the
// window evicts FIFO instead of growing without bound (the old maps kept
// every PID ever seen).
const retainedStatsMax = 256

// finishProcess atomically moves a finished process out of the live
// table and its totals into the bounded retired window (both locks held
// together, always mu before retMu, so aggregate readers never see a
// process in both places or in neither).
func (w *WALI) finishProcess(p *Process) {
	pid := p.KP.PID
	t, n := p.stats.snapshot()
	w.mu.Lock()
	w.retMu.Lock()
	delete(w.procs, pid)
	if n > 0 {
		if w.retained == nil {
			w.retained = make(map[int32]statTotals)
		}
		if _, ok := w.retained[pid]; !ok {
			w.retOrder = append(w.retOrder, pid)
		}
		w.retained[pid] = statTotals{t, n}
		for len(w.retained) > retainedStatsMax {
			evict := w.retOrder[0]
			w.retOrder = w.retOrder[1:]
			delete(w.retained, evict)
		}
	}
	w.retMu.Unlock()
	w.mu.Unlock()
}

// SyscallStats reports accumulated handler time and count for pid
// (Fig. 7's wali+kernel attribution): live processes read their own
// counters; recently exited ones come from the bounded retired window.
func (w *WALI) SyscallStats(pid int32) (time.Duration, uint64) {
	w.mu.Lock()
	p := w.procs[pid]
	w.mu.Unlock()
	if p != nil {
		return p.stats.snapshot()
	}
	w.retMu.Lock()
	defer w.retMu.Unlock()
	s := w.retained[pid]
	return s.t, s.n
}

// SyscallStatsTotal aggregates handler time and count across every live
// process and the retired window — the engine-wide view scale-out
// harnesses read after a run. Both locks are held together so a process
// mid-retirement is counted exactly once.
func (w *WALI) SyscallStatsTotal() (time.Duration, uint64) {
	var t time.Duration
	var n uint64
	w.mu.Lock()
	w.retMu.Lock()
	for _, p := range w.procs {
		pt, pn := p.stats.snapshot()
		t += pt
		n += pn
	}
	for _, s := range w.retained {
		t += s.t
		n += s.n
	}
	w.retMu.Unlock()
	w.mu.Unlock()
	return t, n
}

// AddHook subscribes fn to every syscall event, alongside any Hook
// field. Registration is copy-on-write: the dispatch fast path is one
// atomic load, and with no subscribers at all no event is even built.
// fn must be safe for concurrent use.
func (w *WALI) AddHook(fn func(ev SyscallEvent)) {
	w.hooksMu.Lock()
	defer w.hooksMu.Unlock()
	old := w.hooks.Load()
	var next []func(SyscallEvent)
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, fn)
	w.hooks.Store(&next)
}

// emitSyscall fans one completed syscall out to the subscribers. The
// no-subscriber path is two loads and no allocation.
func (w *WALI) emitSyscall(pid int32, name string, dur time.Duration, ret int64) {
	hs := w.hooks.Load()
	if w.Hook == nil && hs == nil {
		return
	}
	ev := SyscallEvent{PID: pid, Name: name, Duration: dur, Ret: ret}
	if w.Hook != nil {
		w.Hook(ev)
	}
	if hs != nil {
		for _, h := range *hs {
			h(ev)
		}
	}
}
