package core

import (
	"sync/atomic"
	"time"
)

// Per-process syscall accounting (Fig. 7's wali+kernel attribution).
//
// Counters live on the Process, not in a WALI-wide map: every syscall
// return bumps two atomics on its own process's cache line, so N guests
// account concurrently with zero shared state. SyscallStats reads them
// on demand, for live processes only.

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

// finishProcess drops a finished process from the live table; its
// syscall accounting goes with it.
func (w *WALI) finishProcess(p *Process) {
	w.mu.Lock()
	delete(w.procs, p.KP.PID)
	w.mu.Unlock()
}

// SyscallStats reports accumulated handler time and count for a live
// process (Fig. 7's wali+kernel attribution), read from the process's
// own counters. A process that has finished reports zero: a caller
// that needs totals past exit reads them while the process lives or
// accumulates them through Hook.
func (w *WALI) SyscallStats(pid int32) (time.Duration, uint64) {
	w.mu.Lock()
	p := w.procs[pid]
	w.mu.Unlock()
	if p == nil {
		return 0, 0
	}
	return p.stats.snapshot()
}
