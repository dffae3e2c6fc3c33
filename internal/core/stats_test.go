package core

import (
	"sync/atomic"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/linux"
)

// statApp builds a minimal module issuing n getpid calls.
func statApp(t *testing.T, n int) *interp.Compiled {
	t.Helper()
	b := newApp("getpid")
	f := b.NewFunc(StartExport, nil, nil)
	for i := 0; i < n; i++ {
		b.call(f, "getpid")
		f.Drop()
	}
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSyscallStatsLive: per-PID stats come from the process's own
// counters while it lives — the Fig. 7 read pattern — and a finished
// process leaves nothing behind in the engine.
func TestSyscallStatsLive(t *testing.T) {
	b := newApp("getpid", "pause")
	f := b.NewFunc(StartExport, nil, nil)
	for i := 0; i < 7; i++ {
		b.call(f, "getpid")
		f.Drop()
	}
	b.call(f, "pause")
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	// Hook runs after the counters are bumped, so once it has seen the
	// seventh getpid the guest is blocked in pause with n == 7.
	seen := make(chan struct{})
	var getpids atomic.Int32
	w.Hook = func(ev SyscallEvent) {
		if ev.Name == "getpid" && getpids.Add(1) == 7 {
			close(seen)
		}
	}
	p, err := w.SpawnModule(m, "stats", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.KP.PID
	p.RunAsync()
	<-seen
	if d, n := w.SyscallStats(pid); n != 7 || d <= 0 {
		t.Fatalf("live stats: n=%d d=%v", n, d)
	}
	p.KP.PostSignal(linux.SIGKILL)
	if status, _ := p.Wait(); status != 128+linux.SIGKILL {
		t.Fatalf("status %d, want %d", status, 128+linux.SIGKILL)
	}
	w.WaitAll()
	if d, n := w.SyscallStats(pid); n != 0 || d != 0 {
		t.Fatalf("finished process still reports n=%d d=%v", n, d)
	}
	w.mu.Lock()
	live := len(w.procs)
	w.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d processes leaked in the live table", live)
	}
}
