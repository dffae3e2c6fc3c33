package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// lineWriter hands each strace line to a channel.
type lineWriter chan string

func (c lineWriter) Write(b []byte) (int, error) {
	c <- string(b)
	return len(b), nil
}

// TestDispatchParity: a getpid issued by a guest import and one issued
// through Process.Syscall cross the same dispatch, so each is seen
// exactly once by every observer: Hook, the process counters, the
// latency histogram, the tracer and strace.
func TestDispatchParity(t *testing.T) {
	b := newApp("getpid", "pause")
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "getpid")
	f.Drop()
	b.call(f, "pause")
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	var hooks atomic.Int32
	w.Hook = func(ev SyscallEvent) {
		if ev.Name == "getpid" {
			hooks.Add(1)
		}
	}
	w.Metrics = obs.NewRegistry()
	w.Trace = obs.NewTracer(64)
	w.Trace.SetEnabled(true)
	lines := make(lineWriter, 8)
	w.Strace = obs.NewStraceWriter(lines)
	p, err := w.SpawnModule(m, "parity", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := w.Metrics.Histogram(`wali_syscall_latency_ns{syscall="getpid"}`)

	type counts struct{ hook, stats, hist, tracer int }
	read := func() counts {
		_, n := w.SyscallStats(p.KP.PID)
		c := counts{hook: int(hooks.Load()), stats: int(n), hist: int(hist.Count())}
		for _, ev := range w.Trace.Events() {
			if ev.Kind == obs.EvSyscall && ev.Name == "getpid" {
				c.tracer++
			}
		}
		return c
	}
	// The strace line is the last thing dispatch records, so once it
	// arrives every observer has seen the call.
	check := func(path string, want counts) {
		t.Helper()
		select {
		case line := <-lines:
			if !strings.Contains(line, "getpid()") {
				t.Fatalf("%s: strace line %q", path, line)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no strace line", path)
		}
		if got := read(); got != want {
			t.Fatalf("%s: observers saw %+v, want %+v", path, got, want)
		}
		select {
		case line := <-lines:
			t.Fatalf("%s: extra strace line %q", path, line)
		default:
		}
	}

	if ret := p.Syscall(p.Exec, "getpid"); ret != int64(p.KP.PID) {
		t.Fatalf("Process.Syscall getpid = %d, want %d", ret, p.KP.PID)
	}
	check("Process.Syscall", counts{1, 1, 1, 1})
	// The guest issues its getpid and then blocks in pause, which
	// records nothing until it returns.
	p.RunAsync()
	check("guest import", counts{2, 2, 2, 2})

	p.KP.PostSignal(linux.SIGKILL)
	if status, _ := p.Wait(); status != 128+linux.SIGKILL {
		t.Fatalf("status %d, want %d", status, 128+linux.SIGKILL)
	}
	w.WaitAll()
}

// TestStrictUnimplementedTraps: under Strict, a known Linux syscall
// WALI does not implement still links, but calling it traps instead of
// returning -ENOSYS.
func TestStrictUnimplementedTraps(t *testing.T) {
	b := newApp()
	uring := b.ImportFunc(Namespace, "SYS_io_uring_setup",
		[]wasm.ValType{wasm.I64, wasm.I64}, []wasm.ValType{wasm.I64})
	f := b.NewFunc(StartExport, nil, nil)
	f.I64Const(0).I64Const(0).Call(uring).Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	w.Strict = true
	p, err := w.SpawnModule(m, "strict", nil, nil)
	if err != nil {
		t.Fatalf("known syscall failed to link: %v", err)
	}
	_, err = p.Run()
	var trap *interp.Trap
	if !errors.As(err, &trap) || trap.Code != interp.TrapHost {
		t.Fatalf("run error %v, want a TrapHost trap", err)
	}
}

// TestWrongAritySyscallFailsLink: a registered syscall imported with
// the wrong parameter count is a link error, not a call-time surprise.
func TestWrongAritySyscallFailsLink(t *testing.T) {
	b := newApp()
	b.ImportFunc(Namespace, "SYS_getpid", []wasm.ValType{wasm.I64}, []wasm.ValType{wasm.I64})
	f := b.NewFunc(StartExport, nil, nil)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New().SpawnModule(m, "arity", nil, nil)
	var le *interp.LinkError
	if !errors.As(err, &le) {
		t.Fatalf("spawn error %v, want *interp.LinkError", err)
	}
}

// TestSyscallPendingFatalUnwinds: a layered-API syscall issued while a
// fatal signal is pending unwinds with the kill status, exactly like
// the guest-import path.
func TestSyscallPendingFatalUnwinds(t *testing.T) {
	w := New()
	var seen atomic.Int32
	w.Hook = func(SyscallEvent) { seen.Add(1) }
	p, err := w.SpawnCompiled(statApp(t, 0), "fatal", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.KP.PostSignal(linux.SIGTERM)
	defer func() {
		exit, ok := recover().(*interp.Exit)
		if !ok || exit.Status != 128+linux.SIGTERM {
			t.Fatalf("unwound with %+v, want *interp.Exit{Status: %d}", exit, 128+linux.SIGTERM)
		}
		if seen.Load() != 1 {
			t.Fatalf("hook saw %d events, want the unwinding call", seen.Load())
		}
	}()
	p.Syscall(p.Exec, "getpid")
	t.Fatal("Process.Syscall returned with a fatal signal pending")
}

var linkerSink *interp.Linker

// TestDispatchAllocs pins the allocation cost of the boundary: linking
// a process against the once-built WALI table allocates only the linker
// itself, and a no-argument syscall allocates its one result slot on
// the import path and nothing through Process.Syscall.
func TestDispatchAllocs(t *testing.T) {
	w := New()
	linkerSink = w.linker() // build the table outside the measurement
	if n := testing.AllocsPerRun(100, func() { linkerSink = w.linker() }); n > 2 {
		t.Errorf("per-spawn linker setup makes %.0f allocations, want ≤ 2", n)
	}

	// Two storms that differ only in their call count: everything a
	// spawn and run allocate besides the calls cancels out.
	const calls = 1000
	short, long, idle := statApp(t, calls), statApp(t, 2*calls), statApp(t, 0)
	run := func(c *interp.Compiled) {
		p, err := w.SpawnCompiled(c, "storm", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := p.Run(); err != nil || status != 0 {
			t.Fatalf("run: status=%d err=%v", status, err)
		}
	}
	run(short)
	run(long)
	shortAllocs := testing.AllocsPerRun(5, func() { run(short) })
	longAllocs := testing.AllocsPerRun(5, func() { run(long) })
	if extra := longAllocs - shortAllocs; extra > calls {
		t.Errorf("%d more guest getpid calls make %.0f more allocations (%.0f vs %.0f per run), want ≤ 1 per call",
			calls, extra, longAllocs, shortAllocs)
	}

	p, err := w.SpawnCompiled(idle, "layered", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { p.Syscall(p.Exec, "getpid") }); n != 0 {
		t.Errorf("Process.Syscall getpid makes %.2f allocations per call, want 0", n)
	}
}
