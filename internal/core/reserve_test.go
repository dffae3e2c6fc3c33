package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/kernel"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// Linear memory is a reservation unmapped only when the garbage
// collector finds its owner unreachable, and a forked child keeps
// reading its parent's frozen image through that mapping. This test
// makes every reader outlive the process whose image it reads: a root
// forks a child and exits, the child reads the root's image, forks a
// grandchild and exits, and the grandchild reads both older images.
// Before each read the test waits until the dead process's Memory has
// been collected, so an alias that did not hold the owner would read
// unmapped memory. At the end every reference is dropped and the
// reservation gauges must return to their baseline.

const (
	rlWord   = 16   // offset of the checked word in each page
	rlOut    = 1024 // the byte written to the console: 'k' or a failure code
	rlIn     = 1028 // the console byte that releases a reader
	rlPages  = 4
	rlTrees  = 2
	rlChildW = 2000 // the child's private value in page 1
	rlGrandW = 3000 // the grandchild's private value in page 2
)

// buildReservationChain: root -> child -> grandchild, each parent exiting
// right after its fork. Each descendant blocks on one console byte, checks
// the image it inherited, writes 'k' and exits; a failed check writes its
// code instead.
func buildReservationChain() *appBuilder {
	b := newApp("fork", "read", "write", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	r := f.Local(wasm.I64)
	page := func(p int32) int32 { return p*wasm.PageSize + rlWord }
	emit := func(code int32) {
		f.I32Const(rlOut).I32Const(code).Store(wasm.OpI32Store8, 0)
		b.call(f, "write", 1, rlOut, 1)
		f.Drop()
	}
	check := func(addr, want, code int32) {
		f.I32Const(addr).Load(wasm.OpI32Load, 0).I32Const(want).Op(wasm.OpI32Ne).If()
		emit(code)
		b.call(f, "exit", int64(code))
		f.Drop()
		f.End()
	}
	await := func(code int32) {
		b.call(f, "read", 0, rlIn, 1)
		f.Op(wasm.OpI32WrapI64)
		f.I32Const(1).Op(wasm.OpI32Ne).If()
		emit(code)
		b.call(f, "exit", int64(code))
		f.Drop()
		f.End()
	}
	forkChild := func() {
		b.call(f, "fork")
		f.LocalSet(r)
		f.LocalGet(r).Op(wasm.OpI64Eqz).If()
	}
	exit := func() {
		b.call(f, "exit", 0)
		f.Drop()
	}

	for p := int32(0); p < rlPages; p++ {
		f.I32Const(page(p)).I32Const(1000+p).Store(wasm.OpI32Store, 0)
	}
	forkChild()
	{ // child: reads the dead root's image
		await('a')
		for p := int32(0); p < rlPages; p++ {
			check(page(p), 1000+p, 'b'+p)
		}
		f.I32Const(page(1)).I32Const(rlChildW).Store(wasm.OpI32Store, 0)
		forkChild()
		{ // grandchild: reads the root's image and the child's page
			await('f')
			check(page(0), 1000, 'g')
			check(page(1), rlChildW, 'h')
			check(page(2), 1002, 'i')
			check(page(3), 1003, 'j')
			f.I32Const(page(2)).I32Const(rlGrandW).Store(wasm.OpI32Store, 0)
			check(page(2), rlGrandW, 'l')
			emit('k')
			exit()
		}
		f.End()
		emit('k')
		exit()
	}
	f.End()
	exit()
	f.Finish()
	return b
}

// collectUntil forces collections until done is closed.
func collectUntil(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became unreachable", what)
		}
	}
}

// onCollect returns a channel closed once every memory is collected.
func onCollect(mems ...*interp.Memory) <-chan struct{} {
	left := make(chan struct{}, len(mems))
	done := make(chan struct{})
	for _, m := range mems {
		runtime.AddCleanup(m, func(c chan struct{}) { c <- struct{}{} }, left)
	}
	go func() {
		for range mems {
			<-left
		}
		close(done)
	}()
	return done
}

// soleProcess returns the memory of the one live process of w.
func soleProcess(t *testing.T, w *WALI) *interp.Memory {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.procs) != 1 {
		t.Fatalf("%d live processes, want 1", len(w.procs))
	}
	for _, p := range w.procs {
		return p.Inst.Mem
	}
	return nil
}

// awaitOutput polls a console until it holds want, failing on any other
// content or at the deadline.
func awaitOutput(t *testing.T, c *kernel.ConsoleDevice, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := c.Output()
		if string(out) == want {
			return
		}
		if !bytes.HasPrefix([]byte(want), out) || time.Now().After(deadline) {
			t.Fatalf("console %q, want %q (any other letter names a failed check)", out, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReservationOutlivesForkParents(t *testing.T) {
	m, err := buildReservationChain().Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gauges := func() (int64, int64) {
		g := reg.Snapshot().Gauges
		return g[kernel.GaugeLinearMemories], g[kernel.GaugeLinearMemoryBytes]
	}

	ws := make([]*WALI, rlTrees)
	for i := range ws {
		ws[i] = New()
		ws[i].Kernel.SetObs(nil, reg)
	}
	// Earlier tests' reservations may still await their cleanups:
	// settle before taking the baseline.
	baseN, baseB := gauges()
	for stable := 0; stable < 3; {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n, b := gauges()
		if n == baseN && b == baseB {
			stable++
		} else {
			stable = 0
		}
		baseN, baseB = n, b
	}

	// Roots fork and exit; their memories must be collected while the
	// children still read through them.
	roots := make([]*interp.Memory, rlTrees)
	for i, w := range ws {
		p, err := w.SpawnCompiled(c, "root", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := p.Run(); err != nil || status != 0 {
			t.Fatalf("root: status %d, err %v", status, err)
		}
		roots[i] = p.Inst.Mem
	}
	// Elsewhere memories may be heap-backed and the gauges stay flat;
	// the guests' checks still hold.
	reserved := runtime.GOOS == "linux"
	if n, _ := gauges(); reserved && n <= baseN {
		t.Fatalf("reservations %d with live guests, baseline %d", n, baseN)
	}
	rootsGone := onCollect(roots...)
	roots = nil
	collectUntil(t, "the roots' memories", rootsGone)

	children := make([]*interp.Memory, rlTrees)
	for i, w := range ws {
		children[i] = soleProcess(t, w)
	}
	childrenGone := onCollect(children...)
	children = nil
	for _, w := range ws {
		w.Kernel.Console.FeedInput([]byte{1})
	}
	for _, w := range ws {
		awaitOutput(t, w.Kernel.Console, "k")
	}
	collectUntil(t, "the children's memories", childrenGone)

	for _, w := range ws {
		w.Kernel.Console.FeedInput([]byte{1})
	}
	for _, w := range ws {
		w.WaitAll()
		awaitOutput(t, w.Kernel.Console, "kk")
	}

	ws = nil
	if !reserved {
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n, b := gauges()
		if n <= baseN && b <= baseB {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservations %d (%d bytes) after every guest was dropped, baseline %d (%d bytes)", n, b, baseN, baseB)
		}
		time.Sleep(time.Millisecond)
	}
}
