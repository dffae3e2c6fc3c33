package core

import (
	"runtime"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/kernel/sched"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// Fork is copy-on-write: parent and child share the parent's image and
// copy a page only when one of them writes it. These tests pin the
// guest-visible semantics (each process sees only its own writes, across
// generations, growth and host-side writes), the budget rules and the
// absence of a whole-image copy.

// guestCheck emits guest-side assertions into f. A failed check exits
// the process with its own code, so the test can name the check.
type guestCheck struct {
	b *appBuilder
	f *wasm.FuncBuilder
}

func (g guestCheck) store(addr, v int32) {
	g.f.I32Const(addr).I32Const(v).Store(wasm.OpI32Store, 0)
}

// top exits with code unless the i32 on the stack equals want.
func (g guestCheck) top(want, code int32) {
	g.f.I32Const(want).Op(wasm.OpI32Ne).If()
	g.b.call(g.f, "exit", int64(code))
	g.f.Drop()
	g.f.End()
}

// word exits with code unless the i32 at addr equals want.
func (g guestCheck) word(addr, want, code int32) {
	g.f.I32Const(addr).Load(wasm.OpI32Load, 0)
	g.top(want, code)
}

// childExit exits with the child's own exit code unless the wait status
// at addr reports a normal exit with want, so a check that failed in a
// descendant surfaces as the root's status.
func (g guestCheck) childExit(addr, want int32) {
	code := func() {
		g.f.I32Const(addr).Load(wasm.OpI32Load, 0).I32Const(8).Op(wasm.OpI32ShrU).I32Const(0xff).Op(wasm.OpI32And)
	}
	code()
	g.f.I32Const(want).Op(wasm.OpI32Ne).If()
	code()
	g.f.Op(wasm.OpI64ExtendI32U).Call(g.b.sys["exit"]).Drop()
	g.f.End()
}

// wait reaps one child into the wait status at addr. No EINTR retry: a
// pending SIGCHLD is ignored by default and must not interrupt wait4.
func (g guestCheck) wait(addr int32) {
	g.b.call(g.f, "wait4", -1, int64(addr), 0, 0)
	g.f.Drop()
}

// fork calls fork into local r and opens the child's branch.
func (g guestCheck) fork(r uint32) {
	g.b.call(g.f, "fork")
	g.f.LocalSet(r)
	g.f.LocalGet(r).Op(wasm.OpI64Eqz).If()
}

const (
	fkX      = 512                // page 0: rewritten by every generation
	fkY      = wasm.PageSize + 64 // page 1: written by the parent only
	fkStatus = 1024               // wait4 status words
	fkPipe   = 1040               // two pipe2 fd pairs
	fkByte   = 1060               // the byte a pipe carries
	fkPath   = 1100
	fkRegion = wasm.PageSize + 4096 // 96 KiB spanning pages 1 and 2
	fkRegLen = 96 * 1024
	fkProbe  = fkRegion + 70000 // a word of the region on page 2
	fkGrown  = 4*wasm.PageSize + 8
)

// pipeFD pushes the i64 fd stored at addr.
func (g guestCheck) pipeFD(addr int32) {
	g.f.I32Const(addr).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
}

// signal writes one byte into the pipe whose fds are at pair; await
// blocks until that byte arrives. They order a write by one process
// before a read by its fork relative.
func (g guestCheck) signal(pair int32) {
	g.pipeFD(pair + 4)
	g.f.I64Const(fkByte).I64Const(1).Call(g.b.sys["write"]).Drop()
}

func (g guestCheck) await(pair int32) {
	g.pipeFD(pair)
	g.f.I64Const(fkByte).I64Const(1).Call(g.b.sys["read"]).Drop()
}

// buildForkGenerations: the parent forks a child, which dirties a page
// it shares with the parent and then forks a grandchild, so the
// grandchild starts on frozen pages of both older generations. Each
// generation rewrites shared pages after its fork, and pipes order
// those writes before the younger generation's checks. The child also
// overwrites a multi-page region through read(2) and grows memory.
// Every process exits with a failing check's code; the root exits 11.
func buildForkGenerations() *appBuilder {
	b := newApp("fork", "wait4", "exit", "open", "read", "write", "pipe2")
	b.Data(fkPath, []byte("/dev/zero\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	g := guestCheck{b, f}
	r, r2, fd := f.Local(wasm.I64), f.Local(wasm.I64), f.Local(wasm.I64)

	g.store(fkX, 11)
	g.store(fkY, 5)
	f.I32Const(fkRegion).I32Const(0x5A).I32Const(fkRegLen).MemoryFill()
	b.call(f, "pipe2", fkPipe, 0)
	f.Drop()
	g.fork(r)
	{ // child
		g.await(fkPipe)
		g.word(fkX, 11, 50)
		g.word(fkY, 5, 51)
		g.store(fkX, 22)
		b.call(f, "pipe2", fkPipe+8, 0)
		f.Drop()
		g.fork(r2)
		{ // grandchild
			g.await(fkPipe + 8)
			g.word(fkX, 22, 60)
			g.word(fkY, 5, 61)
			g.store(fkX, 33)
			g.word(fkX, 33, 62)
			b.call(f, "exit", 33)
			f.Drop()
		}
		f.End()
		g.store(fkX, 23) // a page the child owned before this fork
		g.signal(fkPipe + 8)
		g.wait(fkStatus + 4)
		g.childExit(fkStatus+4, 33)
		g.word(fkX, 23, 52)
		g.word(fkY, 5, 53)
		// A host-side write spanning pages: 96 KiB of zeros over the
		// region the parent filled.
		b.call(f, "open", fkPath, int64(linux.O_RDONLY), 0)
		f.LocalSet(fd)
		f.LocalGet(fd).I64Const(fkRegion).I64Const(fkRegLen).Call(b.sys["read"]).Op(wasm.OpI32WrapI64)
		g.top(fkRegLen, 54)
		g.word(fkProbe, 0, 55)
		f.I32Const(1).MemoryGrow()
		g.top(4, 56)
		g.store(fkGrown, 44)
		g.word(fkGrown, 44, 57)
		g.word(fkX, 23, 58)
		g.word(fkY, 5, 59)
		b.call(f, "exit", 22)
		f.Drop()
	}
	f.End()
	g.store(fkX, 12)
	g.store(fkY, 6)
	g.signal(fkPipe)
	g.wait(fkStatus)
	g.childExit(fkStatus, 22)
	g.word(fkX, 12, 70)
	g.word(fkY, 6, 71)
	g.word(fkProbe, 0x5A5A5A5A, 72)
	f.MemorySize()
	g.top(4, 73)
	b.call(f, "exit", 11)
	f.Drop()
	f.Finish()
	return b
}

// buildThreadedFork: a parent whose memory a thread shares forks; its
// image cannot be frozen under the thread, so fork copies it.
func buildThreadedFork() *appBuilder {
	b := newApp("clone", "futex", "fork", "wait4", "exit")
	tf := b.NewFunc("", []wasm.ValType{wasm.I32}, nil)
	tf.LocalGet(0).I32Const(123).Store(wasm.OpI32Store, 0)
	tf.LocalGet(0).Op(wasm.OpI64ExtendI32U)
	tf.I64Const(linux.FUTEX_WAKE).I64Const(64).I64Const(0).I64Const(0).I64Const(0)
	tf.Call(b.sys["futex"]).Drop()
	tIdx := tf.Finish()
	b.Table(4, 4)
	b.Elem(1, tIdx)

	f := b.NewFunc(StartExport, nil, nil)
	g := guestCheck{b, f}
	r := f.Local(wasm.I64)
	b.call(f, "clone", linux.CLONE_THREAD|linux.CLONE_VM, 1, 2048, 0, 0)
	f.Drop()
	f.Block()
	f.Loop()
	f.I32Const(2048).Load(wasm.OpI32Load, 0).BrIf(1)
	f.I64Const(2048).I64Const(linux.FUTEX_WAIT).I64Const(0).I64Const(0).I64Const(0).I64Const(0)
	f.Call(b.sys["futex"]).Drop()
	f.Br(0)
	f.End()
	f.End()
	g.store(fkX, 11)
	g.fork(r)
	g.word(fkX, 11, 80)
	g.word(2048, 123, 81)
	g.store(fkX, 22)
	b.call(f, "exit", 22)
	f.Drop()
	f.End()
	g.wait(fkStatus)
	g.childExit(fkStatus, 22)
	g.word(fkX, 11, 82)
	b.call(f, "exit", 11)
	f.Drop()
	f.Finish()
	return b
}

func TestForkMemoryIsolation(t *testing.T) {
	gens, threaded := buildForkGenerations(), buildThreadedFork()
	// Fork clones resumable interpreter state, so isolation must hold on
	// both IR-space execution tiers.
	for _, tier := range []interp.ExecTier{interp.TierFused, interp.TierIR} {
		t.Run(tier.String(), func(t *testing.T) {
			_, p, status, err := runAppOn(t, gens, nil, nil, tier)
			if err != nil || status != 11 {
				t.Fatalf("generations: status %d, want 11 (any other code names the failed check; err %v)", status, err)
			}
			if !p.Inst.Mem.CowActive() {
				t.Fatal("a forking parent with private memory should continue copy-on-write")
			}
			_, p, status, err = runAppOn(t, threaded, nil, nil, tier)
			if err != nil || status != 11 {
				t.Fatalf("threaded parent: status %d, want 11 (err %v)", status, err)
			}
			if p.Inst.Mem.CowActive() {
				t.Fatal("a thread-sharing parent's memory was frozen; fork must copy it")
			}
		})
	}
}

// buildForkBudget: the child grows by one page and then forks a
// grandchild; every process rewrites the pages it shares. Charges only
// rise until the grandchild exits, so each outcome is deterministic.
// Exit 0 means every step succeeded; fork failure exits with its errno.
func buildForkBudget() *appBuilder {
	b := newApp("fork", "wait4", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	g := guestCheck{b, f}
	r, r2 := f.Local(wasm.I64), f.Local(wasm.I64)
	touch := func(pages, v int32) {
		for p := int32(0); p < pages; p++ {
			g.store(p*wasm.PageSize+8, v)
		}
	}
	forkOrExit := func(r uint32) {
		b.call(f, "fork")
		f.LocalSet(r)
		f.LocalGet(r).I64Const(0).Op(wasm.OpI64LtS).If()
		f.I64Const(0).LocalGet(r).Op(wasm.OpI64Sub).Call(b.sys["exit"]).Drop()
		f.End()
		f.LocalGet(r).Op(wasm.OpI64Eqz).If()
	}
	touch(4, 1)
	forkOrExit(r)
	{ // child
		touch(1, 2) // growth collapses three pages never written here
		f.I32Const(1).MemoryGrow()
		g.top(4, 91)
		forkOrExit(r2)
		touch(5, 3) // grandchild
		b.call(f, "exit", 0)
		f.Drop()
		f.End()
		touch(5, 4)
		g.wait(fkStatus + 4)
		g.childExit(fkStatus+4, 0)
		b.call(f, "exit", 0)
		f.Drop()
	}
	f.End()
	touch(4, 5) // the parent rewrites pages it froze at fork
	g.wait(fkStatus)
	g.childExit(fkStatus, 0)
	b.call(f, "exit", 0)
	f.Drop()
	f.Finish()
	return b
}

// TestForkBudget: fork reserves the child's full image up front (EAGAIN
// when the tenant cannot cover it), copy-on-write pages are never
// charged a second time in parent, child or grandchild, growth still
// charges its delta, and the ledger drains to zero.
func TestForkBudget(t *testing.T) {
	m, err := buildForkBudget().Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Pages charged: parent 4, child 4 + 1 grown, grandchild 5.
	for _, tc := range []struct {
		name   string
		pages  int64
		status int32
	}{
		{"all fit", 14, 0},
		{"no room for grandchild", 13, int32(linux.EAGAIN)},
		{"no room to grow", 8, 91},
		{"no room for child", 7, int32(linux.EAGAIN)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New()
			tn := w.NewTenant("fork", sched.Budget{MaxMemory: tc.pages * wasm.PageSize})
			p, err := w.SpawnCompiledTenant(c, "forker", nil, nil, tn)
			if err != nil {
				t.Fatal(err)
			}
			status, runErr := p.Run()
			w.WaitAll()
			if runErr != nil || status != tc.status {
				t.Fatalf("status %d, want %d (err %v)", status, tc.status, runErr)
			}
			if inUse := tn.MemoryInUse(); inUse != 0 {
				t.Fatalf("tenant still charged %d bytes after every process exited", inUse)
			}
		})
	}
}

// TestForkDoesNotCopyImage: forking a 2 MiB guest allocates far less
// than one copy of its memory. Measured as heap bytes allocated between
// two host calls around the fork in the parent.
func TestForkDoesNotCopyImage(t *testing.T) {
	b := &appBuilder{Builder: wasm.NewBuilder("forkalloc"), sys: map[string]uint32{}}
	for _, s := range []string{"fork", "wait4", "exit"} {
		b.sys[s] = ImportSyscall(b.Builder, s)
	}
	mark := b.ImportFunc("env", "mark", nil, nil)
	const pages = 32
	b.Memory(pages, pages, false)
	f := b.NewFunc(StartExport, nil, nil)
	r := f.Local(wasm.I64)
	for p := int32(0); p < pages; p++ { // a fully written image
		f.I32Const(p*wasm.PageSize).I32Const(p+1).Store(wasm.OpI32Store, 0)
	}
	f.Call(mark)
	b.call(f, "fork")
	f.LocalSet(r)
	f.LocalGet(r).Op(wasm.OpI64Eqz).If()
	b.call(f, "exit", 0)
	f.Drop()
	f.End()
	f.Call(mark)
	b.call(f, "wait4", -1, 0, 0, 0)
	f.Drop()
	b.call(f, "exit", 0)
	f.Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	var ms [2]runtime.MemStats
	marks := 0
	w := New()
	w.ExtendLinker = func(l *interp.Linker) {
		l.DefineFunc("env", "mark", nil, nil, func(*interp.Exec, []uint64) []uint64 {
			if marks < len(ms) {
				runtime.ReadMemStats(&ms[marks])
			}
			marks++
			return nil
		})
	}
	p, err := w.SpawnModule(m, "forkalloc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, runErr := p.Run()
	w.WaitAll()
	if runErr != nil || status != 0 || marks != 2 {
		t.Fatalf("status %d, marks %d, err %v", status, marks, runErr)
	}
	const limit = 2 * wasm.PageSize
	if d := ms[1].TotalAlloc - ms[0].TotalAlloc; d >= limit {
		t.Fatalf("fork of a %d KiB guest allocated %d bytes, want < %d", pages*wasm.PageSize/1024, d, limit)
	}
}
