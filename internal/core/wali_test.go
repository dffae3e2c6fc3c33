package core

import (
	"bytes"
	"strings"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// appBuilder wraps the module builder with WALI import plumbing — the
// test-local miniature of the paper's clang target.
type appBuilder struct {
	*wasm.Builder
	sys map[string]uint32
}

func newApp(syscalls ...string) *appBuilder {
	b := &appBuilder{Builder: wasm.NewBuilder("testapp"), sys: map[string]uint32{}}
	for _, s := range syscalls {
		b.sys[s] = ImportSyscall(b.Builder, s)
	}
	b.Memory(4, 64, false)
	return b
}

// call emits a syscall with constant arguments.
func (b *appBuilder) call(f *wasm.FuncBuilder, name string, args ...int64) {
	idx, ok := b.sys[name]
	if !ok {
		panic("syscall not imported: " + name)
	}
	d := registry[name]
	for _, a := range args {
		f.I64Const(a)
	}
	for i := len(args); i < d.NArgs; i++ {
		f.I64Const(0)
	}
	f.Call(idx)
}

// run builds the module, spawns it under a fresh WALI and runs to
// completion, returning the WALI, process, status and error.
func runApp(t *testing.T, b *appBuilder, argv []string, env []string) (*WALI, *Process, int32, error) {
	t.Helper()
	return runAppOn(t, b, argv, env, interp.TierFused)
}

// runAppOn is runApp pinned to a specific execution tier.
func runAppOn(t *testing.T, b *appBuilder, argv []string, env []string, tier interp.ExecTier) (*WALI, *Process, int32, error) {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	w := New()
	w.Tier = tier
	name := "app"
	if len(argv) > 0 {
		name = argv[0]
	}
	p, err := w.SpawnModule(m, name, argv, env)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	status, runErr := p.Run()
	w.WaitAll()
	return w, p, status, runErr
}

func TestHelloWorld(t *testing.T) {
	b := newApp("write")
	b.Data(1024, []byte("hello, wali\n"))
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "write", 1, 1024, 12)
	f.Drop()
	f.Finish()

	w, _, status, err := runApp(t, b, []string{"hello"}, nil)
	if err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	if got := string(w.Console().Output()); got != "hello, wali\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestExitStatus(t *testing.T) {
	b := newApp("exit")
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "exit", 42)
	f.Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 42 {
		t.Fatalf("status=%d err=%v", status, err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	b := newApp("open", "write", "read", "lseek", "close", "fstat")
	b.Data(1024, []byte("/tmp/t.txt\x00"))
	b.Data(1100, []byte("payload!"))
	f := b.NewFunc(StartExport, nil, []wasm.ValType{wasm.I32})
	fd := f.Local(wasm.I64)
	// fd = open(path, O_CREAT|O_RDWR, 0644)
	b.call(f, "open", 1024, linux.O_CREAT|linux.O_RDWR, 0o644)
	f.LocalSet(fd)
	// write(fd, 1100, 8)
	f.LocalGet(fd)
	f.I64Const(1100).I64Const(8).Call(b.sys["write"]).Drop()
	// lseek(fd, 0, SEEK_SET)
	f.LocalGet(fd)
	f.I64Const(0).I64Const(linux.SEEK_SET).Call(b.sys["lseek"]).Drop()
	// read(fd, 1200, 8)
	f.LocalGet(fd)
	f.I64Const(1200).I64Const(8).Call(b.sys["read"]).Drop()
	// fstat(fd, 1300)
	f.LocalGet(fd)
	f.I64Const(1300).Call(b.sys["fstat"]).Drop()
	// close(fd)
	f.LocalGet(fd)
	f.Call(b.sys["close"]).Drop()
	// return mem[1200..1208] == mem[1100..1108] ? 1 : 0 — compare i64 loads.
	f.I32Const(1200).Load(wasm.OpI64Load, 0)
	f.I32Const(1100).Load(wasm.OpI64Load, 0)
	f.Op(wasm.OpI64Eq)
	f.Finish()

	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	p, err := w.SpawnModule(m, "io", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fidx, _ := m.ExportedFunc(StartExport)
	res, err := p.Exec.Invoke(fidx)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 1 {
		t.Fatal("read-back mismatch")
	}
	// kstat layout written: size at offset 40 should be 8.
	sz, _ := p.Inst.Mem.ReadU64(1300 + 40)
	if sz != 8 {
		t.Fatalf("kstat size = %d, want 8", sz)
	}
}

func TestBadPointerReturnsEFAULT(t *testing.T) {
	b := newApp("write", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	// write(1, 0xFFFFFFF0, 64) — out of bounds, must be -EFAULT not a crash.
	b.call(f, "write", 1, 0xFFFFFFF0, 64)
	// exit(ret == -EFAULT ? 0 : 1)
	f.I64Const(-int64(linux.EFAULT)).Op(wasm.OpI64Eq)
	f.If(wasm.I32)
	f.I32Const(0)
	f.Else()
	f.I32Const(1)
	f.End()
	f.Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 0 {
		t.Fatalf("status=%d err=%v", status, err)
	}
}

func TestArgvEnvSupport(t *testing.T) {
	b := newApp("write", "exit")
	argc := b.ImportFunc(Namespace, "get_argc", nil, []wasm.ValType{wasm.I32})
	argvLen := b.ImportFunc(Namespace, "get_argv_len", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	copyArgv := b.ImportFunc(Namespace, "copy_argv", []wasm.ValType{wasm.I32, wasm.I32}, []wasm.ValType{wasm.I32})
	f := b.NewFunc(StartExport, nil, nil)
	n := f.Local(wasm.I32)
	// copy argv[1] to 2048 and write it (length from get_argv_len - 1).
	f.I32Const(2048).I32Const(1).Call(copyArgv).Drop()
	f.I32Const(1).Call(argvLen).I32Const(1).Op(wasm.OpI32Sub).LocalSet(n)
	f.I64Const(1).I64Const(2048).LocalGet(n).Op(wasm.OpI64ExtendI32U).Call(b.sys["write"]).Drop()
	// exit(get_argc())
	f.Call(argc).Op(wasm.OpI64ExtendI32U).Call(b.sys["exit"]).Drop()
	f.Finish()

	w, _, status, err := runApp(t, b, []string{"prog", "banana"}, []string{"X=1"})
	if err != nil {
		t.Fatal(err)
	}
	if status != 2 {
		t.Fatalf("argc = %d, want 2", status)
	}
	if got := string(w.Console().Output()); got != "banana" {
		t.Fatalf("argv[1] = %q", got)
	}
}

func TestForkWait(t *testing.T) {
	b := newApp("fork", "wait4", "write", "exit")
	b.Data(1024, []byte("C"))
	b.Data(1025, []byte("P"))
	f := b.NewFunc(StartExport, nil, nil)
	r := f.Local(wasm.I64)
	b.call(f, "fork")
	f.LocalSet(r)
	f.LocalGet(r).Op(wasm.OpI64Eqz)
	f.If()
	{ // child: write "C", exit 7
		b.call(f, "write", 1, 1024, 1)
		f.Drop()
		b.call(f, "exit", 7)
		f.Drop()
	}
	f.End()
	// parent: wait4(-1, 2000, 0, 0); write "P"; exit(WEXITSTATUS(mem[2000]))
	b.call(f, "wait4", -1, 2000, 0, 0)
	f.Drop()
	b.call(f, "write", 1, 1025, 1)
	f.Drop()
	f.I32Const(2000).Load(wasm.OpI32Load, 0)
	f.I32Const(8).Op(wasm.OpI32ShrU).I32Const(0xFF).Op(wasm.OpI32And)
	f.Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()

	w, _, status, err := runApp(t, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != 7 {
		t.Fatalf("parent exit = %d, want child's 7", status)
	}
	out := string(w.Console().Output())
	if !strings.Contains(out, "C") || !strings.Contains(out, "P") {
		t.Fatalf("output %q missing C or P", out)
	}
	// Fork memory isolation: child wrote its own status buffer copy only.
	if w.Kernel.ProcessCount() != 0 {
		t.Errorf("%d processes leaked", w.Kernel.ProcessCount())
	}
}

func TestSignalHandlerDelivery(t *testing.T) {
	b := newApp("rt_sigaction", "kill", "getpid", "exit")
	// Funcref table with the handler at slot 2.
	handler := b.NewFunc("", []wasm.ValType{wasm.I32}, nil)
	// handler(sig): mem[600] = sig
	handler.I32Const(600).LocalGet(0).Store(wasm.OpI32Store, 0)
	hIdx := handler.Finish()
	b.Table(4, 4)
	b.Elem(2, hIdx)

	f := b.NewFunc(StartExport, nil, nil)
	pid := f.Local(wasm.I64)
	// Build ksigaction at 700: handler=2 (table idx), flags=0, mask=0.
	f.I32Const(700).I32Const(2).Store(wasm.OpI32Store, 0)
	b.call(f, "rt_sigaction", linux.SIGUSR1, 700, 0, 8)
	f.Drop()
	b.call(f, "getpid")
	f.LocalSet(pid)
	// kill(pid, SIGUSR1) — delivery happens at the post-kill safepoint.
	f.I64Const(linux.SIGUSR1)
	// args must be (pid, sig): push pid first.
	// (re-emit correctly below)
	f.Drop()
	f.LocalGet(pid).I64Const(linux.SIGUSR1).Call(b.sys["kill"]).Drop()
	// exit(mem[600])
	f.I32Const(600).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()

	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != linux.SIGUSR1 {
		t.Fatalf("handler saw %d, want %d", status, linux.SIGUSR1)
	}
}

func TestSignalDefaultTerminates(t *testing.T) {
	b := newApp("kill", "getpid", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	pid := f.Local(wasm.I64)
	b.call(f, "getpid")
	f.LocalSet(pid)
	f.LocalGet(pid).I64Const(linux.SIGTERM).Call(b.sys["kill"]).Drop()
	b.call(f, "exit", 0) // unreachable: SIGTERM default kills first
	f.Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != 128+linux.SIGTERM {
		t.Fatalf("status = %d, want %d", status, 128+linux.SIGTERM)
	}
}

func TestSigreturnTraps(t *testing.T) {
	b := newApp("rt_sigreturn")
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "rt_sigreturn")
	f.Drop()
	f.Finish()
	_, _, _, err := runApp(t, b, nil, nil)
	trap, ok := err.(*interp.Trap)
	if !ok || trap.Code != interp.TrapHost {
		t.Fatalf("expected host trap for sigreturn, got %v", err)
	}
}

func TestProcSelfMemInterposition(t *testing.T) {
	b := newApp("open", "exit")
	b.Data(1024, []byte("/proc/self/mem\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "open", 1024, linux.O_RDWR, 0)
	// exit(ret == -EACCES ? 0 : 1)
	f.I64Const(-int64(linux.EACCES)).Op(wasm.OpI64Eq)
	f.If(wasm.I32)
	f.I32Const(0)
	f.Else()
	f.I32Const(1)
	f.End()
	f.Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 0 {
		t.Fatalf("/proc/self/mem not blocked: status=%d err=%v", status, err)
	}
}

func TestMmapMunmap(t *testing.T) {
	b := newApp("mmap", "munmap", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	addr := f.Local(wasm.I64)
	// addr = mmap(0, 8192, RW, ANON|PRIVATE, -1, 0)
	b.call(f, "mmap", 0, 8192, linux.PROT_READ|linux.PROT_WRITE,
		linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, -1, 0)
	f.LocalSet(addr)
	// store 99 at addr; check load; munmap; exit(val)
	f.LocalGet(addr).Op(wasm.OpI32WrapI64).I32Const(99).Store(wasm.OpI32Store, 0)
	f.LocalGet(addr).Op(wasm.OpI32WrapI64).Load(wasm.OpI32Load, 0)
	f.Op(wasm.OpI64ExtendI32U)
	// munmap(addr, 8192)
	f.LocalGet(addr).I64Const(8192).Call(b.sys["munmap"]).Drop()
	f.Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 99 {
		t.Fatalf("mmap store/load: status=%d err=%v", status, err)
	}
}

func TestPipeThroughWasm(t *testing.T) {
	b := newApp("pipe2", "write", "read", "close", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	// pipe2(800, 0); write(mem[804], "x"(at 900), 1); read(mem[800], 904, 1)
	b.Data(900, []byte("x"))
	b.call(f, "pipe2", 800, 0)
	f.Drop()
	f.I32Const(804).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.I64Const(900).I64Const(1).Call(b.sys["write"]).Drop()
	f.I32Const(800).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.I64Const(904).I64Const(1).Call(b.sys["read"]).Drop()
	// exit(mem8[904])
	f.I32Const(904).Load(wasm.OpI32Load8U, 0).Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 'x' {
		t.Fatalf("pipe: status=%d err=%v", status, err)
	}
}

func TestCloneThreadAndFutex(t *testing.T) {
	b := newApp("clone", "futex", "exit")
	// Thread body: table slot 1. fn(arg): mem[arg]=123; futex_wake(arg).
	tf := b.NewFunc("", []wasm.ValType{wasm.I32}, nil)
	tf.LocalGet(0).I32Const(123).Store(wasm.OpI32Store, 0)
	tf.LocalGet(0).Op(wasm.OpI64ExtendI32U)
	tf.I64Const(linux.FUTEX_WAKE).I64Const(64).I64Const(0).I64Const(0).I64Const(0)
	tf.Call(b.sys["futex"]).Drop()
	tIdx := tf.Finish()
	b.Table(4, 4)
	b.Elem(1, tIdx)

	f := b.NewFunc(StartExport, nil, nil)
	// clone(CLONE_THREAD|CLONE_VM, fn=1, arg=2048, 0, 0)
	b.call(f, "clone", linux.CLONE_THREAD|linux.CLONE_VM, 1, 2048, 0, 0)
	f.Drop()
	// futex wait until mem[2048] != 0 (loop: if mem==0, futex_wait(2048, 0)).
	f.Block()
	f.Loop()
	f.I32Const(2048).Load(wasm.OpI32Load, 0).BrIf(1) // done when non-zero
	f.I64Const(2048).I64Const(linux.FUTEX_WAIT).I64Const(0).I64Const(0).I64Const(0).I64Const(0)
	f.Call(b.sys["futex"]).Drop()
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(2048).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.Call(b.sys["exit"]).Drop()
	f.Finish()

	// Shared memory module: declare shared memory.
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	p, err := w.SpawnModule(m, "threads", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, runErr := p.Run()
	w.WaitAll()
	if runErr != nil || status != 123 {
		t.Fatalf("thread/futex: status=%d err=%v", status, runErr)
	}
}

func TestExecve(t *testing.T) {
	// Target program: writes "execd" and exits 5.
	tb := newApp("write", "exit")
	tb.Data(1024, []byte("execd"))
	tf := tb.NewFunc(StartExport, nil, nil)
	tb.call(tf, "write", 1, 1024, 5)
	tf.Drop()
	tb.call(tf, "exit", 5)
	tf.Drop()
	tf.Finish()
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Launcher: execve("/bin/target.wasm", NULL, NULL).
	b := newApp("execve", "exit")
	b.Data(1024, []byte("/bin/target.wasm\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "execve", 1024, 0, 0)
	f.Drop()
	b.call(f, "exit", 9) // only reached if execve failed
	f.Drop()
	f.Finish()
	launcher, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	w := New()
	if err := w.InstallBinary("/bin/target.wasm", target); err != nil {
		t.Fatal(err)
	}
	p, err := w.SpawnModule(launcher, "launcher", []string{"launcher"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	status, runErr := p.Run()
	w.WaitAll()
	if runErr != nil || status != 5 {
		t.Fatalf("execve: status=%d err=%v", status, runErr)
	}
	if got := string(w.Console().Output()); got != "execd" {
		t.Fatalf("output = %q", got)
	}
}

func TestLoadModuleCache(t *testing.T) {
	tb := newApp("exit")
	tf := tb.NewFunc(StartExport, nil, nil)
	tb.call(tf, "exit", 0)
	tf.Drop()
	tf.Finish()
	m, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	if err := w.InstallBinary("/bin/a.wasm", m); err != nil {
		t.Fatal(err)
	}
	c1, err := w.loadModule("/bin/a.wasm")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := w.loadModule("/bin/a.wasm")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("repeated exec of an unchanged binary re-translated the module")
	}
	// Rewriting the binary must invalidate the cached translation.
	tb2 := newApp("exit")
	tb2.Data(4096, []byte("pad so the image differs in size"))
	tf2 := tb2.NewFunc(StartExport, nil, nil)
	tb2.call(tf2, "exit", 0)
	tf2.Drop()
	tf2.Finish()
	m2, err := tb2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InstallBinary("/bin/a.wasm", m2); err != nil {
		t.Fatal(err)
	}
	c3, err := w.loadModule("/bin/a.wasm")
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("stale translation served after the binary was rewritten")
	}
}

func TestExecveMissingImage(t *testing.T) {
	b := newApp("execve", "exit")
	b.Data(1024, []byte("/bin/nope.wasm\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "execve", 1024, 0, 0)
	// exit(ret == -ENOENT ? 0 : 1)
	f.I64Const(-int64(linux.ENOENT)).Op(wasm.OpI64Eq)
	f.If(wasm.I32)
	f.I32Const(0)
	f.Else()
	f.I32Const(1)
	f.End()
	f.Op(wasm.OpI64ExtendI32U).Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 0 {
		t.Fatalf("execve missing: status=%d err=%v", status, err)
	}
}

func TestUnimplementedSyscallENOSYS(t *testing.T) {
	b := newApp("exit")
	// Import a real Linux syscall WALI does not implement: io_uring_setup.
	uring := b.ImportFunc(Namespace, "SYS_io_uring_setup",
		[]wasm.ValType{wasm.I64, wasm.I64}, []wasm.ValType{wasm.I64})
	f := b.NewFunc(StartExport, nil, nil)
	f.I64Const(0).I64Const(0).Call(uring)
	f.I64Const(-int64(linux.ENOSYS)).Op(wasm.OpI64Eq)
	f.If(wasm.I32)
	f.I32Const(0)
	f.Else()
	f.I32Const(1)
	f.End()
	f.Op(wasm.OpI64ExtendI32U).Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil || status != 0 {
		t.Fatalf("ENOSYS fallback: status=%d err=%v", status, err)
	}
}

func TestUnknownImportFailsLink(t *testing.T) {
	b := newApp()
	b.ImportFunc(Namespace, "SYS_not_a_syscall", nil, []wasm.ValType{wasm.I64})
	f := b.NewFunc(StartExport, nil, nil)
	f.Finish()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	if _, err := w.SpawnModule(m, "bad", nil, nil); err == nil {
		t.Fatal("bogus syscall name linked")
	}
}

func TestUnameThroughWasm(t *testing.T) {
	b := newApp("uname", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	b.call(f, "uname", 4096)
	f.Drop()
	b.call(f, "exit", 0)
	f.Drop()
	f.Finish()
	m, _ := b.Build()
	w := New()
	p, _ := w.SpawnModule(m, "uname", nil, nil)
	p.Run()
	buf, _ := p.Inst.Mem.Bytes(4096, 390)
	if !bytes.HasPrefix(buf, []byte("Linux\x00")) {
		t.Fatalf("utsname sysname: %q", buf[:16])
	}
	if !bytes.Contains(buf, []byte("wasm32")) {
		t.Error("utsname machine missing wasm32")
	}
}

func TestGetdentsThroughWasm(t *testing.T) {
	b := newApp("open", "getdents64", "exit")
	b.Data(1024, []byte("/etc\x00"))
	f := b.NewFunc(StartExport, nil, nil)
	fd := f.Local(wasm.I64)
	b.call(f, "open", 1024, linux.O_RDONLY|linux.O_DIRECTORY, 0)
	f.LocalSet(fd)
	f.LocalGet(fd).I64Const(2048).I64Const(2048).Call(b.sys["getdents64"])
	f.Call(b.sys["exit"]).Drop()
	f.Finish()
	_, _, status, err := runApp(t, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status <= 0 {
		t.Fatalf("getdents returned %d", status)
	}
}

func TestPassthroughRatio(t *testing.T) {
	ratio := PassthroughRatio()
	if ratio < 0.80 {
		t.Errorf("passthrough ratio %.2f below the recipe's expectation", ratio)
	}
	if len(registry) < 130 {
		t.Errorf("only %d syscalls implemented; paper implements 137", len(registry))
	}
}

func TestSyscallHookAndStats(t *testing.T) {
	b := newApp("getpid", "exit")
	f := b.NewFunc(StartExport, nil, nil)
	for i := 0; i < 5; i++ {
		b.call(f, "getpid")
		f.Drop()
	}
	b.call(f, "exit", 0)
	f.Drop()
	f.Finish()
	m, _ := b.Build()
	w := New()
	var events []SyscallEvent
	w.Hook = func(ev SyscallEvent) { events = append(events, ev) }
	p, _ := w.SpawnModule(m, "hooked", nil, nil)
	pid := p.KP.PID
	p.Run()
	// exit unwinds the guest, but dispatch records it on the way out.
	if len(events) != 6 {
		t.Fatalf("hook saw %d events, want 5 getpid + exit", len(events))
	}
	if events[0].Name != "getpid" || events[0].Ret != int64(pid) {
		t.Errorf("first event: %+v", events[0])
	}
	if events[5].Name != "exit" {
		t.Errorf("last event: %+v", events[5])
	}
}
