// Package core implements WALI — the WebAssembly Linux Interface, the
// paper's primary contribution. It exposes the Linux userspace syscall
// surface to Wasm modules as ~150 name-bound host functions in the "wali"
// import namespace, preserving Wasm's sandboxing guarantees:
//
//   - address-space translation with bounds checks at every boundary
//     crossing (bad pointers yield -EFAULT, never host memory access);
//   - layout conversion to the portable struct encodings in internal/isa;
//   - mmap/mremap/munmap mapped into the module's linear memory from an
//     engine-managed pool;
//   - a virtual sigtable with handler execution at interpreter safepoints;
//   - the 1-to-1 process model: each WALI process and thread is one
//     kernel task on its own goroutine, with fork implemented by cloning
//     the resumable interpreter state.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gowali/internal/interp"
	"gowali/internal/kernel"
	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/vfs"
	"gowali/internal/linux"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// Namespace is the WALI import module name.
const Namespace = "wali"

// SyscallEvent is one traced syscall invocation; see WALI.Hook.
type SyscallEvent struct {
	PID      int32
	Name     string
	Duration time.Duration
	Ret      int64
}

// WALI binds a simulated kernel to the Wasm engine and manufactures
// processes. It is safe for concurrent use by multiple processes.
type WALI struct {
	Kernel *kernel.Kernel

	// Scheme selects safepoint insertion for asynchronous signal
	// delivery (Table 3 compares the choices). Default: SafepointLoop,
	// the paper's implementation choice.
	Scheme interp.SafepointScheme

	// Tier selects the execution engine for every process this WALI
	// manufactures (fork/exec/thread children inherit it). Default:
	// TierFused, the superinstruction engine.
	Tier interp.ExecTier

	// Ops, when non-nil, collects a dynamic opcode-frequency profile from
	// every process (wire tier only; see interp.OpStats). Profiling runs
	// are single-guest, so the collector is not synchronized.
	Ops *interp.OpStats

	// Hook, if non-nil, observes every syscall (Fig. 2 profiles and
	// Fig. 7 attribution are built on it). Called after the syscall
	// completes; must be safe for concurrent use.
	Hook func(ev SyscallEvent)

	// Strict makes unimplemented-but-known syscall names trap instead of
	// returning -ENOSYS (§3.5: implementations may trap when they cannot
	// faithfully attempt a call).
	Strict bool

	// ExtendLinker, if non-nil, registers additional host namespaces on
	// every process linker. The WASI-over-WALI layer (internal/wasi)
	// installs itself here.
	ExtendLinker func(*interp.Linker)

	// Sched, when non-nil, multiplexes guest goroutines onto a bounded
	// set of run slots with safepoint preemption (see kernel/sched). Nil
	// keeps the original unconstrained one-goroutine-per-guest behavior.
	// Set before spawning.
	Sched *sched.Scheduler

	// DefaultTenant, when non-nil, is the budget domain processes
	// spawned through SpawnCompiled/SpawnModule/SpawnPath join; use
	// SpawnCompiledTenant for per-spawn domains. Set before spawning.
	DefaultTenant *sched.Tenant

	// Trace, Metrics and Strace are the observability plane (see
	// internal/obs and obs.go in this package): event tracer, metrics
	// registry and strace-line writer. All three are optional and
	// nil-safe; set before spawning. Children created by fork, thread
	// spawn, exec and restore inherit them automatically because they
	// live on the shared engine, not the process.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	Strace  *obs.StraceWriter

	// sysHists caches per-syscall latency histograms resolved from
	// Metrics, so dispatch never formats a label string (see obs.go).
	sysHists sync.Map

	mu    sync.Mutex
	procs map[int32]*Process
	wg    sync.WaitGroup

	// modCache caches the translated form of executable .wasm files by
	// VFS inode, validated by (size, mtime), so execve storms re-running
	// one binary skip decode+validate+pre-decode (the engine-side module
	// cache the embedding facade exposes as gowali.Module).
	modMu    sync.Mutex
	modCache map[*vfs.Inode]modCacheEnt

	// hooks are AddHook subscribers; copy-on-write behind an atomic
	// pointer so the per-syscall dispatch is lock-free (see stats.go).
	hooksMu sync.Mutex
	hooks   atomic.Pointer[[]func(SyscallEvent)]

	// retained is the bounded window of recently-exited processes'
	// syscall totals; live accounting is per-Process (see stats.go).
	retMu    sync.Mutex
	retained map[int32]statTotals
	retOrder []int32

	// snapMods caches restore material by module content hash: the
	// compiled translation plus a prototype instance whose resolved
	// functions every restore of that module shares. Keyed by hash (not
	// VFS inode) because images travel between engines as bytes.
	snapModMu sync.Mutex
	snapMods  map[[32]byte]*snapModule
}

// New creates a WALI engine extension over a freshly booted kernel.
func New() *WALI {
	return NewWith(kernel.NewKernel())
}

// NewWith creates a WALI instance over an existing kernel.
func NewWith(k *kernel.Kernel) *WALI {
	return &WALI{
		Kernel: k,
		Scheme: interp.SafepointLoop,
		procs:  make(map[int32]*Process),
	}
}

// Process is a running WALI process (or thread): the kernel task, the
// module instance, its resumable execution, the virtual sigtable and the
// memory-mapping pool. Threads share KP-side state plus Sig and Pool.
type Process struct {
	W    *WALI
	KP   *kernel.Process
	Inst *interp.Instance
	Exec *interp.Exec

	Module   *wasm.Module
	compiled *interp.Compiled
	argv     []string
	env      []string

	// Sig is the virtual signal table (shared across threads).
	Sig *Sigtable
	// Pool manages mmap allocations in linear memory (shared across
	// threads, which share the memory).
	Pool *MmapPool

	// stats is this task's syscall accounting: padded atomics bumped on
	// every return, aggregated on demand (never a shared map).
	stats syscallCounters

	// task is the scheduler handle (nil when W.Sched is nil); Tenant is
	// the budget domain (nil = unbudgeted); charge tracks this address
	// space's share of the tenant's memory budget (shared by threads,
	// swapped by exec, released at last-thread exit). All three are set
	// before the process goroutine starts.
	task   *sched.Task
	Tenant *sched.Tenant
	charge *memCharge

	execReq *execRequest

	// snapReq, when non-nil, is the pending snapshot rendezvous: the
	// guest parks at its next safepoint and hands its Exec to the
	// snapshotter (see snapshot.go).
	snapMu  sync.Mutex
	snapReq *snapPark

	doneMu sync.Mutex
	done   chan struct{}
	status int32
	runErr error
}

type execRequest struct {
	path string
	argv []string
	envp []string
}

// execPanic unwinds the interpreter on execve; recovered by Run.
type execPanic struct{}

// StartExport is the entry point WALI invokes, mirroring the WASI
// convention our toolchain also emits.
const StartExport = "_start"

// SpawnModule creates the initial process for a validated module,
// translating it first. Callers spawning the same module repeatedly
// should interp.Compile once and use SpawnCompiled (the embedding
// facade's module cache does exactly that).
func (w *WALI) SpawnModule(m *wasm.Module, name string, argv, env []string) (*Process, error) {
	c, err := interp.Compile(m)
	if err != nil {
		return nil, err
	}
	return w.SpawnCompiled(c, name, argv, env)
}

// SpawnCompiled creates the initial process for a pre-translated module:
// instantiation reuses the cached pre-decoded IR, so fork/exec storms and
// multi-tenant fan-out skip re-translation entirely.
func (w *WALI) SpawnCompiled(c *interp.Compiled, name string, argv, env []string) (*Process, error) {
	kp := w.Kernel.NewProcess(name, argv, env)
	return w.newProcess(kp, c, argv, env, w.DefaultTenant)
}

// SpawnPath loads a .wasm binary from the simulated kernel's filesystem
// (the execve path: WALI binaries are directly executable files).
func (w *WALI) SpawnPath(path string, argv, env []string) (*Process, error) {
	c, err := w.loadModule(path)
	if err != nil {
		return nil, err
	}
	name := path
	if len(argv) > 0 {
		name = argv[0]
	}
	return w.SpawnCompiled(c, name, argv, env)
}

// InstallBinary writes a module into the kernel VFS as an executable
// .wasm file (the "Linux registers interpreters for custom binary
// formats" deployment mode of §4.1).
func (w *WALI) InstallBinary(path string, m *wasm.Module) error {
	if err := wasm.Validate(m); err != nil {
		return err
	}
	if errno := w.Kernel.FS.WriteFile(path, wasm.Encode(m), 0o755); errno != 0 {
		return fmt.Errorf("install %s: %v", path, errno)
	}
	return nil
}

// modCacheEnt validates a cached translation against the inode's
// current size and mtime (rewritten binaries miss and re-translate).
type modCacheEnt struct {
	size  int64
	mtime linux.Timespec
	c     *interp.Compiled
}

// modCacheMax bounds the exec cache; beyond it an arbitrary entry is
// evicted (executable sets are small; this is a backstop, not an LRU).
const modCacheMax = 128

func (w *WALI) loadModule(path string) (*interp.Compiled, error) {
	r, errno := w.Kernel.FS.Walk("/", path, true)
	if errno != 0 || r.Node == nil {
		return nil, fmt.Errorf("exec %s: %v", path, linux.ENOENT)
	}
	st := r.Node.Stat()
	// The cache is keyed by inode identity, so it works on any mount
	// whose backend keeps a path's inode stable across lookups (memfs,
	// hostfs and overlayfs all do); (size, mtime) validation catches
	// rewrites, including ones made on the host side of a hostfs mount.
	cacheable := r.Node.StableIno()
	if cacheable {
		w.modMu.Lock()
		if ent, ok := w.modCache[r.Node]; ok && ent.size == st.Size && ent.mtime == st.Mtime {
			w.modMu.Unlock()
			return ent.c, nil
		}
		w.modMu.Unlock()
	}

	size := r.Node.Size()
	buf := make([]byte, size)
	if _, errno := r.Node.ReadAt(buf, 0); errno != 0 {
		return nil, fmt.Errorf("exec %s: %v", path, errno)
	}
	m, err := wasm.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("exec %s: %w (%v)", path, err, linux.ENOEXEC)
	}
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("exec %s: %w (%v)", path, err, linux.ENOEXEC)
	}
	c, err := interp.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("exec %s: %w (%v)", path, err, linux.ENOEXEC)
	}
	if !cacheable {
		return c, nil
	}
	w.modMu.Lock()
	if w.modCache == nil {
		w.modCache = make(map[*vfs.Inode]modCacheEnt)
	}
	if len(w.modCache) >= modCacheMax {
		for k := range w.modCache {
			delete(w.modCache, k)
			break
		}
	}
	w.modCache[r.Node] = modCacheEnt{size: st.Size, mtime: st.Mtime, c: c}
	w.modMu.Unlock()
	return c, nil
}

// newProcess wires a module instance to a kernel task.
func (w *WALI) newProcess(kp *kernel.Process, c *interp.Compiled, argv, env []string, tenant *sched.Tenant) (*Process, error) {
	p := &Process{
		W:        w,
		KP:       kp,
		Module:   c.Module,
		compiled: c,
		argv:     argv,
		env:      env,
		Sig:      NewSigtable(),
		done:     make(chan struct{}),
	}
	linker := interp.NewLinker()
	w.RegisterHost(linker)
	if w.ExtendLinker != nil {
		w.ExtendLinker(linker)
	}
	inst, err := c.Instantiate(linker)
	if err != nil {
		return nil, err
	}
	p.Inst = inst
	p.Pool = NewMmapPool(inst.Mem)
	p.Exec = interp.NewExec(inst)
	p.Exec.Scheme = w.Scheme
	p.Exec.Tier = w.Tier
	p.Exec.Ops = w.Ops
	p.Exec.HostCtx = p
	p.Exec.Poll = p.pollSignals
	inst.HostCtx = p

	if err := p.attachBudget(tenant); err != nil {
		return nil, err
	}
	p.attachTask()

	w.mu.Lock()
	w.procs[kp.PID] = p
	w.mu.Unlock()
	return p, nil
}

// fromExec recovers the WALI process driving an execution. Host functions
// use this instead of a closure so one registered handler set serves every
// process.
func fromExec(e *interp.Exec) *Process {
	p, ok := e.HostCtx.(*Process)
	if !ok {
		interp.Throw(interp.TrapHost, "wali: execution has no WALI process context")
	}
	return p
}

// Run executes the process's _start to completion on the calling
// goroutine, handling exit and execve. The kernel task is exited with the
// final status. Returns the exit status and any trap.
func (p *Process) Run() (int32, error) {
	defer close(p.done)
	if p.task != nil {
		p.task.Start()
		defer p.task.Finish()
	}
	status, err := p.runLoop()
	p.doneMu.Lock()
	p.status = status
	p.runErr = err
	p.doneMu.Unlock()
	p.W.finishProcess(p)
	p.exitKernel(status)
	return status, err
}

// RunAsync runs the process on its own goroutine (the 1-to-1 model's
// "each WALI process is a native process").
func (p *Process) RunAsync() {
	p.W.wg.Add(1)
	go func() {
		defer p.W.wg.Done()
		p.Run()
	}()
}

// Wait blocks until the process finishes and returns its status.
func (p *Process) Wait() (int32, error) {
	<-p.done
	p.doneMu.Lock()
	defer p.doneMu.Unlock()
	return p.status, p.runErr
}

// Done returns a channel closed when the process has finished; the
// embedding facade selects on it against context cancellation.
func (p *Process) Done() <-chan struct{} { return p.done }

// WaitAll blocks until every process spawned through this WALI instance
// has finished.
func (w *WALI) WaitAll() { w.wg.Wait() }

func (p *Process) runLoop() (int32, error) {
	for {
		status, err, reexec := p.runOnce()
		if !reexec {
			return status, err
		}
	}
}

// runOnce runs _start once; reports whether an execve requested a fresh
// image.
func (p *Process) runOnce() (status int32, err error, reexec bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(execPanic); ok {
				e := p.doExec()
				if e != nil {
					status, err = 127, e
					return
				}
				reexec = true
				return
			}
			panic(r)
		}
	}()
	fidx, ok := p.Module.ExportedFunc(StartExport)
	if !ok {
		return 127, fmt.Errorf("wali: module has no %s export", StartExport), false
	}
	_, err = p.Exec.Invoke(fidx)
	if err != nil {
		if exit, ok := err.(*interp.Exit); ok {
			return exit.Status, nil, false
		}
		return 128, err, false // trap: like a fatal signal
	}
	return 0, nil, false
}

// doExec swaps in the new image requested by execve.
func (p *Process) doExec() error {
	req := p.execReq
	p.execReq = nil
	c, err := p.W.loadModule(req.path)
	if err != nil {
		return err
	}
	p.KP.Exec(req.argv[0], req.argv, req.envp)
	linker := interp.NewLinker()
	p.W.RegisterHost(linker)
	if p.W.ExtendLinker != nil {
		p.W.ExtendLinker(linker)
	}
	inst, err := c.Instantiate(linker)
	if err != nil {
		return err
	}
	if p.Tenant != nil {
		// Charge the fresh image before releasing the old one (the two
		// address spaces briefly coexist, exactly as during a real
		// execve); failure surfaces as a failed exec.
		if !p.Tenant.ReserveMemory(int64(len(inst.Mem.Data))) {
			return fmt.Errorf("wali: tenant %q: memory budget exhausted on exec", p.Tenant.Name())
		}
		old := p.charge
		p.charge = newMemCharge(p.Tenant, int64(len(inst.Mem.Data)))
		inst.Mem.Reserve = p.charge.reserve
		if old != nil {
			old.release()
		}
	}
	p.Module = c.Module
	p.compiled = c
	p.Inst = inst
	p.argv = req.argv
	p.env = req.envp
	p.Pool = NewMmapPool(inst.Mem)
	// Note: per §3.4, the virtual environment travels to the new image
	// via the process (not the host engine) — p.env above.
	p.Exec = interp.NewExec(inst)
	p.Exec.Scheme = p.W.Scheme
	p.Exec.Tier = p.W.Tier
	p.Exec.Ops = p.W.Ops
	p.Exec.HostCtx = p
	p.Exec.Poll = p.pollSignals
	inst.HostCtx = p
	return nil
}

// exitKernel performs the kernel-side exit including the
// CLONE_CHILD_CLEARTID futex wake (the WALI layer owns the address space,
// so it performs the write + wake the kernel would).
func (p *Process) exitKernel(status int32) {
	if addr := p.KP.ClearTID(); addr != 0 {
		// Atomic store: sibling threads concurrently load and futex-wait
		// on the clear-tid word (pthread_join).
		if p.Inst.Mem.AtomicWriteU32(addr, 0) {
			p.W.Kernel.FutexWake(p.Inst.Mem, addr, 1)
		}
	}
	last := p.KP.Exit(linux.WaitStatusExited(status))
	// The memory charge belongs to the address space: threads share it,
	// so it is returned to the tenant only when the group's final thread
	// exits (descriptor charges drain via FDTable.CloseAll, same path).
	if last && p.charge != nil {
		p.charge.release()
	}
}

// forkChild builds the WALI-side child of fork: cloned kernel task,
// instance, exec — resumed on its own goroutine by the caller.
func (p *Process) forkChild(e *interp.Exec) *Process {
	ckp := p.KP.Fork()
	cinst := p.Inst.Clone()
	cexec := e.CloneWith(cinst)
	c := &Process{
		W:        p.W,
		KP:       ckp,
		Inst:     cinst,
		Exec:     cexec,
		Module:   p.Module,
		compiled: p.compiled,
		argv:     append([]string(nil), p.argv...),
		env:      append([]string(nil), p.env...),
		Sig:      p.Sig.Clone(),
		Pool:     p.Pool.CloneFor(cinst.Mem),
		done:     make(chan struct{}),
	}
	cexec.HostCtx = c
	cexec.Poll = c.pollSignals
	cinst.HostCtx = c
	// Budget: the caller (sysFork) reserved the child's full image
	// before cloning (EAGAIN on failure, Linux semantics), so its
	// copy-on-write pages are prepaid and only growth charges further;
	// descriptor inheritance was force-charged by FDTable.Clone inside
	// KP.Fork.
	c.Tenant = p.Tenant
	if p.Tenant != nil {
		c.charge = newMemCharge(p.Tenant, int64(len(cinst.Mem.Data)))
		cinst.Mem.Reserve = c.charge.reserve
	}
	// Both sides now read a shared image; observe their page copies.
	p.W.installCowObserver(cinst.Mem, ckp.PID)
	if p.Inst.Mem.OnCowFault == nil {
		p.W.installCowObserver(p.Inst.Mem, p.KP.PID)
	}
	c.attachTask()
	p.W.mu.Lock()
	p.W.procs[ckp.PID] = c
	p.W.mu.Unlock()
	return c
}

// resumeForked continues a forked child to completion (its own
// goroutine).
func (c *Process) resumeForked() {
	defer close(c.done)
	if c.task != nil {
		c.task.Start()
		defer c.task.Finish()
	}
	var status int32
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(execPanic); ok {
					status, err = c.resumeAfterExec()
					return
				}
				panic(r)
			}
		}()
		err = c.Exec.Resume()
		if exit, ok := err.(*interp.Exit); ok {
			status, err = exit.Status, nil
		} else if err != nil {
			status = 128
		}
	}()
	c.doneMu.Lock()
	c.status, c.runErr = status, err
	c.doneMu.Unlock()
	c.W.finishProcess(c)
	c.exitKernel(status)
}

// resumeAfterExec handles the fork-then-exec idiom: the forked child's
// Resume hit execve.
func (c *Process) resumeAfterExec() (int32, error) {
	if err := c.doExec(); err != nil {
		return 127, err
	}
	return c.runLoop()
}

// spawnThread creates the instance-per-thread sibling for clone with
// CLONE_THREAD and starts it on a fresh goroutine, invoking table[fnIdx]
// with arg.
func (p *Process) spawnThread(fnTableIdx, arg, ctid uint32, flags int64) (int32, linux.Errno) {
	fidx := p.Inst.TableGet(fnTableIdx)
	if fidx < 0 {
		return -1, linux.EINVAL
	}
	ft := p.Inst.FuncType(uint32(fidx))
	if len(ft.Params) != 1 || ft.Params[0] != wasm.I32 {
		return -1, linux.EINVAL
	}
	tkp := p.KP.CloneThread()
	tinst := p.Inst.ShareForThread()
	t := &Process{
		W:        p.W,
		KP:       tkp,
		Inst:     tinst,
		Module:   p.Module,
		compiled: p.compiled,
		argv:     p.argv,
		env:      p.env,
		Sig:      p.Sig, // CLONE_SIGHAND: shared virtual sigtable
		Pool:     p.Pool,
		done:     make(chan struct{}),
	}
	t.Exec = interp.NewExec(tinst)
	t.Exec.Scheme = p.W.Scheme
	t.Exec.Tier = p.W.Tier
	t.Exec.HostCtx = t
	t.Exec.Poll = t.pollSignals
	tinst.HostCtx = t
	// Threads share the address space and therefore the memory charge;
	// each is its own schedulable task.
	t.Tenant = p.Tenant
	t.charge = p.charge
	t.attachTask()

	if flags&linux.CLONE_CHILD_SETTID != 0 && ctid != 0 {
		p.Inst.Mem.AtomicWriteU32(ctid, uint32(tkp.PID))
	}
	if flags&linux.CLONE_CHILD_CLEARTID != 0 && ctid != 0 {
		tkp.SetClearTID(ctid)
	}

	p.W.mu.Lock()
	p.W.procs[tkp.PID] = t
	p.W.mu.Unlock()

	p.W.wg.Add(1)
	go func() {
		defer p.W.wg.Done()
		defer close(t.done)
		if t.task != nil {
			t.task.Start()
			defer t.task.Finish()
		}
		var status int32
		_, err := t.Exec.Invoke(uint32(fidx), uint64(arg))
		if exit, ok := err.(*interp.Exit); ok {
			status = exit.Status
		} else if err != nil {
			status = 128
		}
		t.doneMu.Lock()
		t.status = status
		t.doneMu.Unlock()
		t.W.finishProcess(t)
		t.exitKernel(status)
	}()
	return tkp.PID, 0
}

// ProcessFromExec recovers the WALI process bound to an execution; layered
// APIs (internal/wasi) use this plus Syscall as their complete interface
// to the system — the Fig. 6 layering boundary.
func ProcessFromExec(e *interp.Exec) *Process { return fromExec(e) }

// Syscall invokes a WALI syscall by name on behalf of a layered API,
// exactly as a Wasm module import call would (same dispatch, same
// accounting, same return convention). Unknown names return -ENOSYS.
func (p *Process) Syscall(e *interp.Exec, name string, args ...int64) int64 {
	d, ok := registry[name]
	if !ok {
		return errnoRet(linux.ENOSYS)
	}
	full := make([]int64, d.NArgs)
	copy(full, args)
	entry := p.straceEntry(name, full)
	start := sinceEpoch()
	var ret int64
	defer func() {
		dur := sinceEpoch() - start
		p.stats.add(dur)
		p.W.emitSyscall(p.KP.PID, name, dur, ret)
		p.W.observeSyscall(p.KP.PID, name, dur, ret)
		p.straceExit(entry, ret, dur)
	}()
	ret = d.Fn(p, e, full)
	return ret
}

// Console is a convenience accessor for the kernel console output.
func (w *WALI) Console() *kernel.ConsoleDevice { return w.Kernel.Console }

// Argv returns the process argument vector (layered APIs read it the same
// way the §3.4 support methods expose it to modules).
func (p *Process) Argv() []string { return append([]string(nil), p.argv...) }

// Env returns the process environment vector.
func (p *Process) Env() []string { return append([]string(nil), p.env...) }
