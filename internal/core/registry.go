package core

import (
	"encoding/binary"
	"sync"

	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// HandlerFn is a WALI syscall handler. args are the raw i64 syscall
// arguments; the return value follows the Linux convention (negative
// -errno on failure).
type HandlerFn func(p *Process, e *interp.Exec, args []int64) int64

// SyscallDef describes one WALI syscall: its name-bound identity, arity,
// whether the handler keeps engine-side state (Table 2's "State" column),
// and whether it is pure passthrough — i.e. auto-generatable from steps
// (1)-(3) of the §5 recipe (enumerate + translate addresses + convert
// layouts), with no process-model or memory-model bridging.
type SyscallDef struct {
	Name        string
	NArgs       int
	Stateful    bool
	Passthrough bool
	Fn          HandlerFn
}

var le = binary.LittleEndian

// errnoRet converts a kernel errno to the syscall return convention.
func errnoRet(e linux.Errno) int64 { return -int64(e) }

// retN folds an (n, errno) kernel result into one return value.
func retN(n int, errno linux.Errno) int64 {
	if errno != 0 {
		return errnoRet(errno)
	}
	return int64(n)
}

func ret64(n int64, errno linux.Errno) int64 {
	if errno != 0 {
		return errnoRet(errno)
	}
	return n
}

// registry is the complete WALI syscall specification: the union across
// ISAs (§3.5), name-bound with static signatures.
var registry = map[string]*SyscallDef{}

func def(name string, nargs int, stateful, passthrough bool, fn HandlerFn) {
	registry[name] = &SyscallDef{
		Name: name, NArgs: nargs, Stateful: stateful, Passthrough: passthrough, Fn: fn,
	}
}

// Registry exposes the syscall table (read-only by convention).
func Registry() map[string]*SyscallDef { return registry }

// PassthroughRatio reports the fraction of implemented syscalls that are
// pure passthrough — the recipe's ">85% auto-generated" accounting.
func PassthroughRatio() float64 {
	n, pt := 0, 0
	for _, d := range registry {
		n++
		if d.Passthrough {
			pt++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(pt) / float64(n)
}

// i64s returns an n-length []wasm.ValType of i64.
func i64s(n int) []wasm.ValType {
	out := make([]wasm.ValType, n)
	for i := range out {
		out[i] = wasm.I64
	}
	return out
}

// unionSet is the name-bound WALI syscall set (isa.Union) as a lookup
// table, built once: every spawn and execve links against it, and it
// never changes. Read-only after construction.
var unionSet = sync.OnceValue(func() map[string]bool {
	known := make(map[string]bool)
	for _, s := range isa.Union() {
		known[s] = true
	}
	return known
})

// RegisterHost installs every WALI host function into the linker: the
// syscall surface plus the §3.4 external-parameter methods. Unknown names
// that are valid Linux syscalls on some ISA resolve to -ENOSYS stubs (or
// traps under Strict), so the import section always links.
func (w *WALI) RegisterHost(l *interp.Linker) {
	res := []wasm.ValType{wasm.I64}
	for name, d := range registry {
		d := d
		l.DefineFunc(Namespace, "SYS_"+name, i64s(d.NArgs), res,
			func(e *interp.Exec, args []uint64) []uint64 {
				p := fromExec(e)
				iargs := make([]int64, len(args))
				for i, a := range args {
					iargs[i] = int64(a)
				}
				entry := p.straceEntry(d.Name, iargs)
				start := sinceEpoch()
				var ret int64
				// Record through panics too: exit/execve unwind the
				// interpreter, but Fig. 2 profiles must still see them.
				defer func() {
					dur := sinceEpoch() - start
					p.stats.add(dur)
					w.emitSyscall(p.KP.PID, d.Name, dur, ret)
					w.observeSyscall(p.KP.PID, d.Name, dur, ret)
					p.straceExit(entry, ret, dur)
				}()
				ret = d.Fn(p, e, iargs)
				// Linux delivers pending signals on the return to
				// userspace; without this, a fatal signal that
				// interrupted the syscall (EINTR) could be outrun by
				// straight-line guest code — close/exit with no
				// safepoint back-edge — and the kill status lost.
				// Only dispositions that terminate are acted on here;
				// handler-backed signals stay queued for the next
				// safepoint, which may reenter Wasm safely.
				if sig, fatal := p.KP.PendingFatal(); fatal {
					panic(&interp.Exit{Status: 128 + sig})
				}
				return []uint64{uint64(ret)}
			})
	}

	w.registerArgvEnv(l)

	known := unionSet()
	l.Fallback = func(module, name string, ft wasm.FuncType) (interp.HostFunc, bool) {
		if module != Namespace || len(name) < 5 || name[:4] != "SYS_" {
			return interp.HostFunc{}, false
		}
		sys := name[4:]
		if !known[sys] {
			return interp.HostFunc{}, false
		}
		return interp.HostFunc{Type: ft, Fn: func(e *interp.Exec, args []uint64) []uint64 {
			if w.Strict {
				interp.Throw(interp.TrapHost, "wali: syscall %s not supported on this platform", sys)
			}
			out := make([]uint64, len(ft.Results))
			if len(out) > 0 {
				out[0] = uint64(errnoRet(linux.ENOSYS))
			}
			return out
		}}, true
	}
}

// registerArgvEnv installs the §3.4 support methods: the standard library
// owns the argument/environment buffers; the engine only copies into the
// sandbox on request, so parser overflows stay contained.
func (w *WALI) registerArgvEnv(l *interp.Linker) {
	i32 := []wasm.ValType{wasm.I32}
	i32i32 := []wasm.ValType{wasm.I32, wasm.I32}

	l.DefineFunc(Namespace, "get_argc", nil, i32, func(e *interp.Exec, a []uint64) []uint64 {
		return []uint64{uint64(uint32(len(fromExec(e).argv)))}
	})
	l.DefineFunc(Namespace, "get_argv_len", i32, i32, func(e *interp.Exec, a []uint64) []uint64 {
		p := fromExec(e)
		i := int(uint32(a[0]))
		if i < 0 || i >= len(p.argv) {
			return []uint64{0}
		}
		return []uint64{uint64(uint32(len(p.argv[i]) + 1))}
	})
	l.DefineFunc(Namespace, "copy_argv", i32i32, i32, func(e *interp.Exec, a []uint64) []uint64 {
		p := fromExec(e)
		buf := uint32(a[0])
		i := int(uint32(a[1]))
		if i < 0 || i >= len(p.argv) {
			return []uint64{0xFFFFFFFF}
		}
		s := p.argv[i]
		mem, ok := p.Inst.Mem.Bytes(buf, uint32(len(s)+1))
		if !ok {
			return []uint64{0xFFFFFFFF}
		}
		copy(mem, s)
		mem[len(s)] = 0
		return []uint64{uint64(uint32(len(s) + 1))}
	})
	l.DefineFunc(Namespace, "get_envc", nil, i32, func(e *interp.Exec, a []uint64) []uint64 {
		return []uint64{uint64(uint32(len(fromExec(e).env)))}
	})
	l.DefineFunc(Namespace, "get_env_len", i32, i32, func(e *interp.Exec, a []uint64) []uint64 {
		p := fromExec(e)
		i := int(uint32(a[0]))
		if i < 0 || i >= len(p.env) {
			return []uint64{0}
		}
		return []uint64{uint64(uint32(len(p.env[i]) + 1))}
	})
	l.DefineFunc(Namespace, "copy_env", i32i32, i32, func(e *interp.Exec, a []uint64) []uint64 {
		p := fromExec(e)
		buf := uint32(a[0])
		i := int(uint32(a[1]))
		if i < 0 || i >= len(p.env) {
			return []uint64{0xFFFFFFFF}
		}
		s := p.env[i]
		mem, ok := p.Inst.Mem.Bytes(buf, uint32(len(s)+1))
		if !ok {
			return []uint64{0xFFFFFFFF}
		}
		copy(mem, s)
		mem[len(s)] = 0
		return []uint64{uint64(uint32(len(s) + 1))}
	})
}

// ImportSyscall is the toolchain-side helper: it declares the WALI import
// for name on a module builder with the correct arity. Apps in
// internal/apps "compile against" WALI through this, like the paper's
// custom clang target.
func ImportSyscall(b *wasm.Builder, name string) uint32 {
	d, ok := registry[name]
	nargs := 6
	if ok {
		nargs = d.NArgs
	}
	return b.ImportFunc(Namespace, "SYS_"+name, i64s(nargs), []wasm.ValType{wasm.I64})
}

// PathAt reads a NUL-terminated path from module memory.
func (p *Process) pathArg(addr uint32) (string, linux.Errno) {
	s, ok := p.Inst.Mem.ReadCString(addr, 4096)
	if !ok {
		return "", linux.EFAULT
	}
	return s, 0
}

// bufArg translates a (ptr, len) pair into a host byte window — the
// zero-copy address-space translation (§3.2).
func (p *Process) bufArg(addr uint32, length int64) ([]byte, linux.Errno) {
	if length < 0 || length > int64(^uint32(0)) {
		return nil, linux.EINVAL
	}
	b, ok := p.Inst.Mem.Bytes(addr, uint32(length))
	if !ok {
		return nil, linux.EFAULT
	}
	return b, 0
}
