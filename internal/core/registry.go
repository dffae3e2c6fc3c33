package core

import (
	"encoding/binary"
	"slices"
	"strings"
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

	// host is the guest-import entry, built once by def: it converts
	// the raw arguments and crosses dispatch. It finds its process (and
	// engine) through fromExec, so one function serves every engine.
	host func(e *interp.Exec, args []uint64) []uint64
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
	d := &SyscallDef{
		Name: name, NArgs: nargs, Stateful: stateful, Passthrough: passthrough, Fn: fn,
	}
	d.host = func(e *interp.Exec, args []uint64) []uint64 {
		iargs := make([]int64, len(args))
		for i, a := range args {
			iargs[i] = int64(a)
		}
		return []uint64{uint64(fromExec(e).dispatch(e, d, iargs))}
	}
	registry[name] = d
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

// i64x6 backs the i64 parameter and result lists of every WALI import
// signature (no syscall takes more than six arguments); resolved
// signatures slice it instead of allocating.
var i64x6 = [6]wasm.ValType{wasm.I64, wasm.I64, wasm.I64, wasm.I64, wasm.I64, wasm.I64}

// unionNames is the name-bound WALI syscall set (isa.Union, sorted),
// built once: a known name WALI does not implement still links.
var unionNames = sync.OnceValue(isa.Union)

// argvEnv holds the §3.4 external-parameter methods by import name.
var argvEnv = argvEnvFuncs()

// resolveImport resolves a "wali" import from tables built once per
// program — the registry's per-syscall host functions, argvEnv and
// unionNames — so linking a process builds no host functions. It is the
// Fallback of every WALI linker (see WALI.linker); Instantiate checks
// the returned signature against the import's. A known Linux syscall
// WALI does not implement links at whatever parameters the import
// declares and returns -ENOSYS, or traps under Strict (§3.5:
// implementations may trap when they cannot faithfully attempt a call).
func resolveImport(module, name string, ft wasm.FuncType) (interp.HostFunc, bool) {
	if module != Namespace {
		return interp.HostFunc{}, false
	}
	sys, ok := strings.CutPrefix(name, "SYS_")
	if !ok {
		hf, ok := argvEnv[name]
		return hf, ok
	}
	i64 := i64x6[:1:1]
	if d, ok := registry[sys]; ok {
		return interp.HostFunc{Type: wasm.FuncType{Params: i64x6[:d.NArgs:d.NArgs], Results: i64}, Fn: d.host}, true
	}
	if _, ok := slices.BinarySearch(unionNames(), sys); !ok {
		return interp.HostFunc{}, false
	}
	return interp.HostFunc{Type: wasm.FuncType{Params: ft.Params, Results: i64}, Fn: func(e *interp.Exec, args []uint64) []uint64 {
		if fromExec(e).W.Strict {
			interp.Throw(interp.TrapHost, "wali: syscall %s not supported on this platform", sys)
		}
		return []uint64{uint64(errnoRet(linux.ENOSYS))}
	}}, true
}

// linker returns the import resolver for one instantiation: the shared
// WALI tables plus whatever ExtendLinker installs.
func (w *WALI) linker() *interp.Linker {
	l := interp.NewLinker()
	l.Fallback = resolveImport
	if w.ExtendLinker != nil {
		w.ExtendLinker(l)
	}
	return l
}

// argvEnvFuncs returns the §3.4 support methods: the standard library
// owns the argument/environment buffers; the engine only copies into
// the sandbox on request, so parser overflows stay contained.
func argvEnvFuncs() map[string]interp.HostFunc {
	i32 := []wasm.ValType{wasm.I32}
	i32i32 := []wasm.ValType{wasm.I32, wasm.I32}
	count := func(vec func(*Process) []string) interp.HostFunc {
		return interp.HostFunc{Type: wasm.FuncType{Results: i32}, Fn: func(e *interp.Exec, a []uint64) []uint64 {
			return []uint64{uint64(uint32(len(vec(fromExec(e)))))}
		}}
	}
	length := func(vec func(*Process) []string) interp.HostFunc {
		return interp.HostFunc{Type: wasm.FuncType{Params: i32, Results: i32}, Fn: func(e *interp.Exec, a []uint64) []uint64 {
			v := vec(fromExec(e))
			i := int(uint32(a[0]))
			if i < 0 || i >= len(v) {
				return []uint64{0}
			}
			return []uint64{uint64(uint32(len(v[i]) + 1))}
		}}
	}
	copyOut := func(vec func(*Process) []string) interp.HostFunc {
		return interp.HostFunc{Type: wasm.FuncType{Params: i32i32, Results: i32}, Fn: func(e *interp.Exec, a []uint64) []uint64 {
			p := fromExec(e)
			v := vec(p)
			buf := uint32(a[0])
			i := int(uint32(a[1]))
			if i < 0 || i >= len(v) {
				return []uint64{0xFFFFFFFF}
			}
			s := v[i]
			mem, ok := p.Inst.Mem.Bytes(buf, uint32(len(s)+1))
			if !ok {
				return []uint64{0xFFFFFFFF}
			}
			copy(mem, s)
			mem[len(s)] = 0
			return []uint64{uint64(uint32(len(s) + 1))}
		}}
	}
	argv := func(p *Process) []string { return p.argv }
	env := func(p *Process) []string { return p.env }
	return map[string]interp.HostFunc{
		"get_argc": count(argv), "get_argv_len": length(argv), "copy_argv": copyOut(argv),
		"get_envc": count(env), "get_env_len": length(env), "copy_env": copyOut(env),
	}
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
