package interp

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"gowali/internal/wasm"
)

// HostFunc is a native function exposed to a module through the import
// namespace. WALI syscalls, WAZI calls and WASI methods are all HostFuncs.
// args holds raw bit patterns per the declared signature; the returned
// slice must match the result arity. Host code traps by calling Throw or
// panicking with *Trap, and terminates the module with panic(*Exit).
type HostFunc struct {
	Type wasm.FuncType
	Fn   func(e *Exec, args []uint64) []uint64
}

// Linker resolves module imports at instantiation. The zero value is
// empty and usable; its tables are made on first definition, so a
// linker that only carries a Fallback costs one allocation.
type Linker struct {
	funcs   map[string]HostFunc
	mems    map[string]*Memory
	globals map[string]uint64
	// Fallback, if non-nil, is consulted for function imports the
	// linker's own definitions do not cover, and may supply a host
	// function from a table it owns (WALI resolves its whole import
	// namespace this way, WAZI traps "known name, unimplemented on this
	// platform" calls distinctly from link errors).
	Fallback func(module, name string, t wasm.FuncType) (HostFunc, bool)
}

// NewLinker returns an empty linker.
func NewLinker() *Linker { return &Linker{} }

func linkKey(module, name string) string { return module + "\x00" + name }

// DefineFunc registers a host function for import resolution.
func (l *Linker) DefineFunc(module, name string, params, results []wasm.ValType, fn func(e *Exec, args []uint64) []uint64) {
	if l.funcs == nil {
		l.funcs = make(map[string]HostFunc)
	}
	l.funcs[linkKey(module, name)] = HostFunc{
		Type: wasm.FuncType{Params: params, Results: results},
		Fn:   fn,
	}
}

// DefineMemory registers a memory for import resolution (thread spawn
// shares the parent memory this way).
func (l *Linker) DefineMemory(module, name string, m *Memory) {
	if l.mems == nil {
		l.mems = make(map[string]*Memory)
	}
	l.mems[linkKey(module, name)] = m
}

// DefineGlobal registers an immutable global import value (raw bits).
func (l *Linker) DefineGlobal(module, name string, v uint64) {
	if l.globals == nil {
		l.globals = make(map[string]uint64)
	}
	l.globals[linkKey(module, name)] = v
}

// funcKind discriminates resolved functions.
type funcKind byte

const (
	kindWasm funcKind = iota
	kindHost
)

// resolvedFunc is a function ready for execution.
type resolvedFunc struct {
	kind     funcKind
	typ      wasm.FuncType
	name     string // diagnostic: import name or func[idx]
	host     HostFunc
	body     []byte
	locals   []wasm.ValType // non-param locals
	side     *sideTable
	code     *irCode // pre-decoded body (predecode.go); TierIR executes this
	fused    *irCode // superinstruction overlay (fuse.go); TierFused executes this
	numParam int
	numLocal int // including params
}

// Instance is an instantiated module: memory, table, globals and resolved
// functions. Instances are single-threaded; concurrency uses one instance
// per thread sharing a Memory, per the paper's instance-per-thread model.
type Instance struct {
	Module  *wasm.Module
	Mem     *Memory
	Globals []uint64
	Table   []int32 // function index per element; -1 = uninitialized

	funcs []resolvedFunc

	// HostCtx carries embedder state; WALI stores its per-process state
	// here so host functions can recover it from the Exec.
	HostCtx any
}

// LinkError reports an unresolvable or mismatched import.
type LinkError struct {
	Module, Name string
	Msg          string
}

// Error implements error.
func (e *LinkError) Error() string {
	return fmt.Sprintf("wasm link: %s.%s: %s", e.Module, e.Name, e.Msg)
}

// Compiled is a module translated to the engine's executable form: every
// function body pre-decoded to the flat IR (predecode.go) with its side
// table. A Compiled is immutable and safe to share: any number of
// instances — across processes, forks and repeated spawns — reuse the same
// pre-decoded bodies, so instantiation skips re-translation entirely.
// This is the engine half of the embedding API's module cache.
type Compiled struct {
	Module *wasm.Module

	// sigs is the full function index-space signature table (imports
	// first), as the pre-decoder consumed it.
	sigs []wasm.FuncType
	// funcs holds the resolved local (kindWasm) functions; import slots
	// are resolved per-instantiation by the linker.
	funcs []resolvedFunc

	hashOnce sync.Once
	hash     [32]byte
}

// Hash returns the content hash of the module's canonical encoding.
// Snapshot images embed it so a restore can be matched against an
// already-compiled module by content, independent of which file (or VFS
// inode) the bytes came from.
func (c *Compiled) Hash() [32]byte {
	c.hashOnce.Do(func() { c.hash = sha256.Sum256(wasm.Encode(c.Module)) })
	return c.hash
}

// Compile translates a validated module: side tables and pre-decoded IR
// for every local function. The result is shared by all instantiations.
func Compile(m *wasm.Module) (*Compiled, error) {
	c := &Compiled{Module: m}
	nImp := m.NumImportedFuncs()
	c.sigs = make([]wasm.FuncType, 0, nImp+len(m.Funcs))
	for _, im := range m.Imports {
		if im.Kind == wasm.ExternFunc {
			c.sigs = append(c.sigs, m.Types[im.TypeIdx])
		}
	}
	for i := range m.Funcs {
		c.sigs = append(c.sigs, m.Types[m.Funcs[i].TypeIdx])
	}
	c.funcs = make([]resolvedFunc, 0, len(m.Funcs))
	for i := range m.Funcs {
		f := &m.Funcs[i]
		ft := m.Types[f.TypeIdx]
		side, err := buildSideTable(m, f)
		if err != nil {
			return nil, fmt.Errorf("wasm: func[%d]: %w", nImp+i, err)
		}
		code, err := predecode(f, ft, c.sigs, m.Types, side)
		if err != nil {
			return nil, fmt.Errorf("wasm: func[%d]: %w", nImp+i, err)
		}
		c.funcs = append(c.funcs, resolvedFunc{
			kind: kindWasm, typ: ft,
			name:     fmt.Sprintf("func[%d]", nImp+i),
			body:     f.Body,
			locals:   f.Locals,
			side:     side,
			code:     code,
			fused:    fuse(code),
			numParam: len(ft.Params),
			numLocal: len(ft.Params) + len(f.Locals),
		})
	}
	return c, nil
}

// NewInstance instantiates a validated module, resolving imports through
// the linker. Data and element segments are applied; the start function is
// NOT run automatically (call Start). Each call re-translates the module;
// embedders spawning the same module repeatedly should Compile once and
// Instantiate from the cache.
func NewInstance(m *wasm.Module, l *Linker) (*Instance, error) {
	c, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return c.Instantiate(l)
}

// Instantiate creates a fresh instance over the pre-decoded module:
// imports are resolved through the linker and mutable state (memory,
// globals, table) is built anew, but function bodies are shared with every
// other instance of this Compiled — no decoding or translation happens.
func (c *Compiled) Instantiate(l *Linker) (*Instance, error) {
	m := c.Module
	inst := &Instance{Module: m}

	var importedGlobalVals []uint64
	for _, im := range m.Imports {
		switch im.Kind {
		case wasm.ExternFunc:
			ft := m.Types[im.TypeIdx]
			hf, ok := l.funcs[linkKey(im.Module, im.Name)]
			if !ok && l.Fallback != nil {
				hf, ok = l.Fallback(im.Module, im.Name, ft)
			}
			if !ok {
				return nil, &LinkError{im.Module, im.Name, "no such host function"}
			}
			if !hf.Type.Equal(ft) {
				return nil, &LinkError{im.Module, im.Name,
					fmt.Sprintf("signature mismatch: import wants %v, host has %v", ft, hf.Type)}
			}
			inst.funcs = append(inst.funcs, resolvedFunc{
				kind: kindHost, typ: ft, host: hf,
				name: im.Module + "." + im.Name,
			})
		case wasm.ExternMemory:
			mem, ok := l.mems[linkKey(im.Module, im.Name)]
			if !ok {
				return nil, &LinkError{im.Module, im.Name, "no such memory"}
			}
			inst.Mem = mem
		case wasm.ExternGlobal:
			v, ok := l.globals[linkKey(im.Module, im.Name)]
			if !ok {
				return nil, &LinkError{im.Module, im.Name, "no such global"}
			}
			importedGlobalVals = append(importedGlobalVals, v)
			inst.Globals = append(inst.Globals, v)
		case wasm.ExternTable:
			return nil, &LinkError{im.Module, im.Name, "table imports not supported"}
		}
	}

	if m.Mem != nil {
		inst.Mem = NewMemory(*m.Mem)
	}
	if m.Table != nil {
		inst.Table = make([]int32, m.Table.Min)
		for i := range inst.Table {
			inst.Table[i] = -1
		}
	}

	for _, g := range m.Globals {
		inst.Globals = append(inst.Globals, wasm.EvalConstExpr(g.Init, importedGlobalVals))
	}

	// Local functions: shared, already pre-decoded bodies from the cache.
	inst.funcs = append(inst.funcs, c.funcs...)

	for i, seg := range m.Elems {
		off := uint32(wasm.EvalConstExpr(seg.Offset, importedGlobalVals))
		if uint64(off)+uint64(len(seg.Funcs)) > uint64(len(inst.Table)) {
			return nil, fmt.Errorf("wasm: elem[%d]: segment out of table bounds", i)
		}
		for j, fi := range seg.Funcs {
			inst.Table[off+uint32(j)] = int32(fi)
		}
	}

	for i, seg := range m.Data {
		off := uint32(wasm.EvalConstExpr(seg.Offset, importedGlobalVals))
		if inst.Mem == nil || uint64(off)+uint64(len(seg.Init)) > uint64(len(inst.Mem.Data)) {
			return nil, fmt.Errorf("wasm: data[%d]: segment out of memory bounds", i)
		}
		copy(inst.Mem.Data[off:], seg.Init)
	}

	return inst, nil
}

// NumFuncs returns the function index space size.
func (inst *Instance) NumFuncs() int { return len(inst.funcs) }

// CodeRef returns an opaque identity for the pre-decoded body of function
// idx (nil for host functions). Two instances built from the same Compiled
// return equal CodeRefs — the observable contract of the module cache,
// used by tests to prove re-spawns skip re-translation.
func (inst *Instance) CodeRef(idx uint32) any {
	if int(idx) >= len(inst.funcs) || inst.funcs[idx].kind != kindWasm {
		return nil
	}
	return inst.funcs[idx].code
}

// FuncType returns the signature of function idx.
func (inst *Instance) FuncType(idx uint32) wasm.FuncType { return inst.funcs[idx].typ }

// TableGet returns the function index stored at table element i, or -1.
func (inst *Instance) TableGet(i uint32) int32 {
	if int(i) >= len(inst.Table) {
		return -1
	}
	return inst.Table[i]
}

// Clone duplicates the instance for fork: globals and table are copied,
// memory is forked copy-on-write (Memory.Fork, which turns the parent's
// memory into a copy-on-write view too), and resolved functions
// (immutable) are shared.
func (inst *Instance) Clone() *Instance {
	c := &Instance{
		Module:  inst.Module,
		Globals: append([]uint64(nil), inst.Globals...),
		Table:   append([]int32(nil), inst.Table...),
		funcs:   inst.funcs,
		HostCtx: inst.HostCtx,
	}
	if inst.Mem != nil {
		c.Mem = inst.Mem.Fork()
	}
	return c
}

// ShareForThread creates a new instance for a spawned thread: memory is
// shared with the parent, globals and table are fresh copies (separate
// execution state), per the instance-per-thread model. The memory is
// marked concurrent so aligned word accesses become atomic (futex words).
func (inst *Instance) ShareForThread() *Instance {
	if inst.Mem != nil {
		inst.Mem.MarkConcurrent()
	}
	c := &Instance{
		Module:  inst.Module,
		Mem:     inst.Mem, // shared
		Globals: append([]uint64(nil), inst.Globals...),
		Table:   append([]int32(nil), inst.Table...),
		funcs:   inst.funcs,
		HostCtx: inst.HostCtx,
	}
	return c
}
