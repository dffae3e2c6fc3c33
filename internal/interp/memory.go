package interp

import (
	"encoding/binary"
	"sync/atomic"

	"gowali/internal/wasm"
)

// Memory is a linear memory instance. It may be shared between multiple
// instances (WALI's instance-per-thread model); sharing callers synchronize
// through WALI futexes, matching Wasm's relaxed shared-memory expectations.
type Memory struct {
	Data   []byte
	MaxLen uint64 // bytes; cap on growth
	Shared bool

	// concurrent latches once a second thread shares this memory
	// (ShareForThread), whether or not the wasm declaration said shared.
	// While set, aligned 32/64-bit interpreter accesses go through
	// sync/atomic so futex-word protocols are sound under the Go memory
	// model (see atomicmem.go).
	concurrent atomic.Bool

	// Reserve, when set, gates growth against an external budget: Grow
	// calls it with the byte delta before allocating and fails (-1, which
	// memory.grow and the embedder's mmap/brk paths surface as ENOMEM)
	// when it returns false. Installed by the embedder per address space;
	// Fork deliberately does not copy it (a fork child joins its own
	// accounting).
	Reserve func(delta int64) bool

	// OnCowFault, when set, is called after a copy-on-write page is
	// materialized (slow path only — the per-access barrier never sees
	// it). The embedder uses it for observability: counting and tracing
	// page materializations per guest. Fork does not copy it.
	OnCowFault func(page int)

	// cow, when non-nil, makes this a copy-on-write view over a frozen
	// shared base image (see memory_cow.go). Data aliases the base and is
	// read-only; writes land in a per-page overlay.
	cow *cowState
}

// MarkConcurrent records that a second thread now shares this memory.
// A copy-on-write overlay collapses first: the atomic shared-memory
// access paths assume a single stable backing array.
func (m *Memory) MarkConcurrent() {
	if m.cow != nil {
		m.mustMaterialize()
	}
	m.concurrent.Store(true)
}

// racy reports whether accesses to this memory may be concurrent.
func (m *Memory) racy() bool { return m.Shared || m.concurrent.Load() }

// NewMemory allocates a memory from declared limits. Shared memories are
// allocated at their maximum immediately (as most engines do for the
// threads proposal) so concurrent instances never observe a reallocated
// backing array.
func NewMemory(l wasm.Limits) *Memory {
	maxPages := uint64(wasm.MaxPages)
	if l.HasMax {
		maxPages = uint64(l.Max)
	}
	m := &Memory{
		Data:   make([]byte, uint64(l.Min)*wasm.PageSize),
		MaxLen: maxPages * wasm.PageSize,
		Shared: l.Shared,
	}
	if l.Shared {
		m.Data = make([]byte, m.MaxLen)
	}
	return m
}

// Pages returns the current size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.Data) / wasm.PageSize) }

// Grow grows the memory by delta pages, returning the previous page count,
// or -1 if growth exceeds the maximum.
func (m *Memory) Grow(delta uint32) int32 {
	old := m.Pages()
	newLen := uint64(len(m.Data)) + uint64(delta)*wasm.PageSize
	if newLen > m.MaxLen {
		return -1
	}
	if delta > 0 {
		if m.cow != nil && !m.Materialize() {
			return -1
		}
		if m.Reserve != nil && !m.Reserve(int64(uint64(delta)*wasm.PageSize)) {
			return -1
		}
		grown := make([]byte, newLen)
		copy(grown, m.Data)
		m.Data = grown
	}
	return int32(old)
}

// InRange reports whether [addr, addr+size) is within memory. size may be 0.
func (m *Memory) InRange(addr, size uint32) bool {
	return uint64(addr)+uint64(size) <= uint64(len(m.Data))
}

// Bytes returns the byte window [addr, addr+size) of linear memory, or a
// trap-equivalent false when out of range. This is the address-space
// translation primitive WALI uses for zero-copy syscalls: the returned
// slice aliases module memory.
func (m *Memory) Bytes(addr, size uint32) ([]byte, bool) {
	if !m.InRange(addr, size) {
		return nil, false
	}
	if m.cow != nil {
		// The caller gets a writable alias, so the window must live in
		// private pages. Within one page that costs one materialization;
		// a window straddling pages needs a contiguous buffer, which only
		// the collapsed form provides.
		end := uint64(addr) + uint64(size)
		if size > 0 && uint64(addr)>>cowPageShift == (end-1)>>cowPageShift {
			pg := m.materializePage(int(addr >> cowPageShift))
			off := addr & (cowPageSize - 1)
			return pg[off : uint64(off)+uint64(size)], true
		}
		if size > 0 && !m.Materialize() {
			return nil, false
		}
	}
	return m.Data[addr : uint64(addr)+uint64(size)], true
}

// ReadU32 loads a little-endian u32 at addr. Reading through a
// copy-on-write overlay does not materialize the page.
func (m *Memory) ReadU32(addr uint32) (uint32, bool) {
	if !m.InRange(addr, 4) {
		return 0, false
	}
	if m.cow != nil {
		return m.cowLoad32(uint64(addr)), true
	}
	return binary.LittleEndian.Uint32(m.Data[addr:]), true
}

// ReadU64 loads a little-endian u64 at addr.
func (m *Memory) ReadU64(addr uint32) (uint64, bool) {
	if !m.InRange(addr, 8) {
		return 0, false
	}
	if m.cow != nil {
		return m.cowLoad64(uint64(addr)), true
	}
	return binary.LittleEndian.Uint64(m.Data[addr:]), true
}

// WriteU32 stores a little-endian u32 at addr.
func (m *Memory) WriteU32(addr uint32, v uint32) bool {
	if !m.InRange(addr, 4) {
		return false
	}
	if m.cow != nil {
		m.cowStore32(uint64(addr), v)
		return true
	}
	binary.LittleEndian.PutUint32(m.Data[addr:], v)
	return true
}

// WriteU64 stores a little-endian u64 at addr.
func (m *Memory) WriteU64(addr uint32, v uint64) bool {
	if !m.InRange(addr, 8) {
		return false
	}
	if m.cow != nil {
		m.cowStore64(uint64(addr), v)
		return true
	}
	binary.LittleEndian.PutUint64(m.Data[addr:], v)
	return true
}

// ReadCString reads a NUL-terminated string starting at addr, bounded by
// maxLen bytes, returning the string without the terminator.
func (m *Memory) ReadCString(addr uint32, maxLen uint32) (string, bool) {
	for i := uint32(0); i < maxLen; i++ {
		if !m.InRange(addr+i, 1) {
			return "", false
		}
		if m.byteAt(addr+i) == 0 {
			if m.cow != nil {
				s := make([]byte, i)
				m.cowReadInto(s, uint64(addr))
				return string(s), true
			}
			return string(m.Data[addr : addr+i]), true
		}
	}
	return "", false
}

// Concurrent reports whether this memory is (or ever was) shared between
// threads. Snapshot excludes multi-threaded guests: their sibling
// threads' execution state cannot be captured from one safepoint.
func (m *Memory) Concurrent() bool { return m.racy() }
