package interp

import (
	"encoding/binary"

	"gowali/internal/wasm"
)

// Copy-on-write linear memory. A restored or forked guest runs on a
// Memory whose Data aliases a frozen, shared base image; a per-page
// overlay (64 KiB wasm pages) holds the pages that differ from it. Reads
// consult the overlay first; the first write to a page this memory does
// not own copies it ("materializes" it) — so N children forked from one
// warmed image share every page none of them touched.
//
// Overlay pages are either owned (private to this memory, written in
// place) or frozen (shared read-only with fork relatives). Process fork
// (Fork) freezes every page the parent owns and gives the child an
// overlay of the same frozen pages over the same base; the next write by
// either side copies the page. A fork therefore copies no image, and
// nested forks share every page no generation has rewritten since.
//
// Invariants:
//   - cow != nil implies the memory is private to one guest thread:
//     MarkConcurrent (thread spawn) collapses the overlay first, so the
//     shared-memory atomic paths never race with the overlay, and Fork
//     of a concurrent or Shared memory takes a full copy instead.
//   - While cow != nil, Data aliases cow.base and MUST NOT be written
//     through; every write path in the engine and the embedder is
//     barriered (sharedStore*, execMemAccess byte/half stores, memory.
//     copy/fill, Bytes, mmap/brk via Bytes windows). Neither base nor a
//     frozen page is ever written: other memories read them.
//   - len(Data) stays authoritative for bounds checks (effAddr, InRange).
//   - Budget: a restored memory is charged one page at a time, when a
//     page it has never held is materialized. A forked memory (parent
//     and child) is prepaid: fork reserved the full image up front, so
//     materializing or collapsing charges nothing. Grow always charges
//     its delta.
//
// The inactive cost of the barrier is a single predictable nil check on
// each memory access; BenchmarkInterpreter guards it at ≤2%.
type cowState struct {
	base  []byte   // frozen full-size image, shared read-only; == m.Data
	pages [][]byte // overlay, indexed by addr >> cowPageShift; nil = clean
	owned []bool   // owned[p]: pages[p] is private; else frozen (shared)
	dirty int      // number of owned pages

	// prepaid: every page is already charged to the budget (fork), so
	// materializing and collapsing reserve nothing.
	prepaid bool
}

const (
	cowPageShift = 16 // 64 KiB, the wasm page size
	cowPageSize  = wasm.PageSize
)

// newCowState builds an empty overlay over base.
func newCowState(base []byte, prepaid bool) *cowState {
	n := len(base) / cowPageSize
	return &cowState{base: base, pages: make([][]byte, n), owned: make([]bool, n), prepaid: prepaid}
}

// NewCowMemory builds a copy-on-write memory over a frozen base image.
// base must not be mutated for the life of any memory built over it; its
// length must be a multiple of the wasm page size. reserve (nil ok) gates
// page materialization and growth against an external budget, charged one
// page at a time as pages are dirtied.
func NewCowMemory(base []byte, maxLen uint64, reserve func(int64) bool) *Memory {
	return &Memory{
		Data:    base,
		MaxLen:  maxLen,
		Reserve: reserve,
		cow:     newCowState(base, false),
	}
}

// Fork returns the memory of a forked child: a copy-on-write view of m's
// current contents. m itself becomes a copy-on-write view of the same
// frozen image (the pages it owned are frozen and shared with the child),
// so neither side copies anything until it writes. The child is prepaid:
// the caller charges the full image for it. A concurrent or Shared
// memory cannot be frozen under its other threads, so the child gets a
// full private copy instead. Reserve and OnCowFault are not copied.
func (m *Memory) Fork() *Memory {
	if m.racy() {
		return &Memory{Data: m.SnapshotBytes(), MaxLen: m.MaxLen, Shared: m.Shared}
	}
	c := m.cow
	if c == nil {
		c = newCowState(m.Data, true)
		m.cow = c
	}
	clear(c.owned)
	c.dirty = 0
	child := newCowState(c.base, true)
	copy(child.pages, c.pages)
	return &Memory{Data: m.Data, MaxLen: m.MaxLen, cow: child}
}

// CowActive reports whether this memory still reads through a shared base.
func (m *Memory) CowActive() bool { return m.cow != nil }

// DirtyPages returns the number of private pages: those materialized
// since the restore or the last fork, or the full page count once the
// overlay has collapsed.
func (m *Memory) DirtyPages() int {
	if m.cow == nil {
		return len(m.Data) / cowPageSize
	}
	return m.cow.dirty
}

// page returns the backing slice for page p: the overlay page (owned or
// frozen) if there is one, else the shared base.
func (c *cowState) page(p int) []byte {
	if pg := c.pages[p]; pg != nil {
		return pg
	}
	return c.base[p<<cowPageShift : (p+1)<<cowPageShift]
}

// materializePage gives page p a private copy. Only a page this memory
// has never held is charged, and only when the memory is not prepaid.
// Traps on budget exhaustion — the CoW analogue of the OOM killer: the
// write that needed the page cannot be expressed as a syscall error.
func (m *Memory) materializePage(p int) []byte {
	c := m.cow
	if c.owned[p] {
		return c.pages[p]
	}
	if c.pages[p] == nil && !c.prepaid && m.Reserve != nil && !m.Reserve(cowPageSize) {
		Throw(TrapMemBudget, "copy-on-write page %d: tenant memory budget exhausted", p)
	}
	pg := make([]byte, cowPageSize)
	copy(pg, c.page(p))
	c.pages[p] = pg
	c.owned[p] = true
	c.dirty++
	if m.OnCowFault != nil {
		m.OnCowFault(p)
	}
	return pg
}

// Materialize collapses the overlay into a fresh private buffer, ending
// copy-on-write for this memory. Needed when a caller requires a stable
// contiguous view (multi-page Bytes windows, memory.grow, thread sharing).
// Returns false when the budget refuses the pages never held.
func (m *Memory) Materialize() bool {
	c := m.cow
	if c == nil {
		return true
	}
	if !c.prepaid && m.Reserve != nil {
		clean := 0
		for _, pg := range c.pages {
			if pg == nil {
				clean++
			}
		}
		if clean > 0 && !m.Reserve(int64(clean)*cowPageSize) {
			return false
		}
	}
	m.Data = m.SnapshotBytes()
	m.cow = nil
	return true
}

// mustMaterialize is Materialize for engine paths with no error channel.
func (m *Memory) mustMaterialize() {
	if !m.Materialize() {
		Throw(TrapMemBudget, "copy-on-write collapse: tenant memory budget exhausted")
	}
}

// SnapshotBytes returns a private full copy of the current memory
// contents, composing base and overlay — the image a snapshot embeds.
func (m *Memory) SnapshotBytes() []byte {
	out := make([]byte, len(m.Data))
	if c := m.cow; c != nil {
		copy(out, c.base)
		for p, pg := range c.pages {
			if pg != nil {
				copy(out[p<<cowPageShift:], pg)
			}
		}
		return out
	}
	copy(out, m.Data)
	return out
}

// cowReadInto fills b from [addr, addr+len(b)), crossing pages as needed.
// Bounds must have been checked.
func (m *Memory) cowReadInto(b []byte, addr uint64) {
	c := m.cow
	for len(b) > 0 {
		p := int(addr >> cowPageShift)
		off := int(addr & (cowPageSize - 1))
		n := copy(b, c.page(p)[off:])
		b = b[n:]
		addr += uint64(n)
	}
}

// cowWriteFrom stores b at [addr, addr+len(b)), materializing each page.
func (m *Memory) cowWriteFrom(b []byte, addr uint64) {
	for len(b) > 0 {
		p := int(addr >> cowPageShift)
		off := int(addr & (cowPageSize - 1))
		n := copy(m.materializePage(p)[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// Scalar loads/stores. The n-byte access at a fits within one page when
// the first and last byte share a page index; the split case is rare
// (unaligned access straddling a 64 KiB boundary) and handled byte-wise.

func (m *Memory) cowLoad8(a uint64) byte {
	return m.cow.page(int(a >> cowPageShift))[a&(cowPageSize-1)]
}

func (m *Memory) cowLoad16(a uint64) uint16 {
	if a>>cowPageShift == (a+1)>>cowPageShift {
		pg := m.cow.page(int(a >> cowPageShift))
		return binary.LittleEndian.Uint16(pg[a&(cowPageSize-1):])
	}
	var b [2]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint16(b[:])
}

func (m *Memory) cowLoad32(a uint64) uint32 {
	if a>>cowPageShift == (a+3)>>cowPageShift {
		pg := m.cow.page(int(a >> cowPageShift))
		return binary.LittleEndian.Uint32(pg[a&(cowPageSize-1):])
	}
	var b [4]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint32(b[:])
}

func (m *Memory) cowLoad64(a uint64) uint64 {
	if a>>cowPageShift == (a+7)>>cowPageShift {
		pg := m.cow.page(int(a >> cowPageShift))
		return binary.LittleEndian.Uint64(pg[a&(cowPageSize-1):])
	}
	var b [8]byte
	m.cowReadInto(b[:], a)
	return binary.LittleEndian.Uint64(b[:])
}

func (m *Memory) cowStore8(a uint64, v byte) {
	m.materializePage(int(a >> cowPageShift))[a&(cowPageSize-1)] = v
}

func (m *Memory) cowStore16(a uint64, v uint16) {
	if a>>cowPageShift == (a+1)>>cowPageShift {
		pg := m.materializePage(int(a >> cowPageShift))
		binary.LittleEndian.PutUint16(pg[a&(cowPageSize-1):], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.cowWriteFrom(b[:], a)
}

func (m *Memory) cowStore32(a uint64, v uint32) {
	if a>>cowPageShift == (a+3)>>cowPageShift {
		pg := m.materializePage(int(a >> cowPageShift))
		binary.LittleEndian.PutUint32(pg[a&(cowPageSize-1):], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.cowWriteFrom(b[:], a)
}

func (m *Memory) cowStore64(a uint64, v uint64) {
	if a>>cowPageShift == (a+7)>>cowPageShift {
		pg := m.materializePage(int(a >> cowPageShift))
		binary.LittleEndian.PutUint64(pg[a&(cowPageSize-1):], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.cowWriteFrom(b[:], a)
}

// cowCopyWithin implements memory.copy over the overlay without
// collapsing it: dst pages are materialized, the source is read
// cow-aware. Handles overlap like copy() does via an intermediate only
// when ranges overlap and src < dst (backward copy hazard).
func (m *Memory) cowCopyWithin(dst, src uint32, ln uint32) {
	if ln == 0 {
		return
	}
	// An intermediate buffer sidesteps overlap direction analysis; copies
	// through memory.copy are rare enough on the CoW path.
	tmp := make([]byte, ln)
	m.cowReadInto(tmp, uint64(src))
	m.cowWriteFrom(tmp, uint64(dst))
}

// cowFill implements memory.fill over the overlay.
func (m *Memory) cowFill(dst uint32, val byte, ln uint32) {
	a := uint64(dst)
	for rem := int(ln); rem > 0; {
		p := int(a >> cowPageShift)
		off := int(a & (cowPageSize - 1))
		n := cowPageSize - off
		if n > rem {
			n = rem
		}
		pg := m.materializePage(p)
		for i := 0; i < n; i++ {
			pg[off+i] = val
		}
		a += uint64(n)
		rem -= n
	}
}

// memLoad8..memStore16 are the engine's byte/halfword access paths with
// the copy-on-write barrier folded in; 32/64-bit accesses barrier inside
// sharedLoad*/sharedStore* (atomicmem.go).

func memLoad8(m *Memory, a uint64) byte {
	if m.cow != nil {
		return m.cowLoad8(a)
	}
	return m.Data[a]
}

func memLoad16(m *Memory, a uint64) uint16 {
	if m.cow != nil {
		return m.cowLoad16(a)
	}
	return binary.LittleEndian.Uint16(m.Data[a:])
}

func memStore8(m *Memory, a uint64, v byte) {
	if m.cow != nil {
		m.cowStore8(a, v)
		return
	}
	m.Data[a] = v
}

func memStore16(m *Memory, a uint64, v uint16) {
	if m.cow != nil {
		m.cowStore16(a, v)
		return
	}
	binary.LittleEndian.PutUint16(m.Data[a:], v)
}

// byteAt is the cow-aware single-byte load behind ReadCString.
func (m *Memory) byteAt(a uint32) byte {
	if m.cow != nil {
		return m.cowLoad8(uint64(a))
	}
	return m.Data[a]
}

// Bulk embedder helpers: cow-aware analogues of direct Data slicing, used
// by engine-adjacent code (the mmap pool, snapshot restore paths) that
// must not write through a shared base. Bounds are checked; all return
// false on out-of-range instead of panicking.

// ReadBytes fills b from [addr, addr+len(b)), composing overlay pages
// over the base without materializing anything.
func (m *Memory) ReadBytes(addr uint32, b []byte) bool {
	if !m.InRange(addr, uint32(len(b))) {
		return false
	}
	if m.cow != nil {
		m.cowReadInto(b, uint64(addr))
		return true
	}
	copy(b, m.Data[addr:])
	return true
}

// WriteBytes copies b into memory at addr, dirtying exactly the pages it
// touches when copy-on-write is active.
func (m *Memory) WriteBytes(addr uint32, b []byte) bool {
	if !m.InRange(addr, uint32(len(b))) {
		return false
	}
	if m.cow != nil {
		m.cowWriteFrom(b, uint64(addr))
		return true
	}
	copy(m.Data[addr:], b)
	return true
}

// ZeroRange zeroes [addr, addr+ln) (mmap's fresh-mapping and brk-growth
// semantics).
func (m *Memory) ZeroRange(addr, ln uint32) bool {
	if !m.InRange(addr, ln) {
		return false
	}
	if m.cow != nil {
		m.cowFill(addr, 0, ln)
		return true
	}
	b := m.Data[addr : addr+ln]
	for i := range b {
		b[i] = 0
	}
	return true
}

// CopyRange copies ln bytes from src to dst within this memory (mremap's
// move path).
func (m *Memory) CopyRange(dst, src, ln uint32) bool {
	if !m.InRange(dst, ln) || !m.InRange(src, ln) {
		return false
	}
	if m.cow != nil {
		m.cowCopyWithin(dst, src, ln)
		return true
	}
	copy(m.Data[dst:dst+ln], m.Data[src:src+ln])
	return true
}
