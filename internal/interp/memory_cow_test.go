package interp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gowali/internal/wasm"
)

// cowBase builds a frozen base image of n pages with a recognizable
// pattern: every u32-aligned word holds its own address.
func cowBase(pages int) []byte {
	base := make([]byte, pages*wasm.PageSize)
	for a := 0; a < len(base); a += 4 {
		binary.LittleEndian.PutUint32(base[a:], uint32(a))
	}
	return base
}

func TestCowReadsSeeBaseWithoutMaterializing(t *testing.T) {
	base := cowBase(4)
	m := NewCowMemory(base, 16*wasm.PageSize, nil)
	for _, a := range []uint32{0, 4, wasm.PageSize - 4, wasm.PageSize, 3 * wasm.PageSize} {
		if v, ok := m.ReadU32(a); !ok || v != a {
			t.Fatalf("ReadU32(%#x) = %d, %v", a, v, ok)
		}
	}
	buf := make([]byte, 64)
	if !m.ReadBytes(wasm.PageSize-32, buf) { // straddles a page boundary
		t.Fatal("ReadBytes failed")
	}
	if !bytes.Equal(buf, base[wasm.PageSize-32:wasm.PageSize+32]) {
		t.Fatal("ReadBytes mismatch")
	}
	if m.DirtyPages() != 0 {
		t.Fatalf("reads dirtied %d pages", m.DirtyPages())
	}
}

func TestCowWriteMaterializesOnlyItsPage(t *testing.T) {
	base := cowBase(4)
	snapshotOfBase := append([]byte(nil), base...)
	m := NewCowMemory(base, 16*wasm.PageSize, nil)

	if !m.WriteU64(wasm.PageSize+8, 0xDEAD) {
		t.Fatal("WriteU64 failed")
	}
	if m.DirtyPages() != 1 {
		t.Fatalf("dirty pages = %d, want 1", m.DirtyPages())
	}
	if v, _ := m.ReadU64(wasm.PageSize + 8); v != 0xDEAD {
		t.Fatalf("read back %#x", v)
	}
	// Neighbouring word on the same page keeps its base value; other
	// pages stay untouched; the base itself never changes.
	if v, _ := m.ReadU32(wasm.PageSize + 16); v != wasm.PageSize+16 {
		t.Fatalf("sibling word on dirtied page = %d", v)
	}
	if !bytes.Equal(base, snapshotOfBase) {
		t.Fatal("write leaked into the shared base")
	}

	// A second view over the same base must not see the first's write.
	m2 := NewCowMemory(base, 16*wasm.PageSize, nil)
	if v, _ := m2.ReadU64(wasm.PageSize + 8); v == 0xDEAD {
		t.Fatal("sibling view sees another instance's write")
	}
}

func TestCowSnapshotBytesComposes(t *testing.T) {
	base := cowBase(2)
	m := NewCowMemory(base, 16*wasm.PageSize, nil)
	m.WriteU32(12, 7)
	out := m.SnapshotBytes()
	if binary.LittleEndian.Uint32(out[12:]) != 7 {
		t.Fatal("overlay write missing from snapshot")
	}
	if binary.LittleEndian.Uint32(out[wasm.PageSize:]) != wasm.PageSize {
		t.Fatal("clean page missing from snapshot")
	}
	out[0] = 0xFF // snapshot is private
	if v, _ := m.ReadU32(0); v == 0xFF000000 || base[0] == 0xFF {
		t.Fatal("snapshot aliases live memory")
	}
}

func TestCowBulkHelpers(t *testing.T) {
	base := cowBase(4)
	m := NewCowMemory(base, 16*wasm.PageSize, nil)

	// WriteBytes straddling a boundary dirties both pages.
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if !m.WriteBytes(wasm.PageSize-32, payload) {
		t.Fatal("WriteBytes failed")
	}
	if m.DirtyPages() != 2 {
		t.Fatalf("dirty pages = %d, want 2", m.DirtyPages())
	}
	got := make([]byte, 64)
	m.ReadBytes(wasm.PageSize-32, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("WriteBytes round trip mismatch")
	}

	// ZeroRange and CopyRange honor the overlay.
	if !m.ZeroRange(2*wasm.PageSize, 128) {
		t.Fatal("ZeroRange failed")
	}
	if v, _ := m.ReadU32(2*wasm.PageSize + 64); v != 0 {
		t.Fatalf("ZeroRange left %d", v)
	}
	if !m.CopyRange(3*wasm.PageSize, wasm.PageSize-32, 64) {
		t.Fatal("CopyRange failed")
	}
	m.ReadBytes(3*wasm.PageSize, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("CopyRange mismatch")
	}

	// Bounds are still enforced.
	if m.WriteBytes(uint32(len(base)-4), payload) || m.ReadBytes(uint32(len(base)-4), got) ||
		m.ZeroRange(uint32(len(base)-4), 8) || m.CopyRange(0, uint32(len(base)-4), 8) {
		t.Fatal("out-of-range bulk access succeeded")
	}
}

func TestCowBudgetChargesPerDirtiedPage(t *testing.T) {
	base := cowBase(4)
	var charged int64
	budget := int64(2 * wasm.PageSize)
	reserve := func(n int64) bool {
		if charged+n > budget {
			return false
		}
		charged += n
		return true
	}
	m := NewCowMemory(base, 16*wasm.PageSize, reserve)
	m.WriteU32(0, 1)
	m.WriteU32(wasm.PageSize, 1)
	if charged != int64(2*wasm.PageSize) {
		t.Fatalf("charged %d, want exactly two pages", charged)
	}
	m.WriteU32(0, 2) // same page: no new charge
	if charged != int64(2*wasm.PageSize) {
		t.Fatalf("re-dirtying charged again: %d", charged)
	}
	// The third page exceeds the budget: the write must trap.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("over-budget materialization did not trap")
			}
		}()
		m.WriteU32(2*wasm.PageSize, 1)
	}()
}

func TestCowGrowCollapsesOverlay(t *testing.T) {
	base := cowBase(2)
	m := NewCowMemory(base, 16*wasm.PageSize, nil)
	m.WriteU32(8, 99)
	if prev := m.Grow(1); prev != 2 {
		t.Fatalf("Grow = %d, want 2", prev)
	}
	if m.CowActive() {
		t.Fatal("overlay survived Grow")
	}
	if v, _ := m.ReadU32(8); v != 99 {
		t.Fatalf("dirtied word lost in collapse: %d", v)
	}
	if v, _ := m.ReadU32(wasm.PageSize + 8); v != wasm.PageSize+8 {
		t.Fatalf("clean word lost in collapse: %d", v)
	}
	if v, _ := m.ReadU32(2*wasm.PageSize + 8); v != 0 {
		t.Fatalf("grown page not zeroed: %d", v)
	}
	if binary.LittleEndian.Uint32(base[8:]) == 99 {
		t.Fatal("collapse wrote into the shared base")
	}
}

func TestCowForkFreezesOwnedPages(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 3, Max: 16, HasMax: true})
	m.WriteU32(8, 1)
	child := m.Fork()
	if !m.CowActive() || !child.CowActive() || m.DirtyPages() != 0 {
		t.Fatalf("after fork: parent cow %v dirty %d, child cow %v", m.CowActive(), m.DirtyPages(), child.CowActive())
	}
	// The child owns page 0 after writing it; forking again freezes that
	// page and shares it with the grandchild.
	child.WriteU32(8, 2)
	grand := child.Fork()
	child.WriteU32(8, 3)
	grand.WriteU32(wasm.PageSize+8, 4)
	m.WriteU32(wasm.PageSize+8, 5)
	for _, c := range []struct {
		name      string
		mem       *Memory
		p0, p1    uint32
		dirtyWant int
	}{
		{"parent", m, 1, 5, 1},
		{"child", child, 3, 0, 1},
		{"grandchild", grand, 2, 4, 1},
	} {
		v0, _ := c.mem.ReadU32(8)
		v1, _ := c.mem.ReadU32(wasm.PageSize + 8)
		if v0 != c.p0 || v1 != c.p1 {
			t.Errorf("%s reads %d, %d; want %d, %d", c.name, v0, v1, c.p0, c.p1)
		}
		if d := c.mem.DirtyPages(); d != c.dirtyWant {
			t.Errorf("%s: %d private pages, want %d", c.name, d, c.dirtyWant)
		}
	}
}

func TestCowForkBudgetChargesOnce(t *testing.T) {
	var charged int64
	reserve := func(n int64) bool { charged += n; return true }

	// A forked memory is prepaid: its page copies and its collapse are
	// free, growth is charged exactly.
	m := NewMemory(wasm.Limits{Min: 2, Max: 16, HasMax: true})
	m.Reserve = reserve
	child := m.Fork()
	child.Reserve = reserve
	m.WriteU32(8, 1)
	child.WriteU32(8, 1)
	if m.Grow(1) != 2 || child.Grow(1) != 2 {
		t.Fatal("grow failed")
	}
	if charged != 2*wasm.PageSize {
		t.Fatalf("charged %d bytes, want the two grown pages only", charged)
	}

	// A restored memory pays per page it first materializes; pages it
	// paid for stay paid after a fork freezes them.
	charged = 0
	r := NewCowMemory(cowBase(4), 16*wasm.PageSize, reserve)
	r.WriteU32(8, 1)
	r.Fork()
	r.WriteU32(8, 2)
	r.WriteU32(wasm.PageSize+8, 2)
	if charged != 2*wasm.PageSize {
		t.Fatalf("charged %d bytes, want two pages", charged)
	}
	if !r.Materialize() || charged != 4*wasm.PageSize {
		t.Fatalf("collapse charged %d bytes in total, want four pages", charged)
	}
}
