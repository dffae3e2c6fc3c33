package interp

import (
	"runtime"
	"testing"
	"unsafe"

	"gowali/internal/wasm"
)

// skipUnreserved skips a test of reservation behaviour where memories
// are heap-backed. Linux always reserves, so there it is a failure.
func skipUnreserved(t *testing.T, m *Memory) {
	t.Helper()
	if m.owner != nil {
		return
	}
	if runtime.GOOS == "linux" {
		t.Fatal("linear memory fell back to the Go heap: the address-space reservation failed")
	}
	t.Skip("no address-space reservation on this platform: memory is heap-backed")
}

// TestGrowInPlace: a reserved memory grows by reslicing its reservation.
// A hundred one-page grows of a 16-page guest allocate almost nothing on
// the Go heap, never move the backing array, and every grown byte reads
// zero without the engine having cleared it.
func TestGrowInPlace(t *testing.T) {
	const start, grows = 16, 100
	m := NewMemory(wasm.Limits{Min: start, Max: start + grows, HasMax: true})
	skipUnreserved(t, m)
	for a := 0; a < len(m.Data); a += wasm.PageSize {
		m.Data[a] = 0xAA // touch the initial pages
	}
	addr := unsafe.SliceData(m.Data)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint32(0); i < grows; i++ {
		if prev := m.Grow(1); prev != int32(start+i) {
			t.Fatalf("Grow #%d = %d, want %d", i, prev, start+i)
		}
		if unsafe.SliceData(m.Data) != addr {
			t.Fatalf("Grow #%d moved the backing array", i)
		}
		page := m.Data[(start+i)*wasm.PageSize:]
		for j, v := range page {
			if v != 0 {
				t.Fatalf("Grow #%d: grown byte %d = %#x, want 0", i, j, v)
			}
		}
		page[len(page)-1] = 0xAA
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 256<<10 {
		t.Fatalf("%d grows allocated %d bytes of Go heap, want < %d", grows, d, 256<<10)
	}
	if m.Grow(1) != -1 {
		t.Fatal("grow past the maximum succeeded")
	}
}

// TestCollapseLandsInReservation: the copy-on-write collapse and the
// racy-fork copy each take a fresh reservation, so the memory keeps
// growing in place afterwards.
func TestCollapseLandsInReservation(t *testing.T) {
	m := NewMemory(wasm.Limits{Min: 2, Max: 16, HasMax: true})
	skipUnreserved(t, m)
	m.Data[wasm.PageSize+8] = 7
	child := m.Fork()
	if child.owner != m.owner {
		t.Fatal("a copy-on-write child must hold its parent's reservation owner")
	}
	if child.Grow(1) != 2 || child.cow != nil {
		t.Fatal("grow did not collapse the child's overlay")
	}
	if child.owner == nil || child.owner == m.owner {
		t.Fatal("the collapsed child does not own a fresh reservation")
	}
	if child.Data[wasm.PageSize+8] != 7 {
		t.Fatal("collapse lost the inherited contents")
	}

	m.Materialize()
	m.MarkConcurrent()
	copied := m.Fork()
	if copied.cow != nil || copied.owner == nil || copied.owner == m.owner {
		t.Fatal("a racy fork must copy into a reservation of its own")
	}
	if copied.Data[wasm.PageSize+8] != 7 {
		t.Fatal("racy fork lost the contents")
	}
}
