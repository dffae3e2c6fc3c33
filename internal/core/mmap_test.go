package core

import (
	"math/rand"
	"testing"

	"gowali/internal/interp"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

func testPool(t *testing.T) (*MmapPool, *interp.Memory) {
	t.Helper()
	mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 64, HasMax: true})
	return NewMmapPool(mem), mem
}

func TestPoolMapUnmapBasics(t *testing.T) {
	p, mem := testPool(t)
	a, errno := p.Map(0, 10000, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	if errno != 0 {
		t.Fatalf("map: %v", errno)
	}
	if a%MapGranularity != 0 {
		t.Errorf("unaligned mapping %d", a)
	}
	if !mem.InRange(a, 10000) {
		t.Fatal("mapping outside memory")
	}
	// Contents zeroed.
	for i := uint32(0); i < 10000; i += 997 {
		if mem.Data[a+i] != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
	if errno := p.Unmap(a, 10000); errno != 0 {
		t.Fatalf("unmap: %v", errno)
	}
	if len(p.Regions()) != 0 {
		t.Fatalf("regions left: %v", p.Regions())
	}
}

func TestPoolGrowthLimit(t *testing.T) {
	p, _ := testPool(t)
	// Max is 64 pages = 4 MiB; a 16 MiB mapping must fail cleanly.
	if _, errno := p.Map(0, 16<<20, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0); errno != linux.ENOMEM {
		t.Fatalf("oversized map: %v, want ENOMEM", errno)
	}
}

func TestPoolRemap(t *testing.T) {
	p, mem := testPool(t)
	a, _ := p.Map(0, 8192, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	mem.WriteU32(a, 0xABCD)
	// Grow.
	b, errno := p.Remap(a, 8192, 32768, linux.MREMAP_MAYMOVE)
	if errno != 0 {
		t.Fatalf("remap grow: %v", errno)
	}
	if v, _ := mem.ReadU32(b); v != 0xABCD {
		t.Fatal("contents lost on remap")
	}
	// Shrink.
	c, errno := p.Remap(b, 32768, 4096, 0)
	if errno != 0 || c != b {
		t.Fatalf("remap shrink: %d %v", c, errno)
	}
	// Remap of unmapped address fails.
	if _, errno := p.Remap(0x100000, 4096, 8192, linux.MREMAP_MAYMOVE); errno != linux.EFAULT {
		t.Fatalf("remap bogus: %v", errno)
	}
}

func TestPoolFixedMapping(t *testing.T) {
	p, _ := testPool(t)
	a, _ := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
	// MAP_FIXED replaces the existing mapping.
	b, errno := p.Map(a, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE|linux.MAP_FIXED, nil, 0)
	if errno != 0 || b != a {
		t.Fatalf("fixed map: %d %v", b, errno)
	}
	if n := len(p.Regions()); n != 1 {
		t.Fatalf("%d regions after fixed remap", n)
	}
	// Unaligned fixed fails.
	if _, errno := p.Map(a+1, 4096, 0, linux.MAP_FIXED|linux.MAP_ANONYMOUS, nil, 0); errno != linux.EINVAL {
		t.Fatalf("unaligned fixed: %v", errno)
	}
}

// TestPoolReuseReadsZero: the pool zeroes only below the memory's old
// length, so every reuse of a range the guest dirtied — brk moving back
// up, MAP_FIXED over a live mapping, an mmap landing in a munmapped
// hole, an in-place mremap over a freed tail — must still read zero, on
// flat and on copy-on-write memories.
func TestPoolReuseReadsZero(t *testing.T) {
	const anon = linux.MAP_ANONYMOUS | linux.MAP_PRIVATE
	dirty := func(t *testing.T, mem *interp.Memory, a, n uint32) {
		t.Helper()
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = 0xAA
		}
		if !mem.WriteBytes(a, buf) {
			t.Fatalf("dirty [%#x,+%d) out of range", a, n)
		}
	}
	zeroed := func(t *testing.T, what string, mem *interp.Memory, a, n uint32) {
		t.Helper()
		buf := make([]byte, n)
		if !mem.ReadBytes(a, buf) {
			t.Fatalf("%s: [%#x,+%d) out of range", what, a, n)
		}
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("%s: byte %#x = %#x, want 0", what, a+uint32(i), v)
			}
		}
	}
	mems := map[string]func() *interp.Memory{
		"flat": func() *interp.Memory { return interp.NewMemory(wasm.Limits{Min: 2, Max: 64, HasMax: true}) },
		"cow": func() *interp.Memory {
			base := make([]byte, 8*wasm.PageSize)
			for i := range base {
				base[i] = 0x55
			}
			return interp.NewCowMemory(base, 64*wasm.PageSize, nil)
		},
	}
	for name, mk := range mems {
		t.Run(name, func(t *testing.T) {
			mem := mk()
			p := NewMmapPool(mem)
			brk := p.Brk(0)
			top := p.Brk(brk + 2*MapGranularity)
			if top != brk+2*MapGranularity {
				t.Fatalf("brk grow: %#x, want %#x", top, brk+2*MapGranularity)
			}
			dirty(t, mem, brk, top-brk)
			p.Brk(brk)
			if got := p.Brk(top); got != top {
				t.Fatalf("brk regrow: %#x, want %#x", got, top)
			}
			zeroed(t, "brk regrowth", mem, brk, top-brk)
			p.Brk(brk)

			a, errno := p.Map(0, 3*MapGranularity, 0, anon, nil, 0)
			if errno != 0 {
				t.Fatal(errno)
			}
			zeroed(t, "fresh map", mem, a, 3*MapGranularity)
			dirty(t, mem, a, 3*MapGranularity)
			if b, errno := p.Map(a, 2*MapGranularity, 0, anon|linux.MAP_FIXED, nil, 0); errno != 0 || b != a {
				t.Fatalf("fixed map: %#x %v", b, errno)
			}
			zeroed(t, "MAP_FIXED over a dirty mapping", mem, a, 2*MapGranularity)

			p.Unmap(a, 3*MapGranularity)
			b, errno := p.Map(0, MapGranularity, 0, anon, nil, 0)
			if errno != 0 || b != a {
				t.Fatalf("map into the hole: %#x %v, want %#x", b, errno, a)
			}
			zeroed(t, "mmap reusing a munmapped range", mem, b, MapGranularity)
			dirty(t, mem, b, MapGranularity)
			// The hole's tail (dirtied above) is free again: grow in place.
			c, errno := p.Remap(b, MapGranularity, 3*MapGranularity, 0)
			if errno != 0 || c != b {
				t.Fatalf("remap in place: %#x %v", c, errno)
			}
			zeroed(t, "mremap over a freed tail", mem, b+MapGranularity, 2*MapGranularity)
		})
	}
}

func TestPoolBrk(t *testing.T) {
	p, mem := testPool(t)
	base := p.Brk(0)
	if base == 0 {
		t.Fatal("zero brk")
	}
	nb := p.Brk(base + 12345)
	if nb < base+12345 {
		t.Fatalf("brk did not grow: %d", nb)
	}
	if !mem.InRange(base, nb-base) {
		t.Fatal("brk outside memory")
	}
	// Shrinking below base is refused.
	if got := p.Brk(100); got != nb {
		t.Fatalf("bogus brk moved the break: %d", got)
	}
}

// TestPoolMapAvoidsBrkHeap: anonymous mappings land at or above the
// program break on both allocators, and a break that would grow into a
// mapping stays where it is.
func TestPoolMapAvoidsBrkHeap(t *testing.T) {
	for _, bump := range []bool{false, true} {
		p, _ := testPool(t)
		p.Bump = bump
		base := p.Brk(0)
		brk := p.Brk(base + 3*MapGranularity)
		if brk != base+3*MapGranularity {
			t.Fatalf("bump=%v: brk = %#x, want %#x", bump, brk, base+3*MapGranularity)
		}
		for i := 0; i < 3; i++ {
			a, errno := p.Map(0, MapGranularity, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
			if errno != 0 {
				t.Fatalf("bump=%v: map: %v", bump, errno)
			}
			if a < brk && base < a+MapGranularity {
				t.Fatalf("bump=%v: mapping [%#x,%#x) overlaps the brk heap [%#x,%#x)", bump, a, a+MapGranularity, base, brk)
			}
		}
		if got := p.Brk(brk + 2*MapGranularity); got != brk {
			t.Fatalf("bump=%v: brk grew into a mapping: %#x, want the old break %#x", bump, got, brk)
		}
	}
}

// TestPoolNonOverlapProperty: random map/unmap sequences never produce
// overlapping regions, and every region stays within memory bounds.
func TestPoolNonOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, mem := testPool(t)
		var live []uint32
		for op := 0; op < 200; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				p.Unmap(live[i], 4096)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint32(1+rng.Intn(4)) * 4096
			a, errno := p.Map(0, size, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
			if errno == linux.ENOMEM {
				continue
			}
			if errno != 0 {
				t.Fatalf("map: %v", errno)
			}
			live = append(live, a)
		}
		regions := p.Regions()
		for i := 1; i < len(regions); i++ {
			prev, cur := regions[i-1], regions[i]
			if prev.Addr+prev.Len > cur.Addr {
				t.Fatalf("trial %d: overlap %v / %v", trial, prev, cur)
			}
		}
		for _, r := range regions {
			if uint64(r.Addr)+uint64(r.Len) > uint64(mem.MaxLen) {
				t.Fatalf("region %v beyond max", r)
			}
		}
	}
}

func TestPoolFileBackedSync(t *testing.T) {
	w := New()
	kp := w.Kernel.NewProcess("t", nil, nil)
	fd, errno := kp.Open("/tmp/mapped", linux.O_CREAT|linux.O_RDWR, 0o644)
	if errno != 0 {
		t.Fatal(errno)
	}
	kp.Write(fd, []byte("0123456789abcdef"))
	file, _ := kp.FDs.Get(fd)

	mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 64, HasMax: true})
	p := NewMmapPool(mem)
	a, errno := p.Map(0, 4096, linux.PROT_READ|linux.PROT_WRITE, linux.MAP_SHARED, file, 0)
	if errno != 0 {
		t.Fatalf("file map: %v", errno)
	}
	// File contents visible.
	if string(mem.Data[a:a+4]) != "0123" {
		t.Fatalf("mapped contents %q", mem.Data[a:a+4])
	}
	// Modify through memory, then msync → file updated.
	copy(mem.Data[a:], "XYZ")
	p.Sync(a, 4096)
	buf := make([]byte, 4)
	kp.Pread64(fd, buf, 0)
	if string(buf[:3]) != "XYZ" {
		t.Fatalf("write-back missing: %q", buf)
	}
}

func TestPoolBumpVsFreelist(t *testing.T) {
	// The ablation's correctness side: both allocators satisfy the same
	// sequence, but the bump allocator never reuses addresses.
	for _, bump := range []bool{true, false} {
		mem := interp.NewMemory(wasm.Limits{Min: 2, Max: 256, HasMax: true})
		p := NewMmapPool(mem)
		p.Bump = bump
		a1, _ := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
		p.Unmap(a1, 4096)
		a2, errno := p.Map(0, 4096, 0, linux.MAP_ANONYMOUS|linux.MAP_PRIVATE, nil, 0)
		if errno != 0 {
			t.Fatalf("bump=%v: %v", bump, errno)
		}
		if bump && a2 == a1 {
			t.Error("bump allocator recycled an address")
		}
		if !bump && a2 != a1 {
			t.Errorf("free-list allocator failed to recycle (%d -> %d)", a1, a2)
		}
	}
}

func TestSigtableDeferIdentical(t *testing.T) {
	st := NewSigtable()
	if !st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("first handler refused")
	}
	if st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("identical signal not deferred without SA_NODEFER")
	}
	if !st.beginHandler(linux.SIGUSR1, linux.SA_NODEFER) {
		t.Fatal("SA_NODEFER did not permit nesting")
	}
	st.endHandler(linux.SIGUSR1)
	st.endHandler(linux.SIGUSR1)
	if !st.beginHandler(linux.SIGUSR1, 0) {
		t.Fatal("handler not re-armable after end")
	}
}
