package interp

import (
	"runtime"
	"sync/atomic"
)

// Linear memory is backed by one anonymous reservation of address space
// per flat memory (mapAnon): MaxLen bytes mapped MAP_NORESERVE, of which
// Memory.Data is a prefix. Growth reslices the prefix in place — no copy,
// and no zeroing, because the kernel zero-fills a page on first touch.
// Where mapping fails (no unix mmap, address space exhausted) reserve
// falls back to a Go heap buffer of the requested length, and Grow copies
// that into a larger buffer.
//
// A reservation is unmapped only once the garbage collector finds its
// owner (a *mapping) unreachable. Every Memory whose Data aliases a
// reservation — a flat memory, a forked parent frozen over its own image
// and every copy-on-write child over that image — holds the owner, so no
// alias can outlive the mapping. Guest memory stays readable after the
// process exits for as long as anything references its Memory.

// mapping owns one reservation; its cleanup unmaps it.
type mapping struct {
	r *region
}

// region is what the cleanup needs: the mapping and the length handed out
// of it so far, which it returns to the committed total.
type region struct {
	b    []byte
	used atomic.Int64
}

// Process-wide accounting of live reservations, sampled by the
// reservation gauges (Reservations) and by the collection pacer below.
var (
	liveMaps      atomic.Int64 // live reservations
	committed     atomic.Int64 // bytes handed out of them (lengths, not reserved size)
	committedLow  atomic.Int64 // lowest committed since the last forced collection
	collectActive atomic.Bool
)

// collectStep bounds how far committed may rise above its low point
// before reserve starts a collection itself. The GC paces itself by the
// Go heap, which no longer holds guest memory, so without this a program
// with a large live heap could keep gigabytes of dead guest memory
// mapped between cycles.
const collectStep = 64 << 20

// Reservations reports the number of live linear-memory reservations and
// the bytes handed out of them (their current lengths; each reserves its
// memory's maximum size in address space). Heap-backed memories are not
// counted.
func Reservations() (n, bytes int64) { return liveMaps.Load(), committed.Load() }

// reserve returns a zeroed buffer of length n whose capacity reaches
// limit, backed by a fresh reservation owned by the returned mapping, or
// a heap buffer of length n and a nil owner when the reservation fails.
func reserve(n, limit uint64) ([]byte, *mapping) {
	b := mapAnon(max(n, limit))
	if b == nil {
		return make([]byte, n), nil
	}
	r := &region{b: b}
	o := &mapping{r: r}
	runtime.AddCleanup(o, unmapRegion, r)
	liveMaps.Add(1)
	o.commit(int64(n))
	return b[:n], o
}

// commit records delta more bytes handed out of the reservation and
// starts a collection when the total has risen collectStep above its low
// point since the last one.
func (o *mapping) commit(delta int64) {
	o.r.used.Add(delta)
	c := committed.Add(delta)
	if c-committedLow.Load() >= collectStep && collectActive.CompareAndSwap(false, true) {
		committedLow.Store(c)
		go func() {
			runtime.GC()
			collectActive.Store(false)
		}()
	}
}

// unmapRegion is the owner's cleanup.
func unmapRegion(r *region) {
	unmapAnon(r.b)
	liveMaps.Add(-1)
	c := committed.Add(-r.used.Load())
	for {
		low := committedLow.Load()
		if c >= low || committedLow.CompareAndSwap(low, c) {
			return
		}
	}
}
