package core

import (
	"sort"
	"testing"
	"time"

	"gowali/internal/interp"
	"gowali/internal/obs"
)

// dispatchWall times one guest issuing `calls` getpid syscalls.
func dispatchWall(t *testing.T, w *WALI, c *interp.Compiled, calls int) time.Duration {
	t.Helper()
	p, err := w.SpawnCompiled(c, "guard", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if status, err := p.Run(); err != nil || status != 0 {
		t.Fatalf("run: status=%d err=%v", status, err)
	}
	return time.Since(start)
}

// median returns the middle sample (sorting xs in place).
func median[T float64 | time.Duration](xs []T) T {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}

// BenchmarkSyscallDispatchObs prices the dispatch path per obs mode:
// bare engine, plane attached but disabled, metrics recording, tracer
// recording, and everything at once — the EXPERIMENTS.md overhead
// table.
func BenchmarkSyscallDispatchObs(b *testing.B) {
	const calls = 2000
	c := func() *interp.Compiled {
		t := &testing.T{}
		return statApp(t, calls)
	}()
	modes := []struct {
		name string
		mk   func() *WALI
	}{
		{"bare", New},
		{"attached-disabled", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10) // never enabled
			return w
		}},
		{"metrics", func() *WALI {
			w := New()
			w.Metrics = obs.NewRegistry()
			return w
		}},
		{"tracer", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10)
			w.Trace.SetEnabled(true)
			return w
		}},
		{"all", func() *WALI {
			w := New()
			w.Trace = obs.NewTracer(1 << 10)
			w.Trace.SetEnabled(true)
			w.Metrics = obs.NewRegistry()
			return w
		}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			w := m.mk()
			for i := 0; i < b.N; i++ {
				p, err := w.SpawnCompiled(c, "bench", nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if status, err := p.Run(); err != nil || status != 0 {
					b.Fatalf("status=%d err=%v", status, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/syscall")
		})
	}
}

// TestObsDisabledDispatchOverhead enforces the overhead contract: an
// attached-but-disabled obs plane (tracer present but not armed, no
// metrics registry) must cost the syscall dispatch path no more than a
// few predictable branches. Two guards:
//
//   - allocations, which are deterministic: the attached tracer may add
//     no allocation per syscall (testing.AllocsPerRun over a
//     getpid-storm guest, against the bare engine);
//   - wall time, sampled in interleaved A/B pairs (the order alternates
//     from pair to pair) so machine drift hits both sides of a pair
//     alike: the median of the per-pair ratios must stay within 1.25 —
//     far above what a couple of atomic loads can cost, so it only
//     trips if someone puts real work (locking, formatting) on the
//     disabled path.
func TestObsDisabledDispatchOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard")
	}
	const calls, pairs = 4000, 9
	c := statApp(t, calls)

	// Warm both engines once (module instantiation, map growth).
	bare := New()
	instr := New()
	instr.Trace = obs.NewTracer(1 << 8) // attached, never enabled
	dispatchWall(t, bare, c, calls)
	dispatchWall(t, instr, c, calls)

	bareAllocs := testing.AllocsPerRun(5, func() { dispatchWall(t, bare, c, calls) })
	obsAllocs := testing.AllocsPerRun(5, func() { dispatchWall(t, instr, c, calls) })
	t.Logf("allocations per run of %d syscalls: bare=%.0f obs-disabled=%.0f", calls, bareAllocs, obsAllocs)
	if extra := obsAllocs - bareAllocs; extra >= calls/100 {
		t.Fatalf("disabled obs plane adds %.0f allocations over %d syscalls (bare %.0f, attached %.0f); it must add none per syscall", extra, calls, bareAllocs, obsAllocs)
	}

	ratios := make([]float64, pairs)
	bareS := make([]time.Duration, pairs)
	obsS := make([]time.Duration, pairs)
	for i := range ratios {
		if i%2 == 0 {
			bareS[i] = dispatchWall(t, bare, c, calls)
			obsS[i] = dispatchWall(t, instr, c, calls)
		} else {
			obsS[i] = dispatchWall(t, instr, c, calls)
			bareS[i] = dispatchWall(t, bare, c, calls)
		}
		ratios[i] = float64(obsS[i]) / float64(bareS[i])
	}
	ratio := median(ratios)
	t.Logf("dispatch median: bare=%v obs-disabled=%v pair-ratio median=%.3f", median(bareS), median(obsS), ratio)
	if ratio > 1.25 {
		t.Fatalf("disabled obs plane slows syscall dispatch %.2fx (median of %d A/B pairs); the disabled fast path must stay a few atomic loads", ratio, pairs)
	}
}
