package bench

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gowali/internal/interp"
)

func TestTable1Formatting(t *testing.T) {
	rows := Table1()
	if len(rows) != 17 {
		t.Fatalf("%d rows", len(rows))
	}
	out := FormatTable1(rows)
	for _, want := range []string{"bash", "signals", "zlib", "LTP"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestTable2ShapesHold(t *testing.T) {
	rows := Table2(300)
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if len(rows) != 30 {
		t.Fatalf("%d rows, want 30", len(rows))
	}
	// The paper's headline shapes: passthrough calls are sub-microsecond-
	// ish (here: well under 50µs even on loaded CI), while clone/fork pay
	// the engine's execution-environment duplication, orders of magnitude
	// more. Each compared row is the median of interleaved samples, the
	// order alternating from sample to sample, so a burst of load on the
	// host skews one sample of every row rather than every sample of one.
	shape := []string{"getpid", "getuid", "close", "lseek", "fork", "clone"}
	const samples = 5
	runs := map[string][]time.Duration{}
	for i := 0; i < samples; i++ {
		for j := range shape {
			name := shape[j]
			if i%2 == 1 {
				name = shape[len(shape)-1-j]
			}
			runs[name] = append(runs[name], table2Overhead(name, 300))
		}
	}
	med := map[string]time.Duration{}
	for name, xs := range runs {
		slices.Sort(xs)
		med[name] = xs[len(xs)/2]
	}
	for _, cheap := range []string{"getpid", "getuid", "close", "lseek"} {
		if med[cheap] > med["fork"]/10 {
			t.Errorf("%s (%v) not clearly cheaper than fork (%v)",
				cheap, med[cheap], med["fork"])
		}
	}
	if med["clone"] < 10*med["getpid"] {
		t.Errorf("clone (%v) must be the outlier (getpid %v)",
			med["clone"], med["getpid"])
	}
	// Stateful markers.
	for _, s := range []string{"mmap", "rt_sigaction", "clone", "fork"} {
		if !byName[s].Stateful {
			t.Errorf("%s should be marked stateful", s)
		}
	}
	if byName["read"].Stateful {
		t.Error("read should not be stateful")
	}
	if !strings.Contains(FormatTable2(rows), "getpid") {
		t.Error("format broken")
	}
}

func TestFig2ProfilesCoverSuite(t *testing.T) {
	profiles := Fig2Profiles()
	if len(profiles) != 5 {
		t.Fatalf("%d profiles", len(profiles))
	}
	union := map[string]bool{}
	for _, p := range profiles {
		if len(p.Counts) == 0 {
			t.Errorf("%s: empty profile", p.App)
		}
		for s := range p.Counts {
			union[s] = true
		}
	}
	// §2: many applications use fewer than 100 unique syscalls; the suite
	// union lands in the tens here (full builds reach 140-150).
	if len(union) < 30 {
		t.Errorf("suite union only %d syscalls", len(union))
	}
	out := FormatFig2(profiles)
	if !strings.Contains(out, "Aggregate") {
		t.Error("missing aggregate row")
	}
}

func TestFig7WaliShareSmall(t *testing.T) {
	rows := Fig7()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.WaliPct > 5 {
			t.Errorf("%s: WALI share %.2f%% exceeds the paper's <3%% envelope", r.App, r.WaliPct)
		}
		sum := r.AppPct + r.KernelPct + r.WaliPct
		if sum < 99 || sum > 101 {
			t.Errorf("%s: breakdown sums to %.1f", r.App, sum)
		}
	}
}

func TestFig8CrossoverStructure(t *testing.T) {
	pts := Fig8Time("lua", []int{20000})
	var by = map[Backend]Fig8Point{}
	for _, p := range pts {
		by[p.App] = p
	}
	// Startup ordering: WALI and QEMU start in ~ms; Docker pays the image
	// unpack + namespace wall.
	if by[BackendDocker].Startup < 10*by[BackendWALI].Startup {
		t.Errorf("docker startup %v not >> wali %v", by[BackendDocker].Startup, by[BackendWALI].Startup)
	}
	// Slope ordering: native fastest; docker ≈ native + startup.
	if by[BackendNative].Total > by[BackendWALI].Total {
		t.Errorf("native (%v) slower than wali (%v)", by[BackendNative].Total, by[BackendWALI].Total)
	}
	dockerRun := by[BackendDocker].Total - by[BackendDocker].Startup
	if dockerRun > by[BackendWALI].Total*4 && dockerRun > by[BackendNative].Total*100 {
		t.Errorf("docker steady-state (%v) should be near native", dockerRun)
	}
	// Crossover: for this short run, WALI total beats Docker total.
	if by[BackendWALI].Total > by[BackendDocker].Total {
		t.Errorf("short-run crossover missing: wali %v vs docker %v",
			by[BackendWALI].Total, by[BackendDocker].Total)
	}
}

func TestFig8MemStructure(t *testing.T) {
	rows := Fig8Mem()
	byApp := map[string]map[Backend]int64{}
	for _, r := range rows {
		if byApp[r.Name] == nil {
			byApp[r.Name] = map[Backend]int64{}
		}
		byApp[r.Name][r.Backend] = r.Bytes
	}
	for app, m := range byApp {
		if m[BackendDocker] < m[BackendWALI] {
			t.Errorf("%s: docker base memory (%d) should exceed wali (%d)",
				app, m[BackendDocker], m[BackendWALI])
		}
		if m[BackendDocker] < 30<<20 {
			t.Errorf("%s: docker base %d below the ≈30MB the paper reports", app, m[BackendDocker])
		}
	}
}

func TestCalibrationSane(t *testing.T) {
	d := CalibrateDispatch(5000)
	if d <= 0 || d > 100_000_000 {
		t.Fatalf("dispatch calibration %v implausible", d)
	}
}

func TestTable3FormatsAllSchemes(t *testing.T) {
	// Format-level test only (full Table3 runs are benchmarked, not unit
	// tested, for time).
	rows := []Table3Row{
		{App: "lua", Scheme: interp.SafepointLoop, Slowdown: 4.1},
		{App: "lua", Scheme: interp.SafepointFunc, Slowdown: 2.8},
		{App: "lua", Scheme: interp.SafepointEveryInst, Slowdown: 100.3},
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "lua") || !strings.Contains(out, "100.3") {
		t.Errorf("format: %s", out)
	}
}
