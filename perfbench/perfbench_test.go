package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileKnownData(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(data, n=4), the definition the spread
// of repeated runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1, 9, 2.25, 7}, [3]float64{1.625, 3.5, 8}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{id: 1, name: "op", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 50},  // overlaps a
		{id: 4, parent: 1, name: "c", start: 90, end: 120}, // runs past op
	}
	self := map[string]int64{}
	for _, r := range selfTimes(spans) {
		self[r.name] = r.selfNs
	}
	if self["op"] != 100-40-10 {
		t.Errorf("op self time = %d, want 50", self["op"])
	}
	if self["a"] != 30 || self["c"] != 30 {
		t.Errorf("leaf self times = %v", self)
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	jobs := func(seed int64) (out []string) {
		g := newJobGen(seed)
		for i := 0; i < 64; i++ {
			j := g.next()
			out = append(out, j.class+string(j.payload))
		}
		return out
	}
	reqs := func(seed int64, conn int) (out []kvReq) {
		g := newReqGen(seed, conn)
		for i := 0; i < 256; i++ {
			out = append(out, g.next())
		}
		return out
	}
	colds := func(seed int64) (out [][2]uint32) {
		g := newColdReqGen(seed)
		for i := 0; i < 64; i++ {
			p, v := g.next()
			out = append(out, [2]uint32{p, v})
		}
		return out
	}
	if !reflect.DeepEqual(jobs(7), jobs(7)) || reflect.DeepEqual(jobs(7), jobs(8)) {
		t.Error("batch job sequence must depend on the seed alone")
	}
	if !reflect.DeepEqual(reqs(7, 1), reqs(7, 1)) || reflect.DeepEqual(reqs(7, 1), reqs(8, 1)) {
		t.Error("serve request sequence must depend on the seed alone")
	}
	if !reflect.DeepEqual(colds(7), colds(7)) || reflect.DeepEqual(colds(7), colds(8)) {
		t.Error("coldstart request sequence must depend on the seed alone")
	}
}

func TestBatchBlocksKeepClassShares(t *testing.T) {
	g := newJobGen(3)
	count := map[string]int{}
	for i := 0; i < 4*25; i++ {
		count[g.next().class]++
	}
	for _, c := range batchClasses {
		if count[c] != 25 {
			t.Errorf("class %s ran %d of 100 jobs, want 25", c, count[c])
		}
	}
}

func TestServeKeysStayInConnectionPartition(t *testing.T) {
	for c := 0; c < serveConns; c++ {
		g := newReqGen(1, c)
		for i := 0; i < 2000; i++ {
			r := g.next()
			if int(r.key)%serveConns != c || r.key >= kvKeys {
				t.Fatalf("connection %d generated key %d", c, r.key)
			}
			if r.op == kvSet && r.value == 0 {
				t.Fatal("SET of 0 is indistinguishable from a missing key")
			}
		}
	}
}

func TestWrongRepliesCountAsFailed(t *testing.T) {
	shadow := map[uint32]uint64{6: 99}
	reply := func(status byte, key uint32, v uint64) []byte {
		b := make([]byte, kvRecord)
		b[0] = status
		binary.LittleEndian.PutUint32(b[4:], key)
		binary.LittleEndian.PutUint64(b[8:], v)
		return b
	}
	get := kvReq{op: kvGet, key: 6}
	if !checkReply(get, reply(kvGet, 6, 99), shadow) {
		t.Fatal("correct GET reply rejected")
	}
	for name, bad := range map[string][]byte{
		"value":  reply(kvGet, 6, 98),
		"key":    reply(kvGet, 8, 99),
		"status": reply(kvSet, 6, 99),
		"short":  reply(kvGet, 6, 99)[:8],
	} {
		if checkReply(get, bad, shadow) {
			t.Errorf("wrong GET reply (%s) accepted", name)
		}
	}
	if checkReply(kvReq{op: kvGet, key: 4}, reply(kvGet, 4, 1), shadow) {
		t.Error("GET of a never-set key must read 0")
	}

	rec := newRecorder()
	rec.op(time.Microsecond, nil)
	rec.op(time.Microsecond, errWrongReply)
	if rec.attempted != 2 || rec.failed != 1 || !errors.Is(rec.firstErr, errWrongReply) {
		t.Errorf("recorder: attempted %d failed %d first %v", rec.attempted, rec.failed, rec.firstErr)
	}

	good := coldExpect(3)
	if checkCold(3, 0, good[:], 4) != nil {
		t.Error("correct coldstart response rejected")
	}
	bad := good
	bad[0]++
	for name, err := range map[string]error{
		"response": checkCold(3, 0, bad[:], 4),
		"status":   checkCold(3, 1, good[:], 4),
		"pages":    checkCold(3, 0, good[:], 3),
	} {
		if err == nil {
			t.Errorf("wrong coldstart %s accepted", name)
		}
	}

	if checkApp("lua", 0, nil, []byte("lua: ok\n")) != nil {
		t.Error("correct lua run rejected")
	}
	if checkApp("lua", 0, nil, []byte("lua: fail\n")) == nil || checkApp("bash", 1, nil, []byte("bash: jobs done\n")) == nil {
		t.Error("wrong app run accepted")
	}
	want := wasiExpect(2, bytes.Repeat([]byte{7}, 100))
	if checkWASI(0, nil, []byte(want), want) != nil || checkWASI(0, nil, []byte("wasi: ok 00000000\n"), want) == nil {
		t.Error("WASI read-back check is wrong")
	}
}

// reportedNames returns the metric names a run puts on its result line.
func reportedNames(r record) []string {
	var out []string
	for n := range r.Metrics {
		if !resultLineExcludes[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// specNames returns the sorted metric names of one BENCHMARK.json list.
func specNames(t *testing.T, list string) []string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	var metrics []struct{ Name string }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec[list], &metrics); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range metrics {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeWorkloads runs every workload briefly, untraced and traced,
// requires every operation to succeed and every metric BENCHMARK.json
// names (and no other) on the result line.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	endToEnd, perLayer := specNames(t, "end_to_end"), specNames(t, "per_layer")
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := measureRun(w, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", r.Attempted, r.Failed)
			}
			if got := reportedNames(r); !reflect.DeepEqual(got, endToEnd) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json names %v", got, endToEnd)
			}
			for _, m := range endToEnd {
				if v := r.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}
			out := filepath.Join(t.TempDir(), "trace.json")
			var log strings.Builder
			r, err = tracedRun(w, 1, 600*time.Millisecond, out, &log)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 {
				t.Fatalf("traced run: %d of %d failed", r.Failed, r.Attempted)
			}
			if got := reportedNames(r); !reflect.DeepEqual(got, perLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json names %v", got, perLayer)
			}
			if r.Metrics["core.syscalls_per_op"].Value <= 0 || r.Metrics["core.getpid_ns"].Value <= 0 || r.Metrics["snap.restore_us"].Value <= 0 {
				t.Errorf("per-layer metrics missing: %v", r.Metrics)
			}
			if b, err := os.ReadFile(out); err != nil || !bytes.Contains(b, []byte(`"ph":"X"`)) {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name         string
		change       []float64
		higherBetter bool
		want         string
	}{
		{"faster throughput", shift(base, 1.1), true, "improved"},
		{"lower latency", shift(base, 0.9), false, "improved"},
		{"same", shift(base, 1.001), true, "within bound"},
		{"slower past bound", shift(base, 0.7), true, "worse"},
		{"noisy change", noisy, true, "unresolved"},
	} {
		if got := verdict(base, c.change, c.higherBetter, 0.2); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
