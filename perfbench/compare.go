package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Compare mode reads two sets of result records (JSON lines written
// with --results) of the same machine and prints, for every workload ×
// end-to-end metric, both medians and quartiles and a verdict:
//
//	improved     the change wins ≥ 9/10 of the pairs (base run i vs
//	             change run i, ties count for neither) and the medians
//	             differ, in the better direction, by more than the
//	             base's own spread (Q3 − Q1)
//	worse        the change's median is worse than the base's by more
//	             than the metric's bound
//	unresolved   a side's spread ((Q3 − Q1) / median) exceeds the bound,
//	             unless every change run beats every base run
//	within bound otherwise
//
// Bounds and directions come from BENCHMARK.json. Runs should be made
// in alternating pairs (base, change, base, change ...) so drift lands
// on both sides.

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [--bench BENCHMARK.json] base.jsonl change.jsonl")
	}
	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := sameMachine(base, change); err != nil {
		return err
	}

	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(change)
	var names []string
	for w := range bw {
		if len(cw[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return errors.New("no workload has untraced runs on both sides")
	}
	fmt.Fprintf(out, "%-10s %-16s %5s %12s %12s %12s %12s %12s %12s  %s\n",
		"workload", "metric", "bound", "base_q1", "base_med", "base_q3", "chg_q1", "chg_med", "chg_q3", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			b, c := values(bw[w], m.Name), values(cw[w], m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			cq1, cmed, cq3 := quartiles(c)
			v := verdict(b, c, m.Better == "higher", m.Bound)
			fmt.Fprintf(out, "%-10s %-16s %5.2f %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s (n=%d/%d)\n",
				w, m.Name, m.Bound, bq1, bmed, bq3, cq1, cmed, cq3, v, len(b), len(c))
		}
	}
	return nil
}

// verdict classifies the change's runs c against the base runs b.
func verdict(b, c []float64, higherBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	bq1, bmed, bq3 := quartiles(b)
	cq1, cmed, cq3 := quartiles(c)
	wins, pairs := 0, min(len(b), len(c))
	for i := 0; i < pairs; i++ {
		if better(c[i], b[i]) {
			wins++
		}
	}
	allBetter := better(minOrMax(c, higherBetter), minOrMax(b, !higherBetter))
	if 10*wins >= 9*pairs && better(cmed, bmed) && math.Abs(cmed-bmed) > bq3-bq1 {
		return "improved"
	}
	spreadB, spreadC := (bq3-bq1)/math.Abs(bmed), (cq3-cq1)/math.Abs(cmed)
	if (spreadB > bound || spreadC > bound) && !allBetter {
		return "unresolved"
	}
	if better(bmed, cmed) && math.Abs(cmed-bmed) > bound*math.Abs(bmed) {
		return "worse"
	}
	return "within bound"
}

// minOrMax returns the worst value of v for the direction: the minimum
// when higher is better, else the maximum.
func minOrMax(v []float64, higherBetter bool) float64 {
	s := sortedCopy(v)
	if higherBetter {
		return s[0]
	}
	return s[len(s)-1]
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// sameMachine refuses to compare results from different machines or
// toolchains.
func sameMachine(a, b []record) error {
	want := a[0].Stamp.machine()
	for _, rs := range [][]record{a, b} {
		for _, r := range rs {
			if got := r.Stamp.machine(); got != want {
				return fmt.Errorf("results come from different machines:\n  %s\n  %s", want, got)
			}
		}
	}
	return nil
}
