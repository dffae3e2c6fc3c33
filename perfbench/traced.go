package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"gowali"
	"gowali/wasm"
)

// traceWindows is how many alternating windows a traced run splits its
// measured time into: odd windows run the untraced instance, even ones
// the traced instance, so drift lands on both sides equally.
const traceWindows = 6

// tracedRun is the per-layer run: an untraced and a traced instance
// of the workload, alternating windows, then the layer probes.
func tracedRun(w workload, seed int64, dur time.Duration, traceOut string, out io.Writer) (record, error) {
	tr := newTracer()
	plain, err := w.setup(seed, nil)
	if err != nil {
		return record{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer plain.close()
	traced, err := w.setup(seed, tr)
	if err != nil {
		return record{}, fmt.Errorf("%s: traced setup: %w", w.name, err)
	}

	recU, recT := newRecorder(), newRecorder()
	var wallU, wallT time.Duration
	var gcCycles float64
	win := dur / traceWindows
	for k := 0; k < traceWindows; k++ {
		start := time.Now()
		if k%2 == 0 {
			plain.run(start.Add(win), recU)
			wallU += time.Since(start)
			continue
		}
		gc0 := readMetric("/gc/cycles/total:gc-cycles")
		traced.run(start.Add(win), recT)
		wallT += time.Since(start)
		gcCycles += readMetric("/gc/cycles/total:gc-cycles") - gc0
	}

	r := newRecord(recT)
	r.Attempted += recU.attempted
	r.Failed += recU.failed
	opsT := float64(recT.attempted)
	if opsT == 0 || recU.attempted == 0 {
		traced.close()
		return record{}, fmt.Errorf("%s: no operation completed in a window", w.name)
	}
	perOp := func(v float64) float64 { return v / opsT }
	tr.mu.Lock()
	calls, classNs, durNs := tr.calls, tr.classNs, tr.durNs
	pairSpan, pairGuest := tr.pairSpan, tr.pairGuest
	spans, dropped := tr.spans, tr.dropped
	tr.mu.Unlock()

	r.put("core.syscalls_per_op", perOp(float64(calls)), "calls", recT.attempted)
	for c, name := range []string{"kernel.vfs_us_per_op", "kernel.proc_us_per_op", "kernel.net_us_per_op", "kernel.poll_us_per_op"} {
		r.put(name, perOp(float64(classNs[c])/1e3), "us", recT.attempted)
	}
	durs := make([]float64, len(durNs))
	for i, d := range durNs {
		durs[i] = float64(d) / 1e3
	}
	r.put("kernel.syscall_p99_us", orZero(percentile(sortedCopy(durs), 99)), "us", len(durs))
	if len(pairGuest) > 0 {
		r.put("interp.guest_us_per_op", mean(pairGuest), "us", len(pairGuest))
		r.put("net.client_overhead_us", mean(recT.samples["rtt_us"])-mean(pairSpan), "us", len(pairSpan))
	} else {
		r.put("interp.guest_us_per_op", perOp(recT.sums["guest_ns"]/1e3), "us", recT.attempted)
		r.put("net.client_overhead_us", 0, "us", 0)
	}
	cow := recT.samples["cow_pages"]
	r.put("interp.cow_pages_per_op", orZero(mean(cow)), "pages", len(cow))
	r.put("sched.boosts_per_kop", perOp(recT.sums["sched.boosts"])*1e3, "1/kop", recT.attempted)
	r.put("sched.preempts_per_kop", perOp(recT.sums["sched.preempts"])*1e3, "1/kop", recT.attempted)
	r.put("go.gc_cycles_per_kop", perOp(gcCycles)*1e3, "1/kop", recT.attempted)
	r.put("obs.trace_overhead_ratio", (opsT/wallT.Seconds())/(float64(recU.attempted)/wallU.Seconds()), "ratio", recT.attempted+recU.attempted)

	var runq float64
	if inst, ok := traced.(*serve); ok {
		runq = inst.runqWaitP99()
	}
	r.put("sched.runq_wait_p99_us", runq, "us", recT.attempted)
	if err := traced.close(); err != nil {
		r.Failed++
		fmt.Fprintf(out, "traced teardown: %v\n", err)
	}

	if err := layerProbes(w, seed, &r); err != nil {
		return record{}, err
	}
	fmt.Fprintf(out, "\nper-layer spans (traced windows, %d operations):\n", recT.attempted)
	printLayerTable(out, selfTimes(spans), dropped)
	if err := writeChromeTrace(traceOut, w.name, spans); err != nil {
		return record{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "trace: %s (%d spans)\n\n", traceOut, len(spans))
	return r, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// orZero maps the NaN of an empty sample to 0: the workload never
// exercised that layer.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// Probe sizes.
const (
	probeReps     = 7      // alternating repetitions; medians are reported
	probeCalls    = 100000 // calls per getpid / WASI probe run
	probeSpawns   = 200    // spawns per spawn probe
	probeRestores = 500    // invocations per snapshot probe
	probeCodecRep = 20     // decode/validate/compile repetitions per module
)

// layerProbes times each layer in isolation, outside any workload
// traffic: decode/validate/compile of the workload's own modules, the
// WALI and WASI host-call boundary, spawning a cached module, and
// snapshot and restore.
func layerProbes(w workload, seed int64, r *record) error {
	mods, err := w.modules()
	if err != nil {
		return err
	}
	var dec, val, comp float64
	for _, nm := range mods {
		bin := wasm.Encode(nm.m)
		var td, tv, tc []float64
		for i := 0; i < probeCodecRep; i++ {
			t0 := time.Now()
			m, err := wasm.Decode(bin)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("probe: decode %s: %w", nm.name, err)
			}
			if err := wasm.Validate(m); err != nil {
				return fmt.Errorf("probe: validate %s: %w", nm.name, err)
			}
			t2 := time.Now()
			if _, err := gowali.CompileBuilt(m); err != nil {
				return fmt.Errorf("probe: compile %s: %w", nm.name, err)
			}
			t3 := time.Now()
			td, tv, tc = append(td, us(t1.Sub(t0))), append(tv, us(t2.Sub(t1))), append(tc, us(t3.Sub(t2)))
		}
		dec, val, comp = dec+median(td), val+median(tv), comp+median(tc)
	}
	r.put("wasm.decode_us", dec, "us", probeCodecRep*len(mods))
	r.put("wasm.validate_us", val, "us", probeCodecRep*len(mods))
	r.put("interp.compile_us", comp, "us", probeCodecRep*len(mods))

	getpid, err := callCost(gowali.WALIHost(), buildGetpidProbe)
	if err != nil {
		return fmt.Errorf("probe: getpid: %w", err)
	}
	r.put("core.getpid_ns", getpid, "ns", probeReps)
	wasiCall, err := callCost(gowali.WASIHost(), buildWASIProbe)
	if err != nil {
		return fmt.Errorf("probe: wasi call: %w", err)
	}
	r.put("core.wasi_call_ns", wasiCall, "ns", probeReps)
	spawn, err := spawnCost()
	if err != nil {
		return fmt.Errorf("probe: spawn: %w", err)
	}
	r.put("core.spawn_us", spawn, "us", probeSpawns)
	if err := snapProbe(seed, r); err != nil {
		return fmt.Errorf("probe: snapshot: %w", err)
	}
	return nil
}

// snapProbe measures kernel/snap on every workload, including those
// whose traffic never restores: it sets the coldstart guest up (warm-up
// and one Snapshot) and makes probeRestores checked invocations from
// its image.
func snapProbe(seed int64, r *record) error {
	inst, err := setupColdstart(seed, nil)
	if err != nil {
		return err
	}
	c := inst.(*coldstart)
	rec := newRecorder()
	ctx, cancel := context.WithTimeout(context.Background(), coldTimeout)
	defer cancel()
	for i := 0; i < probeRestores && err == nil; i++ {
		pages, value := c.gen.next()
		err = c.invoke(ctx, pages, value, rec)
	}
	if cerr := c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.put("snap.snapshot_us", c.snapshotUs, "us", 1)
	r.put("snap.image_bytes", c.imageBytes, "bytes", 1)
	r.put("snap.restore_us", median(rec.samples["snap.restore_us"]), "us", probeRestores)
	r.put("snap.resume_us", median(rec.samples["snap.resume_us"]), "us", probeRestores)
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// callCost is the host-call probe: the median over probeReps of a
// calling loop's time minus its empty twin's, per call, in ns.
func callCost(host gowali.Host, build func(n int, call bool) (*wasm.Module, error)) (float64, error) {
	var mods [2]*gowali.Module
	for i, call := range []bool{false, true} {
		b, err := build(probeCalls, call)
		if err != nil {
			return 0, err
		}
		if mods[i], err = gowali.CompileBuilt(b); err != nil {
			return 0, err
		}
	}
	rt, err := gowali.New(gowali.WithHost(host))
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	var diffs []float64
	for rep := 0; rep < probeReps; rep++ {
		var t [2]time.Duration
		for i, m := range mods {
			start := time.Now()
			status, err := rt.Run(context.Background(), m, []string{"probe"}, nil)
			t[i] = time.Since(start)
			if err != nil || status != 0 {
				return 0, fmt.Errorf("status %d, err %v", status, err)
			}
		}
		diffs = append(diffs, float64((t[1]-t[0]).Nanoseconds())/probeCalls)
	}
	return median(diffs), nil
}

// spawnCost is the median time of a Runtime.Spawn call on a cached
// (already compiled) module, in µs.
func spawnCost() (float64, error) {
	b, err := buildGetpidProbe(0, false)
	if err != nil {
		return 0, err
	}
	m, err := gowali.CompileBuilt(b)
	if err != nil {
		return 0, err
	}
	rt, err := gowali.New()
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	var times []float64
	for i := 0; i < probeSpawns; i++ {
		start := time.Now()
		p, err := rt.Spawn(context.Background(), m, []string{"spawn-probe"}, nil)
		times = append(times, us(time.Since(start)))
		if err != nil {
			return 0, err
		}
		if status, err := p.Wait(context.Background()); err != nil || status != 0 {
			return 0, fmt.Errorf("status %d, err %v", status, err)
		}
	}
	return median(times), nil
}
