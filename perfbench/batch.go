package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"gowali"
	"gowali/wasm"
)

// batch: the paper's Fig. 8 "startup + run". Jobs run one at a time,
// each on a fresh runtime: a built-in app through Runtime.RunApp (which
// builds, compiles and runs it), or the benchmark's pure-WASI file job
// compiled from its binary and run on WASIHost. The scales give each
// class a comparable share of the run.
var batchClasses = []string{"lua", "sqlite", "bash", "wasi"}

var appScale = map[string]int{"lua": 150000, "sqlite": 100, "bash": 20}

// appLine is the console line a correct app run prints.
var appLine = map[string]string{"lua": "lua: ok\n", "sqlite": "sqlite: ok\n", "bash": "bash: jobs done\n"}

const (
	wasiIters   = 64
	wasiPayload = 1024
)

// batchJob is one generated job.
type batchJob struct {
	class   string
	payload []byte // wasi only: the bytes the guest writes and reads back
}

// jobGen yields the seeded job sequence: blocks holding each class
// once, in a seeded order, so every class keeps the same share of the
// run whatever the seed.
type jobGen struct {
	rng   *rand.Rand
	block []string
}

func newJobGen(seed int64) *jobGen { return &jobGen{rng: rand.New(rand.NewSource(seed))} }

func (g *jobGen) next() batchJob {
	if len(g.block) == 0 {
		g.block = append([]string(nil), batchClasses...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	j := batchJob{class: g.block[0]}
	g.block = g.block[1:]
	if j.class == "wasi" {
		j.payload = make([]byte, wasiPayload)
		g.rng.Read(j.payload)
	}
	return j
}

type batch struct {
	wasiBin []byte // encoded WASI job: every wasi job decodes and compiles it
	gen     *jobGen
	tr      *tracer
}

func batchModules() ([]namedModule, error) {
	m, err := buildWASIJob()
	return []namedModule{{"wasi-job", m}}, err
}

func setupBatch(seed int64, tr *tracer) (instance, error) {
	m, err := buildWASIJob()
	if err != nil {
		return nil, err
	}
	b := &batch{wasiBin: wasm.Encode(m), gen: newJobGen(seed), tr: tr}
	// Warm-up: one job of each class, checked, from a separate stream so
	// the measured sequence starts at the seed's first job.
	warm := newJobGen(seed ^ 0x5eed)
	rec := newRecorder()
	for range batchClasses {
		b.do(warm.next(), rec)
	}
	if rec.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed, first: %w", rec.failed, rec.attempted, rec.firstErr)
	}
	if tr != nil {
		tr.reset()
	}
	return b, nil
}

func (b *batch) run(deadline time.Time, rec *recorder) {
	for time.Now().Before(deadline) {
		b.do(b.gen.next(), rec)
	}
}

func (b *batch) close() error { return nil }

// do runs one job on a fresh runtime and checks its output.
func (b *batch) do(j batchJob, rec *recorder) {
	var opts []gowali.Option
	var root, parent int64
	if b.tr != nil {
		opts = append(opts, gowali.WithSyscallHook(b.tr.hook))
		root, parent = b.tr.id(), b.tr.id()
		b.tr.beginOp(parent)
	}
	start := time.Now()
	var err error
	if j.class == "wasi" {
		err = b.runWASI(j, opts, root, parent, rec)
	} else {
		err = runApp(j.class, opts)
	}
	d := time.Since(start)
	if b.tr != nil {
		hook := b.tr.endOp()
		rec.add("guest_ns", float64(d-hook))
		t0 := start.Sub(b.tr.epoch).Nanoseconds()
		if j.class != "wasi" {
			b.tr.record(span{id: parent, parent: root, name: "run_app", cat: "core", tid: tidOps, start: t0, end: t0 + d.Nanoseconds()})
		}
		b.tr.record(span{id: root, name: "job." + j.class, cat: "op", tid: tidOps, start: t0, end: t0 + d.Nanoseconds()})
	}
	rec.op(d, err)
}

// runApp runs a built-in app on a fresh runtime.
func runApp(class string, opts []gowali.Option) error {
	rt, err := gowali.New(opts...)
	if err != nil {
		return err
	}
	defer rt.Close()
	status, err := rt.RunApp(class, appScale[class])
	return checkApp(class, status, err, rt.ConsoleOutput())
}

// checkApp accepts an app run only with exit status 0 and the app's
// expected console line.
func checkApp(class string, status int32, err error, console []byte) error {
	switch {
	case err != nil:
		return err
	case status != 0:
		return fmt.Errorf("%s: exit status %d", class, status)
	case !bytes.Contains(console, []byte(appLine[class])):
		return fmt.Errorf("%s: console %q lacks %q", class, console, appLine[class])
	}
	return nil
}

// runWASI compiles the WASI job from its binary and runs it on a fresh
// WASIHost runtime, feeding the job's input on stdin.
func (b *batch) runWASI(j batchJob, opts []gowali.Option, root, parent int64, rec *recorder) error {
	opts = append(opts, gowali.WithHost(gowali.WASIHost()),
		gowali.WithStdio(bytes.NewReader(wasiInput(wasiIters, j.payload)), nil, nil))
	rt, err := gowali.New(opts...)
	if err != nil {
		return err
	}
	defer rt.Close()
	t0 := time.Now()
	m, err := gowali.CompileModule(bytes.NewReader(b.wasiBin))
	if err != nil {
		return err
	}
	t1 := time.Now()
	p, err := rt.Spawn(context.Background(), m, []string{"wasi-job"}, nil)
	if err != nil {
		return err
	}
	t2 := time.Now()
	status, err := p.Wait(context.Background())
	t3 := time.Now()
	if b.tr != nil {
		b.tr.record(span{id: b.tr.id(), parent: root, name: "compile", cat: "interp", tid: tidOps, start: b.tr.ns(t0), end: b.tr.ns(t1)})
		b.tr.record(span{id: b.tr.id(), parent: root, name: "spawn", cat: "core", tid: tidOps, start: b.tr.ns(t1), end: b.tr.ns(t2)})
		b.tr.record(span{id: parent, parent: root, name: "wait", cat: "interp", tid: tidOps, start: b.tr.ns(t2), end: b.tr.ns(t3)})
		rec.sample("cow_pages", float64(p.DirtyPages()))
	}
	return checkWASI(status, err, rt.ConsoleOutput(), wasiExpect(wasiIters, j.payload))
}

// checkWASI accepts a WASI job only with exit status 0 and exactly the
// expected read-back checksum line.
func checkWASI(status int32, err error, console []byte, want string) error {
	switch {
	case err != nil:
		return err
	case status != 0:
		return fmt.Errorf("wasi: exit status %d", status)
	case string(console) != want:
		return fmt.Errorf("wasi: console %q, want %q", console, want)
	}
	return nil
}
