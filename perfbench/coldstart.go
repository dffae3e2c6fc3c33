package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gowali"
)

// coldstart: serverless invocations from a snapshot. Set-up warms one
// guest's 1 MiB working set and snapshots it while it blocks reading
// the console; each operation restores the image, hands the restored
// guest one request through the console (a kernel wait queue the guest
// sleeps on, not a sleep-poll loop) and ends when the guest exits.
// This is the only workload on kernel/snap restore and the CoW write
// barrier.
const (
	coldWarmOps = 8
	coldTimeout = 10 * time.Second
)

// coldReqGen yields the seeded requests: pages to write (1..8) and the
// value to write.
type coldReqGen struct{ rng *rand.Rand }

func newColdReqGen(seed int64) *coldReqGen {
	return &coldReqGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *coldReqGen) next() (pages, value uint32) {
	return uint32(1 + g.rng.Intn(coldMaxPages)), g.rng.Uint32()
}

type coldstart struct {
	rt         *gowali.Runtime
	img        *gowali.Image
	gen        *coldReqGen
	tr         *tracer
	snapshotUs float64
	imageBytes float64
}

func coldModules() ([]namedModule, error) {
	m, err := buildColdGuest()
	return []namedModule{{"coldstart-guest", m}}, err
}

// firstWrite closes done on its first Write.
type firstWrite struct {
	once sync.Once
	done chan struct{}
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.done) })
	return len(p), nil
}

// countWriter counts the bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func setupColdstart(seed int64, tr *tracer) (instance, error) {
	built, err := buildColdGuest()
	if err != nil {
		return nil, err
	}
	m, err := gowali.CompileBuilt(built)
	if err != nil {
		return nil, err
	}
	var opts []gowali.Option
	if tr != nil {
		tr.oneGuestTrack = true
		opts = append(opts, gowali.WithSyscallHook(tr.hook))
	}
	rt, err := gowali.New(opts...)
	if err != nil {
		return nil, err
	}
	c := &coldstart{rt: rt, gen: newColdReqGen(seed), tr: tr}
	if err := c.snapshot(m); err != nil {
		rt.Close()
		return nil, err
	}
	warm := newColdReqGen(seed ^ 0x5eed)
	ctx, cancel := context.WithTimeout(context.Background(), coldTimeout)
	defer cancel()
	for i := 0; i < coldWarmOps; i++ {
		pages, value := warm.next()
		if err := c.invoke(ctx, pages, value, nil); err != nil {
			rt.Close()
			return nil, fmt.Errorf("warm-up invocation %d: %w", i, err)
		}
	}
	if tr != nil {
		tr.reset()
	}
	return c, nil
}

// snapshot spawns the guest, waits until it has warmed its working set
// and blocks on the console, snapshots it and retires the original.
func (c *coldstart) snapshot(m *gowali.Module) error {
	con := c.rt.Kernel().Console
	// The guest's first console write says it is warm and about to
	// block; a console tee turns that write into an event.
	ready := &firstWrite{done: make(chan struct{})}
	con.SetTee(ready)
	p, err := c.rt.Spawn(context.Background(), m, []string{"coldstart-guest"}, nil)
	if err != nil {
		con.SetTee(nil)
		return err
	}
	select {
	case <-ready.done:
	case <-time.After(coldTimeout):
	}
	con.SetTee(nil)
	if !bytes.Equal(con.Output(), coldReady) {
		p.Kill(sigKill)
		return fmt.Errorf("guest never became ready (console %q)", con.Output())
	}
	t0 := time.Now()
	img, err := gowali.Snapshot(p)
	c.snapshotUs = float64(time.Since(t0).Nanoseconds()) / 1e3
	p.Kill(sigKill)
	ctx, cancel := context.WithTimeout(context.Background(), coldTimeout)
	defer cancel()
	if _, werr := p.Wait(ctx); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	con.TakeOutput()
	var cw countWriter
	if _, err := img.WriteTo(&cw); err != nil {
		return err
	}
	c.img, c.imageBytes = img, float64(cw.n)
	return nil
}

func (c *coldstart) run(deadline time.Time, rec *recorder) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(coldTimeout))
	defer cancel()
	for time.Now().Before(deadline) {
		start := time.Now()
		pages, value := c.gen.next()
		err := c.invoke(ctx, pages, value, rec)
		rec.op(time.Since(start), err)
	}
}

// invoke is one operation: restore, deliver the request, wait for the
// exit and check the response. rec, when set, receives layer samples.
func (c *coldstart) invoke(ctx context.Context, pages, value uint32, rec *recorder) error {
	var root, wait int64
	if c.tr != nil && rec != nil {
		root, wait = c.tr.id(), c.tr.id()
		c.tr.beginOp(wait)
	}
	con := c.rt.Kernel().Console
	t0 := time.Now()
	p, err := c.rt.Restore(c.img)
	if err != nil {
		return err
	}
	t1 := time.Now()
	var req [8]byte
	binary.LittleEndian.PutUint32(req[0:], pages)
	binary.LittleEndian.PutUint32(req[4:], value)
	con.FeedInput(req[:])
	status, err := p.Wait(ctx)
	t2 := time.Now()
	if err != nil {
		p.Kill(sigKill)
		c.drain()
		return err
	}
	dirty := p.DirtyPages()
	err = checkCold(pages, status, con.TakeOutput(), dirty)
	if err != nil {
		c.drain()
	}
	if rec != nil {
		rec.sample("snap.restore_us", float64(t1.Sub(t0).Nanoseconds())/1e3)
		rec.sample("snap.resume_us", float64(t2.Sub(t1).Nanoseconds())/1e3)
		rec.sample("cow_pages", float64(dirty))
		if c.tr != nil {
			hook := c.tr.endOp()
			rec.add("guest_ns", float64(t2.Sub(t0)-hook))
			c.tr.record(span{id: c.tr.id(), parent: root, name: "restore", cat: "snap", tid: tidOps, start: c.tr.ns(t0), end: c.tr.ns(t1)})
			c.tr.record(span{id: wait, parent: root, name: "wait", cat: "interp", tid: tidOps, start: c.tr.ns(t1), end: c.tr.ns(t2)})
			c.tr.record(span{id: root, name: "invoke", cat: "op", tid: tidOps, start: c.tr.ns(t0), end: c.tr.ns(t2)})
		}
	}
	return err
}

// checkCold accepts an invocation only with exit status 0, exactly the
// expected response, and exactly one private page per requested page
// plus page 0 (request and response buffers).
func checkCold(pages uint32, status int32, out []byte, dirty int) error {
	want := coldExpect(pages)
	switch {
	case status != 0:
		return fmt.Errorf("coldstart: exit status %d", status)
	case !bytes.Equal(out, want[:]):
		return fmt.Errorf("coldstart: response %x, want %x", out, want)
	case dirty != int(pages)+1:
		return fmt.Errorf("coldstart: %d dirty pages, want %d", dirty, pages+1)
	}
	return nil
}

// drain discards console input a failed invocation left unread, so it
// cannot leak into the next one.
func (c *coldstart) drain() {
	con := c.rt.Kernel().Console
	var b [64]byte
	for {
		if n, errno := con.Read(b[:], true); n == 0 || errno != 0 {
			return
		}
	}
}

func (c *coldstart) close() error { return c.rt.Close() }
