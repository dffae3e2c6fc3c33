package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"gowali"
)

// serve: memcached-style callers that each wait for their reply — a
// closed loop over serveConns host TCP connections to one epoll-driven
// KV guest behind HostNet, one request in flight per connection. The
// guest runs under the scheduler's defaults (WithScheduler(0, 0)).
const (
	serveConns     = 2   // ≤ nproc on the reference machine
	serveGetPct    = 90  // GET share of requests, in percent
	serveZipfS     = 1.1 // zipf exponent of the key popularity
	serveWarmReqs  = 64  // checked warm-up requests per connection
	serveIOTimeout = 5 * time.Second
)

// kvReq is one generated request.
type kvReq struct {
	op    byte
	key   uint32
	value uint64
}

func (r kvReq) encode(b []byte) {
	clear(b[:kvRecord])
	b[0] = r.op
	binary.LittleEndian.PutUint32(b[4:], r.key)
	binary.LittleEndian.PutUint64(b[8:], r.value)
}

// reqGen yields one connection's requests. Connection c owns the keys
// k with k % serveConns == c, so its shadow table predicts every reply
// exactly whatever the other connections do.
type reqGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	conn int
}

func newReqGen(seed int64, conn int) *reqGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	return &reqGen{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, 1, kvKeys/serveConns-1), conn: conn}
}

func (g *reqGen) next() kvReq {
	key := uint32(g.zipf.Uint64())*serveConns + uint32(g.conn)
	if g.rng.Intn(100) < serveGetPct {
		return kvReq{op: kvGet, key: key}
	}
	return kvReq{op: kvSet, key: key, value: g.rng.Uint64() | 1}
}

// kvClient is one connection with its generator and shadow table.
type kvClient struct {
	conn   net.Conn
	gen    *reqGen
	shadow map[uint32]uint64
	buf    [2 * kvRecord]byte
	dead   error // set once the stream is out of sync
}

// checkReply reports whether reply is exactly what the server must
// answer to req, given shadow (the connection's keys before req).
func checkReply(req kvReq, reply []byte, shadow map[uint32]uint64) bool {
	if len(reply) != kvRecord || reply[0] != req.op || binary.LittleEndian.Uint32(reply[4:]) != req.key {
		return false
	}
	want := req.value
	if req.op == kvGet {
		want = shadow[req.key]
	}
	return binary.LittleEndian.Uint64(reply[8:]) == want
}

// errWrongReply marks a reply that differs from the shadow table's
// prediction.
var errWrongReply = errors.New("kv: wrong reply")

// roundTrip sends one request and checks its reply. A wrong reply
// yields errWrongReply; any other error means the connection failed.
func (c *kvClient) roundTrip(req kvReq, tr *tracer, tid int64) (time.Duration, error) {
	out, in := c.buf[:kvRecord], c.buf[kvRecord:]
	req.encode(out)
	t0 := time.Now()
	if _, err := c.conn.Write(out); err != nil {
		return time.Since(t0), err
	}
	t1 := time.Now()
	_, err := io.ReadFull(c.conn, in)
	t2 := time.Now()
	if err != nil {
		return t2.Sub(t0), err
	}
	if !checkReply(req, in, c.shadow) {
		err = fmt.Errorf("%w to %+v: %x", errWrongReply, req, in)
	}
	if req.op == kvSet {
		c.shadow[req.key] = req.value
	}
	if tr != nil {
		root := tr.id()
		tr.record(span{id: tr.id(), parent: root, name: "client.send", cat: "client", tid: tid, start: tr.ns(t0), end: tr.ns(t1)})
		tr.record(span{id: tr.id(), parent: root, name: "client.recv", cat: "client", tid: tid, start: tr.ns(t1), end: tr.ns(t2)})
		tr.record(span{id: root, name: "request", cat: "op", tid: tid, start: tr.ns(t0), end: tr.ns(t2)})
	}
	return t2.Sub(t0), err
}

type serve struct {
	rt      *gowali.Runtime
	proc    *gowali.Process
	clients []*kvClient
	tr      *tracer
}

func serveModules() ([]namedModule, error) {
	m, err := buildKVServer()
	return []namedModule{{"kv-server", m}}, err
}

func setupServe(seed int64, tr *tracer) (instance, error) {
	built, err := buildKVServer()
	if err != nil {
		return nil, err
	}
	m, err := gowali.CompileBuilt(built)
	if err != nil {
		return nil, err
	}
	hn := gowali.NewHostNet(gowali.HostNetConfig{Binds: map[uint16]string{kvPort: "127.0.0.1:0"}})
	opts := []gowali.Option{gowali.WithNet(hn), gowali.WithScheduler(0, 0)}
	if tr != nil {
		tr.pairing = true
		opts = append(opts, gowali.WithSyscallHook(tr.hook), gowali.WithMetrics(gowali.NewMetrics()))
	}
	rt, err := gowali.New(opts...)
	if err != nil {
		return nil, err
	}
	s := &serve{rt: rt, tr: tr}
	if s.proc, err = rt.Spawn(context.Background(), m, []string{"kv-server"}, nil); err != nil {
		rt.Close()
		return nil, err
	}
	// The guest binds asynchronously and HostNet offers no event for
	// it; poll for the host listener, yielding the processor between
	// looks (a timer sleep would round up to a millisecond or more).
	addr := hn.BoundAddr(kvPort)
	for t0 := time.Now(); addr == "" && time.Since(t0) < serveIOTimeout; addr = hn.BoundAddr(kvPort) {
		runtime.Gosched()
	}
	if addr == "" {
		s.close()
		return nil, errors.New("kv server never listened")
	}
	for c := 0; c < serveConns; c++ {
		conn, err := net.DialTimeout("tcp", addr, serveIOTimeout)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, &kvClient{conn: conn, gen: newReqGen(seed, c), shadow: map[uint32]uint64{}})
	}
	// Warm-up from a separate stream per connection; the shadow tables
	// carry its writes into the measured phase.
	for c, cl := range s.clients {
		warm := newReqGen(seed^0x5eed, c)
		cl.conn.SetDeadline(time.Now().Add(serveIOTimeout))
		for i := 0; i < serveWarmReqs; i++ {
			if _, err := cl.roundTrip(warm.next(), nil, 0); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up request %d on connection %d: %w", i, c, err)
			}
		}
	}
	if tr != nil {
		tr.reset()
	}
	return s, nil
}

func (s *serve) run(deadline time.Time, rec *recorder) {
	var st0 gowali.SchedStats
	if s.tr != nil {
		st0 = s.rt.SchedStats()
	}
	var wg sync.WaitGroup
	for c, cl := range s.clients {
		if cl.dead != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.conn.SetDeadline(deadline.Add(serveIOTimeout))
			for time.Now().Before(deadline) {
				d, err := cl.roundTrip(cl.gen.next(), s.tr, tidOps+int64(c))
				rec.op(d, err)
				if s.tr != nil {
					rec.sample("rtt_us", float64(d.Nanoseconds())/1e3)
				}
				if err != nil && !errors.Is(err, errWrongReply) {
					cl.dead = err // the stream is out of sync: stop this client
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.tr != nil {
		st1 := s.rt.SchedStats()
		rec.add("sched.boosts", float64(st1.Boosts-st0.Boosts))
		rec.add("sched.preempts", float64(st1.Preempts-st0.Preempts))
	}
}

// runqWaitP99 is the scheduler's run-queue wait p99 in µs from the
// traced runtime's metrics registry.
func (s *serve) runqWaitP99() float64 {
	return float64(s.rt.Metrics().Histogram("wali_sched_runq_wait_ns").Quantile(0.99)) / 1e3
}

// close asks the guest to exit (QUIT), waits for it and shuts the
// runtime down.
func (s *serve) close() error {
	var err error
	if len(s.clients) > 0 && s.clients[0].dead == nil {
		var quit [kvRecord]byte
		kvReq{op: kvQuit}.encode(quit[:])
		s.clients[0].conn.SetDeadline(time.Now().Add(serveIOTimeout))
		_, err = s.clients[0].conn.Write(quit[:])
	} else {
		err = s.proc.Kill(sigKill)
	}
	for _, cl := range s.clients {
		cl.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveIOTimeout)
	status, werr := s.proc.Wait(ctx)
	cancel()
	if werr != nil {
		s.proc.Kill(sigKill)
		err = errors.Join(err, fmt.Errorf("kv server: %w", werr))
	} else if status != 0 && err == nil {
		err = fmt.Errorf("kv server exit status %d", status)
	}
	s.rt.Close()
	return err
}
