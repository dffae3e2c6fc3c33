package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gowali"
)

// recorder collects the outcome of every operation of one run.
type recorder struct {
	mu        sync.Mutex
	lat       []float64 // µs per operation
	attempted int
	failed    int
	firstErr  error // the first failure, for the report
	// samples holds per-operation layer values by name (restore and
	// resume time, dirty pages, client RTT ...), sums running totals.
	samples map[string][]float64
	sums    map[string]float64
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, sums: map[string]float64{}}
}

// op records one finished operation; a non-nil err marks it failed.
func (r *recorder) op(d time.Duration, err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	r.lat = append(r.lat, float64(d.Nanoseconds())/1e3)
	r.mu.Unlock()
}

// merge adds o's operations into r.
func (r *recorder) merge(o *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.lat = append(r.lat, o.lat...)
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

// span is one timed interval recorded by the benchmark: an operation,
// a call into a layer, or a guest syscall reconstructed from a hook
// event (start = hook time − Duration).
type span struct {
	id, parent int64
	name, cat  string
	tid        int64
	start, end int64 // ns since the tracer's epoch
}

// Syscall classes for the kernel.*_us_per_op metrics.
const (
	classVFS = iota
	classProc
	classNet
	classPoll
	classOther
	nClasses
)

var classNames = [nClasses]string{"kernel.vfs", "kernel.proc", "kernel.net", "kernel.poll", "kernel.other"}

var syscallClass = func() map[string]int {
	m := map[string]int{}
	for _, n := range []string{"read", "write", "readv", "writev", "pread64", "pwrite64", "open",
		"openat", "close", "lseek", "stat", "lstat", "fstat", "newfstatat", "access", "faccessat",
		"faccessat2", "dup", "dup2", "dup3", "fcntl", "ioctl", "getdents64", "mkdir", "mkdirat",
		"rmdir", "unlink", "unlinkat", "rename", "renameat", "renameat2", "link", "linkat",
		"symlink", "symlinkat", "readlink", "readlinkat", "chdir", "fchdir", "getcwd", "chmod",
		"fchmod", "fchmodat", "chown", "lchown", "fchownat", "fchown", "truncate", "ftruncate",
		"sync", "syncfs", "fsync", "fdatasync", "umask", "pipe", "pipe2", "statfs", "fstatfs",
		"utimensat", "sendfile", "copy_file_range", "flock"} {
		m[n] = classVFS
	}
	for _, n := range []string{"fork", "vfork", "clone", "execve", "exit", "exit_group", "wait4",
		"waitid", "getpid", "getppid", "gettid", "getpgid", "setpgid", "getpgrp", "getsid",
		"setsid", "futex", "rt_sigaction", "rt_sigprocmask", "rt_sigpending", "rt_sigsuspend",
		"rt_sigtimedwait", "rt_sigreturn", "sigaltstack", "pause", "kill", "tkill", "tgkill",
		"alarm", "setitimer", "getitimer", "set_tid_address", "set_robust_list"} {
		m[n] = classProc
	}
	for _, n := range []string{"socket", "socketpair", "bind", "listen", "accept", "accept4",
		"connect", "sendto", "recvfrom", "sendmsg", "recvmsg", "shutdown", "getsockname",
		"getpeername", "setsockopt", "getsockopt"} {
		m[n] = classNet
	}
	for _, n := range []string{"poll", "ppoll", "select", "pselect6", "epoll_create1",
		"epoll_ctl", "epoll_wait", "epoll_pwait"} {
		m[n] = classPoll
	}
	return m
}()

func classOf(name string) int {
	if c, ok := syscallClass[name]; ok {
		return c
	}
	return classOther
}

// maxSpans bounds the spans kept for the trace file and the self-time
// table; aggregates (counts, sums, percentiles) cover every event.
const maxSpans = 60000

// Trace tracks: operations and the layer calls around them sit on
// tidOps (serve: tidOps+connection); guest syscalls on tidGuest+pid.
const (
	tidOps   = 1
	tidGuest = 100
)

// tracer is the traced run's recorder: it receives every syscall hook
// event of the traced runtimes and the spans the workloads record
// around their calls into the runtime.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	nextID  int64

	calls   int64
	classNs [nClasses]int64
	durNs   []int64

	// Attribution of hook events to the current operation (batch and
	// coldstart run one operation at a time).
	parent   int64
	opHookNs int64

	// oneGuestTrack puts every guest's syscalls on one track; coldstart
	// sets it because each operation's guest has a new PID but never
	// overlaps the previous one.
	oneGuestTrack bool

	// pairing reconstructs each served request inside the guest from
	// its single-threaded syscall order: the last recvfrom before a
	// sendto read the record that sendto answers.
	pairing   bool
	recvStart int64
	recvDur   int64
	recvSeen  bool
	pairSpan  []float64 // µs from recvfrom start to sendto end
	pairGuest []float64 // µs of that span outside the two calls
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ns converts an instant to the trace clock (ns since the epoch).
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record keeps a finished span (up to maxSpans); s.id comes from id.
func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// beginOp attributes subsequent hook events to parent and resets the
// per-operation hook time.
func (t *tracer) beginOp(parent int64) {
	t.mu.Lock()
	t.parent, t.opHookNs = parent, 0
	t.mu.Unlock()
}

// endOp returns the summed hook durations since beginOp.
func (t *tracer) endOp() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.opHookNs
	t.parent, t.opHookNs = 0, 0
	return time.Duration(d)
}

// hook is the WithSyscallHook callback of every traced runtime.
func (t *tracer) hook(ev gowali.SyscallEvent) {
	end := t.ns(time.Now())
	d := int64(ev.Duration)
	start := end - d
	c := classOf(ev.Name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	t.classNs[c] += d
	t.durNs = append(t.durNs, d)
	t.opHookNs += d
	if t.pairing {
		switch ev.Name {
		case "recvfrom":
			if ev.Ret > 0 {
				t.recvStart, t.recvDur, t.recvSeen = start, d, true
			}
		case "sendto":
			if t.recvSeen {
				sp := end - t.recvStart
				t.pairSpan = append(t.pairSpan, float64(sp)/1e3)
				t.pairGuest = append(t.pairGuest, float64(sp-t.recvDur-d)/1e3)
				t.recvSeen = false
			}
		}
	}
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	tid := tidGuest + int64(ev.PID)
	if t.oneGuestTrack {
		tid = tidGuest
	}
	t.spans = append(t.spans, span{id: t.nextID, parent: t.parent, name: ev.Name,
		cat: classNames[c], tid: tid, start: start, end: end})
}

// reset drops everything recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.dropped, t.calls, t.classNs, t.durNs = nil, 0, 0, [nClasses]int64{}, nil
	t.pairSpan, t.pairGuest, t.recvSeen = nil, nil, false
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name, cat string
	count     int
	totalNs   int64
	selfNs    int64
}

// selfTimes groups the kept spans by name. A span's self time is its
// duration minus the part of it covered by its children's spans.
func selfTimes(spans []span) []layerRow {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name, cat: s.cat}
			rows[s.name] = r
		}
		r.count++
		r.totalNs += s.end - s.start
		r.selfNs += s.end - s.start - covered(s, children[s.id])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalNs > out[j].totalNs })
	return out
}

// covered is the length of the union of kids' intervals within s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

func printLayerTable(w io.Writer, rows []layerRow, dropped int) {
	fmt.Fprintf(w, "%-22s %-14s %9s %12s %12s %10s\n", "span", "layer", "count", "total_ms", "self_ms", "mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-14s %9d %12.3f %12.3f %10.2f\n", r.name, r.cat, r.count,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, float64(r.totalNs)/1e3/float64(r.count))
	}
	if dropped > 0 {
		fmt.Fprintf(w, "(table and trace file keep the first %d spans; %d later spans counted in the metrics only)\n", maxSpans, dropped)
	}
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the JSON format Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome-trace JSON file.
func writeChromeTrace(path, workload string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			fmt.Fprint(bw, ",")
		}
		first = false
		return enc.Encode(ev)
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench " + workload}}); err != nil {
		f.Close()
		return err
	}
	tids := map[int64]bool{}
	for _, s := range spans {
		if !tids[s.tid] {
			tids[s.tid] = true
			name := fmt.Sprintf("ops %d", s.tid)
			if s.tid >= tidGuest {
				name = fmt.Sprintf("guest syscalls %d", s.tid-tidGuest)
			}
			if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid, Args: map[string]any{"name": name}}); err != nil {
				f.Close()
				return err
			}
		}
		ev := chromeEvent{Name: s.name, Cat: s.cat, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent}}
		if err := emit(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
