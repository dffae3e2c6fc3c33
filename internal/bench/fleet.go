package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"gowali/internal/core"
	"gowali/internal/interp"
	"gowali/internal/isa"
	"gowali/internal/kernel/sched"
	"gowali/internal/linux"
	"gowali/internal/wasm"
)

// ---------- Fleet (multicore guest scheduler) ----------
//
// Fleet is the scheduler benchmark: hundreds of cached-module guests
// with an adversarial class mix on one kernel behind the slot-token
// scheduler. Three guest classes contend:
//
//	spinner    pure CPU loop, no syscalls — only safepoint preemption
//	           can ever get it off a worker
//	syscaller  tight syscall loop (pipe echo, clock_gettime, getpid,
//	           futex-EAGAIN) — crosses the kernel constantly but never
//	           sleeps for long
//	poll pair  an echo server + client round-tripping through poll(2) —
//	           sleeps almost always, needs CPU the instant it wakes
//
// The numbers that matter: aggregate syscall throughput (does adding
// workers scale?), spinner step spread (do equal-priority spinners get
// equal CPU?), and the client-measured round-trip maximum (can a fleet
// of spinners starve a poll-blocked guest? — the in-guest RTT includes
// every scheduling delay, so a starved wakeup shows up directly as a
// max-RTT spike). Guests never exit on their own; the harness runs the
// mix for a fixed window, SIGKILLs the fleet, and reads each client's
// RTT ledger out of its final memory image.

// Fleet guest memory layout (shared by the builders below).
const (
	flAddrBuf = 1024 // sockaddr_in (poll pairs)
	flPollBuf = 2048 // struct pollfd
	flTsRetry = 2064 // 1ms timespec for connect retry
	flT0Buf   = 2080 // timespec: round-trip start
	flT1Buf   = 2112 // timespec: round-trip end
	flIoBuf   = 4096 // payload
	flPipeFds = 8256 // int32[2] from pipe2 (syscaller)

	// Client RTT ledger, read by the harness after the kill.
	FleetRTTMaxAddr   = 8192 // i64 nanoseconds, max round trip
	FleetRTTCountAddr = 8200 // i64 completed round trips
	FleetRTTSumAddr   = 8208 // i64 nanoseconds, sum of round trips
)

// fleetMsgSize is the poll-pair payload size.
const fleetMsgSize = 64

// fleetSyscallsPerIter is the syscall count of one syscaller loop
// iteration: write+read (pipe echo), clock_gettime, getpid, and a
// futex FUTEX_WAIT that returns EAGAIN.
const fleetSyscallsPerIter = 5

// buildFleetSpinner assembles the CPU-spinner guest: an infinite
// counting loop with no syscalls at all. Only loop-head safepoints can
// preempt it, and only SIGKILL ends it.
func buildFleetSpinner() *wasm.Module {
	b := wasm.NewBuilder("fleet-spinner")
	b.Memory(2, 16, false)
	f := b.NewFunc(core.StartExport, nil, nil)
	i := f.Local(wasm.I64)
	f.Block()
	f.Loop()
	f.LocalGet(i).I64Const(1).Op(wasm.OpI64Add).LocalSet(i)
	// Always-taken conditional back-edge: keeps the loop end reachable
	// for the validator while never falling through.
	f.I32Const(1).BrIf(0)
	f.End()
	f.End()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// buildFleetSyscaller assembles the syscall-heavy guest: one private
// pipe created at startup, then an infinite loop of pipe echo +
// clock_gettime + getpid + futex-EAGAIN. Any syscall failure (the kill
// arriving mid-loop) exits.
func buildFleetSyscaller() *wasm.Module {
	b := wasm.NewBuilder("fleet-syscaller")
	sys := map[string]uint32{}
	for _, s := range []string{"pipe2", "write", "read", "clock_gettime", "getpid", "futex", "exit_group"} {
		sys[s] = core.ImportSyscall(b, s)
	}
	b.Memory(2, 16, false)

	f := b.NewFunc(core.StartExport, nil, nil)
	f.I64Const(flPipeFds).I64Const(0).Call(sys["pipe2"]).Drop()

	f.Block()
	f.Loop()
	// write(fds[1], io, 64); bail on error.
	f.I32Const(flPipeFds+4).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.I64Const(flIoBuf).I64Const(fleetMsgSize).Call(sys["write"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	// read(fds[0], io, 64); bail on error or EOF.
	f.I32Const(flPipeFds).Load(wasm.OpI32Load, 0).Op(wasm.OpI64ExtendI32U)
	f.I64Const(flIoBuf).I64Const(fleetMsgSize).Call(sys["read"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	// clock_gettime(CLOCK_MONOTONIC, t0); getpid()
	f.I64Const(linux.CLOCK_MONOTONIC).I64Const(flT0Buf).Call(sys["clock_gettime"]).Drop()
	f.Call(sys["getpid"]).Drop()
	// futex(io, FUTEX_WAIT, 1): the word is 0, so EAGAIN — the
	// test-and-block fast path without ever blocking.
	f.I64Const(flIoBuf).I64Const(linux.FUTEX_WAIT).I64Const(1).I64Const(0).I64Const(0).I64Const(0)
	f.Call(sys["futex"]).Drop()
	f.Br(0)
	f.End()
	f.End()

	f.I64Const(0).Call(sys["exit_group"]).Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// fleetPollSetup stores {fd, POLLIN} into the pollfd buffer.
func fleetPollSetup(f *wasm.FuncBuilder, fd uint32) {
	f.I32Const(flPollBuf).LocalGet(fd).Op(wasm.OpI32WrapI64).Store(wasm.OpI32Store, 0)
	f.I32Const(flPollBuf+4).I32Const(linux.POLLIN).Store(wasm.OpI32Store16, 0)
	f.I32Const(flPollBuf+6).I32Const(0).Store(wasm.OpI32Store16, 0)
}

// buildFleetServer assembles the poll-pair echo server on port: accept
// one connection, then echo forever, blocking in poll before every
// read. Unlike the netecho server it checks every poll and recv result
// — the kill must turn the blocked poll's EINTR into an exit, never a
// blocking recvfrom that would hang the teardown.
func buildFleetServer(port uint16) *wasm.Module {
	b := wasm.NewBuilder("fleet-server")
	sys := neImports(b)
	b.Memory(2, 16, false)
	addr := make([]byte, 8)
	isa.PutSockaddrIn(addr, port, [4]byte{})
	b.Data(flAddrBuf, addr)

	f := b.NewFunc(core.StartExport, nil, nil)
	ls := f.Local(wasm.I64)
	cs := f.Local(wasm.I64)
	n := f.Local(wasm.I64)

	f.I64Const(linux.AF_INET).I64Const(linux.SOCK_STREAM).I64Const(0).Call(sys["socket"]).LocalSet(ls)
	f.LocalGet(ls).I64Const(flAddrBuf).I64Const(8).Call(sys["bind"]).Drop()
	f.LocalGet(ls).I64Const(128).Call(sys["listen"]).Drop()

	f.Block()

	fleetPollSetup(f, ls)
	f.I64Const(flPollBuf).I64Const(1).I64Const(-1).Call(sys["poll"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(0) // EINTR: killed before a client came
	f.LocalGet(ls).I64Const(0).I64Const(0).Call(sys["accept"]).LocalTee(cs)
	f.I64Const(0).Op(wasm.OpI64LtS).BrIf(0)

	fleetPollSetup(f, cs)
	f.Loop()
	f.I64Const(flPollBuf).I64Const(1).I64Const(-1).Call(sys["poll"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	f.LocalGet(cs).I64Const(flIoBuf).I64Const(32768).I64Const(0).I64Const(0).I64Const(0)
	f.Call(sys["recvfrom"]).LocalTee(n)
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	f.LocalGet(cs).I64Const(flIoBuf).LocalGet(n).I64Const(0).I64Const(0).I64Const(0)
	f.Call(sys["sendto"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	f.Br(0)
	f.End()

	f.End()
	f.I64Const(0).Call(sys["exit_group"]).Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// buildFleetClient assembles the poll-pair client: connect (with
// retry), then round-trip forever, timing every round trip in-guest
// with clock_gettime and maintaining a {max, count, sum} nanosecond
// ledger in memory for the harness to read after the kill. The
// in-guest clock sees every scheduling delay, so scheduler starvation
// of this mostly-sleeping guest shows up directly in the max.
func buildFleetClient(port uint16) *wasm.Module {
	b := wasm.NewBuilder("fleet-client")
	sys := neImports(b)
	for _, s := range []string{"clock_gettime"} {
		sys[s] = core.ImportSyscall(b, s)
	}
	b.Memory(2, 16, false)
	addr := make([]byte, 8)
	isa.PutSockaddrIn(addr, port, [4]byte{127, 0, 0, 1})
	b.Data(flAddrBuf, addr)
	// 1ms timespec {sec=0, nsec=1e6} for the connect retry.
	b.Data(flTsRetry, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0x42, 0x0F, 0, 0, 0, 0, 0})

	f := b.NewFunc(core.StartExport, nil, nil)
	cs := f.Local(wasm.I64)
	n := f.Local(wasm.I64)
	got := f.Local(wasm.I32)
	rtt := f.Local(wasm.I64)

	f.I64Const(linux.AF_INET).I64Const(linux.SOCK_STREAM).I64Const(0).Call(sys["socket"]).LocalSet(cs)

	// Connect retry loop (the server may not be listening yet).
	f.Block()
	f.Loop()
	f.LocalGet(cs).I64Const(flAddrBuf).I64Const(8).Call(sys["connect"])
	f.Op(wasm.OpI64Eqz).BrIf(1)
	f.I64Const(flTsRetry).I64Const(0).Call(sys["nanosleep"]).Drop()
	f.Br(0)
	f.End()
	f.End()

	fleetPollSetup(f, cs)
	f.Block()
	f.Loop()
	// t0 = clock_gettime(CLOCK_MONOTONIC)
	f.I64Const(linux.CLOCK_MONOTONIC).I64Const(flT0Buf).Call(sys["clock_gettime"]).Drop()
	// send one message.
	f.LocalGet(cs).I64Const(flIoBuf).I64Const(fleetMsgSize).I64Const(0).I64Const(0).I64Const(0)
	f.Call(sys["sendto"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(1)
	// read the full echo back, poll-first.
	f.I32Const(0).LocalSet(got)
	f.Block()
	f.Loop()
	f.LocalGet(got).I32Const(fleetMsgSize).Op(wasm.OpI32GeU).BrIf(1)
	f.I64Const(flPollBuf).I64Const(1).I64Const(-1).Call(sys["poll"])
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(3) // killed: whole loop exits
	f.LocalGet(cs).I64Const(flIoBuf).I64Const(fleetMsgSize).I64Const(0).I64Const(0).I64Const(0)
	f.Call(sys["recvfrom"]).LocalTee(n)
	f.I64Const(0).Op(wasm.OpI64LeS).BrIf(3)
	f.LocalGet(got).LocalGet(n).Op(wasm.OpI32WrapI64).Op(wasm.OpI32Add).LocalSet(got)
	f.Br(0)
	f.End()
	f.End()
	// t1 = clock_gettime; rtt = (t1.sec*1e9 + t1.nsec) - (t0.sec*1e9 + t0.nsec)
	f.I64Const(linux.CLOCK_MONOTONIC).I64Const(flT1Buf).Call(sys["clock_gettime"]).Drop()
	f.I32Const(flT1Buf).Load(wasm.OpI64Load, 0).I64Const(1_000_000_000).Op(wasm.OpI64Mul)
	f.I32Const(flT1Buf+8).Load(wasm.OpI64Load, 0).Op(wasm.OpI64Add)
	f.I32Const(flT0Buf).Load(wasm.OpI64Load, 0).I64Const(1_000_000_000).Op(wasm.OpI64Mul)
	f.I32Const(flT0Buf+8).Load(wasm.OpI64Load, 0).Op(wasm.OpI64Add)
	f.Op(wasm.OpI64Sub).LocalSet(rtt)
	// ledger: count++, sum += rtt, max = max(max, rtt)
	f.I32Const(FleetRTTCountAddr)
	f.I32Const(FleetRTTCountAddr).Load(wasm.OpI64Load, 0).I64Const(1).Op(wasm.OpI64Add)
	f.Store(wasm.OpI64Store, 0)
	f.I32Const(FleetRTTSumAddr)
	f.I32Const(FleetRTTSumAddr).Load(wasm.OpI64Load, 0).LocalGet(rtt).Op(wasm.OpI64Add)
	f.Store(wasm.OpI64Store, 0)
	f.LocalGet(rtt).I32Const(FleetRTTMaxAddr).Load(wasm.OpI64Load, 0).Op(wasm.OpI64GtS)
	f.If()
	f.I32Const(FleetRTTMaxAddr).LocalGet(rtt).Store(wasm.OpI64Store, 0)
	f.End()
	f.Br(0)
	f.End()
	f.End()

	f.LocalGet(cs).Call(sys["close"]).Drop()
	f.I64Const(0).Call(sys["exit_group"]).Drop()
	f.Finish()
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// FleetConfig parameterizes one fleet run.
type FleetConfig struct {
	Spinners   int // CPU-spinner guests
	Syscallers int // syscall-loop guests
	PollPairs  int // echo server+client pairs (2 guests each)

	Workers int           // scheduler run slots; 0 = GOMAXPROCS
	Quantum time.Duration // scheduler time slice; 0 = sched default
	Window  time.Duration // measurement window; 0 = 500ms
}

// FleetRow is one fleet measurement.
type FleetRow struct {
	GoMaxProcs int
	Workers    int
	Guests     int
	Window     time.Duration
	Elapsed    time.Duration

	Syscalls uint64  // aggregate syscalls during the window
	PerSec   float64 // aggregate syscalls per second

	SpinStepsMin uint64 // slowest spinner's executed instructions
	SpinStepsMax uint64 // fastest spinner's executed instructions
	SysMin       uint64 // slowest syscaller's syscall count
	SysMax       uint64 // fastest syscaller's syscall count

	RTTCount uint64        // completed round trips across all pairs
	RTTMean  time.Duration // mean in-guest round trip
	RTTMax   time.Duration // worst in-guest round trip (starvation bound)

	SpinCPU time.Duration // per-class CPU attribution (tenant ledgers)
	SysCPU  time.Duration
	PollCPU time.Duration

	Sched sched.Stats
}

// fleetBasePort is the first poll-pair port; pair i uses base+i.
const fleetBasePort = 7100

// FleetOnce runs one fleet window at the current GOMAXPROCS and
// returns its measurement.
func FleetOnce(cfg FleetConfig) FleetRow {
	if cfg.Spinners == 0 && cfg.Syscallers == 0 && cfg.PollPairs == 0 {
		cfg.Spinners, cfg.Syscallers, cfg.PollPairs = 6, 4, 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 500 * time.Millisecond
	}

	w := newWALI()
	w.Sched = sched.New(obsSchedCfg(sched.Config{Workers: cfg.Workers, Quantum: cfg.Quantum}))
	spinT := w.NewTenant("spin", sched.Budget{})
	sysT := w.NewTenant("sys", sched.Budget{})
	pollT := w.NewTenant("poll", sched.Budget{})

	compile := func(m *wasm.Module) *interp.Compiled {
		c, err := interp.Compile(m)
		if err != nil {
			panic(err)
		}
		return c
	}
	spinC := compile(buildFleetSpinner())
	sysC := compile(buildFleetSyscaller())

	spawn := func(c *interp.Compiled, name string, t *sched.Tenant) *core.Process {
		p, err := w.SpawnCompiledTenant(c, name, []string{name}, nil, t)
		if err != nil {
			panic(err)
		}
		return p
	}
	var spinners, syscallers, clients, all []*core.Process
	for i := 0; i < cfg.Spinners; i++ {
		p := spawn(spinC, fmt.Sprintf("spin-%d", i), spinT)
		spinners = append(spinners, p)
		all = append(all, p)
	}
	for i := 0; i < cfg.Syscallers; i++ {
		p := spawn(sysC, fmt.Sprintf("sys-%d", i), sysT)
		syscallers = append(syscallers, p)
		all = append(all, p)
	}
	for i := 0; i < cfg.PollPairs; i++ {
		port := uint16(fleetBasePort + i)
		srv := spawn(compile(buildFleetServer(port)), fmt.Sprintf("echo-srv-%d", i), pollT)
		cli := spawn(compile(buildFleetClient(port)), fmt.Sprintf("echo-cli-%d", i), pollT)
		clients = append(clients, cli)
		all = append(all, srv, cli)
	}

	start := time.Now()
	for _, p := range all {
		p.RunAsync()
	}
	time.Sleep(cfg.Window)

	// Snapshot the counters while the fleet is still live, then kill it.
	var sysMin, sysMax, total uint64
	for _, p := range all {
		_, n := w.SyscallStats(p.KP.PID)
		total += n
	}
	for i, p := range syscallers {
		_, n := w.SyscallStats(p.KP.PID)
		if i == 0 || n < sysMin {
			sysMin = n
		}
		if n > sysMax {
			sysMax = n
		}
	}
	elapsed := time.Since(start)

	for _, p := range all {
		p.KP.PostSignal(linux.SIGKILL)
	}
	deadline := time.After(10 * time.Second)
	for _, p := range all {
		select {
		case <-p.Done():
		case <-deadline:
			panic(fmt.Sprintf("fleet: %s did not die within 10s of SIGKILL", p.Argv()[0]))
		}
	}

	row := FleetRow{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    w.Sched.Workers(),
		Guests:     len(all),
		Window:     cfg.Window,
		Elapsed:    elapsed,
		Syscalls:   total,
		PerSec:     float64(total) / elapsed.Seconds(),
		SysMin:     sysMin,
		SysMax:     sysMax,
		SpinCPU:    spinT.CPUTime(),
		SysCPU:     sysT.CPUTime(),
		PollCPU:    pollT.CPUTime(),
		Sched:      w.Sched.Stats(),
	}
	for i, p := range spinners {
		steps := p.Exec.Steps
		if i == 0 || steps < row.SpinStepsMin {
			row.SpinStepsMin = steps
		}
		if steps > row.SpinStepsMax {
			row.SpinStepsMax = steps
		}
	}
	var rttSum uint64
	for _, p := range clients {
		max, _ := p.Inst.Mem.ReadU64(FleetRTTMaxAddr)
		cnt, _ := p.Inst.Mem.ReadU64(FleetRTTCountAddr)
		sum, _ := p.Inst.Mem.ReadU64(FleetRTTSumAddr)
		row.RTTCount += cnt
		rttSum += sum
		if d := time.Duration(max); d > row.RTTMax {
			row.RTTMax = d
		}
	}
	if row.RTTCount > 0 {
		row.RTTMean = time.Duration(rttSum / row.RTTCount)
	}
	return row
}

// FleetSweep runs the fleet at each GOMAXPROCS value (restoring the
// original afterwards) — the multicore scaling curve.
func FleetSweep(cfg FleetConfig, gomaxprocs []int) []FleetRow {
	if len(gomaxprocs) == 0 {
		gomaxprocs = []int{1, 2, 4, 8}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []FleetRow
	for _, g := range gomaxprocs {
		runtime.GOMAXPROCS(g)
		rows = append(rows, FleetOnce(cfg))
	}
	return rows
}

// FormatFleet renders the fleet table.
func FormatFleet(rows []FleetRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		r := rows[0]
		fmt.Fprintf(&b, "fleet: %d guests, window %s (host CPUs: %d)\n",
			r.Guests, r.Window, runtime.NumCPU())
	}
	fmt.Fprintf(&b, "%-5s %-4s %12s %14s %10s %10s %10s %9s %9s %9s\n",
		"gomax", "W", "syscalls/s", "spin-fair", "rtt-mean", "rtt-max", "rtts", "preempts", "yields", "handoffs")
	for _, r := range rows {
		fair := "-"
		if r.SpinStepsMin > 0 {
			fair = fmt.Sprintf("%.2fx", float64(r.SpinStepsMax)/float64(r.SpinStepsMin))
		}
		fmt.Fprintf(&b, "%-5d %-4d %12.0f %14s %10s %10s %10d %9d %9d %9d\n",
			r.GoMaxProcs, r.Workers, r.PerSec, fair,
			r.RTTMean.Round(time.Microsecond), r.RTTMax.Round(time.Microsecond),
			r.RTTCount, r.Sched.Preempts, r.Sched.Yields, r.Sched.Handoffs)
	}
	return b.String()
}
