package main

import (
	"encoding/binary"

	"gowali"
	"gowali/wasm"
)

// The benchmark's own guests, assembled with the gowali/wasm builder.
// None of them knows the workload seed: every input arrives at run
// time through a socket, the console or a file the guest reads.

// Linux ABI constants the guests use (x86_64 numbering, as WALI).
const (
	afInet      = 2
	sockStream  = 1
	epollIn     = 0x001
	epollCtlAdd = 1
	sigKill     = 9
)

// sys imports each named WALI syscall and returns name → function index.
func sys(b *wasm.Builder, names ...string) map[string]uint32 {
	out := map[string]uint32{}
	for _, n := range names {
		out[n] = gowali.ImportWALISyscall(b, n)
	}
	return out
}

// sockaddrIn encodes a sockaddr_in for 0.0.0.0:port.
func sockaddrIn(port uint16) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint16(b[0:], afInet)
	binary.BigEndian.PutUint16(b[2:], port)
	return b
}

// ---------- serve: the epoll-driven KV server ----------

// KV wire format: fixed 16-byte records in both directions.
//
//	request  [0]=op [4:8]=key (LE u32) [8:16]=value (LE u64)
//	reply    [0]=status [4:8]=key [8:16]=value
//
// GET replies status kvGet with the stored value (0 if never set), SET
// stores the value and replies status kvSet echoing it, QUIT makes the
// server exit 0.
const (
	kvRecord = 16
	kvGet    = 1
	kvSet    = 2
	kvQuit   = 3
	kvKeys   = 1 << 16
	kvPort   = 11211
)

// KV guest memory layout.
const (
	kvAddr    = 64  // sockaddr_in
	kvEvBuf   = 128 // epoll_event[16], 12 bytes each
	kvEvMax   = 16
	kvReply   = 384  // reply record
	kvOffs    = 512  // u32 fill offset per fd (fd < kvMaxFD)
	kvBufs    = 1024 // 16-byte request buffer per fd
	kvMaxFD   = 64
	kvTable   = 1 << 20
	kvMemPage = 32 // 2 MiB: 1 MiB of scratch, then the 512 KiB table
)

// buildKVServer assembles the KV server: one listening socket and
// every accepted connection registered with one epoll instance; each
// readiness event reads into the connection's record buffer and a
// completed record is answered at once. recvfrom/sendto carry the
// records so the socket calls are distinguishable from file I/O.
func buildKVServer() (*wasm.Module, error) {
	b := wasm.NewBuilder("kv-server")
	s := sys(b, "socket", "bind", "listen", "accept", "epoll_create1", "epoll_ctl",
		"epoll_wait", "recvfrom", "sendto", "close", "exit_group")
	b.Memory(kvMemPage, kvMemPage, false)
	b.Data(kvAddr, sockaddrIn(kvPort))

	f := b.NewFunc(gowali.StartExport, nil, nil)
	ls := f.Local(wasm.I64)
	ep := f.Local(wasm.I64)
	n := f.Local(wasm.I64)
	i := f.Local(wasm.I32)
	fd := f.Local(wasm.I32)
	ev := f.Local(wasm.I32)
	r := f.Local(wasm.I64)
	off := f.Local(wasm.I32)
	buf := f.Local(wasm.I32)
	slot := f.Local(wasm.I32)

	// ctlAdd registers fd (an i64 local) for EPOLLIN with data = fd.
	ctlAdd := func(fdLocal uint32) {
		f.I32Const(kvReply).I32Const(epollIn).Store(wasm.OpI32Store, 0)
		f.I32Const(kvReply+4).LocalGet(fdLocal).Store(wasm.OpI64Store, 0)
		f.LocalGet(ep).I64Const(epollCtlAdd).LocalGet(fdLocal)
		f.I64Const(kvReply).Call(s["epoll_ctl"]).Drop()
	}

	f.I64Const(afInet).I64Const(sockStream).I64Const(0).Call(s["socket"]).LocalSet(ls)
	f.LocalGet(ls).I64Const(kvAddr).I64Const(8).Call(s["bind"]).Drop()
	f.LocalGet(ls).I64Const(16).Call(s["listen"]).Drop()
	f.I64Const(0).Call(s["epoll_create1"]).LocalSet(ep)
	ctlAdd(ls)

	f.Loop() // event loop
	f.LocalGet(ep).I64Const(kvEvBuf).I64Const(kvEvMax).I64Const(-1).Call(s["epoll_wait"]).LocalSet(n)
	f.I32Const(0).LocalSet(i)
	f.Block()
	f.Loop() // for each ready event
	f.LocalGet(i).Op(wasm.OpI64ExtendI32U).LocalGet(n).Op(wasm.OpI64GeS).BrIf(1)
	f.LocalGet(i).I32Const(12).Op(wasm.OpI32Mul).I32Const(kvEvBuf).Op(wasm.OpI32Add).LocalSet(ev)
	f.LocalGet(ev).Load(wasm.OpI64Load, 4).Op(wasm.OpI32WrapI64).LocalSet(fd)

	f.LocalGet(fd).Op(wasm.OpI64ExtendI32U).LocalGet(ls).Op(wasm.OpI64Eq)
	f.If()
	// New connection: accept and register it with a fresh buffer.
	f.LocalGet(ls).I64Const(0).I64Const(0).Call(s["accept"]).LocalSet(r)
	f.LocalGet(r).I64Const(0).Op(wasm.OpI64GeS).LocalGet(r).I64Const(kvMaxFD).Op(wasm.OpI64LtS).Op(wasm.OpI32And)
	f.If()
	f.LocalGet(r).Op(wasm.OpI32WrapI64).I32Const(2).Op(wasm.OpI32Shl).I32Const(0).Store(wasm.OpI32Store, kvOffs)
	ctlAdd(r)
	f.End()
	f.Else()
	// Data: fill the connection's record buffer.
	f.LocalGet(fd).I32Const(2).Op(wasm.OpI32Shl).LocalSet(slot)
	f.LocalGet(slot).Load(wasm.OpI32Load, kvOffs).LocalSet(off)
	f.LocalGet(fd).I32Const(4).Op(wasm.OpI32Shl).I32Const(kvBufs).Op(wasm.OpI32Add).LocalSet(buf)
	f.LocalGet(fd).Op(wasm.OpI64ExtendI32U)
	f.LocalGet(buf).LocalGet(off).Op(wasm.OpI32Add).Op(wasm.OpI64ExtendI32U)
	f.I32Const(kvRecord).LocalGet(off).Op(wasm.OpI32Sub).Op(wasm.OpI64ExtendI32U)
	f.I64Const(0).I64Const(0).I64Const(0).Call(s["recvfrom"]).LocalSet(r)
	f.LocalGet(r).I64Const(0).Op(wasm.OpI64LeS)
	f.If()
	f.LocalGet(fd).Op(wasm.OpI64ExtendI32U).Call(s["close"]).Drop() // peer gone (or error)
	f.Else()
	f.LocalGet(off).LocalGet(r).Op(wasm.OpI32WrapI64).Op(wasm.OpI32Add).LocalSet(off)
	f.LocalGet(slot).LocalGet(off).Store(wasm.OpI32Store, kvOffs)
	f.LocalGet(off).I32Const(kvRecord).Op(wasm.OpI32Eq)
	f.If()
	f.LocalGet(slot).I32Const(0).Store(wasm.OpI32Store, kvOffs)
	emitKVRecord(f, s, fd, buf)
	f.End()
	f.End()
	f.End()

	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.Br(0)
	f.End()
	f.Finish()
	return b.Build()
}

// emitKVRecord answers the complete request record at buf on fd.
func emitKVRecord(f *wasm.FuncBuilder, s map[string]uint32, fd, buf uint32) {
	// slot address of the key: kvTable + key*8 (key < kvKeys).
	keyAddr := func() {
		f.LocalGet(buf).Load(wasm.OpI32Load, 4).I32Const(kvKeys - 1).Op(wasm.OpI32And)
		f.I32Const(3).Op(wasm.OpI32Shl).I32Const(kvTable).Op(wasm.OpI32Add)
	}
	f.LocalGet(buf).Load(wasm.OpI32Load8U, 0).I32Const(kvQuit).Op(wasm.OpI32Eq)
	f.If()
	f.I64Const(0).Call(s["exit_group"]).Drop()
	f.End()
	f.I32Const(kvReply).LocalGet(buf).Load(wasm.OpI64Load, 0).Store(wasm.OpI64Store, 0)
	f.LocalGet(buf).Load(wasm.OpI32Load8U, 0).I32Const(kvSet).Op(wasm.OpI32Eq)
	f.If()
	keyAddr()
	f.LocalGet(buf).Load(wasm.OpI64Load, 8).Store(wasm.OpI64Store, 0)
	f.I32Const(kvReply).LocalGet(buf).Load(wasm.OpI64Load, 8).Store(wasm.OpI64Store, 8)
	f.Else()
	f.I32Const(kvReply)
	keyAddr()
	f.Load(wasm.OpI64Load, 0).Store(wasm.OpI64Store, 8)
	f.End()
	f.LocalGet(fd).Op(wasm.OpI64ExtendI32U).I64Const(kvReply).I64Const(kvRecord)
	f.I64Const(0).I64Const(0).I64Const(0).Call(s["sendto"]).Drop()
}

// ---------- coldstart: the snapshotted page writer ----------

// Coldstart guest protocol. The guest warms a 1 MiB working set,
// prints coldReady, then blocks reading an 8-byte request from the
// console: [0:4]=pages (1..coldMaxPages) [4:8]=value. For each
// requested page p it visits the words 4 KiB apart, adding the
// warmed word to a checksum and overwriting it with value^addr. It
// writes the 8-byte response [0:4]=checksum [4:8]=pages to the console
// and exits 0.
const (
	coldReq       = 64 // request buffer
	coldResp      = 80 // response buffer
	coldMsg       = 96 // "ready\n"
	coldWarmBase  = 1 << 16
	coldWarmPages = 16 // 1 MiB touched before the snapshot
	coldWarmStep  = 512
	coldStride    = 4096
	coldMaxPages  = 8
)

// coldMul is the warm pattern's multiplier: the word at a holds a*coldMul.
var coldMul uint32 = 2654435761

var coldReady = []byte("ready\n")

func buildColdGuest() (*wasm.Module, error) {
	b := wasm.NewBuilder("coldstart-guest")
	s := sys(b, "read", "write", "exit_group")
	b.Memory(coldWarmPages+2, coldWarmPages+2, false)
	b.Data(coldMsg, coldReady)

	f := b.NewFunc(gowali.StartExport, nil, nil)
	a := f.Local(wasm.I32)
	end := f.Local(wasm.I32)
	n := f.Local(wasm.I64)
	sum := f.Local(wasm.I32)
	val := f.Local(wasm.I32)

	// Warm: word at a = a*coldMul every coldWarmStep bytes.
	f.I32Const(coldWarmBase).LocalSet(a)
	f.Loop()
	f.LocalGet(a).LocalGet(a).I32Const(int32(coldMul)).Op(wasm.OpI32Mul).Store(wasm.OpI32Store, 0)
	f.LocalGet(a).I32Const(coldWarmStep).Op(wasm.OpI32Add).LocalTee(a)
	f.I32Const(coldWarmBase + coldWarmPages<<16).Op(wasm.OpI32LtU).BrIf(0)
	f.End()
	f.I64Const(1).I64Const(coldMsg).I64Const(int64(len(coldReady))).Call(s["write"]).Drop()

	// Block on the console until a whole request arrives. The snapshot
	// is taken while the guest waits here (the read returns EINTR and
	// is retried), so every restore resumes in this loop.
	f.Block()
	f.Loop()
	f.I64Const(0).I64Const(coldReq).I64Const(8).Call(s["read"]).LocalTee(n)
	f.I64Const(8).Op(wasm.OpI64Eq).BrIf(1)
	f.LocalGet(n).Op(wasm.OpI64Eqz)
	f.If()
	f.I64Const(3).Call(s["exit_group"]).Drop() // console closed
	f.End()
	f.Br(0)
	f.End()
	f.End()

	f.I32Const(coldReq).Load(wasm.OpI32Load, 4).LocalSet(val)
	f.I32Const(coldReq).Load(wasm.OpI32Load, 0).I32Const(16).Op(wasm.OpI32Shl).I32Const(coldWarmBase).Op(wasm.OpI32Add).LocalSet(end)
	f.I32Const(coldWarmBase).LocalSet(a)
	f.Block()
	f.Loop()
	f.LocalGet(a).LocalGet(end).Op(wasm.OpI32GeU).BrIf(1)
	f.LocalGet(sum).LocalGet(a).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Add).LocalSet(sum)
	f.LocalGet(a).LocalGet(val).LocalGet(a).Op(wasm.OpI32Xor).Store(wasm.OpI32Store, 0)
	f.LocalGet(a).I32Const(coldStride).Op(wasm.OpI32Add).LocalSet(a)
	f.Br(0)
	f.End()
	f.End()

	f.I32Const(coldResp).LocalGet(sum).Store(wasm.OpI32Store, 0)
	f.I32Const(coldResp).I32Const(coldReq).Load(wasm.OpI32Load, 0).Store(wasm.OpI32Store, 4)
	f.I64Const(1).I64Const(coldResp).I64Const(8).Call(s["write"]).Drop()
	f.I64Const(0).Call(s["exit_group"]).Drop()
	f.Finish()
	return b.Build()
}

// coldExpect is the response a correct guest gives to request pages.
func coldExpect(pages uint32) [8]byte {
	var sum uint32
	for a := uint32(coldWarmBase); a < coldWarmBase+pages<<16; a += coldStride {
		sum += a * coldMul
	}
	var out [8]byte
	binary.LittleEndian.PutUint32(out[0:], sum)
	binary.LittleEndian.PutUint32(out[4:], pages)
	return out
}

// ---------- batch: the pure-WASI file job ----------

// WASI job input, fed on stdin: [0:4]=iterations [4:8]=payload length,
// then the payload. Iteration i writes the payload from offset
// (i*wasiShift)%wasiMaxShift to file tmp/w<i%4> through
// path_open/fd_write/fd_close, opens it again, reads it back with
// fd_read, compares every byte and folds it into a checksum
// (sum = sum*31 + byte). It prints "wasi: ok <checksum as 8 hex
// digits>\n" and exits 0. It exits 2 on short input, 3 when path_open
// fails, 4 on a short read-back and 5 on a byte mismatch.
const (
	wasiShift    = 13
	wasiMaxShift = 64
	wasiIn       = 1 << 16 // stdin image: header then payload
	wasiBack     = 2 << 16 // read-back buffer
	wasiIov      = 256     // iovec {ptr, len}
	wasiNread    = 272     // bytes transferred
	wasiFd       = 276     // fd out of path_open
	wasiName     = 288     // "tmp/w0"
	wasiLine     = 320     // "wasi: ok xxxxxxxx\n"
	wasiMaxIn    = 60 << 10
)

var wasiOK = []byte("wasi: ok ")

func buildWASIJob() (*wasm.Module, error) {
	b := wasm.NewBuilder("wasi-job")
	i32, i64 := wasm.I32, wasm.I64
	fdRead := b.ImportFunc(gowali.WASINamespace, "fd_read", []wasm.ValType{i32, i32, i32, i32}, []wasm.ValType{i32})
	fdWrite := b.ImportFunc(gowali.WASINamespace, "fd_write", []wasm.ValType{i32, i32, i32, i32}, []wasm.ValType{i32})
	pathOpen := b.ImportFunc(gowali.WASINamespace, "path_open",
		[]wasm.ValType{i32, i32, i32, i32, i32, i64, i64, i32, i32}, []wasm.ValType{i32})
	fdClose := b.ImportFunc(gowali.WASINamespace, "fd_close", []wasm.ValType{i32}, []wasm.ValType{i32})
	procExit := b.ImportFunc(gowali.WASINamespace, "proc_exit", []wasm.ValType{i32}, nil)
	b.Memory(3, 16, false) // growable: the WASI layer maps scratch pages
	b.Data(wasiName, []byte("tmp/w0"))
	b.Data(wasiLine, append(append([]byte(nil), wasiOK...), []byte("00000000\n")...))

	f := b.NewFunc(gowali.StartExport, nil, nil)
	got := f.Local(i32)
	it := f.Local(i32)
	iters := f.Local(i32)
	plen := f.Local(i32)
	off := f.Local(i32)
	wlen := f.Local(i32)
	k := f.Local(i32)
	sum := f.Local(i32)
	c := f.Local(i32)

	// io sets the single iovec to {ptr, len} from the stack.
	io := func(ptr, length func()) {
		f.I32Const(wasiIov)
		ptr()
		f.Store(wasm.OpI32Store, 0)
		f.I32Const(wasiIov)
		length()
		f.Store(wasm.OpI32Store, 4)
	}
	open := func(oflags int32, rights int64) {
		f.I32Const(3).I32Const(0).I32Const(wasiName).I32Const(6).I32Const(oflags)
		f.I64Const(rights).I64Const(0).I32Const(0).I32Const(wasiFd).Call(pathOpen)
		f.If() // non-zero errno
		f.I32Const(3).Call(procExit)
		f.End()
	}
	fdArg := func() { f.I32Const(wasiFd).Load(wasm.OpI32Load, 0) }

	// Slurp stdin until EOF.
	f.Block()
	f.Loop()
	io(func() { f.I32Const(wasiIn).LocalGet(got).Op(wasm.OpI32Add) },
		func() { f.I32Const(wasiMaxIn).LocalGet(got).Op(wasm.OpI32Sub) })
	f.I32Const(0).I32Const(wasiIov).I32Const(1).I32Const(wasiNread).Call(fdRead).BrIf(1)
	f.I32Const(wasiNread).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Eqz).BrIf(1)
	f.LocalGet(got).I32Const(wasiNread).Load(wasm.OpI32Load, 0).Op(wasm.OpI32Add).LocalSet(got)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(wasiIn).Load(wasm.OpI32Load, 0).LocalSet(iters)
	f.I32Const(wasiIn).Load(wasm.OpI32Load, 4).LocalSet(plen)
	f.LocalGet(got).LocalGet(plen).I32Const(8).Op(wasm.OpI32Add).Op(wasm.OpI32Ne)
	f.If()
	f.I32Const(2).Call(procExit)
	f.End()

	f.Block()
	f.Loop()
	f.LocalGet(it).LocalGet(iters).Op(wasm.OpI32GeU).BrIf(1)
	// name digit, shift and write length for this iteration
	f.I32Const(wasiName+5).LocalGet(it).I32Const(3).Op(wasm.OpI32And).I32Const('0').Op(wasm.OpI32Add).Store(wasm.OpI32Store8, 0)
	f.LocalGet(it).I32Const(wasiShift).Op(wasm.OpI32Mul).I32Const(wasiMaxShift - 1).Op(wasm.OpI32And).LocalSet(off)
	f.LocalGet(plen).LocalGet(off).Op(wasm.OpI32Sub).LocalSet(wlen)

	open(int32(gowali.WASIOflagCreat|wasiOflagTrunc), int64(gowali.WASIRightFdWrite))
	io(func() { f.I32Const(wasiIn + 8).LocalGet(off).Op(wasm.OpI32Add) }, func() { f.LocalGet(wlen) })
	fdArg()
	f.I32Const(wasiIov).I32Const(1).I32Const(wasiNread).Call(fdWrite).Drop()
	fdArg()
	f.Call(fdClose).Drop()

	open(0, int64(gowali.WASIRightFdRead))
	io(func() { f.I32Const(wasiBack) }, func() { f.I32Const(wasiMaxIn) })
	fdArg()
	f.I32Const(wasiIov).I32Const(1).I32Const(wasiNread).Call(fdRead).Drop()
	fdArg()
	f.Call(fdClose).Drop()
	f.I32Const(wasiNread).Load(wasm.OpI32Load, 0).LocalGet(wlen).Op(wasm.OpI32Ne)
	f.If()
	f.I32Const(4).Call(procExit)
	f.End()

	// Compare and checksum.
	f.I32Const(0).LocalSet(k)
	f.Block()
	f.Loop()
	f.LocalGet(k).LocalGet(wlen).Op(wasm.OpI32GeU).BrIf(1)
	f.LocalGet(k).Load(wasm.OpI32Load8U, wasiBack).LocalTee(c)
	f.LocalGet(k).LocalGet(off).Op(wasm.OpI32Add).Load(wasm.OpI32Load8U, wasiIn+8).Op(wasm.OpI32Ne)
	f.If()
	f.I32Const(5).Call(procExit)
	f.End()
	f.LocalGet(sum).I32Const(31).Op(wasm.OpI32Mul).LocalGet(c).Op(wasm.OpI32Add).LocalSet(sum)
	f.LocalGet(k).I32Const(1).Op(wasm.OpI32Add).LocalSet(k)
	f.Br(0)
	f.End()
	f.End()

	f.LocalGet(it).I32Const(1).Op(wasm.OpI32Add).LocalSet(it)
	f.Br(0)
	f.End()
	f.End()

	// Hex-format the checksum into the result line.
	f.I32Const(0).LocalSet(k)
	f.Block()
	f.Loop()
	f.LocalGet(k).I32Const(8).Op(wasm.OpI32GeU).BrIf(1)
	f.LocalGet(sum).I32Const(28).LocalGet(k).I32Const(2).Op(wasm.OpI32Shl).Op(wasm.OpI32Sub).Op(wasm.OpI32ShrU)
	f.I32Const(15).Op(wasm.OpI32And).LocalTee(c)
	f.I32Const('0').Op(wasm.OpI32Add)
	f.LocalGet(c).I32Const('a' - 10).Op(wasm.OpI32Add)
	f.LocalGet(c).I32Const(10).Op(wasm.OpI32LtU).Select().LocalSet(c)
	f.LocalGet(k).LocalGet(c).Store(wasm.OpI32Store8, wasiLine+uint32(len(wasiOK)))
	f.LocalGet(k).I32Const(1).Op(wasm.OpI32Add).LocalSet(k)
	f.Br(0)
	f.End()
	f.End()
	io(func() { f.I32Const(wasiLine) }, func() { f.I32Const(int32(len(wasiOK) + 9)) })
	f.I32Const(1).I32Const(wasiIov).I32Const(1).I32Const(wasiNread).Call(fdWrite).Drop()
	f.I32Const(0).Call(procExit)
	f.Finish()
	return b.Build()
}

// wasiOflagTrunc is WASI's O_TRUNC open flag (the facade exports only
// O_CREAT).
const wasiOflagTrunc = 1 << 3

// wasiInput encodes a WASI job's stdin image.
func wasiInput(iters int, payload []byte) []byte {
	in := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(in[0:], uint32(iters))
	binary.LittleEndian.PutUint32(in[4:], uint32(len(payload)))
	return append(in, payload...)
}

// wasiExpect is the console line a correct WASI job prints.
func wasiExpect(iters int, payload []byte) string {
	var sum uint32
	for it := 0; it < iters; it++ {
		off := it * wasiShift & (wasiMaxShift - 1)
		for _, c := range payload[off:] {
			sum = sum*31 + uint32(c)
		}
	}
	const hex = "0123456789abcdef"
	line := append([]byte(nil), wasiOK...)
	for k := 0; k < 8; k++ {
		line = append(line, hex[sum>>(28-4*k)&15])
	}
	return string(append(line, '\n'))
}

// ---------- layer probes ----------

// buildGetpidProbe loops n times; with call set each iteration makes
// one WALI getpid call, otherwise the loop is empty (the twin whose
// time is subtracted).
func buildGetpidProbe(n int, call bool) (*wasm.Module, error) {
	b := wasm.NewBuilder("getpid-probe")
	s := sys(b, "getpid", "exit_group")
	b.Memory(1, 1, false)
	f := b.NewFunc(gowali.StartExport, nil, nil)
	probeLoop(f, n, func() {
		if call {
			f.Call(s["getpid"]).Drop()
		}
	})
	f.I64Const(0).Call(s["exit_group"]).Drop()
	f.Finish()
	return b.Build()
}

// buildWASIProbe is the WASI-layer twin of buildGetpidProbe: each
// iteration calls fd_fdstat_get(1), which the WASI layer serves with
// one fcntl through the WALI dispatch path.
func buildWASIProbe(n int, call bool) (*wasm.Module, error) {
	b := wasm.NewBuilder("wasi-probe")
	i32 := wasm.I32
	fdstat := b.ImportFunc(gowali.WASINamespace, "fd_fdstat_get", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
	procExit := b.ImportFunc(gowali.WASINamespace, "proc_exit", []wasm.ValType{i32}, nil)
	b.Memory(1, 16, false)
	f := b.NewFunc(gowali.StartExport, nil, nil)
	probeLoop(f, n, func() {
		if call {
			f.I32Const(1).I32Const(64).Call(fdstat).Drop()
		}
	})
	f.I32Const(0).Call(procExit)
	f.Finish()
	return b.Build()
}

func probeLoop(f *wasm.FuncBuilder, n int, body func()) {
	i := f.Local(wasm.I32)
	f.Block()
	f.Loop()
	f.LocalGet(i).I32Const(int32(n)).Op(wasm.OpI32GeU).BrIf(1)
	body()
	f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
}
