package core

import (
	"fmt"
	"time"

	"gowali/internal/interp"
	"gowali/internal/kernel"
	"gowali/internal/kernel/sched"
	"gowali/internal/kernel/snap"
	"gowali/internal/kernel/vfs"
	"gowali/internal/obs"
	"gowali/internal/wasm"
)

// Snapshot / restore orchestration. Snapshot checkpoints a running guest
// into a snap.Image via a quiesce rendezvous: the requester raises the
// kernel quiesce flag (which also turns blocking syscalls into EINTR, the
// CRIU-visible cost of checkpointing), the guest parks at its next
// interpreter safepoint and hands its Exec over, the requester captures
// every layer — linear memory, interpreter frames, kernel tables, mmap
// layout, the virtual sigtable, overlay filesystem deltas — and releases
// the guest, which continues unharmed.
//
// Restore builds a fresh process around the image in microseconds: the
// compiled module comes from a content-hash cache (decode+compile only on
// the first restore of a module per engine), the instance shares the
// cache's resolved functions, and linear memory aliases the image's frozen
// bytes behind a copy-on-write overlay — so N restores from one image
// share every untouched page, and tenant budgets are charged only for the
// pages each child dirties.

// snapPark is one pending snapshot rendezvous.
type snapPark struct {
	parked  chan *interp.Exec // guest sends its Exec when parked
	release chan struct{}     // closed by the snapshotter to resume the guest
}

// snapParkAt runs on the guest goroutine at a safepoint when a quiesce
// request is pending: hand the Exec to the snapshotter and wait for
// release. The park is bracketed as a blocking region so a scheduled
// guest does not pin its run slot while the snapshotter works.
func (p *Process) snapParkAt(e *interp.Exec) {
	p.snapMu.Lock()
	req := p.snapReq
	p.snapMu.Unlock()
	if req == nil {
		return // stale flag: requester gave up before we parked
	}
	p.KP.BeginBlock()
	defer p.KP.EndBlock()
	select {
	case req.parked <- e:
		<-req.release
	case <-req.release:
		// Requester timed out between our load and the send.
	}
}

// SnapshotTimeout bounds how long Snapshot waits for the guest to reach a
// safepoint.
var SnapshotTimeout = 5 * time.Second

// Snapshot checkpoints a running guest. The process keeps running
// afterwards; the image is an independent copy. Only single-threaded
// guests are snapshottable (each sibling thread would need its own
// safepoint rendezvous), and every open descriptor must be nameable by
// path (pipes, sockets and epoll instances are not re-openable).
func (w *WALI) Snapshot(p *Process) (*snap.Image, error) {
	snapStart := time.Now()
	if p.Inst.Mem.Concurrent() {
		return nil, fmt.Errorf("wali: snapshot: multi-threaded guests are not snapshottable")
	}
	req := &snapPark{parked: make(chan *interp.Exec), release: make(chan struct{})}
	p.snapMu.Lock()
	if p.snapReq != nil {
		p.snapMu.Unlock()
		return nil, fmt.Errorf("wali: snapshot: already in progress")
	}
	p.snapReq = req
	p.snapMu.Unlock()
	defer func() {
		p.KP.ClearQuiesce()
		p.snapMu.Lock()
		p.snapReq = nil
		p.snapMu.Unlock()
		close(req.release)
	}()
	p.KP.RequestQuiesce()

	var e *interp.Exec
	select {
	case e = <-req.parked:
	case <-p.done:
		return nil, fmt.Errorf("wali: snapshot: process exited before quiescing")
	case <-time.After(SnapshotTimeout):
		return nil, fmt.Errorf("wali: snapshot: guest did not reach a safepoint in %v", SnapshotTimeout)
	}
	// The guest is parked: its goroutine is blocked on req.release, and
	// the channel handshake ordered its writes before our reads.
	img, err := w.captureImage(p, e)
	if err == nil {
		w.observeSnapOp(obs.EvSnapshot, "wali_snapshot_ns", p.KP.PID, time.Since(snapStart))
	}
	return img, err
}

// captureImage assembles the image while the guest is parked.
func (w *WALI) captureImage(p *Process, e *interp.Exec) (*snap.Image, error) {
	execSt, err := e.CaptureState()
	if err != nil {
		return nil, fmt.Errorf("wali: snapshot: %w", err)
	}
	kimg, err := p.KP.SnapshotKernelState()
	if err != nil {
		return nil, fmt.Errorf("wali: %w", err)
	}
	mimg, err := p.Pool.exportImage()
	if err != nil {
		return nil, fmt.Errorf("wali: snapshot: %w", err)
	}
	mem := p.Inst.Mem
	img := &snap.Image{
		Module:  wasm.Encode(p.Module),
		Hash:    p.compiled.Hash(),
		Mem:     snap.MemImage{Data: mem.SnapshotBytes(), MaxLen: mem.MaxLen, Shared: mem.Shared},
		Exec:    *execSt,
		Globals: append([]uint64(nil), p.Inst.Globals...),
		Table:   append([]int32(nil), p.Inst.Table...),
		Kernel:  *kimg,
		Mmap:    mimg,
		Sig:     p.Sig.exportImage(),
	}
	for _, m := range w.Kernel.FS.Mounts() {
		ofs, ok := m.Backend.(*vfs.OverlayFS)
		if !ok {
			continue
		}
		d, err := ofs.Delta()
		if err != nil {
			return nil, fmt.Errorf("wali: snapshot: overlay %s: %w", m.Path, err)
		}
		d.Mount = m.Path
		img.Overlays = append(img.Overlays, *d)
	}
	// Seed the restore cache: same-engine restores skip decode+compile+
	// instantiate entirely (the live instance's resolved functions are
	// immutable and shareable).
	w.seedSnapModule(img.Hash, p.compiled, p.Inst)
	return img, nil
}

// snapModule is the per-content-hash restore material.
type snapModule struct {
	c     *interp.Compiled
	proto *interp.Instance
}

func (w *WALI) seedSnapModule(hash [32]byte, c *interp.Compiled, proto *interp.Instance) {
	w.snapModMu.Lock()
	if w.snapMods == nil {
		w.snapMods = make(map[[32]byte]*snapModule)
	}
	if _, ok := w.snapMods[hash]; !ok {
		w.snapMods[hash] = &snapModule{c: c, proto: proto}
	}
	w.snapModMu.Unlock()
}

// snapModuleFor resolves an image's module against the hash cache,
// decoding and compiling only on the first restore of that module.
func (w *WALI) snapModuleFor(img *snap.Image) (*snapModule, error) {
	w.snapModMu.Lock()
	ent, ok := w.snapMods[img.Hash]
	w.snapModMu.Unlock()
	if ok {
		return ent, nil
	}
	m, err := wasm.Decode(img.Module)
	if err != nil {
		return nil, fmt.Errorf("wali: restore: decode module: %w", err)
	}
	if err := wasm.Validate(m); err != nil {
		return nil, fmt.Errorf("wali: restore: validate module: %w", err)
	}
	c, err := interp.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("wali: restore: %w", err)
	}
	if c.Hash() != img.Hash {
		return nil, fmt.Errorf("wali: restore: module bytes do not match image hash")
	}
	proto, err := c.Instantiate(w.linker())
	if err != nil {
		return nil, fmt.Errorf("wali: restore: %w", err)
	}
	ent = &snapModule{c: c, proto: proto}
	w.seedSnapModule(img.Hash, c, proto)
	return ent, nil
}

// Restore builds a runnable process from an image. The returned process
// has not started; call ResumeAsync (or Resume on the caller's goroutine)
// to continue it from the captured safepoint. tenant nil = unbudgeted;
// with a tenant, the linear memory charge starts at the dirtied-page
// count (zero) and grows page by page as the child diverges from the
// shared image.
func (w *WALI) Restore(img *snap.Image, tenant *sched.Tenant) (*Process, error) {
	restoreStart := time.Now()
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("wali: restore: %w", err)
	}
	ent, err := w.snapModuleFor(img)
	if err != nil {
		return nil, err
	}
	// Overlay deltas first, so re-opened descriptors and file-backed
	// mappings resolve upper-layer paths. Replay is idempotent: restoring
	// on the engine that took the snapshot re-applies what the live
	// overlay already holds.
	for i := range img.Overlays {
		ov := &img.Overlays[i]
		if err := w.applyOverlayDelta(ov); err != nil {
			return nil, err
		}
	}
	kp, err := w.Kernel.RestoreProcess(&img.Kernel)
	if err != nil {
		return nil, err
	}

	var charge *memCharge
	var reserve func(int64) bool
	if tenant != nil {
		charge = newMemCharge(tenant, 0)
		reserve = charge.reserve
	}
	mem := interp.NewCowMemory(img.Mem.Data, img.Mem.MaxLen, reserve)
	w.installCowObserver(mem, kp.PID)
	inst := ent.proto.Rehydrate(mem, img.Globals, img.Table)

	p := &Process{
		W:        w,
		KP:       kp,
		Inst:     inst,
		Module:   ent.c.Module,
		compiled: ent.c,
		argv:     append([]string(nil), img.Kernel.Argv...),
		env:      append([]string(nil), img.Kernel.Envp...),
		Sig:      restoreSigtable(&img.Sig),
		Tenant:   tenant,
		charge:   charge,
		done:     make(chan struct{}),
	}
	pool, err := restoreMmapPool(mem, &img.Mmap, w.Kernel)
	if err != nil {
		kp.Exit(127)
		return nil, err
	}
	p.Pool = pool
	p.Exec = interp.NewExec(inst)
	p.Exec.Scheme = w.Scheme
	p.Exec.Tier = w.Tier
	p.Exec.HostCtx = p
	p.Exec.Poll = p.pollSignals
	inst.HostCtx = p
	if err := p.Exec.RestoreState(&img.Exec); err != nil {
		kp.Exit(127)
		return nil, fmt.Errorf("wali: restore: %w", err)
	}
	if tenant != nil {
		kp.FDs.SetReserver(tenant)
		tenant.ForceFDs(kp.FDs.Count())
	}
	p.attachTask()

	w.mu.Lock()
	w.procs[kp.PID] = p
	w.mu.Unlock()
	w.observeSnapOp(obs.EvRestore, "wali_restore_ns", kp.PID, time.Since(restoreStart))
	return p, nil
}

// applyOverlayDelta replays one captured overlay upper layer into the
// matching mount of this engine's filesystem.
func (w *WALI) applyOverlayDelta(ov *snap.OverlayImage) error {
	for _, m := range w.Kernel.FS.Mounts() {
		if m.Path != ov.Mount {
			continue
		}
		ofs, ok := m.Backend.(*vfs.OverlayFS)
		if !ok {
			return fmt.Errorf("wali: restore: mount %s is not an overlay", ov.Mount)
		}
		return ofs.ApplyDelta(ov)
	}
	return fmt.Errorf("wali: restore: no mount at %s for captured overlay delta", ov.Mount)
}

// ResumeAsync continues a restored process from its captured safepoint on
// its own goroutine (the restore-side mirror of RunAsync).
func (p *Process) ResumeAsync() {
	p.W.wg.Add(1)
	go func() {
		defer p.W.wg.Done()
		p.resumeForked()
	}()
}

// Resume continues a restored process on the calling goroutine and
// returns its exit status (benchmarks and the CLI use this directly).
func (p *Process) Resume() (int32, error) {
	p.resumeForked()
	return p.Wait()
}

// exportImage captures the mmap pool bookkeeping. File-backed regions
// must be nameable by path; anonymous regions carry no payload here (the
// bytes live in the memory image).
func (p *MmapPool) exportImage() (snap.MmapImage, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	img := snap.MmapImage{Base: p.base, Brk: p.brk, BumpTop: p.bumpTop}
	if p.Bump {
		img.Bump = 1
	}
	for _, r := range p.regions {
		ri := snap.RegionImage{Addr: r.Addr, Len: r.Len, Prot: r.Prot, Flags: r.Flags, Offset: r.Offset}
		if r.File != nil {
			pf, ok := r.File.(interface{ Path() string })
			if !ok {
				return snap.MmapImage{}, fmt.Errorf("mmap region %#x: file mapping is not snapshottable", r.Addr)
			}
			ri.Path = pf.Path()
			ri.FileFlags = r.File.Flags()
		}
		img.Regions = append(img.Regions, ri)
	}
	return img, nil
}

// restoreMmapPool rebuilds pool bookkeeping over a restored memory,
// re-attaching file-backed mappings by path.
func restoreMmapPool(mem *interp.Memory, img *snap.MmapImage, k *kernel.Kernel) (*MmapPool, error) {
	p := &MmapPool{mem: mem, base: img.Base, brk: img.Brk, bumpTop: img.BumpTop, Bump: img.Bump != 0}
	for _, ri := range img.Regions {
		r := &Region{Addr: ri.Addr, Len: ri.Len, Prot: ri.Prot, Flags: ri.Flags, Offset: ri.Offset}
		if ri.Path != "" {
			f, errno := k.OpenFileByPath(ri.Path, ri.FileFlags)
			if errno != 0 {
				return nil, fmt.Errorf("wali: restore: mmap region %#x: %q: errno %d", ri.Addr, ri.Path, errno)
			}
			r.File = f
		}
		p.regions = append(p.regions, r)
	}
	return p, nil
}

// exportImage captures the virtual sigtable.
func (t *Sigtable) exportImage() snap.SigtableImage {
	t.mu.Lock()
	defer t.mu.Unlock()
	img := snap.SigtableImage{Entries: make([]snap.SigEntryImage, len(t.entries))}
	for i, e := range t.entries {
		img.Entries[i] = snap.SigEntryImage{TableIdx: e.tableIdx, FuncIdx: e.funcIdx, Flags: e.flags, Mask: e.mask}
	}
	return img
}

// restoreSigtable rebuilds the virtual sigtable. Function indices are
// module-relative and the restored instance runs the same module, so they
// transfer directly.
func restoreSigtable(img *snap.SigtableImage) *Sigtable {
	t := NewSigtable()
	for i, e := range img.Entries {
		if i >= len(t.entries) {
			break
		}
		t.entries[i] = sigEntry{tableIdx: e.TableIdx, funcIdx: e.FuncIdx, flags: e.Flags, mask: e.Mask}
	}
	return t
}
