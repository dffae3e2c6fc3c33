package kernel

import (
	"fmt"

	"gowali/internal/kernel/snap"
	"gowali/internal/linux"
)

// Kernel-state capture and restore for snapshot images. The guest must be
// quiesced (parked at a safepoint or exited from a blocking syscall with
// EINTR) before capture, so no syscall is mid-flight mutating the tables
// read here.
//
// Descriptors are captured by path + offset and re-opened through the VFS
// on restore — the CRIU strategy for disk-backed fds. Descriptors whose
// identity is not nameable (pipes, sockets, epoll instances, eventfds)
// make the process non-snapshottable and fail the capture with a
// descriptive error rather than silently restoring a broken table.

// SnapshotKernelState captures the kernel-visible process state into img.
func (p *Process) SnapshotKernelState() (*snap.KernelImage, error) {
	img := &snap.KernelImage{
		Comm: p.Comm(),
		Argv: p.Argv(),
		Envp: p.Envp(),
		Cwd:  p.Cwd(),
	}
	p.fs.mu.Lock()
	img.Umask = p.fs.umask
	p.fs.mu.Unlock()

	p.mu.Lock()
	img.SigMask = p.sigMask
	img.ClearTID = p.clearTIDAddr
	for res, lim := range p.limits {
		img.Limits = append(img.Limits, snap.LimitImage{Resource: res, Cur: lim[0], Max: lim[1]})
	}
	p.mu.Unlock()

	p.sig.mu.Lock()
	img.Actions = append([]linux.Sigaction(nil), p.sig.actions[:]...)
	p.sig.mu.Unlock()

	t := p.FDs
	t.mu.Lock()
	defer t.mu.Unlock()
	for fd, e := range t.slots {
		if e.file == nil {
			continue
		}
		fi := snap.FDImage{FD: int32(fd), Cloexec: e.cloexec}
		switch f := e.file.(type) {
		case *regFile:
			fi.Kind = snap.FDRegular
			fi.Path = f.path
			fi.Flags = f.Flags() &^ linux.O_TRUNC // re-open must not re-truncate
			f.posMu.Lock()
			fi.Pos = f.pos
			f.posMu.Unlock()
		case *devFile:
			fi.Kind = snap.FDDevice
			fi.Path = f.path
			fi.Flags = f.Flags()
		default:
			return nil, fmt.Errorf("snapshot: fd %d (%T) is not snapshottable", fd, e.file)
		}
		img.FDs = append(img.FDs, fi)
	}
	return img, nil
}

// RestoreProcess builds a fresh process from a captured kernel image: a
// new PID and thread group, with the image's descriptor table, cwd,
// umask, signal dispositions and rlimits re-applied. Descriptors are
// re-opened by path through the kernel's current VFS (the caller mounts
// overlay deltas first, so upper-layer files resolve).
func (k *Kernel) RestoreProcess(img *snap.KernelImage) (*Process, error) {
	p := k.NewProcess(img.Comm, img.Argv, img.Envp)

	// Replace the default console stdio with the image's table.
	p.FDs.CloseAll()
	for _, fi := range img.FDs {
		f, err := k.reopenFD(fi)
		if err != nil {
			p.Exit(127)
			return nil, err
		}
		if errno := p.FDs.Set(fi.FD, f, fi.Cloexec); errno != 0 {
			p.Exit(127)
			return nil, fmt.Errorf("restore: install fd %d: errno %d", fi.FD, errno)
		}
	}

	p.fs.mu.Lock()
	p.fs.cwd = img.Cwd
	p.fs.umask = img.Umask
	p.fs.mu.Unlock()

	p.mu.Lock()
	p.sigMask = img.SigMask
	p.clearTIDAddr = img.ClearTID
	for _, l := range img.Limits {
		p.limits[l.Resource] = [2]uint64{l.Cur, l.Max}
	}
	p.mu.Unlock()

	p.sig.mu.Lock()
	copy(p.sig.actions[:], img.Actions)
	p.sig.refreshIgnored()
	p.sig.mu.Unlock()
	return p, nil
}

// reopenFD materializes one captured descriptor against the current VFS.
func (k *Kernel) reopenFD(fi snap.FDImage) (File, error) {
	r, errno := k.FS.Walk("/", fi.Path, true)
	if errno != 0 || r.Node == nil {
		return nil, fmt.Errorf("restore: fd %d: %q: errno %d", fi.FD, fi.Path, errno)
	}
	switch fi.Kind {
	case snap.FDRegular:
		f := newRegFile(r.Node, fi.Path, fi.Flags)
		f.posMu.Lock()
		f.pos = fi.Pos
		f.posMu.Unlock()
		return f, nil
	case snap.FDDevice:
		if r.Node.Device() == nil {
			return nil, fmt.Errorf("restore: fd %d: %q: not a device", fi.FD, fi.Path)
		}
		return newDevFile(r.Node, fi.Path, fi.Flags), nil
	}
	return nil, fmt.Errorf("restore: fd %d: unknown kind %d", fi.FD, fi.Kind)
}

// OpenFileByPath opens a VFS-backed file handle outside any descriptor
// table. The mmap restore path uses it to re-attach file-backed mappings
// recorded by path in the image.
func (k *Kernel) OpenFileByPath(path string, flags int32) (File, linux.Errno) {
	r, errno := k.FS.Walk("/", path, true)
	if errno != 0 || r.Node == nil {
		return nil, linux.ENOENT
	}
	return newRegFile(r.Node, path, flags), 0
}
