// Package vfs implements the filesystem layer of the simulated Linux
// kernel: POSIX path resolution with symlink following over a mount
// table of pluggable backends (Backend), a sharded dentry cache, pipe
// buffers, and the inode objects every backend's files appear as. The
// default root filesystem is an in-memory tree (MemFS); HostFS maps a
// host directory into the guest and OverlayFS stacks copy-up writes
// over a read-only lower layer.
//
// The package is deliberately free of file-descriptor and process concepts;
// those live in internal/kernel, mirroring the real kernel's VFS/task split.
package vfs

import (
	"sort"
	"sync"
	"sync/atomic"

	"gowali/internal/linux"
)

// DeviceOps backs a character device inode (tty, null, zero, random...).
// Implementations live in internal/kernel.
type DeviceOps interface {
	Read(b []byte, nonblock bool) (int, linux.Errno)
	Write(b []byte) (int, linux.Errno)
	// Poll returns the current readiness (POLLIN/POLLOUT bits).
	Poll() int16
	// Ioctl handles device control; return ENOTTY when unsupported.
	Ioctl(cmd uint32, arg []byte) (int32, linux.Errno)
}

// Inode is one filesystem object. The type is carried in Mode's S_IFMT
// bits. Field access beyond immutable identity goes through methods that
// take the inode's read-write lock (readers share it), so concurrent
// WALI processes share the tree without a filesystem-wide lock; the FS
// namespace operations in fs.go hold parent locks across mutations.
//
// An inode belongs to exactly one filesystem: a MemFS tree (fsys set;
// data and children live right here) or a proxy mount (mnt set; data
// and namespace operations delegate to the mount's backend at the
// mount-relative path brel). Proxy inodes are the stable in-kernel
// identity of a backend path — open files, the dentry cache and the
// execve module cache all hold them.
type Inode struct {
	Ino uint64

	// typ is the immutable S_IFMT type, fixed at creation (SetMode
	// preserves it); lock-free readers (dtype, the proxy node table)
	// use it instead of racing mode.
	typ uint32

	fsys *MemFS // owning in-memory tree (native inodes)
	mnt  *Mount // owning mount (proxy inodes)

	// mounted points to the mount covering this directory, if any; the
	// walk crosses through it hand over hand.
	mounted atomic.Pointer[Mount]

	mu       sync.RWMutex
	brel     string // proxy: mount-relative path ("" = mount root)
	mode     uint32
	uid, gid uint32
	nlink    uint32
	atime    linux.Timespec
	mtime    linux.Timespec
	ctime    linux.Timespec

	data     []byte            // S_IFREG
	children map[string]*Inode // S_IFDIR
	parent   *Inode            // S_IFDIR: ".."
	target   string            // S_IFLNK
	pipe     *Pipe             // S_IFIFO
	dev      DeviceOps         // S_IFCHR

	// gen, if set, synthesizes read-only content on each open (procfs).
	gen func() []byte
}

// isProxy reports whether the inode delegates to a mount backend.
func (n *Inode) isProxy() bool { return n.mnt != nil }

// mount returns the mount this inode currently belongs to (nil for a
// standalone, unmounted MemFS tree).
func (n *Inode) mount() *Mount {
	if n.mnt != nil {
		return n.mnt
	}
	if n.fsys != nil {
		return n.fsys.mnt.Load()
	}
	return nil
}

// mountedOn returns the live mount covering this directory, if any.
func (n *Inode) mountedOn() *Mount {
	m := n.mounted.Load()
	if m == nil || m.dead.Load() {
		return nil
	}
	return m
}

// rel returns a proxy inode's current mount-relative path (renames
// re-key it, hence the lock).
func (n *Inode) rel() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.brel
}

// ReadOnly reports whether the inode sits on a read-only mount (writes
// must fail with EROFS).
func (n *Inode) ReadOnly() bool {
	m := n.mount()
	return m != nil && m.readonly
}

// StableIno reports whether this inode's identity is stable across
// lookups of its path, i.e. whether per-inode caches (the execve
// module cache) remain valid between walks.
func (n *Inode) StableIno() bool {
	m := n.mount()
	if m == nil || m.backend == nil {
		return true
	}
	return m.backend.Caps().StableInos
}

// Mode returns the mode bits including the file type.
func (n *Inode) Mode() uint32 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.mode
}

// IsDir reports whether the inode is a directory.
func (n *Inode) IsDir() bool { return n.Mode()&linux.S_IFMT == linux.S_IFDIR }

// IsSymlink reports whether the inode is a symbolic link.
func (n *Inode) IsSymlink() bool { return n.Mode()&linux.S_IFMT == linux.S_IFLNK }

// Type returns the S_IFMT bits.
func (n *Inode) Type() uint32 { return n.Mode() & linux.S_IFMT }

// SetMode updates permission bits, preserving the type. On proxy
// inodes the change is local to the in-kernel object; passthrough
// backends keep reporting the backing file's own permissions via Stat.
func (n *Inode) SetMode(perm uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mode = n.mode&linux.S_IFMT | perm&^uint32(linux.S_IFMT)
}

// SetOwner updates uid/gid. An argument of ^uint32(0) leaves the field
// unchanged, matching chown(2).
func (n *Inode) SetOwner(uid, gid uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if uid != ^uint32(0) {
		n.uid = uid
	}
	if gid != ^uint32(0) {
		n.gid = gid
	}
}

// SetTimes updates atime/mtime; nil leaves a field unchanged.
func (n *Inode) SetTimes(atime, mtime *linux.Timespec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if atime != nil {
		n.atime = *atime
	}
	if mtime != nil {
		n.mtime = *mtime
	}
}

// Parent returns a directory's ".." link (nil for non-directories; the
// root is its own parent).
func (n *Inode) Parent() *Inode {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.parent
}

// Target returns the symlink target.
func (n *Inode) Target() string {
	if n.isProxy() {
		if sb, ok := n.mnt.backend.(SymlinkBackend); ok {
			t, _ := sb.Readlink(n.rel())
			return t
		}
		return ""
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.target
}

// Pipe returns the FIFO buffer, creating it lazily.
func (n *Inode) Pipe() *Pipe {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pipe == nil {
		n.pipe = NewPipe()
	}
	return n.pipe
}

// Device returns the DeviceOps of a character device inode, or nil.
func (n *Inode) Device() DeviceOps {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.dev
}

// Gen returns synthesized content for procfs-style inodes, or nil.
func (n *Inode) Gen() func() []byte {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.gen
}

// Size returns the current content size.
func (n *Inode) Size() int64 {
	if n.isProxy() {
		info, errno := n.mnt.backend.Stat(n.rel())
		if errno != 0 {
			return 0
		}
		return info.Size
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.gen != nil {
		return int64(len(n.gen()))
	}
	return int64(len(n.data))
}

// Stat fills a kernel-native stat for the inode. Proxy inodes report
// the backend's live metadata under the VFS-assigned (dev, ino)
// identity.
func (n *Inode) Stat() linux.Stat {
	if n.isProxy() {
		m := n.mnt
		st := linux.Stat{Dev: m.ID, Ino: n.Ino, Blksize: 4096}
		info, errno := m.backend.Stat(n.rel())
		if errno != 0 {
			st.Mode = n.Mode() // deleted under us: last-known type
			return st
		}
		st.Mode = info.Mode
		st.Nlink = info.Nlink
		if st.Nlink == 0 {
			st.Nlink = 1
		}
		st.Size = info.Size
		st.Blocks = (info.Size + 511) / 512
		st.Atime, st.Mtime, st.Ctime = info.Atime, info.Mtime, info.Ctime
		return st
	}
	dev := uint64(1)
	if m := n.mount(); m != nil {
		dev = m.ID
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	size := int64(len(n.data))
	if n.gen != nil {
		size = int64(len(n.gen()))
	}
	if n.mode&linux.S_IFMT == linux.S_IFDIR {
		size = int64(len(n.children)) * 32
	}
	return linux.Stat{
		Dev:     dev,
		Ino:     n.Ino,
		Mode:    n.mode,
		Nlink:   n.nlink,
		UID:     n.uid,
		GID:     n.gid,
		Size:    size,
		Blksize: 4096,
		Blocks:  (size + 511) / 512,
		Atime:   n.atime,
		Mtime:   n.mtime,
		Ctime:   n.ctime,
	}
}

// ReadAt copies file content at off into b, returning bytes copied (0 at
// EOF). Only regular files reach here.
func (n *Inode) ReadAt(b []byte, off int64) (int, linux.Errno) {
	if off < 0 {
		return 0, linux.EINVAL
	}
	if n.isProxy() {
		return n.mnt.backend.ReadAt(n.rel(), b, off)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	src := n.data
	if n.gen != nil {
		src = n.gen()
	}
	if off >= int64(len(src)) {
		return 0, 0
	}
	return copy(b, src[off:]), 0
}

// WriteAt writes b at off, growing the file (sparse gaps are zero-filled).
func (n *Inode) WriteAt(b []byte, off int64) (int, linux.Errno) {
	if off < 0 {
		return 0, linux.EINVAL
	}
	if n.ReadOnly() {
		return 0, linux.EROFS
	}
	if n.isProxy() {
		return n.mnt.backend.WriteAt(n.rel(), b, off)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.gen != nil {
		return 0, linux.EACCES
	}
	if end := off + int64(len(b)); end > int64(len(n.data)) {
		n.resize(end)
	}
	copy(n.data[off:], b)
	n.mtime = n.ctime
	return len(b), 0
}

// Truncate resizes the file.
func (n *Inode) Truncate(size int64) linux.Errno {
	if size < 0 {
		return linux.EINVAL
	}
	if n.ReadOnly() {
		return linux.EROFS
	}
	if n.isProxy() {
		return n.mnt.backend.Truncate(n.rel(), size)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.gen != nil {
		return linux.EACCES
	}
	n.resize(size)
	return 0
}

// resize sets the content length to size. Growth past the capacity at
// least doubles it, so a run of appends copies each byte O(1) times
// instead of once per append. Bytes between the old and new length read
// as zero, including capacity a shrinking truncate left behind. Caller
// holds n.mu in write mode.
func (n *Inode) resize(size int64) {
	old := int64(len(n.data))
	switch {
	case size <= old:
		n.data = n.data[:size]
	case size <= int64(cap(n.data)):
		n.data = n.data[:size]
		clear(n.data[old:])
	default:
		grown := make([]byte, size, max(size, 2*int64(cap(n.data))))
		copy(grown, n.data)
		n.data = grown
	}
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint64
	Type byte // DT_*
}

// List returns the directory contents sorted by name (excluding . and ..).
func (n *Inode) List() []DirEntry {
	if n.isProxy() {
		return n.mnt.listProxy(n)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]DirEntry, 0, len(n.children))
	for name, c := range n.children {
		out = append(out, DirEntry{Name: name, Ino: c.Ino, Type: dtype(c.typ)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func dtype(mode uint32) byte {
	switch mode & linux.S_IFMT {
	case linux.S_IFDIR:
		return linux.DT_DIR
	case linux.S_IFREG:
		return linux.DT_REG
	case linux.S_IFLNK:
		return linux.DT_LNK
	case linux.S_IFCHR:
		return linux.DT_CHR
	case linux.S_IFIFO:
		return linux.DT_FIFO
	case linux.S_IFSOCK:
		return linux.DT_SOCK
	}
	return linux.DT_UNKNOWN
}

// childCount returns the number of entries in a directory.
func (n *Inode) childCount() int {
	if n.isProxy() {
		return len(n.List())
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.children)
}
