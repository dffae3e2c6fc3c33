package vfs

import (
	"testing"
	"testing/quick"
	"time"

	"gowali/internal/linux"
)

func newFS() *FS {
	return New(func() linux.Timespec { return linux.Timespec{Sec: 1} })
}

func TestWalkAbsoluteAndRelative(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b/c", 0o755)
	r, errno := fs.Walk("/", "/a/b/c", true)
	if errno != 0 || r.Node == nil || !r.Node.IsDir() {
		t.Fatalf("walk abs: %v", errno)
	}
	r, errno = fs.Walk("/a", "b/c", true)
	if errno != 0 || r.Node == nil {
		t.Fatalf("walk rel: %v", errno)
	}
	r, errno = fs.Walk("/a/b", "../b/c", true)
	if errno != 0 || r.Node == nil {
		t.Fatalf("walk dotdot: %v", errno)
	}
	// Missing final component: Node nil, Parent set.
	r, errno = fs.Walk("/", "/a/b/nope", true)
	if errno != 0 || r.Node != nil || r.Parent == nil || r.Name != "nope" {
		t.Fatalf("missing final: %+v %v", r, errno)
	}
	// Missing intermediate: ENOENT.
	if _, errno := fs.Walk("/", "/zzz/c", true); errno != linux.ENOENT {
		t.Fatalf("missing intermediate: %v", errno)
	}
	// Through a file: ENOTDIR.
	fs.Create("/", "/a/file", linux.S_IFREG|0o644, 0, 0, true)
	if _, errno := fs.Walk("/", "/a/file/x", true); errno != linux.ENOTDIR {
		t.Fatalf("through file: %v", errno)
	}
}

func TestRootAndDotDotAboveRoot(t *testing.T) {
	fs := newFS()
	r, errno := fs.Walk("/", "/", true)
	if errno != 0 || r.Node != fs.Root {
		t.Fatalf("walk /: %v", errno)
	}
	// ".." above root stays at root.
	r, errno = fs.Walk("/", "/../../..", true)
	if errno != 0 || r.Node != fs.Root {
		t.Fatalf("above root: %v node=%v", errno, r.Node)
	}
}

func TestInodeDataOps(t *testing.T) {
	fs := newFS()
	n, errno := fs.Create("/", "/f", linux.S_IFREG|0o644, 0, 0, true)
	if errno != 0 {
		t.Fatal(errno)
	}
	// Sparse write.
	if _, errno := n.WriteAt([]byte("end"), 100); errno != 0 {
		t.Fatal(errno)
	}
	if n.Size() != 103 {
		t.Fatalf("size %d", n.Size())
	}
	buf := make([]byte, 10)
	cnt, _ := n.ReadAt(buf, 0)
	for i := 0; i < cnt; i++ {
		if buf[i] != 0 {
			t.Fatal("sparse gap not zero")
		}
	}
	cnt, _ = n.ReadAt(buf, 100)
	if string(buf[:cnt]) != "end" {
		t.Fatalf("read %q", buf[:cnt])
	}
	// EOF.
	if cnt, errno := n.ReadAt(buf, 1000); cnt != 0 || errno != 0 {
		t.Fatalf("eof: %d %v", cnt, errno)
	}
	// Truncate shrink + grow.
	n.Truncate(2)
	if n.Size() != 2 {
		t.Fatal("shrink failed")
	}
	n.Truncate(50)
	cnt, _ = n.ReadAt(buf, 40)
	if cnt != 10 || buf[0] != 0 {
		t.Fatal("grow not zero-filled")
	}
}

// TestInodeGrowthZeroFillsGaps: file growth reuses spare capacity, so
// bytes a shrinking truncate left behind must never reappear when the
// file grows again, by a write past EOF or a truncate-extend.
func TestInodeGrowthZeroFillsGaps(t *testing.T) {
	fs := newFS()
	// filled returns a fresh file holding n 0xff bytes.
	filled := func(name string, n int) *Inode {
		t.Helper()
		f, errno := fs.Create("/", name, linux.S_IFREG|0o644, 0, 0, true)
		if errno != 0 {
			t.Fatal(errno)
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = 0xff
		}
		f.WriteAt(b, 0)
		return f
	}
	wantZeros := func(what string, f *Inode, from, to int64) {
		t.Helper()
		buf := make([]byte, to-from)
		if cnt, _ := f.ReadAt(buf, from); int64(cnt) != to-from {
			t.Fatalf("%s: read %d of %d bytes", what, cnt, to-from)
		}
		for i, c := range buf {
			if c != 0 {
				t.Fatalf("%s: byte %d is %#x, want 0", what, from+int64(i), c)
			}
		}
	}

	f := filled("/shrink-write", 4096)
	f.Truncate(10)
	f.WriteAt([]byte("x"), 2000)
	wantZeros("truncate-shrink then write past EOF", f, 10, 2000)

	f = filled("/sparse", 3000)
	f.WriteAt([]byte("y"), 5000)
	wantZeros("sparse write past EOF", f, 3000, 5000)

	f = filled("/shrink-extend", 4096)
	f.Truncate(100)
	f.Truncate(4096)
	wantZeros("truncate-extend after shrink", f, 100, 4096)
	if f.Size() != 4096 {
		t.Fatalf("size %d after truncate-extend", f.Size())
	}
}

// TestInodeAppendAllocs: a run of appends grows the file geometrically,
// so 1000 sequential 4 KiB appends allocate O(log n) times rather than
// once per append.
func TestInodeAppendAllocs(t *testing.T) {
	chunk := make([]byte, 4096)
	allocs := testing.AllocsPerRun(5, func() {
		n := &Inode{typ: linux.S_IFREG}
		for i := int64(0); i < 1000; i++ {
			n.WriteAt(chunk, i*int64(len(chunk)))
		}
	})
	// log2(1000) = 10 doublings, plus the inode itself.
	if allocs > 16 {
		t.Fatalf("1000 appends allocated %.0f times, want O(log n)", allocs)
	}
}

func TestDirEntriesSorted(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/d", 0o755)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		fs.Create("/", "/d/"+name, linux.S_IFREG|0o644, 0, 0, true)
	}
	r, _ := fs.Walk("/", "/d", true)
	ents := r.Node.List()
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[2].Name != "zeta" {
		t.Fatalf("entries: %+v", ents)
	}
	if ents[0].Type != linux.DT_REG {
		t.Fatalf("dtype %d", ents[0].Type)
	}
}

func TestPipeEOFAndEPIPE(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	if n, errno := p.Write([]byte("xy"), false); n != 2 || errno != 0 {
		t.Fatalf("write: %d %v", n, errno)
	}
	buf := make([]byte, 8)
	if n, _ := p.Read(buf, false); n != 2 {
		t.Fatalf("read %d", n)
	}
	p.CloseWriter()
	if n, errno := p.Read(buf, false); n != 0 || errno != 0 {
		t.Fatalf("eof: %d %v", n, errno)
	}
	p2 := NewPipe()
	p2.AddWriter()
	if _, errno := p2.Write([]byte("x"), false); errno != linux.EPIPE {
		t.Fatalf("no-reader write: %v", errno)
	}
}

func TestPipeBlockingHandoff(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	done := make(chan int, 1)
	go func() {
		buf := make([]byte, 4)
		n, _ := p.Read(buf, false)
		done <- n
	}()
	time.Sleep(time.Millisecond)
	p.Write([]byte("go"), false)
	if n := <-done; n != 2 {
		t.Fatalf("handoff read %d", n)
	}
}

func TestPipePollStates(t *testing.T) {
	p := NewPipe()
	p.AddReader()
	p.AddWriter()
	if ev := p.Poll(true); ev&linux.POLLIN != 0 {
		t.Error("empty pipe readable")
	}
	if ev := p.Poll(false); ev&linux.POLLOUT == 0 {
		t.Error("fresh pipe not writable")
	}
	p.Write([]byte("z"), false)
	if ev := p.Poll(true); ev&linux.POLLIN == 0 {
		t.Error("non-empty pipe not readable")
	}
	p.CloseWriter()
	if ev := p.Poll(true); ev&linux.POLLHUP == 0 {
		t.Error("writer-closed pipe missing POLLHUP")
	}
}

// TestWalkNeverPanicsProperty: arbitrary path strings must resolve or
// fail with an errno, never panic.
func TestWalkNeverPanicsProperty(t *testing.T) {
	fs := newFS()
	fs.MkdirAll("/a/b", 0o755)
	fs.Symlink("/", "/a/loop", "/a/ln", 0, 0)
	f := func(segs []uint8) bool {
		parts := []string{"a", "b", "..", ".", "ln", "x", "/", ""}
		path := ""
		for _, s := range segs {
			path += "/" + parts[int(s)%len(parts)]
		}
		fs.Walk("/", path, true)
		fs.Walk("/a", path, false)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHardLinkNlinkAccounting(t *testing.T) {
	fs := newFS()
	fs.Create("/", "/orig", linux.S_IFREG|0o644, 0, 0, true)
	fs.Link("/", "/orig", "/copy")
	r, _ := fs.Walk("/", "/copy", true)
	if r.Node.Stat().Nlink != 2 {
		t.Fatalf("nlink %d", r.Node.Stat().Nlink)
	}
	fs.Unlink("/", "/orig", false)
	r2, errno := fs.Walk("/", "/copy", true)
	if errno != 0 || r2.Node == nil {
		t.Fatal("hard link lost after unlinking original")
	}
	if r2.Node.Stat().Nlink != 1 {
		t.Fatalf("nlink after unlink %d", r2.Node.Stat().Nlink)
	}
}
