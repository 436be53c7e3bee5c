package vsys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newOS() *OS { return New(1234, 42) }

func TestFDReuseHazard(t *testing.T) {
	// The paper's open(1)/close(1)/open(2) example: with immediate close,
	// the second open reuses the first descriptor — which is why close must
	// be deferred for identical in-situ replay.
	o := newOS()
	fd1, err := o.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(fd1); err != nil {
		t.Fatal(err)
	}
	fd2, err := o.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if fd1 != fd2 {
		t.Fatalf("lowest-free allocation expected reuse: fd1=%d fd2=%d", fd1, fd2)
	}
	// With close deferred (not issued), the second open gets a fresh fd.
	o2 := newOS()
	fd1, _ = o2.Open("a")
	fd2, _ = o2.Open("b")
	if fd1 == fd2 {
		t.Fatal("without close, descriptors must differ")
	}
}

func TestFileReadWriteAndPositions(t *testing.T) {
	o := newOS()
	o.AddFile("data", []byte("hello world"))
	fd, err := o.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Read(fd, 5)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read = %q, %v", b, err)
	}
	pos := o.CheckpointState(false).FDs
	if len(pos) != 1 || pos[0].FD != fd || pos[0].Pos != 5 {
		t.Fatalf("positions = %+v", pos)
	}
	// Read to EOF.
	b, _ = o.Read(fd, 100)
	if string(b) != " world" {
		t.Fatalf("read2 = %q", b)
	}
	if b, _ := o.Read(fd, 10); b != nil {
		t.Fatalf("read at EOF = %q", b)
	}
	// Restore positions and re-read: identical data (revocable replay).
	o.RestorePositions(pos)
	b, _ = o.Read(fd, 6)
	if string(b) != " world" {
		t.Fatalf("re-read = %q", b)
	}
}

func TestWriteExtendsFile(t *testing.T) {
	o := newOS()
	fd, _ := o.Open("new")
	n, err := o.Write(fd, []byte("abc"))
	if n != 3 || err != nil {
		t.Fatalf("write = %d, %v", n, err)
	}
	o.Write(fd, []byte("def"))
	data, ok := o.FileData("new")
	if !ok || !bytes.Equal(data, []byte("abcdef")) {
		t.Fatalf("file = %q", data)
	}
	// Re-issuing the same writes after position restore is idempotent — the
	// property revocable classification depends on.
	o.RestorePositions([]FDState{{FD: fd, Path: "new"}})
	o.Write(fd, []byte("abc"))
	o.Write(fd, []byte("def"))
	data, _ = o.FileData("new")
	if !bytes.Equal(data, []byte("abcdef")) {
		t.Fatalf("after replayed writes: %q", data)
	}
}

func TestLseek(t *testing.T) {
	o := newOS()
	o.AddFile("f", []byte("0123456789"))
	fd, _ := o.Open("f")
	p, err := o.Lseek(fd, 4, SeekSet)
	if err != nil || p != 4 {
		t.Fatalf("seek = %d, %v", p, err)
	}
	b, _ := o.Read(fd, 2)
	if string(b) != "45" {
		t.Fatalf("read = %q", b)
	}
	if p, _ := o.Lseek(fd, -2, SeekEnd); p != 8 {
		t.Fatalf("seek end = %d", p)
	}
	if _, err := o.Lseek(fd, -100, SeekSet); err == nil {
		t.Fatal("negative seek must fail")
	}
}

func TestSocketStreamIsNondeterministicAcrossSockets(t *testing.T) {
	o := newOS()
	fd1, _ := o.Socket()
	fd2, _ := o.Socket()
	b1, _ := o.Read(fd1, 64)
	b2, _ := o.Read(fd2, 64)
	if bytes.Equal(b1, b2) {
		t.Fatal("distinct peers should produce distinct streams")
	}
	if n, err := o.Write(fd1, []byte("req")); n != 3 || err != nil {
		t.Fatalf("socket write = %d, %v", n, err)
	}
}

func TestClassification(t *testing.T) {
	o := newOS()
	ffd, _ := o.Open("f")
	sfd, _ := o.Socket()
	cases := []struct {
		name string
		num  int64
		args []uint64
		want Class
	}{
		{"getpid", SysGetpid, nil, Repeatable},
		{"gettimeofday", SysGettimeofday, nil, Recordable},
		{"rand", SysRand, nil, Recordable},
		{"open", SysOpen, nil, Recordable},
		{"file read", SysRead, []uint64{uint64(ffd)}, Revocable},
		{"file write", SysWrite, []uint64{uint64(ffd)}, Revocable},
		{"socket read", SysRead, []uint64{uint64(sfd)}, Recordable},
		{"socket write", SysWrite, []uint64{uint64(sfd)}, Recordable},
		{"close", SysClose, []uint64{uint64(ffd)}, Deferrable},
		{"munmap", SysMunmap, nil, Deferrable},
		{"fork", SysFork, nil, Irrevocable},
		{"execve", SysExecve, nil, Irrevocable},
		{"lseek reposition", SysLseek, []uint64{uint64(ffd), 4, uint64(SeekSet)}, Irrevocable},
		{"lseek query", SysLseek, []uint64{uint64(ffd), 0, uint64(SeekCur)}, Repeatable},
		{"fcntl getown", SysFcntl, []uint64{uint64(ffd), uint64(FGetOwn)}, Repeatable},
		{"fcntl dupfd", SysFcntl, []uint64{uint64(ffd), uint64(FDupFD)}, Recordable},
	}
	for _, tc := range cases {
		if got := o.Classify(tc.num, tc.args); got != tc.want {
			t.Errorf("%s: class = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFDLimitAndRaise(t *testing.T) {
	o := newOS()
	if o.FDLimit() != DefaultMaxFDs {
		t.Fatalf("default limit = %d", o.FDLimit())
	}
	var fds []int64
	for {
		fd, err := o.Open("x")
		if err != nil {
			break
		}
		fds = append(fds, fd)
	}
	if len(fds) != DefaultMaxFDs-3 {
		t.Fatalf("opened %d fds before limit", len(fds))
	}
	o.RaiseFDLimit(128)
	if _, err := o.Open("y"); err != nil {
		t.Fatalf("open after raise: %v", err)
	}
	// Raising to a smaller value is a no-op.
	o.RaiseFDLimit(8)
	if o.FDLimit() != 128 {
		t.Fatalf("limit lowered to %d", o.FDLimit())
	}
}

func TestDupFD(t *testing.T) {
	o := newOS()
	o.AddFile("f", []byte("xyz"))
	fd, _ := o.Open("f")
	o.Read(fd, 1)
	dup, err := o.DupFD(fd)
	if err != nil {
		t.Fatal(err)
	}
	if dup == fd {
		t.Fatal("dup must be a fresh descriptor")
	}
	b, _ := o.Read(dup, 1)
	if string(b) != "y" {
		t.Fatalf("dup position not inherited: %q", b)
	}
}

func TestGettimeofdayAdvances(t *testing.T) {
	o := newOS()
	t1 := o.Gettimeofday()
	t2 := o.Gettimeofday()
	if t2 <= t1 {
		t.Fatalf("clock must advance: %d then %d", t1, t2)
	}
}

func TestCloseErrors(t *testing.T) {
	o := newOS()
	if err := o.Close(99); err == nil {
		t.Fatal("closing unopened fd must fail")
	}
	if _, err := o.Read(99, 1); err == nil {
		t.Fatal("reading bad fd must fail")
	}
	if _, err := o.Write(99, []byte("x")); err == nil {
		t.Fatal("writing bad fd must fail")
	}
}

// Property: after any in-bounds sequence of reads, restoring positions and
// re-reading yields identical data (the revocable-replay invariant).
func TestQuickRevocableReplay(t *testing.T) {
	f := func(content []byte, sizes []uint8) bool {
		if len(content) == 0 {
			content = []byte{1}
		}
		o := newOS()
		o.AddFile("f", content)
		fd, _ := o.Open("f")
		pos := o.CheckpointState(false).FDs
		var first [][]byte
		for _, s := range sizes {
			b, err := o.Read(fd, int(s%32)+1)
			if err != nil {
				return false
			}
			first = append(first, b)
		}
		o.RestorePositions(pos)
		for i, s := range sizes {
			b, err := o.Read(fd, int(s%32)+1)
			if err != nil || !bytes.Equal(b, first[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreState(t *testing.T) {
	o := New(1, 7)
	o.AddFile("in.txt", []byte("hello world"))
	fd, err := o.Open("in.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(fd, 6); err != nil {
		t.Fatal(err)
	}
	wfd, err := o.Open("out.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Write(wfd, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Socket(); err != nil {
		t.Fatal(err)
	}

	if st := o.CheckpointState(false); len(st.Files) != 0 || len(st.FDs) != 2 {
		t.Fatalf("positions-only state = %d files, %d fds", len(st.Files), len(st.FDs))
	}
	st := o.CheckpointState(true)
	if len(st.Files) != 2 || len(st.FDs) != 2 {
		t.Fatalf("state = %d files, %d fds", len(st.Files), len(st.FDs))
	}

	// A fresh OS restored from the state resumes identically: same file
	// contents, same descriptors at the same positions.
	o2 := New(1, 99)
	o2.RaiseFDLimit(4096)
	if err := o2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	b, err := o2.Read(fd, 5)
	if err != nil || string(b) != "world" {
		t.Fatalf("restored read = %q, %v", b, err)
	}
	data, ok := o2.FileData("out.txt")
	if !ok || string(data) != "abc" {
		t.Fatalf("restored out.txt = %q, %v", data, ok)
	}

	// The capture is a deep copy: mutating the original afterwards must not
	// leak into the state.
	o.Write(wfd, []byte("MORE"))
	if string(st.Files[1].Data) != "abc" {
		t.Fatalf("checkpoint state aliased live file data: %q", st.Files[1].Data)
	}

	// A descriptor referring to an unknown file is rejected.
	bad := &State{FDs: []FDState{{FD: 5, Path: "nope", Pos: 0}}}
	if err := o2.RestoreState(bad); err == nil {
		t.Fatal("restore with dangling fd accepted")
	}
}
