package vfs

import "testing"

// passThroughHook lets every primitive through untouched: Interpose with it
// must be indistinguishable from the inner FS.
type passThroughHook struct{}

func (passThroughHook) Around(op Op) (int, error) { return op.Do() }
func (passThroughHook) After(Op, error)           {}

// seenOp is what routeLog keeps of one hook call.
type seenOp struct {
	around   bool // Around, not After
	prim     Primitive
	path, to string
	seq      bool
	off      int64
	file     bool // op.File was set: an operation on a handle
}

// routeLog records every hook call and passes the primitive through.
type routeLog struct{ ops []seenOp }

func (l *routeLog) note(op Op, around bool) {
	l.ops = append(l.ops, seenOp{around, op.Prim, op.Path, op.To, op.Seq, op.Off, op.File != nil})
}

func (l *routeLog) Around(op Op) (int, error) { l.note(op, true); return op.Do() }
func (l *routeLog) After(op Op, _ error)      { l.note(op, false) }

// TestInterposeRoutesEveryPrimitive drives each FS method and each handle
// data/truncate operation once through Interpose and checks that exactly
// one hook call saw it, on the right side (Around for the primitives a
// hook may alter, After for namespace operations), with the right Prim,
// Path, To and sequential flag.
func TestInterposeRoutesEveryPrimitive(t *testing.T) {
	buf := make([]byte, 4)
	tests := []struct {
		name    string
		do      func(fs FS, f File) error
		want    seenOp
		wantErr bool
	}{
		{"Create", func(fs FS, _ File) error { _, err := fs.Create("/d/new"); return err },
			seenOp{prim: PrimCreate, path: "/d/new"}, false},
		{"Open", func(fs FS, _ File) error { _, err := fs.Open("/d/f"); return err },
			seenOp{prim: PrimOpen, path: "/d/f"}, false},
		{"Append", func(fs FS, _ File) error { _, err := fs.Append("/d/f"); return err },
			seenOp{prim: PrimOpen, path: "/d/f"}, false},
		{"OpenMissing", func(fs FS, _ File) error { _, err := fs.Open("/d/none"); return err },
			seenOp{prim: PrimOpen, path: "/d/none"}, true},
		{"Mkdir", func(fs FS, _ File) error { return fs.Mkdir("/d/m") },
			seenOp{prim: PrimMkdir, path: "/d/m"}, false},
		{"MkdirAll", func(fs FS, _ File) error { return fs.MkdirAll("/d/x/y") },
			seenOp{prim: PrimMkdir, path: "/d/x/y"}, false},
		{"Remove", func(fs FS, _ File) error { return fs.Remove("/d/g") },
			seenOp{prim: PrimRemove, path: "/d/g"}, false},
		{"RemoveAll", func(fs FS, _ File) error { return fs.RemoveAll("/d/sub") },
			seenOp{prim: PrimRemove, path: "/d/sub"}, false},
		{"Rename", func(fs FS, _ File) error { return fs.Rename("/d/g", "/d/h") },
			seenOp{prim: PrimRename, path: "/d/g", to: "/d/h"}, false},
		{"Stat", func(fs FS, _ File) error { _, err := fs.Stat("/d/f"); return err },
			seenOp{prim: PrimStat, path: "/d/f"}, false},
		{"ReadDir", func(fs FS, _ File) error { _, err := fs.ReadDir("/d"); return err },
			seenOp{prim: PrimReadDir, path: "/d"}, false},
		{"Mknod", func(fs FS, _ File) error { return fs.Mknod("/d/n", 0o644, 7) },
			seenOp{around: true, prim: PrimMknod, path: "/d/n"}, false},
		{"Chmod", func(fs FS, _ File) error { return fs.Chmod("/d/f", 0o600) },
			seenOp{around: true, prim: PrimChmod, path: "/d/f"}, false},
		{"Truncate", func(fs FS, _ File) error { return fs.Truncate("/d/f", 1) },
			seenOp{around: true, prim: PrimTruncate, path: "/d/f"}, false},
		{"File.Write", func(_ FS, f File) error { _, err := f.Write(buf); return err },
			seenOp{around: true, prim: PrimWrite, path: "/d/f", seq: true, file: true}, false},
		{"File.WriteAt", func(_ FS, f File) error { _, err := f.WriteAt(buf, 2); return err },
			seenOp{around: true, prim: PrimWrite, path: "/d/f", off: 2, file: true}, false},
		// A negative offset is not a sequential marker: it reaches the
		// backend, which rejects it.
		{"File.WriteAtNegative", func(_ FS, f File) error { _, err := f.WriteAt(buf, -1); return err },
			seenOp{around: true, prim: PrimWrite, path: "/d/f", off: -1, file: true}, true},
		{"File.Read", func(_ FS, f File) error { _, err := f.Read(buf); return err },
			seenOp{around: true, prim: PrimRead, path: "/d/f", seq: true, file: true}, false},
		{"File.ReadAt", func(_ FS, f File) error { _, err := f.ReadAt(buf, 1); return err },
			seenOp{around: true, prim: PrimRead, path: "/d/f", off: 1, file: true}, false},
		{"File.Truncate", func(_ FS, f File) error { return f.Truncate(3) },
			seenOp{around: true, prim: PrimTruncate, path: "/d/f", file: true}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemFS()
			for _, dir := range []string{"/d", "/d/sub"} {
				if err := mem.Mkdir(dir); err != nil {
					t.Fatal(err)
				}
			}
			if err := WriteFile(mem, "/d/g", []byte("content")); err != nil {
				t.Fatal(err)
			}
			log := &routeLog{}
			fs := Interpose(mem, log)
			f, err := fs.Create("/d/f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("content"), 0); err != nil {
				t.Fatal(err)
			}
			log.ops = nil

			if err := tc.do(fs, f); (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if len(log.ops) != 1 {
				t.Fatalf("hook saw %d calls, want 1: %+v", len(log.ops), log.ops)
			}
			if got := log.ops[0]; got != tc.want {
				t.Fatalf("hook saw %+v, want %+v", got, tc.want)
			}
		})
	}
}
