package vfs

// Op is one primitive instance routed through an interposed FS. It is
// passed by value, so a hook that lets the primitive through untouched
// costs no allocation.
//
// Prim names the primitive in the package vocabulary: Create is PrimCreate,
// Open and Append are PrimOpen, Mkdir and MkdirAll are PrimMkdir, Remove and
// RemoveAll are PrimRemove, and every data operation on a handle is
// PrimWrite, PrimRead or PrimTruncate.
type Op struct {
	Prim Primitive
	// Path is the name the primitive targets, as the caller passed it to
	// the FS method, or the handle's Name() for operations on a handle.
	Path string
	// To is the new name of a rename.
	To string
	// Buf is the application's buffer of a write or read.
	Buf []byte
	// Off is the offset of a positional write or read (WriteAt, ReadAt).
	Off int64
	// Size is the requested length of a truncate.
	Size int64
	// Dev and Mode are the arguments of mknod and chmod.
	Dev  uint64
	Mode uint32
	// Seq marks a sequential Write or Read, which acts at the handle's
	// current position; Off is then unused.
	Seq bool
	// File is the inner handle of an operation on a handle; nil for an
	// operation on a path.
	File File
	// FS is the inner file system: the uninstrumented view at the same
	// path-translation layer, on which a hook may open side handles
	// without re-entering itself.
	FS FS
}

// Do performs the primitive on the inner file system exactly as the op
// describes it. A hook alters a primitive by changing op's fields before
// calling Do, or replaces it by not calling Do at all. It returns the byte
// count of a write or read and 0 for the other primitives.
func (op *Op) Do() (int, error) {
	switch op.Prim {
	case PrimWrite:
		if op.Seq {
			return op.File.Write(op.Buf)
		}
		return op.File.WriteAt(op.Buf, op.Off)
	case PrimRead:
		if op.Seq {
			return op.File.Read(op.Buf)
		}
		return op.File.ReadAt(op.Buf, op.Off)
	case PrimTruncate:
		if op.File != nil {
			return 0, op.File.Truncate(op.Size)
		}
		return 0, op.FS.Truncate(op.Path, op.Size)
	case PrimMknod:
		return 0, op.FS.Mknod(op.Path, op.Mode, op.Dev)
	case PrimChmod:
		return 0, op.FS.Chmod(op.Path, op.Mode)
	}
	panic("vfs: Op.Do on namespace primitive " + string(op.Prim))
}

// Hook is what an interposition layer implements: the fault injector, the
// I/O pattern profiler and the latency model are each one Hook over the
// single FS and File implementation Interpose returns.
type Hook interface {
	// Around runs a primitive a hook may alter — write, read, truncate,
	// mknod and chmod, on a path or a handle — and returns its result.
	// op.Do() is the pass-through.
	Around(op Op) (int, error)
	// After observes a namespace operation (create, open, mkdir, remove,
	// rename, stat, readdir) once it has run, with the error it returned.
	After(op Op, err error)
}

// Interpose returns an FS that behaves as inner with every primitive, on
// the FS and on every handle it opens, routed through h: the Go rendering
// of the paper's FUSE callback layer, where FFIS sits between the
// application and the store.
func Interpose(inner FS, h Hook) FS {
	return &interposed{inner: inner, h: h}
}

type interposed struct {
	inner FS
	h     Hook
}

func (x *interposed) after(op Op, err error) error {
	op.FS = x.inner
	x.h.After(op, err)
	return err
}

func (x *interposed) open(op Op, f File, err error) (File, error) {
	if x.after(op, err) != nil {
		return nil, err
	}
	return &interposedFile{File: f, x: x, name: f.Name()}, nil
}

func (x *interposed) Create(name string) (File, error) {
	f, err := x.inner.Create(name)
	return x.open(Op{Prim: PrimCreate, Path: name}, f, err)
}

func (x *interposed) Open(name string) (File, error) {
	f, err := x.inner.Open(name)
	return x.open(Op{Prim: PrimOpen, Path: name}, f, err)
}

func (x *interposed) Append(name string) (File, error) {
	f, err := x.inner.Append(name)
	return x.open(Op{Prim: PrimOpen, Path: name}, f, err)
}

func (x *interposed) Mkdir(name string) error {
	return x.after(Op{Prim: PrimMkdir, Path: name}, x.inner.Mkdir(name))
}

func (x *interposed) MkdirAll(name string) error {
	return x.after(Op{Prim: PrimMkdir, Path: name}, x.inner.MkdirAll(name))
}

func (x *interposed) Remove(name string) error {
	return x.after(Op{Prim: PrimRemove, Path: name}, x.inner.Remove(name))
}

func (x *interposed) RemoveAll(name string) error {
	return x.after(Op{Prim: PrimRemove, Path: name}, x.inner.RemoveAll(name))
}

func (x *interposed) Rename(oldName, newName string) error {
	return x.after(Op{Prim: PrimRename, Path: oldName, To: newName}, x.inner.Rename(oldName, newName))
}

func (x *interposed) Stat(name string) (FileInfo, error) {
	info, err := x.inner.Stat(name)
	return info, x.after(Op{Prim: PrimStat, Path: name}, err)
}

func (x *interposed) ReadDir(name string) ([]FileInfo, error) {
	infos, err := x.inner.ReadDir(name)
	return infos, x.after(Op{Prim: PrimReadDir, Path: name}, err)
}

func (x *interposed) Mknod(name string, mode uint32, dev uint64) error {
	_, err := x.h.Around(Op{Prim: PrimMknod, Path: name, Mode: mode, Dev: dev, FS: x.inner})
	return err
}

func (x *interposed) Chmod(name string, mode uint32) error {
	_, err := x.h.Around(Op{Prim: PrimChmod, Path: name, Mode: mode, FS: x.inner})
	return err
}

func (x *interposed) Truncate(name string, size int64) error {
	_, err := x.h.Around(Op{Prim: PrimTruncate, Path: name, Size: size, FS: x.inner})
	return err
}

// interposedFile routes a handle's data path through the hook. name is the
// inner handle's Name(), fixed for the handle's lifetime.
type interposedFile struct {
	File
	x    *interposed
	name string
}

func (f *interposedFile) Write(p []byte) (int, error) {
	return f.x.h.Around(Op{Prim: PrimWrite, Path: f.name, Buf: p, Seq: true, File: f.File, FS: f.x.inner})
}

func (f *interposedFile) WriteAt(p []byte, off int64) (int, error) {
	return f.x.h.Around(Op{Prim: PrimWrite, Path: f.name, Buf: p, Off: off, File: f.File, FS: f.x.inner})
}

func (f *interposedFile) Read(p []byte) (int, error) {
	return f.x.h.Around(Op{Prim: PrimRead, Path: f.name, Buf: p, Seq: true, File: f.File, FS: f.x.inner})
}

func (f *interposedFile) ReadAt(p []byte, off int64) (int, error) {
	return f.x.h.Around(Op{Prim: PrimRead, Path: f.name, Buf: p, Off: off, File: f.File, FS: f.x.inner})
}

func (f *interposedFile) Truncate(size int64) error {
	_, err := f.x.h.Around(Op{Prim: PrimTruncate, Path: f.name, Size: size, File: f.File, FS: f.x.inner})
	return err
}

var (
	_ FS   = (*interposed)(nil)
	_ File = (*interposedFile)(nil)
)
