// Package trace implements the I/O pattern profiler of the FFIS stack
// (Figure 2 of the paper names "I/O pattern profiler" as one of the three
// FFIS components): a vfs hook that records every file-system operation
// an application performs, on the same interposition point the fault
// injector uses, plus analyses over the recorded pattern — write size
// distributions, per-file access statistics and per-primitive counts.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Op is one recorded file-system operation.
type Op struct {
	Seq       int           // global sequence number
	Primitive vfs.Primitive // which primitive executed
	Path      string        // target path
	Offset    int64         // file offset (write/read ops; -1 if sequential position unknown)
	Size      int           // payload size in bytes
	Err       bool          // the operation returned an error
}

func (o Op) String() string {
	return fmt.Sprintf("#%d %s %s off=%d size=%d err=%v",
		o.Seq, o.Primitive, o.Path, o.Offset, o.Size, o.Err)
}

// Recorder wraps an FS and appends every operation to an in-memory log.
// It is the vfs.Hook of its own interposed view of the inner FS.
type Recorder struct {
	vfs.FS

	mu  sync.Mutex
	log []Op
}

// NewRecorder wraps inner with operation recording.
func NewRecorder(inner vfs.FS) *Recorder {
	r := &Recorder{}
	r.FS = vfs.Interpose(inner, r)
	return r
}

// Log returns a copy of the recorded operations in sequence order.
func (r *Recorder) Log() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.log...)
}

func (r *Recorder) record(p vfs.Primitive, path string, off int64, size int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, Op{
		Seq:       len(r.log),
		Primitive: p,
		Path:      path,
		Offset:    off,
		Size:      size,
		Err:       err != nil,
	})
}

// Around implements vfs.Hook: it runs the primitive and records it. A
// write records its offset and requested size, a read the bytes it
// delivered (offset -1 for a sequential read), and a truncate its
// requested size as the offset.
func (r *Recorder) Around(op vfs.Op) (int, error) {
	off, size := int64(-1), 0
	switch op.Prim {
	case vfs.PrimWrite:
		off, size = op.Off, len(op.Buf)
		if op.Seq {
			var err error
			if off, err = op.File.Seek(0, io.SeekCurrent); err != nil {
				off = -1
			}
		}
	case vfs.PrimRead:
		if !op.Seq {
			off = op.Off
		}
	case vfs.PrimTruncate:
		off = op.Size
	}
	n, err := op.Do()
	if op.Prim == vfs.PrimRead {
		size = n
	}
	r.record(op.Prim, vfs.Clean(op.Path), off, size, err)
	return n, err
}

// After implements vfs.Hook: it records a namespace operation.
func (r *Recorder) After(op vfs.Op, err error) {
	path := vfs.Clean(op.Path)
	if op.Prim == vfs.PrimRename {
		path += " -> " + vfs.Clean(op.To)
	}
	r.record(op.Prim, path, -1, 0, err)
}

var _ vfs.Hook = (*Recorder)(nil)

// Profile is the analysed I/O pattern of a trace.
type Profile struct {
	Ops        int
	ByPrim     map[vfs.Primitive]int
	Files      map[string]FileStats
	WriteSizes *stats.Histogram // write payload sizes, bins of 512 B up to 8 KiB
	TotalWrite int64
	TotalRead  int64
	Errors     int
}

// FileStats aggregates accesses to a single path.
type FileStats struct {
	Writes       int
	WriteBytes   int64
	Reads        int
	ReadBytes    int64
	Sequential   int // writes whose offset continued the previous write
	OverwriteOps int // writes strictly below the previously seen max offset
}

// Analyze computes the I/O pattern profile of a trace.
func Analyze(log []Op) *Profile {
	p := &Profile{
		ByPrim:     map[vfs.Primitive]int{},
		Files:      map[string]FileStats{},
		WriteSizes: stats.NewHistogram(0, 8192, 16),
	}
	lastEnd := map[string]int64{}
	maxEnd := map[string]int64{}
	for _, op := range log {
		p.Ops++
		p.ByPrim[op.Primitive]++
		if op.Err {
			p.Errors++
		}
		switch op.Primitive {
		case vfs.PrimWrite:
			fsStats := p.Files[op.Path]
			fsStats.Writes++
			fsStats.WriteBytes += int64(op.Size)
			if op.Offset >= 0 {
				if op.Offset == lastEnd[op.Path] {
					fsStats.Sequential++
				}
				if op.Offset < maxEnd[op.Path] {
					fsStats.OverwriteOps++
				}
				end := op.Offset + int64(op.Size)
				lastEnd[op.Path] = end
				if end > maxEnd[op.Path] {
					maxEnd[op.Path] = end
				}
			}
			p.Files[op.Path] = fsStats
			p.WriteSizes.Add(float64(op.Size))
			p.TotalWrite += int64(op.Size)
		case vfs.PrimRead:
			fsStats := p.Files[op.Path]
			fsStats.Reads++
			fsStats.ReadBytes += int64(op.Size)
			p.Files[op.Path] = fsStats
			p.TotalRead += int64(op.Size)
		}
	}
	return p
}

// Render prints the profile in the report form used by cmd tools.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O pattern profile: %d ops, %d B written, %d B read, %d errors\n",
		p.Ops, p.TotalWrite, p.TotalRead, p.Errors)
	prims := make([]string, 0, len(p.ByPrim))
	for prim, n := range p.ByPrim {
		prims = append(prims, fmt.Sprintf("%s=%d", prim, n))
	}
	sort.Strings(prims)
	fmt.Fprintf(&b, "  primitives: %s\n", strings.Join(prims, " "))
	paths := make([]string, 0, len(p.Files))
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fsStats := p.Files[path]
		fmt.Fprintf(&b, "  %-40s writes=%d (%d B, %d seq, %d overwrite) reads=%d (%d B)\n",
			path, fsStats.Writes, fsStats.WriteBytes, fsStats.Sequential,
			fsStats.OverwriteOps, fsStats.Reads, fsStats.ReadBytes)
	}
	return b.String()
}
