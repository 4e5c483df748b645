package vfs

import (
	"sync/atomic"
	"time"
)

// CostModel prices the I/O of one storage tier for LatencyFS. Costs are
// charged to a simulated clock, never slept: a per-operation latency by
// class plus a bandwidth term proportional to the bytes moved. Zero
// bytes-per-second means infinite bandwidth (no byte term).
type CostModel struct {
	// ReadLatency is charged per read-class data operation (Read, ReadAt).
	ReadLatency time.Duration
	// WriteLatency is charged per write-class data operation (Write,
	// WriteAt, Truncate).
	WriteLatency time.Duration
	// MetaLatency is charged per namespace or metadata operation (Create,
	// Open, Mkdir, Stat, ReadDir, Rename, ...).
	MetaLatency time.Duration
	// ReadBytesPerSec and WriteBytesPerSec are the tier's bandwidth
	// budgets; each data operation additionally charges bytes/rate.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64
}

// Canonical tier models for the burst-buffer-vs-PFS placement sweeps. The
// constants are plausible campaign-scale magnitudes, not measurements: what
// matters for the experiments is the ratio between tiers and that the
// numbers are deterministic.
var (
	// BurstBufferModel approximates a node-local NVMe burst buffer:
	// microsecond operations, multi-GiB/s streams.
	BurstBufferModel = CostModel{
		ReadLatency:      10 * time.Microsecond,
		WriteLatency:     20 * time.Microsecond,
		MetaLatency:      5 * time.Microsecond,
		ReadBytesPerSec:  8 << 30,
		WriteBytesPerSec: 4 << 30,
	}
	// ParallelFSModel approximates a shared parallel file system
	// (Lustre-class): high per-operation latency dominated by RPCs,
	// respectable streaming bandwidth.
	ParallelFSModel = CostModel{
		ReadLatency:      500 * time.Microsecond,
		WriteLatency:     800 * time.Microsecond,
		MetaLatency:      1 * time.Millisecond,
		ReadBytesPerSec:  2 << 30,
		WriteBytesPerSec: 1 << 30,
	}
)

// readCost prices a read of n bytes.
func (c CostModel) readCost(n int) int64 {
	ns := int64(c.ReadLatency)
	if c.ReadBytesPerSec > 0 {
		ns += int64(n) * int64(time.Second) / c.ReadBytesPerSec
	}
	return ns
}

// writeCost prices a write of n bytes.
func (c CostModel) writeCost(n int) int64 {
	ns := int64(c.WriteLatency)
	if c.WriteBytesPerSec > 0 {
		ns += int64(n) * int64(time.Second) / c.WriteBytesPerSec
	}
	return ns
}

// SimClocked is implemented by backends that model I/O latency against a
// deterministic simulated clock. The clock is monotone within a run and
// charged by commutative atomic additions, so the accumulated total is
// independent of goroutine interleaving — workers 1 and workers 8 campaigns
// report identical simulated times.
type SimClocked interface {
	// SimElapsed returns the simulated I/O time accumulated since the
	// backend was created, cloned, or last reset.
	SimElapsed() time.Duration
	// ResetSim zeroes the simulated clock. The campaign driver resets
	// immediately before each run so setup and profiling I/O is excluded
	// and COW-cloned and rebuilt worlds measure identically.
	ResetSim()
}

// SimElapsed reads fs's simulated clock. The second return is false when fs
// does not model latency (the elapsed time is then zero by definition).
func SimElapsed(fs FS) (time.Duration, bool) {
	if c, ok := fs.(SimClocked); ok {
		return c.SimElapsed(), true
	}
	return 0, false
}

// ResetSim zeroes fs's simulated clock; a no-op for unclocked backends.
func ResetSim(fs FS) {
	if c, ok := fs.(SimClocked); ok {
		c.ResetSim()
	}
}

// LatencyFS wraps a backend and charges every operation against a
// deterministic simulated clock, so placement sweeps produce *time*
// results — "this campaign moved X bytes over a PFS-class tier and would
// have taken T" — without sleeping. Charges are commutative atomic
// additions: the accumulated total depends only on the set of operations
// performed, not on goroutine interleaving or worker count, which is what
// keeps the campaign determinism harness green over latency-modeled
// worlds.
//
// The billing is a Hook over the backend: data operations (Around) pay
// their class latency plus the bytes actually moved, so a short read
// prices what moved, and namespace operations (After) pay MetaLatency.
//
// CloneFS clones the inner backend (which must support it) and gives the
// clone a fresh clock; the campaign driver additionally resets clocks
// immediately before each run (ResetSim) so cloned and rebuilt worlds
// measure identically.
type LatencyFS struct {
	FS
	inner FS
	cost  CostModel
	ns    atomic.Int64
}

// NewLatencyFS wraps inner with the given cost model.
func NewLatencyFS(inner FS, cost CostModel) *LatencyFS {
	l := &LatencyFS{inner: inner, cost: cost}
	l.FS = Interpose(inner, l)
	return l
}

// SimElapsed implements SimClocked.
func (l *LatencyFS) SimElapsed() time.Duration { return time.Duration(l.ns.Load()) }

// ResetSim implements SimClocked.
func (l *LatencyFS) ResetSim() { l.ns.Store(0) }

// CloneFS implements Cloner when the inner backend does: the clone shares
// the cost model, snapshots the inner state, and starts a fresh clock.
func (l *LatencyFS) CloneFS() (FS, error) {
	c, ok := l.inner.(Cloner)
	if !ok {
		return nil, ErrNotClonable
	}
	inner, err := c.CloneFS()
	if err != nil {
		return nil, err
	}
	return NewLatencyFS(inner, l.cost), nil
}

// Around implements Hook: it runs the primitive and bills it. Truncate is
// a write-class operation that moves no bytes; mknod and chmod are
// metadata.
func (l *LatencyFS) Around(op Op) (int, error) {
	n, err := op.Do()
	switch op.Prim {
	case PrimRead:
		l.ns.Add(l.cost.readCost(n))
	case PrimWrite:
		l.ns.Add(l.cost.writeCost(n))
	case PrimTruncate:
		l.ns.Add(l.cost.writeCost(0))
	default:
		l.ns.Add(int64(l.cost.MetaLatency))
	}
	return n, err
}

// After implements Hook: every namespace operation pays MetaLatency,
// whether or not it succeeded.
func (l *LatencyFS) After(Op, error) { l.ns.Add(int64(l.cost.MetaLatency)) }

var (
	_ FS         = (*LatencyFS)(nil)
	_ Hook       = (*LatencyFS)(nil)
	_ Cloner     = (*LatencyFS)(nil)
	_ SimClocked = (*LatencyFS)(nil)
)
