package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Injector is the vfs.Hook of the FFIS fault injector: it holds the armed
// fault state shared by every handle of the file system it is interposed
// on. It counts dynamic executions of the signature's primitive and
// corrupts the target-th instance (0-based), as the paper's fault injector
// does: "for each fault injection run, it first generates a random number
// from 0 to count-1 ... when the execution count of the target primitive
// hits that random number, the fault injector applies the fault".
//
// One injection run still models one physical fault event, but an event may
// manifest on more than one primitive instance: the injector carries a shot
// budget (Signature.ShotBudget — 1 unless the model implements MultiShot or
// Signature.Shots overrides it), and a MultiShot model selects which
// instances at or after the drawn target belong to the event. For the
// single-shot default the claim sequence is exactly the classic one: the
// target instance fires, everything else passes through.
//
// The injector knows nothing about individual fault models: once a shot is
// claimed on the armed primitive, it hands the instance to the signature's
// Model hook (MutateWrite/MutateRead/MutateTruncate/MutateMeta) and
// completes the primitive the way the returned action dictates. Models are
// therefore free to ship as self-contained registrations — no dispatch
// switch here grows when the vocabulary does.
type Injector struct {
	sig    Signature
	target int64
	rng    *stats.RNG
	shots  int       // resolved shot budget
	plan   MultiShot // nil: only rel 0 claims

	count atomic.Int64

	mu        sync.Mutex // guards fired and mutations
	fired     int
	mutations []Mutation

	// serialDraws marks the one case where RNG draws still need a mutex.
	// The RNG state is sharded per (seed, run-index) stream — every run
	// constructs its own Injector around its own runStream RNG, so 8+
	// worker campaigns never share a draw lock across runs. Within one
	// run, draws happen only inside model hooks, and a hook runs only
	// after claim() succeeded. For the single-shot family (no MultiShot
	// plan) at most one claim can ever succeed — the claim winner owns
	// the stream exclusively and draws lock-free. Only a MultiShot plan
	// can have two claimed hooks on concurrent handles drawing at once,
	// so only then do draws serialize on rngMu. Either way the draw
	// order, and hence every tally, is bit-identical to the locked era —
	// the seed-pinned equivalence suites pin it.
	serialDraws bool
	rngMu       sync.Mutex
}

// NewInjector arms an injector for the given signature at the given dynamic
// instance. rng supplies the intra-buffer randomness (bit position). After
// its shot budget is exhausted the injector passes everything through.
func NewInjector(sig Signature, target int64, rng *stats.RNG) *Injector {
	sig = Signature{
		Model:     sig.Model,
		Primitive: sig.Primitive,
		Feature:   sig.Feature.normalize(),
		Shots:     sig.Shots,
	}
	plan, _ := sig.Model.(MultiShot)
	return &Injector{
		sig: sig, target: target, rng: rng,
		shots: sig.ShotBudget(), plan: plan,
		serialDraws: plan != nil,
	}
}

// Disarmed returns an injector that never fires; wrapping with it yields a
// pure pass-through whose Count still advances on every claimable instance.
// The profiling pass runs under one, and tests use it to validate
// transparency (R1).
func Disarmed(sig Signature) *Injector {
	return NewInjector(sig, -1, stats.NewRNG(0))
}

// Signature returns the armed fault signature.
func (inj *Injector) Signature() Signature { return inj.sig }

// Target returns the dynamic primitive instance that will be corrupted.
func (inj *Injector) Target() int64 { return inj.target }

// Count returns how many instances of the target primitive have executed.
func (inj *Injector) Count() int64 { return inj.count.Load() }

// Fired reports whether the fault has been planted, and the first recorded
// mutation if so — the event's primary record; FiredShots counts the rest.
func (inj *Injector) Fired() (Mutation, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.mutations) == 0 {
		return Mutation{}, false
	}
	return inj.mutations[0], true
}

// FiredShots returns how many shots of the budget have been claimed.
func (inj *Injector) FiredShots() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired
}

// Mutations returns a copy of every recorded mutation, in firing order.
func (inj *Injector) Mutations() []Mutation {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Mutation(nil), inj.mutations...)
}

// claim atomically checks whether this primitive execution is one of the
// event's shots. The dynamic count always advances; a disarmed injector
// (negative target) never fires; instances before the target never fire.
// At or past the target the model's shot plan (default: only the target
// itself) decides, bounded by the remaining budget.
func (inj *Injector) claim() bool {
	idx := inj.count.Add(1) - 1
	if inj.target < 0 || idx < inj.target {
		return false
	}
	rel := idx - inj.target
	if inj.plan == nil && rel != 0 {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.fired >= inj.shots {
		return false
	}
	if inj.plan != nil && !inj.plan.Claims(inj.sig.Feature, rel) {
		return false
	}
	inj.fired++
	return true
}

func (inj *Injector) record(m Mutation) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.mutations = append(inj.mutations, m)
}

// flip draws the bit position for every flipping caller (write, metadata,
// truncate, and read paths alike) from the injector's per-run stream.
// Single-shot signatures draw lock-free: the claim winner is the only
// goroutine that can ever reach a hook, so the stream is exclusively its
// own. MultiShot plans, whose claimed hooks can overlap on concurrent
// handles, serialize on rngMu — still never queuing behind the
// claim/record bookkeeping guarded by mu.
func (inj *Injector) flip(buf []byte) ([]byte, Mutation) {
	if inj.serialDraws {
		inj.rngMu.Lock()
		defer inj.rngMu.Unlock()
	}
	return mutateBitFlip(buf, inj.sig.Feature, inj.rng)
}

// env packages the injector state a model hook may touch.
func (inj *Injector) env() Env { return Env{inj: inj} }

// Env is the capability a fault-model hook receives from the injector: the
// normalized feature tunables, the run's private RNG stream, and the
// mutation recorder. Hooks draw all their randomness through Env so
// concurrent handles can never race on the RNG and campaign determinism
// is preserved no matter which model fires.
type Env struct {
	inj *Injector
}

// Feature returns the signature's normalized tunables.
func (e Env) Feature() Feature { return e.inj.sig.Feature }

// Flip returns a copy of buf with Feature().FlipBits consecutive bits
// flipped at a random position, drawing from the injector's RNG under its
// mutex. The returned mutation carries only BitPos and Length; the hook
// stamps Model, Path, and Offset before recording.
func (e Env) Flip(buf []byte) ([]byte, Mutation) { return e.inj.flip(buf) }

// Intn draws a uniform int in [0, n) from the injector's per-run RNG
// stream — lock-free for single-shot signatures (the claim winner owns
// the stream), under the dedicated draw mutex for MultiShot plans.
func (e Env) Intn(n int) int {
	if e.inj.serialDraws {
		e.inj.rngMu.Lock()
		defer e.inj.rngMu.Unlock()
	}
	return e.inj.rng.Intn(n)
}

// Record appends the mutation to the injector's fired record; Fired()
// reports the first one and the campaign runner logs it. Every hook must
// record exactly what it did — an unrecorded shot tallies the run as never
// injected.
func (e Env) Record(m Mutation) { e.inj.record(m) }

// Shot returns the 1-based ordinal of the shot being served: 1 for the
// drawn target instance, 2 for a MultiShot model's second manifestation,
// and so on. Hooks use it to label correlated mutations.
func (e Env) Shot() int {
	e.inj.mu.Lock()
	defer e.inj.mu.Unlock()
	return e.inj.fired
}

// Wrap returns a file system that behaves exactly like inner except for the
// corrupted primitive instances: the FFIS interposition layer of Figure 2,
// with the injector as its hook.
func (inj *Injector) Wrap(inner vfs.FS) vfs.FS { return vfs.Interpose(inner, inj) }

// After implements vfs.Hook: namespace operations host no fault.
func (inj *Injector) After(vfs.Op, error) {}

// Around implements vfs.Hook. An instance of the armed primitive claims
// against the shot budget; a claimed instance is handed to the model's
// hook and completed the way its action dictates. Zero-length reads and
// writes pass through without claiming: an empty write mutates nothing, so
// burning the injector's single shot on it would tally a run as injected
// when no fault ever reached the device.
func (inj *Injector) Around(op vfs.Op) (int, error) {
	if op.Prim != inj.sig.Primitive ||
		(len(op.Buf) == 0 && (op.Prim == vfs.PrimWrite || op.Prim == vfs.PrimRead)) ||
		!inj.claim() {
		return op.Do()
	}
	switch op.Prim {
	case vfs.PrimWrite:
		return inj.write(op)
	case vfs.PrimRead:
		return inj.read(op)
	case vfs.PrimTruncate:
		// A handle-level and a path-level truncate are instances of one
		// primitive and host the same faults.
		act := inj.sig.Model.MutateTruncate(inj.env(), TruncateOp{Path: op.Path, Size: op.Size})
		if act.Drop {
			return 0, nil // acknowledged, never applied
		}
		op.Size = act.Size
	default:
		// Mknod and chmod (Table I lists FFIS_mknod as a host): the
		// mode/dev arguments are treated as the write buffer.
		act := inj.sig.Model.MutateMeta(inj.env(),
			MetaOp{Primitive: op.Prim, Path: op.Path, Mode: op.Mode, Dev: op.Dev})
		if act.Drop {
			return 0, nil // node or mode change silently never applied
		}
		op.Mode, op.Dev = act.Mode, act.Dev
	}
	return op.Do()
}

// write serves a claimed write. This is the Go rendering of Figure 3a: the
// (buffer, size, offset) triple passed to FFIS_write is handed to the
// model's hook before reaching the device.
func (inj *Injector) write(op vfs.Op) (int, error) {
	off := op.Off
	if op.Seq {
		var err error
		if off, err = op.File.Seek(0, io.SeekCurrent); err != nil {
			// Without the real offset a block- or sector-aligned corruption
			// plan would be computed against a fabricated device position;
			// fail the write rather than corrupt the wrong bytes.
			return 0, fmt.Errorf("core: injector: device offset unknown for armed write: %w", err)
		}
	}
	n := len(op.Buf)
	act := inj.sig.Model.MutateWrite(inj.env(),
		WriteOp{File: op.File, Path: op.Path, Buf: op.Buf, Off: off})
	if act.Err != nil {
		// The device refused the write: nothing persisted, nothing
		// acknowledged, the sequential offset stays put.
		return 0, act.Err
	}
	if act.Skip {
		// The device dropped (or misdirected) the write but acknowledged
		// it. A sequential handle's offset goes to the absolute post-write
		// position so subsequent writes land where the application
		// believes they will. The seek must be absolute — the model hook
		// holds the live handle and may have moved it (a misdirected write
		// persisting the buffer elsewhere), so a relative seek would
		// advance from wherever the hook parked the handle instead of from
		// the intercepted offset.
		if op.Seq {
			if _, err := op.File.Seek(off+int64(n), io.SeekStart); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
	op.Buf = act.Buf
	m, err := op.Do()
	return min(m, n), err
}

// read serves a claimed read: the mirror of FFIS_write for faults that
// surface when data is consumed. The model's hook owns the whole read;
// op.FS is the uninstrumented view at the same path-translation layer, on
// which at-rest corruption opens its side handle.
func (inj *Injector) read(op vfs.Op) (int, error) {
	rop := ReadOp{
		File: op.File, FS: op.FS, Path: op.Path, Buf: op.Buf, Off: op.Off,
		Do: func(q []byte) (int, error) {
			o := op
			o.Buf = q
			return o.Do()
		},
	}
	if op.Seq {
		if rop.Off, rop.OffErr = op.File.Seek(0, io.SeekCurrent); rop.OffErr != nil {
			rop.Off = -1
		}
	}
	return inj.sig.Model.MutateRead(inj.env(), rop)
}

var _ vfs.Hook = (*Injector)(nil)
