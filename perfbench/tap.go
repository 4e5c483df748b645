package main

// Layer taps. Everything here observes the program from outside, through
// its public seams only: the core.Workload callbacks a grid hands to
// Options.RunGrid, the vfs.FS passed to Run and Classify, the coordinator's
// http.Handler and the worker's HTTP client. Spans stay in memory until the
// run ends; vfs calls are aggregated per run and per primitive class, never
// kept one span per call.

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// ioClass groups vfs primitives the way the per-layer metrics report them.
type ioClass int

const (
	ioOpen  ioClass = iota // Create, Open, Append
	ioRead                 // Read, ReadAt
	ioWrite                // Write, WriteAt
	ioMeta                 // directory and metadata calls, Seek, Size, Truncate, Close
	ioSync                 // Sync
	nIOClass
)

var ioClassNames = [nIOClass]string{"open", "read", "write", "meta", "sync"}

// ioCount is one primitive class's aggregate within one span.
type ioCount struct{ Ops, Ns, Bytes int64 }

// ioStats aggregates the vfs calls of one span. A span belongs to one run,
// and a run executes on one goroutine, so no locking is needed.
type ioStats [nIOClass]ioCount

func (s *ioStats) add(c ioClass, start time.Time, n int) {
	s[c].Ops++
	s[c].Ns += int64(time.Since(start))
	s[c].Bytes += int64(n)
}

func (s *ioStats) ns() int64 {
	var total int64
	for _, c := range s {
		total += c.Ns
	}
	return total
}

func (s *ioStats) merge(o *ioStats) {
	for i := range s {
		s[i].Ops += o[i].Ops
		s[i].Ns += o[i].Ns
		s[i].Bytes += o[i].Bytes
	}
}

// timedFS is a transparent vfs.FS that times and counts every call into the
// layers below it (injector, MountFS routing, MemFS).
type timedFS struct {
	inner vfs.FS
	st    *ioStats
}

func (f *timedFS) open(start time.Time, file vfs.File, err error) (vfs.File, error) {
	f.st.add(ioOpen, start, 0)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, st: f.st}, nil
}

func (f *timedFS) Create(name string) (vfs.File, error) {
	t := time.Now()
	file, err := f.inner.Create(name)
	return f.open(t, file, err)
}

func (f *timedFS) Open(name string) (vfs.File, error) {
	t := time.Now()
	file, err := f.inner.Open(name)
	return f.open(t, file, err)
}

func (f *timedFS) Append(name string) (vfs.File, error) {
	t := time.Now()
	file, err := f.inner.Append(name)
	return f.open(t, file, err)
}

func (f *timedFS) Mkdir(name string) error {
	t := time.Now()
	err := f.inner.Mkdir(name)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) MkdirAll(name string) error {
	t := time.Now()
	err := f.inner.MkdirAll(name)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) Remove(name string) error {
	t := time.Now()
	err := f.inner.Remove(name)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) RemoveAll(name string) error {
	t := time.Now()
	err := f.inner.RemoveAll(name)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) Rename(oldName, newName string) error {
	t := time.Now()
	err := f.inner.Rename(oldName, newName)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) Stat(name string) (vfs.FileInfo, error) {
	t := time.Now()
	fi, err := f.inner.Stat(name)
	f.st.add(ioMeta, t, 0)
	return fi, err
}

func (f *timedFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	t := time.Now()
	fis, err := f.inner.ReadDir(name)
	f.st.add(ioMeta, t, 0)
	return fis, err
}

func (f *timedFS) Mknod(name string, mode uint32, dev uint64) error {
	t := time.Now()
	err := f.inner.Mknod(name, mode, dev)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) Chmod(name string, mode uint32) error {
	t := time.Now()
	err := f.inner.Chmod(name, mode)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFS) Truncate(name string, size int64) error {
	t := time.Now()
	err := f.inner.Truncate(name, size)
	f.st.add(ioMeta, t, 0)
	return err
}

type timedFile struct {
	vfs.File
	st *ioStats
}

func (f *timedFile) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Read(p)
	f.st.add(ioRead, t, n)
	return n, err
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.add(ioRead, t, n)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.st.add(ioWrite, t, n)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	t := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.st.add(ioWrite, t, n)
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.st.add(ioSync, t, 0)
	return err
}

func (f *timedFile) Seek(off int64, whence int) (int64, error) {
	t := time.Now()
	n, err := f.File.Seek(off, whence)
	f.st.add(ioMeta, t, 0)
	return n, err
}

func (f *timedFile) Truncate(size int64) error {
	t := time.Now()
	err := f.File.Truncate(size)
	f.st.add(ioMeta, t, 0)
	return err
}

func (f *timedFile) Size() (int64, error) {
	t := time.Now()
	n, err := f.File.Size()
	f.st.add(ioMeta, t, 0)
	return n, err
}

func (f *timedFile) Close() error {
	t := time.Now()
	err := f.File.Close()
	f.st.add(ioMeta, t, 0)
	return err
}

// Tap phases: what a wrapped callback records.
const (
	phaseOff   = iota // pass straight through
	phaseSetup        // world Setup and profiling passes of a set-up
	phaseRuns         // injection runs of a traced round
)

// runSpan is one call of an injection run's Run or Classify callback as
// the taps see it, with the vfs calls made inside it.
type runSpan struct {
	Key     string  `json:"key"`
	App     string  `json:"app"`
	Kind    string  `json:"kind"` // "run" or "classify"
	Round   int     `json:"round"`
	StartUs int64   `json:"start_us"`
	Ns      int64   `json:"ns"`
	IO      ioStats `json:"io"`
	start   time.Time
}

// setupSpan is one part of a set-up: building the specs, or one Setup or
// profiling callback.
type setupSpan struct {
	Key  string `json:"key"`
	Kind string `json:"kind"` // "build", "setup" or "profile"
	Ns   int64  `json:"ns"`
}

// httpSpan is one request seen by the coordinator's handler ("server") or
// by a worker's HTTP client ("client").
type httpSpan struct {
	Side    string `json:"side"`
	Round   int    `json:"round"`
	Route   string `json:"route"`
	StartUs int64  `json:"start_us"`
	Ns      int64  `json:"ns"`
	Status  int    `json:"status"`
	Bytes   int64  `json:"bytes"`
	Lease   string `json:"lease,omitempty"`
}

// tap owns the in-memory span store of one benchmark process.
type tap struct {
	epoch time.Time
	phase atomic.Int32
	round atomic.Int32

	mu     sync.Mutex
	runs   []*runSpan
	setups []setupSpan
	http   []httpSpan
}

func newTap() *tap { return &tap{epoch: time.Now()} }

func (t *tap) since(start time.Time) int64 { return start.Sub(t.epoch).Microseconds() }

// appOf names the application behind a workload: the four Montage stage
// cells share one application.
func appOf(workload string) string {
	if strings.HasPrefix(strings.ToUpper(workload), "MT") {
		return "montage"
	}
	return workload
}

// wrapSpecs returns copies of specs whose workload callbacks report to the
// tap. With the tap off the wrappers only pass through.
func (t *tap) wrapSpecs(specs []core.CampaignSpec) []core.CampaignSpec {
	out := make([]core.CampaignSpec, len(specs))
	for i, spec := range specs {
		spec.Workload = t.wrapWorkload(spec.Key, spec.Workload)
		out[i] = spec
	}
	return out
}

func (t *tap) wrapWorkload(key string, w core.Workload) core.Workload {
	app := appOf(w.Name)
	if setup := w.Setup; setup != nil {
		w.Setup = func(fs vfs.FS) error {
			start := time.Now()
			err := setup(fs)
			if t.phase.Load() == phaseSetup {
				t.addSetup(setupSpan{Key: key, Kind: "setup", Ns: int64(time.Since(start))})
			}
			return err
		}
	}
	run, cls := w.Run, w.Classify
	w.Run = func(fs vfs.FS) error {
		switch t.phase.Load() {
		case phaseSetup:
			start := time.Now()
			defer func() { t.addSetup(setupSpan{Key: key, Kind: "profile", Ns: int64(time.Since(start))}) }()
			return run(fs)
		case phaseRuns:
			sp := t.startRun(key, app, "run")
			// Deferred so that an application panic, which core turns into
			// a crash outcome, still records its span.
			defer t.endRun(sp)
			return run(&timedFS{inner: fs, st: &sp.IO})
		}
		return run(fs)
	}
	if cls != nil {
		w.Classify = func(fs vfs.FS, runErr error) classify.Outcome {
			if t.phase.Load() != phaseRuns {
				return cls(fs, runErr)
			}
			sp := t.startRun(key, app, "classify")
			defer t.endRun(sp)
			return cls(&timedFS{inner: fs, st: &sp.IO}, runErr)
		}
	}
	return w
}

// startRun opens a span of a traced round's Run or Classify callback.
func (t *tap) startRun(key, app, kind string) *runSpan {
	start := time.Now()
	return &runSpan{Key: key, App: app, Kind: kind, Round: int(t.round.Load()), StartUs: t.since(start), start: start}
}

// endRun closes sp and stores it.
func (t *tap) endRun(sp *runSpan) {
	sp.Ns = int64(time.Since(sp.start))
	t.addRun(sp)
}

func (t *tap) addRun(sp *runSpan) {
	t.mu.Lock()
	t.runs = append(t.runs, sp)
	t.mu.Unlock()
}

func (t *tap) addSetup(sp setupSpan) {
	t.mu.Lock()
	t.setups = append(t.setups, sp)
	t.mu.Unlock()
}

func (t *tap) addHTTP(sp httpSpan) {
	t.mu.Lock()
	t.http = append(t.http, sp)
	t.mu.Unlock()
}

// leaseRE finds the lease id near the head of a campaignd request or
// lease response body, where the JSON encoder places it.
var leaseRE = regexp.MustCompile(`"lease_id":"([^"]+)"`)

func leaseOf(body []byte) string {
	if len(body) > 256 {
		body = body[:256]
	}
	if m := leaseRE.FindSubmatch(body); m != nil {
		return string(m[1])
	}
	return ""
}

// captureWriter records a handler's status and, when asked, its body.
type captureWriter struct {
	http.ResponseWriter
	status int
	keep   bool
	body   bytes.Buffer
}

func (w *captureWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.keep {
		w.body.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// handler times the coordinator's routes server-side while the tap is on.
func (t *tap) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.phase.Load() != phaseRuns {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK, keep: r.URL.Path == "/lease"}
		start := time.Now()
		next.ServeHTTP(cw, r)
		sp := httpSpan{Side: "server", Round: int(t.round.Load()), Route: r.URL.Path, StartUs: t.since(start), Ns: int64(time.Since(start)),
			Status: cw.status, Bytes: int64(len(body)), Lease: leaseOf(body)}
		if cw.keep {
			sp.Lease = leaseOf(cw.body.Bytes())
		}
		t.addHTTP(sp)
	})
}

// transport times a worker's requests client-side while the tap is on.
type transport struct {
	t    *tap
	base http.RoundTripper
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tr.t.phase.Load() != phaseRuns {
		return tr.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tr.base.RoundTrip(req)
	sp := httpSpan{Side: "client", Round: int(tr.t.round.Load()), Route: req.URL.Path, StartUs: tr.t.since(start), Ns: int64(time.Since(start)), Bytes: req.ContentLength}
	if err == nil {
		sp.Status = resp.StatusCode
	}
	tr.t.addHTTP(sp)
	return resp, err
}

// eventLog keeps the RunDone events of one round: per-run stage timings as
// core publishes them.
type eventLog struct {
	mu   sync.Mutex
	runs []runEvent
	// firstStart is when the first campaign of the round opened its run
	// stream (SpecStart): the end of set-up.
	firstStart time.Time
}

type runEvent struct {
	Key     string `json:"key"`
	Index   int    `json:"index"`
	CloneUs int64  `json:"clone_us"`
	WorkNs  int64  `json:"work_ns"`
	ClsUs   int64  `json:"classify_us"`
	Fired   bool   `json:"fired"`
}

func (r runEvent) latencyNs() int64 { return r.CloneUs*1e3 + r.WorkNs + r.ClsUs*1e3 }

func (l *eventLog) consume(ev core.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev.Kind {
	case core.EventSpecStart:
		if l.firstStart.IsZero() {
			l.firstStart = time.Now()
		}
	case core.EventRunDone:
		l.runs = append(l.runs, runEvent{Key: ev.Key, Index: ev.Index, CloneUs: ev.CloneMicros,
			WorkNs: ev.WorkloadNanos, ClsUs: ev.ClassifyMicros, Fired: ev.Fired})
	}
}
