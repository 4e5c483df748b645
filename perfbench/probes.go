package main

import (
	"fmt"
	"runtime"
	"time"

	"ffis/internal/apps/montage"
	"ffis/internal/apps/nyx"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/fits"
	"ffis/internal/hdf5"
	"ffis/internal/vfs"
)

// probeResult is one artifact-layer probe: time and heap allocations per
// operation.
type probeResult struct{ ns, allocs float64 }

// measure times fn in five batches sized to about 20 ms each and reports
// the median batch's time per operation and the mean allocations per
// operation. perCall divides both when one call performs several
// operations.
func measure(perCall int, fn func() error) (probeResult, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return probeResult{}, err
	}
	iters := int(20*time.Millisecond/max(time.Since(start), time.Microsecond)) + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches := make([]float64, 5)
	for b := range batches {
		t := time.Now()
		for range iters {
			if err := fn(); err != nil {
				return probeResult{}, err
			}
		}
		batches[b] = float64(time.Since(t).Nanoseconds()) / float64(iters*perCall)
	}
	runtime.ReadMemStats(&after)
	ops := float64(len(batches) * iters * perCall)
	return probeResult{ns: median(batches), allocs: float64(after.Mallocs-before.Mallocs) / ops}, nil
}

// appendChunks is how many 2880-byte FITS records the append probe writes:
// enough to grow the file past two 64 KiB MemFS blocks.
const appendChunks = 46

// runProbes times the artifact layers by calling their public functions
// on golden artifacts the engine produces.
func runProbes(seed uint64) (map[string]probeResult, error) {
	spec := func(cell string) (core.CampaignSpec, error) {
		return experiments.WireSpec{Cell: cell, Model: "bit-flip", Runs: 1, Seed: seed}.CampaignSpec()
	}
	mt4, err := spec("MT4")
	if err != nil {
		return nil, err
	}
	nyxSpec, err := spec("nyx")
	if err != nil {
		return nil, err
	}
	e := &core.Engine{Jobs: 1}
	mosaicDir, err := e.GoldenSnapshot(mt4, montage.MosaicDir)
	if err != nil {
		return nil, err
	}
	pltDir, err := e.GoldenSnapshot(nyxSpec, "/plt00000")
	if err != nil {
		return nil, err
	}
	mosaic, plotfile := mosaicDir[montage.MosaicPath], pltDir[nyx.OutputPath]
	if mosaic == nil || plotfile == nil {
		return nil, fmt.Errorf("probes: golden snapshot lacks %s or %s", montage.MosaicPath, nyx.OutputPath)
	}
	img, err := fits.Decode(mosaic)
	if err != nil {
		return nil, err
	}
	world := vfs.NewMemFS()
	if err := mt4.Workload.Setup(world); err != nil {
		return nil, err
	}
	chunk := make([]byte, 2880)

	probes := []struct {
		name    string
		perCall int
		fn      func() error
	}{
		{"fits.encode", 1, func() error { img.Encode(); return nil }},
		{"fits.decode", 1, func() error { _, err := fits.Decode(mosaic); return err }},
		{"hdf5.read", 1, func() error {
			f, err := hdf5.Parse(plotfile)
			if err != nil {
				return err
			}
			ds, err := f.Dataset(nyx.DatasetName)
			if err != nil {
				return err
			}
			_, err = f.ReadValues(ds)
			return err
		}},
		{"vfs.append2880", appendChunks, func() error {
			f, err := vfs.NewMemFS().Create("/mosaic.fits")
			if err != nil {
				return err
			}
			for range appendChunks {
				if _, err := f.Write(chunk); err != nil {
					return err
				}
			}
			return f.Close()
		}},
		{"core.clone_world", 1, func() error { world.Clone(); return nil }},
	}
	out := map[string]probeResult{}
	for _, p := range probes {
		r, err := measure(p.perCall, p.fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name] = r
	}
	return out, nil
}
