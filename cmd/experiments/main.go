// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all -runs 1000            # everything, paper scale
//	experiments -table 3                   # just the metadata campaign
//	experiments -fig 7 -runs 200           # the characterization, reduced
//	experiments -fig 5 -outdir ./artifacts # writes PGM visualizations
//	experiments -tiered -runs 200          # fault placement across storage tiers
//	experiments -tiered -backend mem -backend object -backend latency
//	                                       # ...swept across storage backends too
//	experiments -readwrite -runs 200       # read-path vs write-path fault families
//	experiments -fig 7 -jobs 8 -progress   # 8-wide engine pool, streamed progress
//
// Campaign grids (-fig 7, -ablation, -detector-study, -tiered, -readwrite)
// run on the campaign engine: each cell's Setup executes once and every
// injection run gets a copy-on-write clone of that snapshot, with all cells
// drawing from one bounded worker pool (-jobs).
//
// The flags shared with cmd/ffis, the results store
// (-out/-resume/-shard/-merge/-report) included, come from internal/cli:
//
//	experiments -fig 7 -runs 1000 -out ./fig7
//	experiments -fig 7 -runs 1000 -out ./fig7 -resume   # after a crash
//	experiments -out ./fig7 -report markdown
//	experiments -merge ./s0 -merge ./s1 -out ./fig7
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ffis/internal/cli"
	"ffis/internal/core"
	"ffis/internal/experiments"
)

func main() {
	shared := cli.Register("experiments", flag.CommandLine)
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-4)")
		fig      = flag.Int("fig", 0, "regenerate one figure (5-9)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		stride   = flag.Int("meta-stride", 1, "Table III byte stride (1 = exhaustive)")
		ablation = flag.Bool("ablation", false, "run the design-choice ablation sweeps")
		detector = flag.Bool("detector-study", false, "run the Nyx with/without average-value comparison")
		tiered   = flag.Bool("tiered", false, "run the tiered-storage placement sweep (fault tier vs clean tiers)")
		rw       = flag.Bool("readwrite", false, "run the read-path vs write-path fault grid over every registered model")
		model    = flag.String("model", "", "restrict the -tiered sweep to one fault model (name, short code, or alias; default: the Table I write family)")
		outdir   = flag.String("outdir", "", "directory for image artifacts (Figures 5 and 9)")
	)
	var backends cli.StringList
	flag.Var(&backends, "backend", "storage backend the -tiered sweep runs every placement under (repeatable: mem, object[:lag=N], latency[:bb|:pfs]; default mem)")
	flag.Parse()

	if shared.ListModels || strings.EqualFold(*model, "list") {
		fmt.Print(core.ModelTable())
		return
	}
	for _, b := range backends {
		shared.Check(cli.CampaignBackend(b))
	}
	served, err := shared.Serve(os.Stdout)
	shared.Check(err)
	if served {
		return
	}
	wantTable := func(n int) bool { return *all || *table == n }
	wantFig := func(n int) bool { return *all || *fig == n }
	if !*all && !*ablation && !*detector && !*tiered && !*rw &&
		(*table < 1 || *table > 4) && (*fig < 5 || *fig > 9) {
		flag.Usage()
		os.Exit(2)
	}
	o, err := shared.Start(experiments.Options{
		MetaStride: *stride,
		Backends:   backends,
	}, os.Stderr)
	shared.Check(err)

	saveImages := func(prefix string, images map[string][]byte) {
		if *outdir == "" {
			return
		}
		shared.Check(os.MkdirAll(*outdir, 0o755))
		for name, data := range images {
			p := filepath.Join(*outdir, fmt.Sprintf("%s_%s.pgm", prefix, name))
			shared.Check(os.WriteFile(p, data, 0o644))
			fmt.Printf("  wrote %s\n", p)
		}
	}

	if wantTable(1) {
		fmt.Println(experiments.Table1())
	}
	if wantTable(2) {
		fmt.Println(experiments.Table2())
	}
	if wantTable(3) {
		out, _, err := experiments.Table3(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if wantTable(4) {
		out, _, err := experiments.Table4(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if wantFig(5) {
		out, images, err := experiments.Fig5(o)
		shared.Check(err)
		fmt.Println(out)
		saveImages("fig5", images)
	}
	if wantFig(6) {
		out, err := experiments.Fig6(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if wantFig(7) {
		out, _, err := experiments.Fig7(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if wantFig(8) {
		out, err := experiments.Fig8(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if wantFig(9) {
		out, images, err := experiments.Fig9(o)
		shared.Check(err)
		fmt.Println(out)
		saveImages("fig9", images)
	}
	if *ablation || *all {
		out, err := experiments.Ablations(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if *detector || *all {
		out, err := experiments.Fig7WithDetector(o)
		shared.Check(err)
		fmt.Println(out)
	}
	if *tiered || *all {
		models := experiments.Fig7Models()
		if *model != "" {
			m, err := core.ParseModel(*model)
			shared.Check(err)
			models = []core.Model{m}
		}
		for _, m := range models {
			out, _, err := experiments.Tiered(nil, m, o)
			shared.Check(err)
			fmt.Println(out)
		}
	}
	if *rw || *all {
		out, _, err := experiments.ReadWriteGrid(o)
		shared.Check(err)
		fmt.Println(out)
	}
	shared.Finish()
}
